(** Revised simplex with a sparse constraint matrix and an eta-file basis.

    The production LP backend. Where {!Simplex} expands the constraints
    into a dense [m × n] tableau and touches all of it on every pivot,
    this solver stores the standard-form matrix once in CSR (column-major
    through {!Std_form.cols}) and maintains only the basis inverse as a
    product of eta matrices:

    - pricing computes reduced costs [d_j = c_j − y·A_j] against the
      sparse columns ({!Mapqn_sparse.Csr.dot_row});
    - FTRAN/BTRAN apply the eta file in O(eta nonzeros);
    - the file is periodically rebuilt from identity (refactorization) to
      bound its growth and wash out roundoff.

    Per-pivot work is O(nnz(A) + eta nonzeros) instead of O(m·n), and
    memory O(nnz) instead of O(m·n) — the difference between solving the
    marginal-balance LPs at population 500 in milliseconds and not fitting
    their tableau in memory at all.

    The prepared state is mutable and supports {b warm starts}: each
    {!optimize} reoptimizes from the basis left by the previous call,
    which for the closely-related objectives of a bound sweep typically
    needs a handful of pivots instead of a full phase 2. The
    anti-degeneracy perturbation is fixed at {!prepare} time so every
    basis reached remains primal-feasible for every later objective.

    Directions, outcomes and preparation errors are shared with
    {!Simplex}, so callers can switch backends without translation. *)

type t
(** A prepared (phase-1 feasible) solver state for one model. Mutable:
    {!optimize} moves the basis. *)

val prepare :
  ?max_iter:int ->
  ?pert_scale:float ->
  ?salt:int ->
  Lp_model.t ->
  (t, Simplex.prepare_error) result
(** Run phase 1. Default [max_iter] is [50_000 + 50 * (rows + vars)].

    [pert_scale] (default [1.]) multiplies the anti-degeneracy
    perturbation globally, on top of the built-in per-row scaling (row
    coefficient norm × a sqrt(rows) size factor) — the certificate
    rescue ladder re-prepares at tighter scales. [salt] (default [0])
    is the base of the perturbation-retry ladder: a nonzero base draws
    an entirely different perturbation, so a cold re-solve explores a
    genuinely different degenerate trajectory. *)

val pert_scale : t -> float
(** The [pert_scale] this state was prepared with. *)

val optimize :
  ?max_iter:int ->
  t ->
  Simplex.direction ->
  (Lp_model.var * float) list ->
  Simplex.outcome
(** Run phase 2 for one objective, warm-starting from the basis of the
    previous call (or the phase-1 basis on the first call). The final
    basis is kept for the next objective. *)

val reset : t -> unit
(** Forget warm-start state: restore the phase-1 basis. The next
    {!optimize} prices from scratch. *)

(** {1 Cross-model warm starts}

    A population sweep solves a chain of closely related models: the
    constraint matrix at population [N+1] extends the one at [N]. The
    final basis of one model, described in model terms (variables and row
    names rather than raw column indices), seeds phase 1 of the next:
    {!prepare_seeded} maps the seed onto the new standard form, restores
    primal feasibility with a bounded dual-simplex-style repair, and
    falls back to a cold {!prepare} whenever the seed does not take. *)

(** One basic column, in model terms: a model variable (by index into the
    NEW model — the caller translates structural roles between models) or
    the slack of a model row (by row index in the new model). *)
type seed = Seed_var of int | Seed_slack of int

val basis_seeds : ?phase1:bool -> t -> seed list
(** The current basis as seeds in this model's own terms (variable
    indices and row indices of the model [t] was prepared for).
    Artificial columns are omitted. [~phase1:true] reads the feasible
    basis recorded at the end of phase 1 instead of the current one.
    (Measured on the Figure-4 sweep: the default — the optimum of the
    last-priced objective — seeds the next population reliably, while
    the phase-1 vertex tends not to take and falls back cold; it is
    kept for experimentation.) *)

val prepare_seeded :
  ?max_iter:int ->
  ?pert_scale:float ->
  seeds:seed list ->
  Lp_model.t ->
  (t * bool, Simplex.prepare_error) result
(** Phase 1 warm-started from a seed basis (already translated into the
    new model's terms). The returned flag is [true] when the seed was
    used and [false] when the preparation fell back to a cold phase 1
    (empty seed, failed feasibility restoration, residual artificial
    mass). Either way the result satisfies exactly the invariants of
    {!prepare} — callers cannot observe the difference except through
    timing and {!stats}. *)

(** {1 Introspection and reinversion tuning} *)

type stats = {
  refactorizations : int;  (** basis refactorizations over this state's life *)
  pivots : int;  (** simplex pivots over this state's life *)
  eta_nnz : int;  (** current eta-file nonzeros *)
  solves : int;  (** phase-2 optimizations since the last {!reset} *)
  refactor_stability : int;
      (** reinversions forced by the small-pivot stability trigger *)
  refactor_growth : int;  (** reinversions from eta-file growth *)
  refactor_drift : int;  (** reinversions from sampled eta-chain drift *)
  refactor_backstop : int;  (** reinversions from the pivot-count backstop *)
}

val stats : t -> stats

val force_refactor : t -> unit
(** Rebuild the eta file of the current basis immediately. The
    represented basis (and therefore every subsequent solution) is
    unchanged — exposed so tests can check that incremental eta updates
    and a fresh factorization agree. *)

val factor_residual : t -> float
(** Accuracy of the current eta file as a representation of [B⁻¹]: the
    largest [‖B·FTRAN(e_i) − e_i‖∞] and [‖Bᵀ·BTRAN(e_i) − e_i‖∞] over
    all unit vectors [e_i]. O(m) solves — a diagnostic for tests, not
    for the solve path. *)

val set_reinversion :
  ?growth_limit:float ->
  ?drift_tol:float ->
  ?check_interval:int ->
  ?pivot_backstop:int ->
  t ->
  unit
(** Tune the adaptive reinversion policy. [growth_limit] (default 4.0)
    refactorizes when the eta file exceeds that multiple of the last
    factorization's size; [drift_tol] (default 1e-6) bounds the
    divergence between incrementally updated basic values and a fresh
    FTRAN of the right-hand side, checked every [check_interval]
    (default 128) pivots; [pivot_backstop] (default 5000) is a hard cap
    on pivots between refactorizations. Lowering [drift_tol] to [0.]
    forces a refactorization at every check — the stability-trigger
    test hook. *)

val solve :
  ?max_iter:int ->
  Lp_model.t ->
  Simplex.direction ->
  (Lp_model.var * float) list ->
  Simplex.outcome
(** One-shot [prepare] + [optimize]. *)
