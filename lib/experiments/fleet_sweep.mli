(** Fleet-scale random-model sweeps ([mapqn fleet]).

    The paper's full Table 1 (10,000 random models) and beyond-paper
    configurations (4-5 queues, populations to 1000) at fleet speed:
    per-model {!Mapqn_core.Bounds.Sweep}s sharded across a
    {!Mapqn_fleet} domain pool, with the exact-CTMC comparison an
    opt-in for small populations ([exact_upto]) since exact solves —
    not the LP bounds — are what make paper-scale grids infeasible.

    Determinism, checkpointing and per-model seeds follow
    {!Table1.run}: models are generated sequentially from [seed], each
    model evaluates under a run context seeded with
    [Fleet.task_seed ~seed index], and the run ledger's per-model
    ["done"] records are the resume checkpoint. *)

type options = {
  spec : Mapqn_workloads.Random_models.spec;
  models : int;  (** paper scale: 10_000 *)
  populations : int list;  (** paper: 1..100; beyond-paper: up to 1000 *)
  config : Mapqn_core.Constraints.config;
  seed : int;
  jobs : int;  (** worker domains (1 = sequential, same results) *)
  exact_upto : int;
      (** also solve the exact CTMC and track bound errors for
          populations [<= exact_upto]; [0] disables (bounds only) *)
  accept_uncertified : bool;
      (** let a model whose rescue ladder is exhausted keep its best
          uncertified bounds instead of failing — its row is flagged
          ([uncertified]) and its ledger ["done"] record is stamped so a
          resumed run retries it. Default [false]: an exhausted ladder
          fails the model. *)
}

val default_options : options
(** 100 models, populations [1;2;4;8;16;32;64;100], [full] constraints,
    seed 2008, 1 job, no exact comparison, uncertified results fail. *)

type model_row = {
  index : int;
  id : string;  (** ["model-NNNNN"] *)
  model_seed : int;  (** the task's derived seed *)
  fingerprint : string;
  bounds : (int * Mapqn_core.Bounds.interval) list;
      (** response-time bounds per population, grid order *)
  rescues : (int * Mapqn_obs.Health.rescue) list;
      (** populations whose evaluation engaged the certificate rescue
          ladder (or whose post-solve refinement corrected a
          certificate-threatening residual), with the deepest rung
          engaged; grid order *)
  uncertified : int;
      (** populations whose result was accepted without a passing
          certificate (only with [accept_uncertified]) *)
  max_err_lower : float;  (** vs exact over [N <= exact_upto]; NaN if none *)
  max_err_upper : float;
  bracket_violations : int;
  duration_s : float;
}

type t = {
  options : options;
  rows : model_row list;  (** evaluated models, index order *)
  skipped : int;
  failed : (string * exn) list;
      (** (model id, error) per failed model, index order. A failure —
          typically an LP certificate beyond tolerance on a numerically
          hard random model — does not abort the fleet; the model records
          no ledger ["done"], so a resumed run retries exactly it. *)
  wall_s : float;
  width_stats : float * float * float * float;
      (** (mean, std, median, max) of the relative response-time bound
          width at the largest population *)
  rmax_stats : float * float * float * float;
  rmin_stats : float * float * float * float;
}

val model_id : int -> string

val run :
  ?options:options ->
  ?progress:Mapqn_obs.Progress.t ->
  ?skip:(string -> bool) ->
  ?sink:(model_row -> unit) ->
  unit ->
  t
(** Evaluate the fleet. [sink] receives each row on the worker domain
    that produced it, as soon as it completes — stream large runs to
    disk instead of accumulating; the callback must be thread-safe.
    [skip]/[progress] as in {!Table1.run}. Per-model failures land in
    [failed] rather than aborting the run (unlike {!Table1.run}, which
    raises: its statistics are meaningless on a partial model set). *)

val row_to_json : model_row -> Mapqn_obs.Json.t
(** The row as one self-describing JSONL object (the CLI's [--out]
    format). *)

val print : t -> unit
