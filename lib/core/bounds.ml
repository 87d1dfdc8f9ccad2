module Ms = Marginal_space
module Lp = Mapqn_lp.Lp_model
module Simplex = Mapqn_lp.Simplex
module Revised = Mapqn_lp.Revised
module Certificate = Mapqn_lp.Certificate
module Trace = Mapqn_obs.Trace
module Health = Mapqn_obs.Health
module Ledger = Mapqn_obs.Ledger
module Json = Mapqn_obs.Json

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error =
  | Unsupported_network of string
  | Infeasible_phase1
  | Iteration_limit of int
  | Invalid_station of int
  | Invalid_objective of string
  | Certificate_failure of Certificate.failure

let error_to_string = function
  | Unsupported_network what -> what ^ " is not supported by the bound analysis"
  | Infeasible_phase1 ->
    "marginal-balance LP is infeasible — this indicates a constraint \
     generation bug, since the exact solution is always feasible"
  | Iteration_limit k -> Printf.sprintf "simplex iteration limit (%d pivots)" k
  | Invalid_station k -> Printf.sprintf "station index %d is out of range" k
  | Invalid_objective what -> "invalid objective: " ^ what
  | Certificate_failure f -> Certificate.failure_to_string f

exception Solver_error of error

let () =
  Printexc.register_printer (function
    | Solver_error e -> Some ("Bounds.Solver_error: " ^ error_to_string e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

type interval = { lower : float; upper : float }

(* The interval arithmetic must survive infinite endpoints: response-time
   bounds are [infinity] whenever the LP throughput lower bound is 0
   (which is common — weak constraint configs cannot exclude starvation),
   and naive float arithmetic turns those into NaN ([inf - inf],
   [0.5 * (-inf + inf)], [1e-7 * inf] tolerances). *)

let width i = if i.lower = i.upper then 0. else i.upper -. i.lower

let midpoint i =
  if i.lower = i.upper then i.lower
  else if i.lower = neg_infinity && i.upper = infinity then 0.
  else 0.5 *. (i.lower +. i.upper)

let contains i x =
  let finite_mag v = if Float.is_finite v then Float.abs v else 0. in
  let tol =
    1e-7 *. Float.max 1. (Float.max (finite_mag i.lower) (finite_mag i.upper))
  in
  x >= i.lower -. tol && x <= i.upper +. tol

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

type solver = Dense | Revised

type backend = B_dense of Simplex.prepared | B_revised of Revised.t

(* Certificate rescue policy. On a certificate failure the solve
   escalates through a ladder of increasingly drastic retries (refine →
   reperturb tighter → cold re-solve → dense-tableau oracle);
   [max_rung] caps how far it may climb and [accept_uncertified] turns
   an exhausted ladder into a recorded [Health.Uncertified] outcome
   instead of a raised [Certificate_failure]. *)
type rescue_policy = { max_rung : int; accept_uncertified : bool }

let default_rescue = { max_rung = 4; accept_uncertified = false }

type t = {
  network : Mapqn_model.Network.t;
  ms : Ms.t;
  model : Lp.t;
  mutable backend : backend;
      (* the rescue ladder swaps in the re-prepared state that produced
         the accepted result, so later objectives benefit from it *)
  config : Constraints.config;
  max_iter : int option;
  rescue : rescue_policy;
  (* Work counters of backends the rescue ladder retired, so
     [work_snapshot] deltas stay monotone across a swap. *)
  mutable retired_pivots : int;
  mutable retired_refactors : int;
  mutable retired_stability : int;
  mutable retired_growth : int;
  mutable retired_drift : int;
  mutable retired_backstop : int;
}

let default_solver = Revised

let m_rescues =
  Mapqn_obs.Metrics.counter
    ~help:"Certificate or phase-1 failures that entered the rescue ladder."
    "bounds_rescue_attempts_total"

(* The dense oracle materializes an m×n tableau; past ~2e6 cells the
   memory and per-pivot cost stop being a rescue and start being a
   hang, and the big-population LPs it would cover are not where the
   hard models live anyway. *)
let dense_rescue_cells = 2_000_000

(* Phase-1 rescue. [Revised.prepare] reporting the LP infeasible (or
   hitting its phase-1 iteration cap) is always numerics on these
   models — the exact aggregated solution is feasible by construction —
   so a failed prepare climbs the same ladder as a failed certificate,
   minus the refine rung (there is no optimal basis to refine): a 100×
   tighter reperturbation, a cold re-solve at a shifted salt base, then
   the dense tableau as an independent oracle. The winning rung is
   recorded as the solve's {!Health.rescue} cause. *)
let rescue_prepare ~policy ?max_iter model err =
  Mapqn_obs.Metrics.inc m_rescues;
  let attempt depth rung prepare =
    if depth > policy.max_rung then None
    else
      match prepare () with
      | Ok p ->
        Health.observe_rescue rung;
        Some p
      | Error _ -> None
  in
  let reperturbed () =
    attempt 2 Health.Reperturbed (fun () ->
        Result.map
          (fun p -> B_revised p)
          (Revised.prepare ?max_iter ~pert_scale:0.01 ~salt:0 model))
  and cold_resolve () =
    attempt 3 Health.Cold_resolve (fun () ->
        Result.map
          (fun p -> B_revised p)
          (Revised.prepare ?max_iter ~pert_scale:0.1 ~salt:7 model))
  and dense_oracle () =
    if Lp.num_vars model * Lp.num_rows model > dense_rescue_cells then None
    else
      attempt 4 Health.Dense_oracle (fun () ->
          Result.map (fun p -> B_dense p) (Simplex.prepare ?max_iter model))
  in
  let rescued =
    Mapqn_obs.Span.with_ "bounds.rescue" (fun () ->
        match reperturbed () with
        | Some _ as r -> r
        | None -> (
          match cold_resolve () with
          | Some _ as r -> r
          | None -> dense_oracle ()))
  in
  match rescued with Some b -> Ok b | None -> Error err

let create ?(solver = default_solver) ?(config = Constraints.standard) ?max_iter
    ?(rescue = default_rescue) network =
  Mapqn_obs.Span.with_ "bounds.create" @@ fun () ->
  if Mapqn_model.Network.has_delay network then
    Error (Unsupported_network "a delay (infinite-server) station")
  else begin
    let ms, model = Constraints.build config network in
    let lift = function
      | Ok backend ->
        Ok
          {
            network;
            ms;
            model;
            backend;
            config;
            max_iter;
            rescue;
            retired_pivots = 0;
            retired_refactors = 0;
            retired_stability = 0;
            retired_growth = 0;
            retired_drift = 0;
            retired_backstop = 0;
          }
      | Error Simplex.Infeasible_phase1 -> Error Infeasible_phase1
      | Error (Simplex.Iteration_limit_phase1 k) -> Error (Iteration_limit k)
    in
    Mapqn_obs.Span.with_ "bounds.prepare" @@ fun () ->
    match solver with
    | Dense ->
      lift (Result.map (fun p -> B_dense p) (Simplex.prepare ?max_iter model))
    | Revised -> (
      match Revised.prepare ?max_iter model with
      | Ok p -> lift (Ok (B_revised p))
      | Error e -> lift (rescue_prepare ~policy:rescue ?max_iter model e))
  end

let create_exn ?solver ?config ?max_iter ?rescue network =
  match create ?solver ?config ?max_iter ?rescue network with
  | Ok t -> t
  | Error e -> raise (Solver_error e)

let network t = t.network
let space t = t.ms
let config t = t.config
let solver t = match t.backend with B_dense _ -> Dense | B_revised _ -> Revised
let lp_size t = (Lp.num_vars t.model, Lp.num_rows t.model)

(* ------------------------------------------------------------------ *)
(* Optimization over the prepared LP                                   *)
(* ------------------------------------------------------------------ *)

let m_objectives =
  Mapqn_obs.Metrics.counter ~help:"Bound objectives optimized over the prepared LP."
    "bounds_objectives_total"

let m_evals =
  Mapqn_obs.Metrics.counter
    ~help:"Batch metric evaluations (Bounds.eval calls, including the \
           one-metric convenience wrappers)."
    "bounds_evals_total"

let m_eval_seconds =
  Mapqn_obs.Metrics.histogram
    ~help:"Wall time of each Bounds.eval call (all requested metrics)."
    "bounds_eval_seconds"

(* ------------------------------------------------------------------ *)
(* Run-ledger provenance                                               *)
(* ------------------------------------------------------------------ *)

(* Deltas of the revised-solver work counters around one unit of
   ledger-recorded work (an eval or a sweep step). These come from the
   backend instance's own [Revised.stats] — NOT the process-wide
   metric counters — so a record's deltas stay correct when other
   domains are solving concurrently (a fleet run). Prepare-phase work
   (phase 1, seeded feasibility restoration) counts toward the step
   that performs it. *)
type work_snapshot = {
  ws_pivots : float;
  ws_refactors : float;
  ws_stability : float;
  ws_growth : float;
  ws_drift : float;
  ws_backstop : float;
}

let zero_work =
  {
    ws_pivots = 0.;
    ws_refactors = 0.;
    ws_stability = 0.;
    ws_growth = 0.;
    ws_drift = 0.;
    ws_backstop = 0.;
  }

let work_snapshot t =
  let cur =
    match t.backend with
    | B_dense _ -> zero_work
    | B_revised r ->
      let s = Revised.stats r in
      {
        ws_pivots = float_of_int s.Revised.pivots;
        ws_refactors = float_of_int s.Revised.refactorizations;
        ws_stability = float_of_int s.Revised.refactor_stability;
        ws_growth = float_of_int s.Revised.refactor_growth;
        ws_drift = float_of_int s.Revised.refactor_drift;
        ws_backstop = float_of_int s.Revised.refactor_backstop;
      }
  in
  {
    ws_pivots = cur.ws_pivots +. float_of_int t.retired_pivots;
    ws_refactors = cur.ws_refactors +. float_of_int t.retired_refactors;
    ws_stability = cur.ws_stability +. float_of_int t.retired_stability;
    ws_growth = cur.ws_growth +. float_of_int t.retired_growth;
    ws_drift = cur.ws_drift +. float_of_int t.retired_drift;
    ws_backstop = cur.ws_backstop +. float_of_int t.retired_backstop;
  }

(* Retire the current backend's work into the running totals and swap in
   the replacement the rescue ladder prepared. *)
let swap_backend t backend =
  (match t.backend with
  | B_dense _ -> ()
  | B_revised r ->
    let s = Revised.stats r in
    t.retired_pivots <- t.retired_pivots + s.Revised.pivots;
    t.retired_refactors <- t.retired_refactors + s.Revised.refactorizations;
    t.retired_stability <- t.retired_stability + s.Revised.refactor_stability;
    t.retired_growth <- t.retired_growth + s.Revised.refactor_growth;
    t.retired_drift <- t.retired_drift + s.Revised.refactor_drift;
    t.retired_backstop <- t.retired_backstop + s.Revised.refactor_backstop);
  t.backend <- backend

let solver_name t =
  match t.backend with B_dense _ -> "dense" | B_revised _ -> "revised"

(* The common tail of an "eval" / "sweep_step" ledger record: model
   fingerprint, LP size, solver work deltas by refactorization cause,
   the certificate residual triple (with the tolerances it was judged
   against) and the numerical-health snapshot of this unit of work. *)
let ledger_fields t ~duration ~before =
  let after = work_snapshot t in
  let h = Health.current () in
  let nvars, nrows = lp_size t in
  let num v = Json.Number v in
  [
    ("fingerprint", Json.String (Mapqn_model.Network.fingerprint t.network));
    ( "population",
      num (float_of_int (Mapqn_model.Network.population t.network)) );
    ("solver", Json.String (solver_name t));
    ("lp_vars", num (float_of_int nvars));
    ("lp_rows", num (float_of_int nrows));
    ("duration_s", num duration);
    ("pivots", num (after.ws_pivots -. before.ws_pivots));
    ("refactorizations", num (after.ws_refactors -. before.ws_refactors));
    ( "refactor_causes",
      Json.Object
        [
          ("stability", num (after.ws_stability -. before.ws_stability));
          ("growth", num (after.ws_growth -. before.ws_growth));
          ("drift", num (after.ws_drift -. before.ws_drift));
          ("backstop", num (after.ws_backstop -. before.ws_backstop));
        ] );
    ( "certificate",
      Json.Object
        [
          ("primal_residual", num h.Health.cert_primal);
          ("dual_violation", num h.Health.cert_dual);
          ("comp_slack", num h.Health.cert_comp);
          ("failures", num (float_of_int h.Health.cert_failures));
          ("tol_primal", num Certificate.default_tol_primal);
          ("tol_dual", num Certificate.default_tol_dual);
          ("tol_comp", num Certificate.default_tol_comp);
        ] );
    ("health", Health.to_json h);
  ]

let backend_optimize t direction objective =
  match t.backend with
  | B_dense p -> Simplex.optimize ?max_iter:t.max_iter p direction objective
  | B_revised p -> Revised.optimize ?max_iter:t.max_iter p direction objective

(* Optimality certificates for every solved objective. The direction
   label keeps the two endpoints of each interval distinguishable in
   metrics and traces. *)
let m_certificates =
  Mapqn_obs.Metrics.counter
    ~help:"LP optimality certificates computed (one per solved objective)."
    "bounds_certificates_total"

let m_certificate_failures =
  Mapqn_obs.Metrics.counter
    ~help:"LP optimality certificates that exceeded tolerance."
    "bounds_certificate_failures_total"

let m_cert_primal =
  Mapqn_obs.Metrics.gauge
    ~help:"Worst primal residual over the certificates of this run."
    "bounds_certificate_primal_residual"

let m_cert_dual =
  Mapqn_obs.Metrics.gauge
    ~help:"Worst dual-feasibility violation over the certificates of this run."
    "bounds_certificate_dual_violation"

let m_cert_comp =
  Mapqn_obs.Metrics.gauge
    ~help:"Worst complementary-slackness gap over the certificates of this run."
    "bounds_certificate_comp_slack"

(* One certificate check, with metrics and trace but no policy: returns
   the failure instead of raising so the rescue ladder can escalate. *)
let certify_check t direction objective s =
  let label =
    match direction with Simplex.Minimize -> "min" | Simplex.Maximize -> "max"
  in
  Mapqn_obs.Metrics.inc m_certificates;
  let outcome =
    Mapqn_obs.Span.with_ "bounds.certify" (fun () ->
        Certificate.check t.model direction ~objective s)
  in
  let cert =
    match outcome with
    | Ok c -> c
    | Error (f : Certificate.failure) -> f.Certificate.certificate
  in
  Mapqn_obs.Metrics.set_max m_cert_primal cert.Certificate.primal_residual;
  Mapqn_obs.Metrics.set_max m_cert_dual cert.Certificate.dual_violation;
  Mapqn_obs.Metrics.set_max m_cert_comp cert.Certificate.comp_slack;
  if Trace.is_enabled () then
    Trace.record
      (Trace.Certificate
         {
           label;
           primal_residual = cert.Certificate.primal_residual;
           dual_violation = cert.Certificate.dual_violation;
           comp_slack = cert.Certificate.comp_slack;
           accepted = Result.is_ok outcome;
         });
  Result.map (fun _ -> ()) outcome

(* ------------------------------------------------------------------ *)
(* Certificate rescue ladder                                           *)
(* ------------------------------------------------------------------ *)

(* Escalation on a failed certificate. Each rung re-derives the solution
   by a more drastic (and more expensive) route and re-certifies; the
   first passing rung wins and is recorded as a typed
   {!Health.rescue} outcome in the ledger. The ladder:

   1. [Refined]      — rebuild the factorization of the same basis and
                       re-optimize warm: washes out eta-file drift the
                       in-solve refinement could not correct through a
                       stale factorization.
   2. [Reperturbed]  — fresh prepare at a 100× tighter perturbation:
                       the witness tracks the true constraints 100×
                       closer, at some risk of degenerate cycling
                       (phase 1's salt-retry ladder covers that).
   3. [Cold_resolve] — fresh prepare at a different perturbation salt
                       base and a 10× tighter scale: an entirely
                       different degenerate trajectory, discarding all
                       warm-start state.
   4. [Dense_oracle] — the dense-tableau backend as an independent
                       oracle, gated by LP size (its tableau is m×n
                       dense where the revised solver is O(nnz)).

   Rungs 2-4 swap the state that produced the accepted result into
   [t.backend] (retiring the old state's work counters), so subsequent
   objectives on this model start from the healthier state instead of
   re-climbing the ladder. *)

let rescue t direction objective (f0 : Certificate.failure) =
  Mapqn_obs.Metrics.inc m_rescues;
  let reoptimize () = backend_optimize t direction objective in
  (* Run one rung: [solve ()] produces an outcome; a passing certificate
     on an optimal solution records the rung's rescue cause and returns
     the solution. [install] (for rungs that prepared a replacement
     state) runs only once the certificate has passed, so a failing
     rung leaves [t.backend] untouched. *)
  let attempt rung ?install solve =
    match solve () with
    | Simplex.Optimal s -> (
      match certify_check t direction objective s with
      | Ok () ->
        Option.iter (fun f -> f ()) install;
        Health.observe_rescue rung;
        Some s
      | Error _ -> None)
    | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit -> None
  in
  let rung_refine () =
    match t.backend with
    | B_dense _ -> None
    | B_revised r ->
      attempt Health.Refined (fun () ->
          Revised.force_refactor r;
          reoptimize ())
  in
  let rung_reprepare rung ~pert_scale ~salt () =
    match t.backend with
    | B_dense _ -> None
    | B_revised _ -> (
      match
        Revised.prepare ?max_iter:t.max_iter ~pert_scale ~salt t.model
      with
      | Error _ -> None
      | Ok p ->
        attempt rung
          ~install:(fun () -> swap_backend t (B_revised p))
          (fun () ->
            Revised.optimize ?max_iter:t.max_iter p direction objective))
  in
  let rung_dense () =
    let nvars, nrows = (Lp.num_vars t.model, Lp.num_rows t.model) in
    if nvars * nrows > dense_rescue_cells then None
    else
      match Simplex.prepare ?max_iter:t.max_iter t.model with
      | Error _ -> None
      | Ok p ->
        attempt Health.Dense_oracle
          ~install:(fun () ->
            match t.backend with
            | B_dense _ -> ()
            | B_revised _ -> swap_backend t (B_dense p))
          (fun () -> Simplex.optimize ?max_iter:t.max_iter p direction objective)
  in
  let scale = match t.backend with
    | B_revised r -> Revised.pert_scale r
    | B_dense _ -> 1.
  in
  let rungs =
    [
      (1, rung_refine);
      (2, rung_reprepare Health.Reperturbed ~pert_scale:(scale *. 0.01) ~salt:0);
      (3, rung_reprepare Health.Cold_resolve ~pert_scale:(scale *. 0.1) ~salt:7);
      (4, rung_dense);
    ]
  in
  let rec climb = function
    | [] ->
      if t.rescue.accept_uncertified then begin
        Health.observe_rescue Health.Uncertified;
        None
      end
      else begin
        Mapqn_obs.Metrics.inc m_certificate_failures;
        raise (Solver_error (Certificate_failure f0))
      end
    | (depth, rung) :: rest ->
      if depth > t.rescue.max_rung then climb []
      else (
        match rung () with Some s -> Some s | None -> climb rest)
  in
  Mapqn_obs.Span.with_ "bounds.rescue" (fun () -> climb rungs)

let optimize t direction objective =
  Mapqn_obs.Metrics.inc m_objectives;
  Mapqn_obs.Span.with_ "bounds.optimize" @@ fun () ->
  let objective =
    List.map (fun (i, c) -> (Lp.var_of_int t.model i, c)) objective
  in
  match backend_optimize t direction objective with
  | Simplex.Optimal s -> (
    match certify_check t direction objective s with
    | Ok () -> s.Simplex.objective
    | Error f -> (
      match rescue t direction objective f with
      | Some s' -> s'.Simplex.objective
      | None ->
        (* Ladder exhausted under [accept_uncertified]: the original
           point is still the best available near-optimal solution —
           report it, with the Uncertified outcome in the ledger. *)
        s.Simplex.objective))
  | Simplex.Infeasible -> failwith "Bounds: phase-2 infeasibility (bug)"
  | Simplex.Unbounded ->
    failwith "Bounds: unbounded objective (missing normalization constraint?)"
  | Simplex.Iteration_limit ->
    raise
      (Solver_error
         (Iteration_limit (Option.value t.max_iter ~default:(-1))))

let sensitivity ?(top = 10) t direction objective =
  let objective =
    List.map (fun (i, c) -> (Lp.var_of_int t.model i, c)) objective
  in
  match backend_optimize t direction objective with
  | Simplex.Optimal s ->
    let names =
      Array.of_list (List.map (fun (_, _, _, name) -> name) (Lp.rows t.model))
    in
    let pairs = ref [] in
    Array.iteri
      (fun i d -> if Float.abs d > 1e-9 then pairs := (names.(i), d) :: !pairs)
      s.Simplex.duals;
    let sorted =
      List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a)) !pairs
    in
    List.filteri (fun i _ -> i < top) sorted
  | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit -> []

let custom t objective =
  let lower = optimize t Simplex.Minimize objective in
  let upper = optimize t Simplex.Maximize objective in
  (* The simplex solves a slightly perturbed problem (anti-degeneracy) and
     stops at loose reduced-cost tolerances, so each optimum can sit a few
     parts in 1e6 inside the true one. Widen by a conservative margin so
     the returned interval is always a valid bound; the margin is orders
     of magnitude below the accuracy being studied. *)
  let margin v = 1e-5 *. Float.max 1. (Float.abs v) in
  let lower = lower -. margin lower and upper = upper +. margin upper in
  { lower = Float.min lower upper; upper = Float.max lower upper }

let clamp_interval ~lo ~hi i =
  { lower = Mapqn_util.Tol.clamp ~lo ~hi i.lower; upper = Mapqn_util.Tol.clamp ~lo ~hi i.upper }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric =
  | Throughput of int
  | Utilization of int
  | Mean_queue_length of int
  | Queue_length_moment of int * int
  | Marginal_probability of { station : int; level : int }
  | Response_time of { reference : int }

let metric_to_string = function
  | Throughput k -> Printf.sprintf "throughput(%d)" k
  | Utilization k -> Printf.sprintf "utilization(%d)" k
  | Mean_queue_length k -> Printf.sprintf "mean_queue_length(%d)" k
  | Queue_length_moment (k, r) -> Printf.sprintf "queue_length_moment(%d, %d)" k r
  | Marginal_probability { station; level } ->
    Printf.sprintf "marginal_probability(%d, n=%d)" station level
  | Response_time { reference } -> Printf.sprintf "response_time(ref=%d)" reference

let check_station t k =
  if k < 0 || k >= Ms.num_stations t.ms then raise (Solver_error (Invalid_station k))

let validate_metric t = function
  | Throughput k | Utilization k | Mean_queue_length k
  | Response_time { reference = k } ->
    check_station t k
  | Queue_length_moment (k, r) ->
    check_station t k;
    if r < 0 then
      raise
        (Solver_error
           (Invalid_objective
              (Printf.sprintf "queue-length moment of negative order %d" r)))
  | Marginal_probability { station; level } ->
    check_station t station;
    if level < 0 || level > Ms.population t.ms then
      raise
        (Solver_error
           (Invalid_objective
              (Printf.sprintf "queue-length level %d outside [0, %d]" level
                 (Ms.population t.ms))))

(* The LP objective of a directly-representable metric, or [None] when the
   metric is identically zero (empty population edge cases). *)
let metric_terms t = function
  | Response_time _ -> assert false (* derived, handled in eval_one *)
  | Throughput k ->
    let rates =
      Mapqn_map.Process.completion_rates
        (Mapqn_model.Station.service_process
           (Mapqn_model.Network.station t.network k))
    in
    let terms = ref [] in
    for n = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          let rate = rates.(Ms.phase_component t.ms h k) in
          if rate <> 0. then
            terms := (Ms.v t.ms ~station:k ~level:n ~phase:h, rate) :: !terms)
    done;
    !terms
  | Utilization k ->
    let terms = ref [] in
    for level = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          terms := (Ms.v t.ms ~station:k ~level ~phase:h, 1.) :: !terms)
    done;
    !terms
  | Mean_queue_length k ->
    let terms = ref [] in
    for level = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          terms := (Ms.v t.ms ~station:k ~level ~phase:h, float_of_int level) :: !terms)
    done;
    !terms
  | Queue_length_moment (k, r) ->
    let terms = ref [] in
    for level = 1 to Ms.population t.ms do
      Ms.iter_phases t.ms (fun h ->
          terms :=
            (Ms.v t.ms ~station:k ~level ~phase:h,
             float_of_int level ** float_of_int r)
            :: !terms)
    done;
    !terms
  | Marginal_probability { station; level } ->
    let terms = ref [] in
    Ms.iter_phases t.ms (fun h ->
        terms := (Ms.v t.ms ~station ~level ~phase:h, 1.) :: !terms);
    !terms

let metric_clamp t = function
  | Throughput _ | Response_time _ -> None
  | Utilization _ | Marginal_probability _ -> Some (0., 1.)
  | Mean_queue_length _ ->
    Some (0., float_of_int (Ms.population t.ms))
  | Queue_length_moment (_, r) ->
    Some (0., float_of_int (Ms.population t.ms) ** float_of_int r)

(* [recurse] resolves the metrics a derived metric is built from —
   {!eval} passes a memoizing closure so e.g. a report containing both
   [Throughput k] and [Response_time {reference = k}] solves the
   underlying throughput LPs once. *)
let eval_core t recurse metric =
  validate_metric t metric;
  match metric with
  | Response_time { reference } ->
    (* Little's law, exactly the paper's derivation: R = N / X_ref, so
       R_min = N / X_max and R_max = N / X_min; an LP throughput lower
       bound of 0 yields an infinite upper response-time bound. *)
    let n = float_of_int (Ms.population t.ms) in
    if n = 0. then { lower = 0.; upper = 0. }
    else begin
      let x = recurse (Throughput reference) in
      let upper = if x.lower <= 0. then infinity else n /. x.lower in
      let lower = if x.upper <= 0. then infinity else n /. x.upper in
      { lower; upper }
    end
  | m -> (
    match metric_terms t m with
    | [] -> { lower = 0.; upper = 0. }
    | terms -> (
      let i = custom t terms in
      match metric_clamp t m with
      | None -> i
      | Some (lo, hi) -> clamp_interval ~lo ~hi i))

let eval t metrics =
  Mapqn_obs.Metrics.inc m_evals;
  Mapqn_obs.Span.with_ "bounds.eval" @@ fun () ->
  Health.begin_solve ();
  let before = work_snapshot t in
  let t0 = Mapqn_obs.Span.now () in
  let memo = Hashtbl.create 8 in
  let rec cached m =
    match Hashtbl.find_opt memo m with
    | Some i -> i
    | None ->
      let i = eval_core t cached m in
      Hashtbl.replace memo m i;
      i
  in
  let results = List.map (fun m -> (m, cached m)) metrics in
  let duration = Mapqn_obs.Span.now () -. t0 in
  Mapqn_obs.Metrics.observe m_eval_seconds duration;
  if Ledger.is_enabled () then
    Ledger.record ~event:"eval"
      (ledger_fields t ~duration ~before
      @ [
          ( "metrics",
            Json.List
              (List.map
                 (fun (m, i) ->
                   Json.Object
                     [
                       ("name", Json.String (metric_to_string m));
                       ("lower", Json.Number i.lower);
                       ("upper", Json.Number i.upper);
                     ])
                 results) );
        ]);
  results

(* Convenience wrappers: exactly one-element [eval] calls, so per-metric
   and batch queries go through the identical code path (and, on the
   revised backend, the identical warm-started pivot sequence). *)

let interval_of_eval t metric =
  match eval t [ metric ] with [ (_, i) ] -> i | _ -> assert false

let throughput t k = interval_of_eval t (Throughput k)
let utilization t k = interval_of_eval t (Utilization k)
let mean_queue_length t k = interval_of_eval t (Mean_queue_length k)
let queue_length_moment t k r = interval_of_eval t (Queue_length_moment (k, r))

let marginal_probability t ~station ~level =
  interval_of_eval t (Marginal_probability { station; level })

let response_time ?(reference = 0) t =
  interval_of_eval t (Response_time { reference })

(* ------------------------------------------------------------------ *)
(* Population sweeps                                                   *)
(* ------------------------------------------------------------------ *)

(* Translate a basis described in one population's terms into another's:
   variables by structural role (station, level and phase survive the
   move; levels beyond the new population are dropped), row slacks by
   row name (names are population-stable except at the moved
   boundary). *)
let translate_seeds ~from_ms ~from_model ~to_ms ~to_model seeds =
  let row_index = Hashtbl.create 4096 in
  for r = 0 to Lp.num_rows to_model - 1 do
    Hashtbl.replace row_index (Lp.row_name to_model r) r
  done;
  let n' = Ms.population to_ms in
  let reinstate = function
    | Ms.Role_v { station; level; phase } when level <= n' ->
      Some (Ms.v to_ms ~station ~level ~phase)
    | Ms.Role_w { busy; station; level; phase } when level <= n' ->
      Some (Ms.w to_ms ~busy ~station ~level ~phase)
    | Ms.Role_z { counted; station; level; phase }
      when level <= n' && Ms.has_level2 to_ms ->
      Some (Ms.z to_ms ~counted ~station ~level ~phase)
    | Ms.Role_v _ | Ms.Role_w _ | Ms.Role_z _ -> None
  in
  List.filter_map
    (function
      | Revised.Seed_var i ->
        Option.map
          (fun j -> Revised.Seed_var j)
          (reinstate (Ms.classify from_ms i))
      | Revised.Seed_slack r ->
        Option.map
          (fun r' -> Revised.Seed_slack r')
          (Hashtbl.find_opt row_index (Lp.row_name from_model r)))
    seeds

(* Basic columns for the part of the model the previous basis says
   nothing about — the levels above the old population. Each new balance
   row bal[k,n,h] gets its own v_k(n,h) (the row's diagonal-dominant OUT
   term), and the moved boundary rows (w, z fixed to zero at the new top
   level) get the variable those rows constrain. Rows this still leaves
   uncovered fall back to slacks or artificials inside
   [Revised.prepare_seeded]. *)
let extension_seeds ~from_n to_ms =
  let n' = Ms.population to_ms in
  let m = Ms.num_stations to_ms in
  let seeds = ref [] in
  if n' > from_n then begin
    for n = n' downto from_n + 1 do
      for k = m - 1 downto 0 do
        Ms.iter_phases to_ms (fun h ->
            seeds :=
              Revised.Seed_var (Ms.v to_ms ~station:k ~level:n ~phase:h)
              :: !seeds;
            if Ms.has_level2 to_ms && n < n' then
              (* One z per new zsum[k,n,h] row. *)
              let counted = (k + 1) mod m in
              seeds :=
                Revised.Seed_var
                  (Ms.z to_ms ~counted ~station:k ~level:n ~phase:h)
                :: !seeds)
      done
    done;
    for j = 0 to m - 1 do
      for k = 0 to m - 1 do
        if j <> k then
          Ms.iter_phases to_ms (fun h ->
              seeds :=
                Revised.Seed_var (Ms.w to_ms ~busy:j ~station:k ~level:n' ~phase:h)
                :: !seeds;
              if Ms.has_level2 to_ms then
                seeds :=
                  Revised.Seed_var
                    (Ms.z to_ms ~counted:j ~station:k ~level:n' ~phase:h)
                  :: !seeds)
      done
    done
  end;
  !seeds

module Sweep = struct
  type bounds = t

  let m_steps =
    Mapqn_obs.Metrics.counter ~help:"Populations prepared by sweep engines."
      "bounds_sweep_steps_total"

  let m_step_seconds =
    Mapqn_obs.Metrics.histogram
      ~help:"Wall time of each sweep step (constraint extension + phase 1)."
      "bounds_sweep_step_seconds"

  let m_warm_steps =
    Mapqn_obs.Metrics.counter
      ~help:"Sweep steps whose phase 1 was warm-started from the previous \
             population's basis."
      "bounds_sweep_warm_steps_total"

  let m_cold_steps =
    Mapqn_obs.Metrics.counter
      ~help:"Sweep steps prepared cold (first population, warm start \
             disabled or the seed did not take)."
      "bounds_sweep_cold_steps_total"

  type nonrec t = {
    network_of : int -> Mapqn_model.Network.t;
    solver : solver;
    sconfig : Constraints.config;
    max_iter : int option;
    warm_start : bool;
    srescue : rescue_policy;
    mutable inc : Constraints.Incremental.t option;
    mutable prev : (int * bounds) option;
    mutable steps : int;
    mutable warm : int;
    mutable cold : int;
    (* Solver-state totals of populations already retired from [prev]. *)
    mutable done_refactors : int;
    mutable done_pivots : int;
  }

  let create ?(solver = default_solver) ?(config = Constraints.standard)
      ?max_iter ?(warm_start = true) ?(rescue = default_rescue) network_of =
    {
      network_of;
      solver;
      sconfig = config;
      max_iter;
      warm_start;
      srescue = rescue;
      inc = None;
      prev = None;
      steps = 0;
      warm = 0;
      cold = 0;
      done_refactors = 0;
      done_pivots = 0;
    }

  let solver s = s.solver
  let config s = s.sconfig
  let warm_start s = s.warm_start

  (* Counts of one population's bounds state, including any backends its
     rescue ladder retired along the way. *)
  let backend_counts b =
    let w = work_snapshot b in
    (int_of_float w.ws_refactors, int_of_float w.ws_pivots)

  let retire s =
    match s.prev with
    | Some (_, b) ->
      let r, p = backend_counts b in
      s.done_refactors <- s.done_refactors + r;
      s.done_pivots <- s.done_pivots + p
    | None -> ()

  let step s population =
    Mapqn_obs.Span.with_ "bounds.sweep.step" @@ fun () ->
    Health.begin_solve ();
    (* The step's backend does not exist yet (prepare creates it), so
       the "before" work is zero: the record's deltas are the fresh
       backend's whole life up to the end of the step, which is exactly
       the step's own work — prepare, restoration and solves. *)
    let before = zero_work in
    let t0 = Mapqn_obs.Span.now () in
    let network = s.network_of population in
    if Mapqn_model.Network.has_delay network then
      Error (Unsupported_network "a delay (infinite-server) station")
    else begin
      let ms, model =
        match s.inc with
        | Some inc -> Constraints.Incremental.extend inc network
        | None ->
          let inc, ms, model =
            Constraints.Incremental.create s.sconfig network
          in
          s.inc <- Some inc;
          (ms, model)
      in
      let seeds =
        if not s.warm_start then None
        else
          match (s.prev, s.solver) with
          | Some (n_prev, ({ backend = B_revised r; _ } as b_prev)), Revised ->
            let translated =
              translate_seeds ~from_ms:b_prev.ms ~from_model:b_prev.model
                ~to_ms:ms ~to_model:model (Revised.basis_seeds r)
            in
            ignore (extension_seeds ~from_n:n_prev ms);
            Some translated
          | _ -> None
      in
      let warmed = ref false in
      let warm () =
        warmed := true;
        s.warm <- s.warm + 1;
        Mapqn_obs.Metrics.inc m_warm_steps
      and cold () =
        s.cold <- s.cold + 1;
        Mapqn_obs.Metrics.inc m_cold_steps
      in
      let lift = function
        | Ok backend ->
          retire s;
          let b =
            {
              network;
              ms;
              model;
              backend;
              config = s.sconfig;
              max_iter = s.max_iter;
              rescue = s.srescue;
              retired_pivots = 0;
              retired_refactors = 0;
              retired_stability = 0;
              retired_growth = 0;
              retired_drift = 0;
              retired_backstop = 0;
            }
          in
          s.steps <- s.steps + 1;
          Mapqn_obs.Metrics.inc m_steps;
          s.prev <- Some (population, b);
          let duration = Mapqn_obs.Span.now () -. t0 in
          Mapqn_obs.Metrics.observe m_step_seconds duration;
          if Ledger.is_enabled () then
            Ledger.record ~event:"sweep_step"
              (ledger_fields b ~duration ~before
              @ [ ("warm", Json.Bool !warmed) ]);
          Ok b
        | Error Simplex.Infeasible_phase1 -> Error Infeasible_phase1
        | Error (Simplex.Iteration_limit_phase1 k) -> Error (Iteration_limit k)
      in
      Mapqn_obs.Span.with_ "bounds.prepare" @@ fun () ->
      (* A failed prepare (phase-1 infeasibility or iteration cap) is
         numerics, not modeling — climb the prepare rescue ladder before
         reporting it. A rescued backend is a cold start. *)
      let rescue_or e =
        match rescue_prepare ~policy:s.srescue ?max_iter:s.max_iter model e with
        | Ok b ->
          cold ();
          lift (Ok b)
        | Error e -> lift (Error e)
      in
      match (s.solver, seeds) with
      | Revised, Some seeds -> (
        match Revised.prepare_seeded ?max_iter:s.max_iter ~seeds model with
        | Ok (p, seeded) ->
          if seeded then warm () else cold ();
          lift (Ok (B_revised p))
        | Error e -> rescue_or e)
      | Revised, None -> (
        match Revised.prepare ?max_iter:s.max_iter model with
        | Ok p ->
          cold ();
          lift (Ok (B_revised p))
        | Error e -> rescue_or e)
      | Dense, _ ->
        cold ();
        lift
          (Result.map
             (fun p -> B_dense p)
             (Simplex.prepare ?max_iter:s.max_iter model))
    end

  let step_exn s population =
    match step s population with Ok b -> b | Error e -> raise (Solver_error e)

  type stats = {
    steps : int;
    warm : int;
    cold : int;
    refactorizations : int;
    pivots : int;
  }

  let stats s =
    let cur_r, cur_p =
      match s.prev with
      | Some (_, b) -> backend_counts b
      | None -> (0, 0)
    in
    {
      steps = s.steps;
      warm = s.warm;
      cold = s.cold;
      refactorizations = s.done_refactors + cur_r;
      pivots = s.done_pivots + cur_p;
    }

  let run ?progress ?(label = Printf.sprintf "N=%d") s ~populations ~f =
    List.map
      (fun population ->
        Option.iter
          (fun p -> Mapqn_obs.Progress.start p (label population))
          progress;
        let phase name =
          Option.iter (fun p -> Mapqn_obs.Progress.phase p name) progress
        in
        let memo = ref None in
        let bounds () =
          match !memo with
          | Some b -> b
          | None ->
            phase "bounds";
            let b = step_exn s population in
            memo := Some b;
            b
        in
        let result = f ~phase ~bounds population in
        Option.iter Mapqn_obs.Progress.finish progress;
        (population, result))
      populations
end
