(* table1-fleet: the paper's Table-1 grid. [Random_models.generate_many]
   draws the models from the seed; each runs one cold-started
   [Bounds.Sweep] over N in {1, 2, 4, 8} for the response-time bounds and
   the exact CTMC at every N. Many tiny LPs (m = 74 to 284), so per-LP
   overhead dominates.

   The measured passes run on one job. On a shared 2-vCPU host the
   speed of a 2-domain pool follows neither core's alone, so no kernel
   sample could scale it (see README.md); on one job the calibration
   works as on the other workloads. The fleet pool runs in the warm-up,
   whose results the 1-job check compares, and in the traced run, which
   gives the fleet metrics. *)

open Common
module Bounds = Mapqn_core.Bounds
module Health = Mapqn_obs.Health
module Network = Mapqn_model.Network

let name = "table1-fleet"
let count = 200
let populations = [ 1; 2; 4; 8 ]

(* Models of the traced run, of its probe pass (at N = 8, the largest
   LP), and of the 1-job against 2-job check. *)
let traced_count = 100
let probe_count = 20
let spot_count = 8
let jobs = min 2 (Domain.recommended_domain_count ())
let model_id i = Printf.sprintf "model-%05d" i

(* The outcome of one model: its response-time intervals at every N, as
   bits so that runs compare exactly, and its checks and counts. *)
type model = {
  bits : (int64 * int64) list;
  err_upper : float;  (** maximal relative error over N *)
  err_lower : float;
  widths : float list;
  violations : int;  (** N whose exact R lies outside the bounds *)
  rescued : int;  (** N whose step or eval engaged the rescue ladder *)
  states : int;
  stats : Bounds.Sweep.stats;
}

let rescued () = Option.is_some (Health.current ()).Health.rescue

let evaluate i (m : Mapqn_workloads.Random_models.model) =
  (* A context of its own, so the health snapshot read below is this
     model's even when the pool runs it on another domain. *)
  Mapqn_obs.Run_ctx.with_ (Mapqn_obs.Run_ctx.create ()) @@ fun () ->
  let network_of = Network.with_population m.network in
  let sweep = Bounds.Sweep.create network_of in
  let per_n =
    List.map
      (fun n ->
        Tracer.with_req (Printf.sprintf "%s/N=%d" (model_id i) n) @@ fun () ->
        let b = Layers.step sweep n in
        let step_rescued = rescued () in
        let r =
          List.assoc (Bounds.Response_time { reference = 0 })
            (Layers.eval b [ Bounds.Response_time { reference = 0 } ])
        in
        let exact = Layers.exact ~station:0 (network_of n) in
        (r, exact, step_rescued || rescued ()))
      populations
  in
  {
    bits =
      List.map
        (fun ((r : Bounds.interval), _, _) ->
          (Int64.bits_of_float r.lower, Int64.bits_of_float r.upper))
        per_n;
    err_upper =
      List.fold_left (fun acc ((r : Bounds.interval), e, _) ->
          Float.max acc (rel_err ~exact:e.Layers.response_time r.upper)) 0. per_n;
    err_lower =
      List.fold_left (fun acc ((r : Bounds.interval), e, _) ->
          Float.max acc (rel_err ~exact:e.Layers.response_time r.lower)) 0. per_n;
    widths = List.map (fun ((r : Bounds.interval), _, _) -> rel_width r.lower r.upper) per_n;
    violations =
      List.length
        (List.filter (fun (r, e, _) -> not (Bounds.contains r e.Layers.response_time)) per_n);
    rescued = List.length (List.filter (fun (_, _, x) -> x) per_n);
    states = List.fold_left (fun acc (_, e, _) -> acc + e.Layers.states) 0 per_n;
    stats = Bounds.Sweep.stats sweep;
  }

(* All the models on the fleet pool, in one call. *)
let pool ~jobs models = Layers.fleet_map ~jobs ~req:model_id evaluate models

(* A measured pass: the models one after another, on one job, with a
   checkpoint after every [chunk], so that the calibration kernel
   samples the machine's speed all through the pass (see calib.ml). A
   model that raises counts as failed, as on the pool. *)
let chunk = 10

let pass models =
  Array.mapi
    (fun i m ->
      let r = try Ok (evaluate i m) with e -> Error e in
      if (i + 1) mod chunk = 0 then checkpoint ();
      r)
    models

(* One unit per model: it fails when its sweep raised or any N's exact
   response time falls outside the bounds. *)
let check ~tally results =
  Array.iteri
    (fun i -> function
      | Ok m -> record tally ~ok:(m.violations = 0) (model_id i ^ ": bracket violation")
      | Error e -> record tally ~ok:false (model_id i ^ ": " ^ Printexc.to_string e))
    results

let ok_models results = Array.to_list results |> List.filter_map Result.to_option

(* The first [spot_count] models again on one job: their intervals must be
   bit-identical to the pool's. *)
let check_jobs ~tally models results =
  let spot = Array.sub models 0 (min spot_count (Array.length models)) in
  Array.iteri
    (fun i single ->
      let same =
        match (single, results.(i)) with
        | Ok a, Ok b -> a.bits = b.bits
        | _ -> false
      in
      record tally ~ok:same (model_id i ^ ": intervals differ between 1 and 2 jobs"))
    (pass spot)

(* The warm-up before the measured passes is the first [2 * chunk]
   models on the pool, whose results the 1-job check then compares. *)
let run ~seed ~seconds ~tally =
  let last = ref [||] in
  let warmup models =
    let first = Array.sub models 0 (2 * chunk) in
    let results = pool ~jobs first in
    check ~tally results;
    check_jobs ~tally first results
  in
  let timing =
    measure ~warmup ~seconds
      ~setup:(fun () -> Layers.generate_models ~seed count)
      (fun models _ ->
        let results = pass models in
        check ~tally results;
        last := results)
  in
  let ok = ok_models !last in
  {
    timing;
    models = count;
    err_upper_mean = mean (List.map (fun m -> m.err_upper) ok);
    err_lower_mean = mean (List.map (fun m -> m.err_lower) ok);
    width_rel_mean = mean (List.concat_map (fun m -> m.widths) ok);
    extra = [ metric "pool_jobs" "count" (float_of_int jobs) ];
  }

let trace ~seed ~tally =
  Tracer.set_enabled true;
  let models = Layers.generate_models ~seed count in
  Tracer.set_enabled false;
  let generate_spans = Tracer.take () in
  let models = Array.sub models 0 traced_count in
  let last = ref [||] in
  let layers, pass_spans =
    traced_passes (fun () ->
        let results = pool ~jobs models in
        check ~tally results;
        last := results)
  in
  let ok = ok_models !last in
  let sum f = float_of_int (List.fold_left (fun acc m -> acc + f m) 0 ok) in
  (* Fleet figures from the two traced passes' pool and task spans. *)
  let durations name =
    List.filter_map
      (fun (s, _) -> if s.Tracer.name = name then Some (Tracer.duration s) else None)
      pass_spans
  in
  let tasks = durations "fleet.task" and pool = durations "fleet.map" in
  let generate_spans = Tracer.self_times generate_spans in
  Tracer.set_enabled true;
  let probe, probe_spans =
    Probe.run ~config:Mapqn_core.Constraints.standard
      (List.filteri (fun i _ -> i < probe_count) (Array.to_list models)
      |> List.mapi (fun i (m : Mapqn_workloads.Random_models.model) ->
             (model_id i ^ "/N=8", Network.with_population m.network 8)))
  in
  Tracer.set_enabled false;
  ( layers @ probe
    @ [
        ("random_models.generate_s", Tracer.self_total generate_spans "random_models.generate");
        ("bounds.lus", sum (fun m -> m.stats.refactorizations));
        ("bounds.pivots", sum (fun m -> m.stats.pivots));
        ("bounds.warm_share", sum (fun m -> m.stats.warm) /. sum (fun m -> m.stats.steps - 1));
        ("bounds.rescue_share", sum (fun m -> m.rescued) /. sum (fun _ -> List.length populations));
        ("stationary.states", sum (fun m -> m.states));
        ("fleet.busy_share", sum_float tasks /. (float_of_int jobs *. sum_float pool));
        ("fleet.task_p50_s", quantile 0.5 tasks);
        ("fleet.task_p90_s", quantile 0.9 tasks);
      ],
    generate_spans @ pass_spans @ probe_spans )
