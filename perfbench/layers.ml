(* The benchmark's timed calls into the library, one wrapper per public
   function, each under a span named after the layer it enters. The
   workloads make every call they time through these, so a traced run
   splits the time by layer without any instrumentation inside lib/. *)

module Bounds = Mapqn_core.Bounds
module Constraints = Mapqn_core.Constraints
module Revised = Mapqn_lp.Revised
module Certificate = Mapqn_lp.Certificate
module State_space = Mapqn_ctmc.State_space
module Network = Mapqn_model.Network
module Stationary = Mapqn_sparse.Stationary

let span = Tracer.with_

(* Bounds *)

let step sweep n = span "bounds.step" (fun () -> Bounds.Sweep.step_exn sweep n)
let eval b metrics = span "bounds.eval" (fun () -> Bounds.eval b metrics)

(* Probe pass: the pieces of a bound solve, called one by one. *)

let constraints_build config net =
  span "constraints.build" (fun () -> Constraints.build config net)

let prepare lp =
  span "revised.prepare" (fun () ->
      match Revised.prepare lp with
      | Ok t -> t
      | Error e -> failwith (Mapqn_lp.Simplex.prepare_error_to_string e))

let force_refactor t = span "revised.force_refactor" (fun () -> Revised.force_refactor t)
let optimize t dir obj = span "revised.optimize" (fun () -> Revised.optimize t dir obj)

let certificate_check lp dir objective sol =
  span "certificate.check" (fun () -> Certificate.check lp dir ~objective sol)

(* Exact CTMC: state space, generator, stationary vector. *)

let state_space ?max_states net =
  span "state_space.create" (fun () -> State_space.create ?max_states net)

let generator space = span "generator.build" (fun () -> Mapqn_ctmc.Generator.build space)
let stationary ?options q = span "stationary.solve" (fun () -> Stationary.solve ?options q)

(* Simulator, baselines, model generation, fleet *)

let simulate options net =
  span "simulator.run" (fun () -> Mapqn_sim.Simulator.run ~options net)

let mva net = span "mva.solve" (fun () -> Mapqn_baselines.Mva.solve net)

let generate_models ~seed count =
  span "random_models.generate" (fun () ->
      Array.of_list (Mapqn_workloads.Random_models.generate_many ~seed count))

(* [f] runs as one "fleet.task" span per element, parented to the
   "fleet.map" span although it executes on a worker domain. *)
let fleet_map ~jobs ~req f arr =
  span "fleet.map" (fun () ->
      let parent = Tracer.current () in
      Mapqn_fleet.Fleet.map ~jobs
        (fun i x -> span ~parent ~req:(req i) "fleet.task" (fun () -> f i x))
        arr)

(* The exact quantities the workloads check against. [Solution.solve]
   runs state space, generator and stationary solve in one call; they are
   called one by one here so that each gets its own span, which leaves
   reading the two quantities off the stationary vector to this function:
   the utilization of [station], and the Little's-law response time
   [N / X_0] at station 0, the reference station of every response time
   here. *)
type exact = { states : int; utilization : float; response_time : float }

let exact ?max_states ?options ~station net =
  let space = state_space ?max_states net in
  let pi = stationary ?options (generator space) in
  let rates =
    Mapqn_map.Process.completion_rates
      (Mapqn_model.Station.service_process (Network.station net 0))
  in
  let delay = Mapqn_model.Station.is_delay (Network.station net 0) in
  let idle = Mapqn_util.Ksum.create () and x = Mapqn_util.Ksum.create () in
  State_space.iter space (fun i qlen phases ->
      if qlen.(station) = 0 then Mapqn_util.Ksum.add idle pi.(i);
      if qlen.(0) > 0 then
        let servers = if delay then float_of_int qlen.(0) else 1. in
        Mapqn_util.Ksum.add x (pi.(i) *. rates.(phases.(0)) *. servers));
  {
    states = State_space.num_states space;
    utilization = 1. -. Mapqn_util.Ksum.total idle;
    response_time = float_of_int (Network.population net) /. Mapqn_util.Ksum.total x;
  }
