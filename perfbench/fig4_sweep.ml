(* fig4-sweep: the Figure-4 tandem through one warm [Bounds.Sweep] per
   pass, the 7-metric report at every population, and the exact CTMC as
   the check. The large-LP regime: one seeded phase 1 and 14 warm phase-2
   solves per population. The tandem is fixed, so the seed selects
   nothing here. *)

open Common
module Bounds = Mapqn_core.Bounds
module Health = Mapqn_obs.Health

let name = "fig4-sweep"
let grid = [ 20; 40; 60; 80; 100 ]

let report =
  [
    Bounds.Utilization 0;
    Bounds.Utilization 1;
    Bounds.Throughput 0;
    Bounds.Throughput 1;
    Bounds.Mean_queue_length 0;
    Bounds.Mean_queue_length 1;
    Bounds.Response_time { reference = 0 };
  ]

let setup () =
  List.map (fun n -> (n, Mapqn_workloads.Tandem.network ~population:n ())) grid

type pass = {
  mutable err_upper : float list;
  mutable err_lower : float list;
  mutable widths : float list;
  mutable evals : int;
  mutable rescued : int;
  mutable states : int;
  mutable stats : Bounds.Sweep.stats option;
}

let rescued () = Option.is_some (Health.current ()).Health.rescue

(* One population: bound the report, solve the exact CTMC, and say
   whether exact U1 and R lie inside their intervals. *)
let solve p sweep n net =
  let b = Layers.step sweep n in
  let step_rescued = rescued () in
  checkpoint ();
  let intervals = Layers.eval b report in
  p.evals <- p.evals + 1;
  if step_rescued || rescued () then p.rescued <- p.rescued + 1;
  let exact = Layers.exact ~station:0 net in
  p.states <- p.states + exact.Layers.states;
  let u = List.assoc (Bounds.Utilization 0) intervals in
  let r = List.assoc (Bounds.Response_time { reference = 0 }) intervals in
  p.err_upper <- rel_err ~exact:exact.response_time r.upper :: p.err_upper;
  p.err_lower <- rel_err ~exact:exact.response_time r.lower :: p.err_lower;
  List.iter
    (fun (_, (i : Bounds.interval)) -> p.widths <- rel_width i.lower i.upper :: p.widths)
    intervals;
  Bounds.contains u exact.utilization && Bounds.contains r exact.response_time

let pass ~tally nets =
  let p =
    { err_upper = []; err_lower = []; widths = []; evals = 0; rescued = 0; states = 0; stats = None }
  in
  let sweep = Bounds.Sweep.create (fun n -> List.assoc n nets) in
  List.iter
    (fun (n, net) ->
      let req = Printf.sprintf "N=%d" n in
      (match Tracer.with_req req (fun () -> solve p sweep n net) with
      | ok -> record tally ~ok (req ^ ": exact U1 or R outside its interval")
      | exception e -> record tally ~ok:false (req ^ ": " ^ Printexc.to_string e));
      checkpoint ())
    nets;
  p.stats <- Some (Bounds.Sweep.stats sweep);
  p

let run ~seed:_ ~seconds ~tally =
  let last = ref None in
  let timing =
    measure ~seconds ~setup (fun nets _ -> last := Some (pass ~tally nets))
  in
  let p = Option.get !last in
  {
    timing;
    models = List.length grid;
    err_upper_mean = mean p.err_upper;
    err_lower_mean = mean p.err_lower;
    width_rel_mean = mean p.widths;
    extra = [];
  }

let trace ~seed:_ ~tally =
  let nets = setup () in
  let last = ref None in
  let layers, pass_spans =
    traced_passes (fun () -> last := Some (pass ~tally nets))
  in
  let p = Option.get !last in
  let s = Option.get p.stats in
  Tracer.set_enabled true;
  let probe, probe_spans =
    Probe.run ~config:Mapqn_core.Constraints.standard
      (List.map (fun (n, net) -> (Printf.sprintf "N=%d" n, net)) nets)
  in
  Tracer.set_enabled false;
  ( layers @ probe
    @ [
        ("bounds.lus", float_of_int s.refactorizations);
        ("bounds.pivots", float_of_int s.pivots);
        ("bounds.warm_share", float_of_int s.warm /. float_of_int (s.steps - 1));
        ("bounds.rescue_share", float_of_int p.rescued /. float_of_int p.evals);
        ("stationary.states", float_of_int p.states);
      ],
    pass_spans @ probe_spans )
