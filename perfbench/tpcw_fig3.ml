(* tpcw-fig3: the TPC-W model of Figure 3 at three browser levels. Each
   pass simulates the bursty model (the "measurement"), solves it exactly
   by Gauss-Seidel (the ACF model) and runs MVA on the no-ACF model. No
   LP: the model has a delay station, so an LP change must leave this
   workload unchanged. The seed drives the simulator. *)

open Common
module Tpcw = Mapqn_workloads.Tpcw
module Sim = Mapqn_sim.Simulator
module Stationary = Mapqn_sparse.Stationary

let name = "tpcw-fig3"
let levels = [ 48; 72; 96 ]
let warmup = 10_000.
let horizon = 20_000.
let max_states = 3_000_000
let gauss_seidel = { Stationary.default_options with method_ = Stationary.Gauss_seidel; tol = 1e-10 }

(* The simulated response time must lie within this many 95% batch-means
   half-widths of the exact one. *)
let tolerance_half_widths = 4.

let setup () =
  List.map
    (fun b -> (b, Tpcw.network ~browsers:b (), Tpcw.network_no_acf ~browsers:b ()))
    levels

type pass = {
  mutable err_upper : float list;
  mutable err_lower : float list;
  mutable widths : float list;
  mutable events : int;
  mutable sim_s : float;
  mutable states : int;
  mutable worst_half_widths : float;  (** max |R_sim - R_exact| / half-width *)
  mutable worst_rel : float;  (** max |R_sim - R_exact| / R_exact *)
  mutable mva_margin : float;  (** min (R_sim - R_mva) / half-width *)
}

(* One browser level: simulate, solve exactly, run MVA, and say whether
   the three agree with Figure 3. *)
let solve ~seed p index (browsers, net, no_acf) =
  let options =
    {
      Sim.default_options with
      seed = Mapqn_prng.Rng.derive ~seed ((index lsl 16) lor browsers);
      warmup;
      horizon;
    }
  in
  let sim, sim_s = time (fun () -> Layers.simulate options net) in
  p.events <- p.events + sim.Sim.total_events;
  p.sim_s <- p.sim_s +. sim_s;
  checkpoint ();
  let n = float_of_int browsers in
  let ci =
    Sim.Summary.of_samples
      (Array.map (fun x -> n /. x) sim.Sim.batch_throughput.(Tpcw.client))
  in
  let exact =
    Layers.exact ~max_states ~options:gauss_seidel ~station:Tpcw.front net
  in
  p.states <- p.states + exact.Layers.states;
  let r_exact = exact.Layers.response_time in
  let r_sim = sim.Sim.system_response_time in
  let r_mva = (Layers.mva no_acf).Mapqn_baselines.Mva.system_response_time in
  let aba = Mapqn_baselines.Aba.aba net in
  p.err_upper <- rel_err ~exact:r_exact aba.r_upper :: p.err_upper;
  p.err_lower <- rel_err ~exact:r_exact aba.r_lower :: p.err_lower;
  p.widths <- rel_width aba.r_lower aba.r_upper :: p.widths;
  let gap = Float.abs (r_sim -. r_exact) in
  p.worst_half_widths <- Float.max p.worst_half_widths (gap /. ci.half_width);
  p.worst_rel <- Float.max p.worst_rel (gap /. r_exact);
  p.mva_margin <- Float.min p.mva_margin ((r_sim -. r_mva) /. ci.half_width);
  (* Figure 3: the no-ACF model underestimates the response time
     that the simulator measures and the exact model predicts. *)
  r_mva < r_sim && r_mva < r_exact
  && gap <= tolerance_half_widths *. ci.half_width
  && r_exact >= aba.r_lower && r_exact <= aba.r_upper

let pass ~seed ~tally inputs index =
  let p =
    {
      err_upper = [];
      err_lower = [];
      widths = [];
      events = 0;
      sim_s = 0.;
      states = 0;
      worst_half_widths = 0.;
      worst_rel = 0.;
      mva_margin = Float.infinity;
    }
  in
  List.iter
    (fun ((browsers, _, _) as input) ->
      let req = Printf.sprintf "browsers=%d" browsers in
      (match Tracer.with_req req (fun () -> solve ~seed p index input) with
      | ok -> record tally ~ok (req ^ ": MVA, simulator and exact R disagree with Figure 3")
      | exception e -> record tally ~ok:false (req ^ ": " ^ Printexc.to_string e));
      checkpoint ())
    inputs;
  p

let run ~seed ~seconds ~tally =
  let all = ref [] in
  let timing =
    measure ~seconds ~setup (fun inputs i -> all := pass ~seed ~tally inputs i :: !all)
  in
  let p = List.hd !all in
  let total f = List.fold_left (fun acc q -> acc +. f q) 0. !all in
  let worst f = List.fold_left (fun acc q -> Float.max acc (f q)) 0. !all in
  {
    timing;
    models = List.length levels;
    err_upper_mean = mean p.err_upper;
    err_lower_mean = mean p.err_lower;
    width_rel_mean = mean p.widths;
    extra =
      [
        metric "sim_events_per_s" "1/s"
          (total (fun q -> float_of_int q.events) /. total (fun q -> q.sim_s));
        metric "sim_exact_gap_max" "half-widths" (worst (fun q -> q.worst_half_widths));
        metric "sim_exact_gap_max_rel" "ratio" (worst (fun q -> q.worst_rel));
        metric "sim_mva_margin_min" "half-widths"
          (List.fold_left (fun acc q -> Float.min acc q.mva_margin) Float.infinity !all);
      ];
  }

let trace ~seed ~tally =
  let inputs = setup () in
  let last = ref None in
  let layers, spans =
    traced_passes (fun () -> last := Some (pass ~seed ~tally inputs 0))
  in
  let p = Option.get !last in
  ( layers
    @ [
        ("stationary.states", float_of_int p.states);
        ("simulator.events", float_of_int p.events);
        ("simulator.events_per_s", float_of_int p.events /. p.sim_s);
      ],
    spans )
