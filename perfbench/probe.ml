(* The probe pass of a traced run: the Bounds layer split from outside on
   the workload's own LPs. Each LP is built ([Constraints.build]), taken
   through a cold phase 1 ([Revised.prepare]), optimized for the
   utilization of station 0 ([Revised.optimize] on the [v_0(0, h)]
   columns of [Marginal_space]) and certified ([Certificate.check]).
   Between phase 1 and phase 2 each LP is refactorized [lu_repeats] times
   ([Revised.force_refactor]) to time one LU of its size:
   [revised.lu_s] is that time at the largest LP, and
   [revised.phase1_lu_share] estimates the share of phase 1 spent in LUs
   as the phase-1 LU count times that time, over the phase-1 time. The
   LU of the phase-1 basis stands in for the LUs along the way, so the
   share is an estimate.

   The probe calls the solver raw, without the post-solve refinement and
   rescue ladder that [Bounds] wraps around it, so an LP it cannot
   certify is not a failure of the program: it is counted in
   [certificate.probe_failures], the work [Bounds] has to rescue. *)

open Common
module Revised = Mapqn_lp.Revised
module Marginal_space = Mapqn_core.Marginal_space
module Lp_model = Mapqn_lp.Lp_model

let lu_repeats = 5

let run ~config (lps : (string * Mapqn_model.Network.t) list) =
  let largest_rows = ref 0 and largest_lu = ref 0. in
  let phase1_s = ref 0. and phase1_lu_s = ref 0. in
  let rows = ref 0 and phase1_pivots = ref 0 and phase1_lus = ref 0 in
  let phase2_pivots = ref 0 and failures = ref 0 in
  List.iter
    (fun (req, net) ->
      Tracer.with_req req @@ fun () ->
      let certified () =
        let space, lp = Layers.constraints_build config net in
        let t, prepare_s = time (fun () -> Layers.prepare lp) in
        let st = Revised.stats t in
        let m = Lp_model.num_rows lp in
        rows := !rows + m;
        phase1_pivots := !phase1_pivots + st.Revised.pivots;
        phase1_lus := !phase1_lus + st.Revised.refactorizations;
        let (), lus_s =
          time (fun () ->
              for _ = 1 to lu_repeats do
                Layers.force_refactor t
              done)
        in
        let lu_s = lus_s /. float_of_int lu_repeats in
        phase1_s := !phase1_s +. prepare_s;
        phase1_lu_s := !phase1_lu_s +. (float_of_int st.Revised.refactorizations *. lu_s);
        if m > !largest_rows then begin
          largest_rows := m;
          largest_lu := lu_s
        end;
        (* Maximizing U_0 = 1 - sum_h v_0(0, h) is minimizing the sum. *)
        let objective = ref [] in
        Marginal_space.iter_phases space (fun h ->
            let v = Marginal_space.v space ~station:0 ~level:0 ~phase:h in
            objective := (Lp_model.var_of_int lp v, 1.) :: !objective);
        match Layers.optimize t Mapqn_lp.Simplex.Minimize !objective with
        | Mapqn_lp.Simplex.Optimal sol ->
          phase2_pivots := !phase2_pivots + sol.Mapqn_lp.Simplex.iterations;
          Result.is_ok
            (Layers.certificate_check lp Mapqn_lp.Simplex.Minimize !objective sol)
        | _ -> false
      in
      if not (try certified () with Failure _ -> false) then incr failures)
    lps;
  let spans = Tracer.take () in
  let selfs = Tracer.self_times spans in
  let total = Tracer.self_total selfs in
  ( [
      ("constraints.build_s", total "constraints.build");
      ("constraints.rows", float_of_int !rows);
      ("revised.phase1_s", total "revised.prepare");
      ("revised.phase1_pivots", float_of_int !phase1_pivots);
      ("revised.phase1_lus", float_of_int !phase1_lus);
      ("revised.lu_s", !largest_lu);
      ("revised.phase1_lu_share", !phase1_lu_s /. !phase1_s);
      ("revised.lu_rows", float_of_int !largest_rows);
      ("revised.phase2_s", total "revised.optimize");
      ("revised.phase2_pivots", float_of_int !phase2_pivots);
      ("certificate.check_s", total "certificate.check");
      ("certificate.probe_failures", float_of_int !failures);
    ],
    selfs )
