(* The mapqn benchmark. See README.md.

   bench.exe --workload fig4-sweep|table1-fleet|tpcw-fig3 --seed N
             --seconds S --trace 0|1

   With --trace 0 it measures the workload for S seconds and prints the
   end-to-end metrics; with --trace 1 it prints the per-layer metrics of
   a traced run and writes its spans to perfbench/out/. Either way the
   last line of standard output is one JSON object, and the exit code is
   nonzero when a correctness check failed. *)

let workloads =
  [
    (Fig4_sweep.name, (Fig4_sweep.run, Fig4_sweep.trace));
    (Table1_fleet.name, (Table1_fleet.run, Table1_fleet.trace));
    (Tpcw_fig3.name, (Tpcw_fig3.run, Tpcw_fig3.trace));
  ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload "
    ^ String.concat "|" (List.map fst workloads)
    ^ " [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let () =
  let workload = ref "" and seed = ref 2008 and seconds = ref 30. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !trace <> 0 && !trace <> 1 then usage ();
  let run, trace_run =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  let tally = Common.tally () in
  let correct =
    if !trace = 0 then
      let r = run ~seed:!seed ~seconds:!seconds ~tally in
      Common.emit ~workload:!workload ~seed:!seed ~tally
        ~extra:
          (Common.metric "wall_solve_s" "s" (Common.mean r.timing.passes)
          :: Common.metric "calibration_ms" "ms" (1e3 *. Common.mean r.timing.calib)
          :: List.mapi
               (fun i t -> Common.metric (Printf.sprintf "pass_%d_wall_s" i) "s" t)
               r.timing.passes
          @ r.extra)
        (Common.end_to_end r)
    else begin
      let values, spans = trace_run ~seed:!seed ~tally in
      let dir = Filename.concat "perfbench" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" !workload !seed) in
      Tracer.write path spans;
      Printf.printf "spans written to %s\n" path;
      Common.emit ~workload:!workload ~seed:!seed ~tally (Common.per_layer values)
    end
  in
  exit (if correct then 0 else 1)
