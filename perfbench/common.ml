(* Timing, statistics and result reporting shared by the workloads. *)

let now = Mapqn_obs.Span.now

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum_float xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> Float.nan | _ -> sum_float xs /. float_of_int (List.length xs)

(* Set-up time samples: each the mean of as many calls to [f] as fill
   5 ms (at least one), so that set-ups of a few microseconds are not read
   off the clock's granularity. Returns the samples and the last call's
   value. *)
let setup_samples f =
  let samples = ref [] and last = ref None in
  for _ = 1 to 3 do
    let t0 = now () in
    let calls = ref 0 in
    while !calls = 0 || now () -. t0 < 0.005 do
      last := Some (f ());
      incr calls
    done;
    samples := ((now () -. t0) /. float_of_int !calls) :: !samples
  done;
  (!samples, Option.get !last)

(* Between two units of a pass, a workload calls [checkpoint], which
   takes a set-up and a calibration sample while [measure] runs. *)
let sampler = ref ignore
let checkpoint () = !sampler ()

(* A measured run: passes of [pass inputs] (called with the pass index)
   for [seconds]. A new pass starts only while the median pass so far
   still fits in the window, so there is always at least one. Before
   the window, [warmup inputs] (by default pass 0) and one calibration
   sample run untimed: in trial runs the first pass of a fresh process
   and the first kernel sample read up to 1.4x and 2.4x slower than the
   ones after them. The machine's speed
   drifts from second to second, so set-up and the calibration kernel
   (see calib.ml) are sampled at many moments: before every pass, after
   the last one and at every [checkpoint]. The time spent sampling is
   left out of the pass times. *)
type timing = {
  passes : float list;  (** wall time of each measured pass *)
  setup_samples : float list;  (** wall time of each set-up *)
  calib : float list;  (** calibration samples, from all over the run *)
}

let measure ?warmup ~seconds ~setup pass =
  let samples = ref [] and calib = ref [] and sampling_s = ref 0. in
  let sample () =
    let (s, inputs), dt =
      time (fun () ->
          let s, inputs = setup_samples setup in
          calib := Calib.sample () :: !calib;
          (s, inputs))
    in
    samples := s @ !samples;
    sampling_s := !sampling_s +. dt;
    inputs
  in
  let inputs = setup () in
  ignore (Calib.sample ());
  (match warmup with Some w -> w inputs | None -> pass inputs 0);
  ignore (sample ());
  sampler := (fun () -> ignore (sample ()));
  let t0 = now () in
  let rec go p times =
    let before = !sampling_s in
    let (), dt = time (fun () -> pass inputs p) in
    let times = (dt -. (!sampling_s -. before)) :: times in
    ignore (sample ());
    if now () -. t0 +. median times <= seconds then go (p + 1) times
    else List.rev times
  in
  let passes = go 0 [] in
  sampler := ignore;
  { passes; setup_samples = !samples; calib = !calib }

(* Seconds at the reference speed of calib.ml: each time scaled by the
   reference sample over the run's mean calibration sample. The pass
   time is the mean pass (total time over passes), which scales by the
   mean kernel time over the same period; set-up samples are microseconds
   long and one may catch a stall, so set-up takes their median. *)
let speed_scale t = Calib.reference_s /. mean t.calib
let solve_s t = mean t.passes *. speed_scale t
let setup_s t = median t.setup_samples *. speed_scale t

(* High-water resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Units of work and their correctness gates. A unit is one solve with
   the checks on its output; it fails when the solve raises or a check
   does not hold. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record tally ~ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "FAILED: %s\n%!" what
  end

(* Relative width of an interval, against its midpoint. *)
let rel_width lower upper = (upper -. lower) /. Float.abs ((upper +. lower) /. 2.)
let rel_err ~exact x = Mapqn_util.Tol.relative_error ~exact x

type metric = { name : string; value : float; unit_ : string }

(* What an untraced run of a workload reports. The three accuracy means
   score the response-time interval the workload produces against the
   exact CTMC value (see README.md). *)
type result = {
  timing : timing;
  models : int;  (** models solved per pass *)
  err_upper_mean : float;
  err_lower_mean : float;
  width_rel_mean : float;
  extra : metric list;  (** printed, not in the JSON *)
}

let metric name unit_ value = { name; value; unit_ }

let end_to_end (r : result) =
  let solve_s = solve_s r.timing in
  [
    metric "solve_s" "s" solve_s;
    metric "models_per_s" "1/s" (float_of_int r.models /. solve_s);
    metric "setup_s" "s" (setup_s r.timing);
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
    metric "err_upper_mean" "ratio" r.err_upper_mean;
    metric "err_lower_mean" "ratio" r.err_lower_mean;
    metric "width_rel_mean" "ratio" r.width_rel_mean;
  ]

(* Human-readable lines, then the one-line JSON result for the caller.
   A non-finite metric value is a failed run: JSON cannot carry it. *)
let emit ~workload ~seed ~tally ?(extra = []) metrics =
  Printf.printf "workload %s  seed %d\n" workload seed;
  let line m = Printf.printf "  %-28s %18.6f %s\n" m.name m.value m.unit_ in
  List.iter line metrics;
  List.iter line extra;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then record tally ~ok:false "a metric is not finite";
  let correct = tally.failed = 0 in
  Printf.printf "  %-28s %18.6f %s\n" "failed_share"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    "ratio";
  Printf.printf "  correct %b  attempted %d  failed %d\n" correct tally.attempted tally.failed;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "null")
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed (String.concat ", " fields);
  correct

(* The per-layer metrics of a traced run, in the order BENCHMARK.json
   lists them. A layer a workload does not enter reads 0. *)
let per_layer_units =
  [
    ("constraints.build_s", "s");
    ("constraints.rows", "count");
    ("revised.phase1_s", "s");
    ("revised.phase1_pivots", "count");
    ("revised.phase1_lus", "count");
    ("revised.lu_s", "s");
    ("revised.lu_rows", "count");
    ("revised.phase1_lu_share", "ratio");
    ("revised.phase2_s", "s");
    ("revised.phase2_pivots", "count");
    ("certificate.check_s", "s");
    ("certificate.probe_failures", "count");
    ("bounds.step_s", "s");
    ("bounds.eval_s", "s");
    ("bounds.lus", "count");
    ("bounds.pivots", "count");
    ("bounds.warm_share", "ratio");
    ("bounds.rescue_share", "ratio");
    ("state_space.create_s", "s");
    ("generator.build_s", "s");
    ("stationary.solve_s", "s");
    ("stationary.states", "count");
    ("simulator.run_s", "s");
    ("simulator.events", "count");
    ("simulator.events_per_s", "1/s");
    ("mva.solve_s", "s");
    ("random_models.generate_s", "s");
    ("fleet.busy_share", "ratio");
    ("fleet.task_p50_s", "s");
    ("fleet.task_p90_s", "s");
    ("pass.self_s", "s");
    ("trace.untraced_solve_s", "s");
    ("trace.traced_solve_s", "s");
    ("trace.overhead_share", "ratio");
    ("trace.spans", "count");
  ]

let per_layer values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        invalid_arg ("per_layer: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      metric name unit_ (Option.value (List.assoc_opt name values) ~default:0.))
    per_layer_units

(* Wall-clock layers of the measured passes: span name -> metric. *)
let pass_layers =
  [
    ("bounds.step", "bounds.step_s");
    ("bounds.eval", "bounds.eval_s");
    ("state_space.create", "state_space.create_s");
    ("generator.build", "generator.build_s");
    ("stationary.solve", "stationary.solve_s");
    ("simulator.run", "simulator.run_s");
    ("mva.solve", "mva.solve_s");
    ("pass", "pass.self_s");
  ]

(* The traced part of a [--trace 1] run: [pass] untraced, traced, traced,
   untraced (the symmetric order cancels a linear drift such as warm-up),
   then per-pass self times of each layer and the tracing overhead:
   traced against untraced time of the same calls. Returns the metrics
   and the spans. *)
let traced_passes pass =
  let untraced () = snd (time pass) in
  let traced () = snd (time (fun () -> Tracer.with_ "pass" pass)) in
  let u1 = untraced () in
  Tracer.set_enabled true;
  let t1 = traced () in
  let t2 = traced () in
  Tracer.set_enabled false;
  let u2 = untraced () in
  let spans = Tracer.take () in
  let selfs = Tracer.self_times spans in
  let untraced_s = (u1 +. u2) /. 2. and traced_s = (t1 +. t2) /. 2. in
  let layer_times =
    List.map (fun (span, name) -> (name, Tracer.self_total selfs span /. 2.)) pass_layers
  in
  ( layer_times
    @ [
        ("trace.untraced_solve_s", untraced_s);
        ("trace.traced_solve_s", traced_s);
        ("trace.overhead_share", (traced_s /. untraced_s) -. 1.);
        ("trace.spans", float_of_int (List.length spans / 2));
      ],
    selfs )
