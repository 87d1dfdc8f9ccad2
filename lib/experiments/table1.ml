module Random_models = Mapqn_workloads.Random_models
module Bounds = Mapqn_core.Bounds
module Solution = Mapqn_ctmc.Solution

type options = {
  spec : Random_models.spec;
  models : int;
  populations : int list;
  config : Mapqn_core.Constraints.config;
  seed : int;
  jobs : int;
}

let default_options =
  {
    spec = Random_models.default_spec;
    models = 50;
    populations = [ 1; 2; 4; 8; 16; 32 ];
    config = Mapqn_core.Constraints.full;
    seed = 2008;
    jobs = 1;
  }

let bench_options =
  { default_options with models = 12; populations = [ 1; 2; 4; 8 ] }

type model_result = {
  index : int;
  max_err_lower : float;
  max_err_upper : float;
  bracket_violations : int;
}

type t = {
  options : options;
  per_model : model_result list;
  rmax_stats : float * float * float * float;
  rmin_stats : float * float * float * float;
}

let model_id index = Printf.sprintf "model-%04d" index

(* Progress start/done events are the fleet runner's job (it knows the
   per-task seed and wall time); the model body only reports phases,
   with its id explicit so concurrent workers' phases cannot be
   attributed to each other's models. *)
let evaluate_model ?progress options index (model : Random_models.model) =
  let report f = Option.iter f progress in
  let id = model_id index in
  let max_lower = ref 0. and max_upper = ref 0. and violations = ref 0 in
  (* One sweep per model: each population's LP extends the previous one
     instead of being rebuilt, and the revised backend carries its basis
     across populations. *)
  let sweep =
    Bounds.Sweep.create ~config:options.config (fun population ->
        Mapqn_model.Network.with_population model.Random_models.network
          population)
  in
  List.iter
    (fun population ->
      report (fun p ->
          Mapqn_obs.Progress.task_phase p ~id
            (Printf.sprintf "N=%d" population));
      let net = Mapqn_model.Network.with_population model.Random_models.network population in
      let sol = Solution.solve net in
      let exact = Solution.system_response_time sol in
      let b = Bounds.Sweep.step_exn sweep population in
      let r = b |> Bounds.response_time in
      max_lower :=
        Float.max !max_lower (Mapqn_util.Tol.relative_error ~exact r.Bounds.lower);
      max_upper :=
        Float.max !max_upper (Mapqn_util.Tol.relative_error ~exact r.Bounds.upper);
      if not (Bounds.contains r exact) then incr violations)
    options.populations;
  {
    index;
    max_err_lower = !max_lower;
    max_err_upper = !max_upper;
    bracket_violations = !violations;
  }

let run ?(options = default_options) ?progress ?(skip = fun _ -> false) () =
  (* Ledger provenance: the sink-wide context names the experiment and
     its master seed; each model's fleet task overlays its own id and
     derived per-model seed on top (no-op when no ledger is enabled). *)
  Mapqn_obs.Ledger.set_context "experiment" (Mapqn_obs.Json.String "table1");
  Mapqn_obs.Ledger.set_context "seed"
    (Mapqn_obs.Json.Number (float_of_int options.seed));
  (* Models are generated sequentially on this domain even when the
     evaluation fans out: generation is microseconds per model against
     seconds of LP work, and one sequential PRNG stream keeps the model
     set — hence every per-model result — bit-identical across [jobs]
     values AND to the historical sequential runs. Skipping a model by
     id (e.g. one a previous run's ledger marks done) likewise
     leaves the remaining models identical to a full run. *)
  let models =
    Array.of_list
      (Random_models.generate_many ~spec:options.spec ~seed:options.seed
         options.models)
  in
  let outcomes =
    Mapqn_fleet.Fleet.run_tasks ~jobs:(max 1 options.jobs) ?progress ~skip
      ~seed:options.seed ~ids:model_id ~total:(Array.length models)
      ~f:(fun index -> evaluate_model ?progress options index models.(index))
      ()
  in
  (match Mapqn_fleet.Fleet.first_failure outcomes with
  | Some e -> raise e
  | None -> ());
  let per_model =
    Array.to_list outcomes
    |> List.filter_map (function
         | Mapqn_fleet.Fleet.Done r -> Some r
         | Mapqn_fleet.Fleet.Skipped | Mapqn_fleet.Fleet.Failed _ -> None)
  in
  let upper = Array.of_list (List.map (fun r -> r.max_err_upper) per_model) in
  let lower = Array.of_list (List.map (fun r -> r.max_err_lower) per_model) in
  (* A resume may leave zero or one model to evaluate; summary
     statistics that are undefined on such samples (all of them for an
     empty sample, the standard deviation for a singleton) are NaN, not
     an error. *)
  let summary a =
    match Array.length a with
    | 0 -> (Float.nan, Float.nan, Float.nan, Float.nan)
    | 1 -> (a.(0), Float.nan, a.(0), a.(0))
    | _ -> Mapqn_util.Stats.summary a
  in
  {
    options;
    per_model;
    rmax_stats = summary upper;
    rmin_stats = summary lower;
  }

let print t =
  if t.per_model = [] then
    Printf.printf
      "Table 1: no models evaluated (all %d skipped by resume)\n%!"
      t.options.models
  else begin
  Printf.printf
    "Table 1: maximal relative error of response-time bounds on %d random \
     models (populations %s)\n"
    (List.length t.per_model)
    (String.concat "," (List.map string_of_int t.options.populations));
  let row label (mean, std, median, maximum) =
    [
      label;
      Mapqn_util.Table.float_cell ~decimals:3 mean;
      Mapqn_util.Table.float_cell ~decimals:3 std;
      Mapqn_util.Table.float_cell ~decimals:3 median;
      Mapqn_util.Table.float_cell ~decimals:3 maximum;
    ]
  in
  Mapqn_util.Table.print
    ~header:[ ""; "mean"; "std dev"; "median"; "max" ]
    [ row "Rmax" t.rmax_stats; row "Rmin" t.rmin_stats ];
  let violations =
    List.fold_left (fun acc r -> acc + r.bracket_violations) 0 t.per_model
  in
  Printf.printf "bracket violations (must be 0): %d\n%!" violations
  end
