(** Table 1: accuracy of the response-time bounds on random models.

    For each random 3-queue MAP(2) network, compute the maximal relative
    error of the response-time bounds against the exact solution over a
    population grid, then report the distribution of those maxima across
    models — exactly the paper's four statistics (mean, std dev, median,
    max) for the upper bound [R_max] (from [X_min]) and the lower bound
    [R_min] (from [X_max]).

    The paper runs 10_000 models over every population 1..100; that is
    CPU-months with this repository's from-scratch LP solver, so the count
    and grid are parameters (defaults documented in EXPERIMENTS.md) — the
    reported statistics estimate the same population quantities. *)

type options = {
  spec : Mapqn_workloads.Random_models.spec;
  models : int;
  populations : int list;  (** paper: 1..100 *)
  config : Mapqn_core.Constraints.config;
  seed : int;
  jobs : int;
      (** worker domains for the per-model fleet (1 = sequential; the
          results are bit-identical either way) *)
}

val default_options : options
(** 50 models, populations [1;2;4;8;16;32], [full] constraints, 1 job. *)

val bench_options : options
(** 12 models, populations [1;2;4;8], [full] constraints, 1 job. *)

type model_result = {
  index : int;
  max_err_lower : float;  (** max over N of rel. error of R_min *)
  max_err_upper : float;  (** max over N of rel. error of R_max *)
  bracket_violations : int;  (** populations where exact fell outside *)
}

type t = {
  options : options;
  per_model : model_result list;
  (* Summary rows in the paper's format: (mean, std, median, max). *)
  rmax_stats : float * float * float * float;
  rmin_stats : float * float * float * float;
}

val run :
  ?options:options ->
  ?progress:Mapqn_obs.Progress.t ->
  ?skip:(string -> bool) ->
  unit ->
  t
(** [progress], when given, receives one model per random network (id
    ["model-NNNN"], one phase per population). [skip id] (default
    never) excludes a model from evaluation — model generation is
    deterministic in [seed], so ids from a previous run's ledger
    ({!Mapqn_obs.Ledger.completed}) resume a partial sweep; the
    summary statistics then cover only the evaluated models.

    With [options.jobs > 1] the models are evaluated by a
    {!Mapqn_fleet} domain pool. Models are always {e generated}
    sequentially on the calling domain (generation is microseconds per
    model; evaluation is the expensive part), so the model set — and,
    each model's evaluation being independent, every per-model result
    and ledger record body — is bit-identical for every [jobs] value. *)

val print : t -> unit
