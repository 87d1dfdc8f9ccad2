(** Hierarchical wall-clock timing spans.

    [with_ "lp.phase2" f] times [f] and records the duration under the
    path of currently open spans, so a run produces an aggregated call
    tree like

    {v
      bounds                     1  1.8200s
      bounds/bounds.create       1  1.1000s
      bounds/bounds.create/lp.phase1  1  0.9000s
    v}

    Aggregation is by full path: re-entering the same path accumulates
    count/total/max rather than recording one entry per call. The
    aggregate table is guarded by a mutex and the open-span stack is
    domain-local, so spans opened concurrently from several domains keep
    their own nesting while still merging into the shared table. *)

type collector

val create : ?clock:(unit -> float) -> unit -> collector
(** A fresh collector. [clock] (default a monotonic clock, see {!now})
    exists so tests can drive deterministic durations. Durations are
    clamped at zero even if the injected clock steps backwards. *)

val default : collector
(** The process-global collector all built-in instrumentation records
    to. *)

val now : unit -> float
(** The default clock: monotonic seconds (CLOCK_MONOTONIC) from an
    arbitrary epoch. Useful for manual interval timing fed back through
    {!add}. *)

(** {1 Profiling switch}

    Enabling profiling does two things: hot-path instrumentation guarded
    by {!is_profiling} starts accumulating fine-grained phase timings
    (simplex price/ratio/update, constraint-row emission vs assembly,
    ...), and every span additionally records [Gc.quick_stat] deltas
    (minor/major/promoted words and compactions). When disabled (the
    default) neither costs anything on the pivot path: the guard is a
    single flag read with no clock call and no allocation. *)

val enable_profiling : unit -> unit
val disable_profiling : unit -> unit

val is_profiling : unit -> bool
(** Cheap global check for hot paths, mirroring [Trace.is_enabled]. *)

val with_ : ?collector:collector -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span called [name], nested under
    the innermost span currently open on [collector] in the calling
    domain. The span is closed (and its duration recorded) whether [f]
    returns or raises. Span names must not contain ['/'] — it is the
    path separator. *)

val add :
  ?collector:collector ->
  ?count:int ->
  ?max_:float ->
  ?minor_words:float ->
  string ->
  float ->
  unit
(** [add name seconds] records an externally-measured duration as a span
    called [name] nested under the innermost span currently open in the
    calling domain, without opening/closing a span. This is how hot
    loops (e.g. the simplex pivot loop) report per-phase time they
    accumulated in local variables: one [add] per phase at the end of
    the loop instead of two clock reads per pivot. [count] (default 1)
    is the number of occurrences the duration aggregates; [max_]
    defaults to [seconds] when [count <= 1] and to [0.] otherwise
    (unknown per-occurrence maximum). *)

type row = {
  path : string list;  (** outermost span first *)
  count : int;
  total : float;  (** cumulative seconds, including children *)
  self : float;  (** seconds not attributed to any child span *)
  max_ : float;
  minor_words : float;  (** cumulative minor-heap words *)
  self_minor_words : float;  (** minor words not attributed to children *)
  major_words : float;
  promoted_words : float;
  compactions : int;
}
(** One {!attribution} row. Declared before {!entry} so that an
    unannotated [e.Span.path] still means a snapshot entry. *)

type entry = {
  path : string list;  (** outermost span first *)
  count : int;  (** completed spans at this path *)
  total : float;  (** summed duration, seconds *)
  max_ : float;  (** longest single duration, seconds *)
  minor_words : float;  (** summed minor-heap allocation, words *)
  major_words : float;  (** summed major-heap allocation, words *)
  promoted_words : float;  (** summed minor->major promotion, words *)
  compactions : int;  (** heap compactions while the span was open *)
}
(** GC fields are zero unless profiling was on while the span ran. *)

val snapshot : ?collector:collector -> unit -> entry list
(** Completed spans, aggregated by path, sorted by path. Spans still
    open are not included. *)

val total : ?collector:collector -> string list -> float option
(** Total recorded seconds at exactly the given path, if any. *)

val reset : ?collector:collector -> unit -> unit
(** Clear the aggregate table. Open-span stacks are domain-local; only
    the calling domain's stack is cleared. *)

(** {1 Attribution}

    Attribution turns a span snapshot into per-path rows with self-time
    (self = total − Σ direct-children totals); the self column over all
    rows telescopes to the summed root totals, i.e. the measured wall
    time of the instrumented region. *)

val attribution : ?entries:entry list -> unit -> row list
(** Self-time attribution rows, sorted by self-time descending.
    [entries] defaults to [snapshot ()] of the default collector. *)

val self_total : row list -> float
(** Σ self over the rows — equals Σ root totals for a full snapshot. *)

val diff : baseline:entry list -> entry list -> entry list
(** [diff ~baseline current] subtracts [baseline] aggregates path by
    path and drops rows with no activity since, so one section of a
    longer run can be attributed without resetting the collector. *)

val folded : ?entries:entry list -> unit -> string
(** Folded-stack export: one line per path, ["a;b;c <self-µs>"],
    consumable by flamegraph.pl / inferno / speedscope. *)

val parse_folded : string -> (string list * int) list
(** Parse {!folded} output back into (path, self-µs) pairs. Lines that
    do not parse are skipped. *)

val attribution_json : ?limit:int -> row list -> Json.t
(** The first [limit] rows (default all) as a JSON list of
    [{"path", "count", "total_s", "self_s", "max_s", "minor_words",
    "major_words", "promoted_words"}] objects. *)
