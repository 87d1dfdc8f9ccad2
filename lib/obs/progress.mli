(** Sweep progress reporting for long experiment runs.

    A reporter tracks [completed]/[total] models, derives an ETA from
    elapsed wall time, and draws a TTY-aware live status line (single
    rewritten line on a terminal, one scrolling line per completed model
    otherwise). It keeps no record of the run: the resume checkpoint is
    the run ledger ({!Ledger.completed}).

    All state and rendering sit behind one mutex, so a single reporter
    can be shared by worker domains without tearing the status line.
    Sequential sweeps use the implicit-current {!start}/{!phase}/{!finish}
    lifecycle; concurrent workers must use
    {!task_start}/{!task_phase}/{!task_done} instead, which carry the
    model id explicitly (with several models in flight, "the current
    model" no longer identifies whose event is being reported). *)

type t

val create :
  ?clock:(unit -> float) ->
  ?out:out_channel ->
  ?tty:bool ->
  ?quiet:bool ->
  total:int ->
  string ->
  t
(** [create ~total label]. [clock] (default monotonic [Span.now]) makes
    ETA math deterministic in tests. [out] (default [stderr]) receives
    console output unless [quiet]; [tty] overrides terminal detection on
    [out]. *)

val start : t -> string -> unit
(** [start t id] marks model [id] as running. *)

val phase : t -> string -> unit
(** Name the phase the current model is in ("exact", "N=500", ...). *)

val finish : t -> unit
(** Mark the current model done; bumps [completed]. *)

val skip : t -> unit
(** Count one model as skipped (e.g. found in a resume checkpoint). It
    counts toward [completed] so ETA reflects remaining work only. *)

(** {1 Concurrent lifecycle}

    Explicit-id events for fleet workers sharing one reporter across
    domains. Safe to mix with {!skip}; do not mix with
    {!start}/{!finish} on the same reporter. *)

val task_start : t -> string -> unit
(** Mark model [id] as running; the live line shows the most recently
    started task. *)

val task_phase : t -> id:string -> string -> unit
(** Name the phase model [id] is in. *)

val task_done : t -> ?elapsed:float -> string -> unit
(** Mark model [id] done and bump [completed]. [elapsed] is the task's
    own wall time as measured by the caller (the reporter cannot
    attribute shared wall time to one of several in-flight tasks);
    defaults to [0.]. *)

val close : t -> unit
(** Clear the live line and print a final summary. *)

val completed : t -> int
val elapsed : t -> float

val eta_seconds : t -> float option
(** [elapsed / completed * remaining]; [None] until the first model
    completes or once everything is done. *)
