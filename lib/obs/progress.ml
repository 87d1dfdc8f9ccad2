(* Sweep progress reporting for long experiment runs (Fig 4/8, Table 1):
   per-model status with an ETA and a TTY-aware live status line. The
   resume checkpoint is the run ledger's, not this module's.

   One mutex guards all mutable state AND the console rendering: fleet
   workers on different domains report through the same reporter, and
   without the lock the TTY line would tear. The classic
   [start]/[phase]/[finish] lifecycle keys on an implicit "current"
   model and only suits one reporter per worker; concurrent workers use
   the [task_*] entry points, which carry the model id explicitly so a
   phase can never be attributed to whichever model another worker
   started last. *)

type t = {
  clock : unit -> float;
  label : string;
  total : int;
  out : out_channel option;
  tty : bool;
  t0 : float;
  lock : Mutex.t;
  mutable completed : int;
  mutable skipped : int;
  mutable current : string option;
  mutable phase : string option;
  mutable model_t0 : float;
  mutable live_len : int;
}

let create ?(clock = Span.now) ?(out = stderr) ?tty ?(quiet = false) ~total
    label =
  let out = if quiet then None else Some out in
  let tty =
    match (tty, out) with
    | Some t, _ -> t
    | None, None -> false
    | None, Some oc -> (
      try Unix.isatty (Unix.descr_of_out_channel oc) with _ -> false)
  in
  let t0 = clock () in
  {
    clock;
    label;
    total = max 0 total;
    out;
    tty;
    t0;
    lock = Mutex.create ();
    completed = 0;
    skipped = 0;
    current = None;
    phase = None;
    model_t0 = t0;
    live_len = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | x ->
    Mutex.unlock t.lock;
    x
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let elapsed_u t = Float.max 0. (t.clock () -. t.t0)
let completed t = locked t (fun () -> t.completed)
let elapsed t = elapsed_u t

(* elapsed / completed * remaining: deterministic given an injected
   clock, and skipped models count as completed work so a resumed run
   does not project the skipped prefix onto the remainder. *)
let eta_seconds_u t =
  if t.completed <= 0 || t.completed >= t.total then None
  else Some (elapsed_u t /. float_of_int t.completed *. float_of_int (t.total - t.completed))

let eta_seconds t = locked t (fun () -> eta_seconds_u t)

let duration s =
  if s < 60. then Printf.sprintf "%.0fs" s
  else if s < 3600. then Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)

let eta_cell_u t =
  match eta_seconds_u t with None -> "" | Some s -> " eta " ^ duration s

(* ------------------------------------------------------------------ *)
(* Console output (caller holds the lock)                              *)
(* ------------------------------------------------------------------ *)

let live_line_u t =
  let pct =
    if t.total = 0 then 100.
    else 100. *. float_of_int t.completed /. float_of_int t.total
  in
  let where =
    match t.current with
    | None -> ""
    | Some id -> (
      match t.phase with
      | None -> "  " ^ id
      | Some p -> Printf.sprintf "  %s:%s" id p)
  in
  Printf.sprintf "%s %d/%d (%.0f%%)%s%s" t.label t.completed t.total pct
    (eta_cell_u t) where

let redraw_u t =
  match t.out with
  | Some oc when t.tty ->
    let line = live_line_u t in
    let pad = max 0 (t.live_len - String.length line) in
    output_string oc ("\r" ^ line ^ String.make pad ' ');
    t.live_len <- String.length line;
    flush oc
  | _ -> ()

let println_u t msg =
  match t.out with
  | None -> ()
  | Some oc ->
    if t.tty then begin
      (* Clear the live line before emitting a scrolling record. *)
      output_string oc ("\r" ^ String.make t.live_len ' ' ^ "\r");
      t.live_len <- 0
    end;
    output_string oc msg;
    output_char oc '\n';
    flush oc

(* ------------------------------------------------------------------ *)
(* Sequential lifecycle (implicit current model)                       *)
(* ------------------------------------------------------------------ *)

let start t id =
  locked t (fun () ->
      t.current <- Some id;
      t.phase <- None;
      t.model_t0 <- t.clock ();
      redraw_u t)

let phase t name =
  locked t (fun () ->
      t.phase <- Some name;
      redraw_u t)

let finish t =
  locked t (fun () ->
      let dt = Float.max 0. (t.clock () -. t.model_t0) in
      t.completed <- t.completed + 1;
      (match t.current with
      | Some id when not t.tty ->
        println_u t
          (Printf.sprintf "%s [%d/%d] %s done in %s%s" t.label t.completed
             t.total id (duration dt) (eta_cell_u t))
      | _ -> ());
      t.current <- None;
      t.phase <- None;
      redraw_u t)

let skip t =
  locked t (fun () ->
      t.completed <- t.completed + 1;
      t.skipped <- t.skipped + 1;
      redraw_u t)

(* ------------------------------------------------------------------ *)
(* Concurrent lifecycle (explicit model ids, for fleet workers)        *)
(* ------------------------------------------------------------------ *)

let task_start t id =
  locked t (fun () ->
      (* The live line shows the most recently started task — with
         several in flight there is no single "current" model, only a
         representative one. *)
      t.current <- Some id;
      t.phase <- None;
      redraw_u t)

let task_phase t ~id name =
  locked t (fun () ->
      if t.current = Some id then t.phase <- Some name;
      redraw_u t)

let task_done t ?(elapsed = 0.) id =
  locked t (fun () ->
      t.completed <- t.completed + 1;
      if not t.tty then
        println_u t
          (Printf.sprintf "%s [%d/%d] %s done in %s%s" t.label t.completed
             t.total id (duration elapsed) (eta_cell_u t));
      if t.current = Some id then begin
        t.current <- None;
        t.phase <- None
      end;
      redraw_u t)

let close t =
  locked t (fun () ->
      (match t.out with
      | Some oc when t.tty ->
        output_string oc ("\r" ^ String.make t.live_len ' ' ^ "\r");
        t.live_len <- 0;
        flush oc
      | _ -> ());
      println_u t
        (Printf.sprintf "%s: %d/%d done%s in %s" t.label t.completed t.total
           (if t.skipped > 0 then Printf.sprintf " (%d skipped)" t.skipped
            else "")
           (duration (elapsed_u t))))
