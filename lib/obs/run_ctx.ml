(* Explicit, domain-safe run context.

   Historically the observability stack kept run state in process
   globals — [Health.cur], the ledger's sink-wide context, the profiling
   flag — which pinned everything to one domain: two domains evaluating
   models concurrently would interleave their health snapshots and
   ledger provenance. A [Run_ctx.t] carries that per-unit-of-work state
   explicitly instead. Every domain has a current context (stored in
   [Domain.DLS], exactly like [Span]'s open-span stacks), so existing
   call sites keep their signatures: [Health.begin_solve] & co. resolve
   the current context instead of a global ref, and [Ledger.record]
   overlays the current context's provenance fields on the sink-wide
   ones.

   Modules above this one attach their state through typed {!slot}s
   (compare [Domain.DLS.new_key]): [Run_ctx] needs no knowledge of
   [Health]'s snapshot type, and future per-run state (e.g. per-model
   solver scratch) costs one [slot] declaration. Slot lookup is a
   handful of list cells under the context's mutex — contexts hold a
   few slots and observers run at solve granularity, never per pivot. *)

type 'a slot = { tid : 'a Type.Id.t; init : unit -> 'a; slot_name : string }
type binding = B : 'a slot * 'a -> binding

type t = {
  id : int;
  seed : int option;
  rng : Mapqn_prng.Rng.t option;
  lock : Mutex.t;
  mutable context : (string * Json.t) list;
  mutable bindings : binding list;
}

let next_id = Atomic.make 0

let create ?seed ?rng ?(context = []) () =
  let rng =
    match (rng, seed) with
    | Some r, _ -> Some r
    | None, Some seed -> Some (Mapqn_prng.Rng.create ~seed)
    | None, None -> None
  in
  {
    id = Atomic.fetch_and_add next_id 1;
    seed;
    rng;
    lock = Mutex.create ();
    context;
    bindings = [];
  }

(* Each domain starts in its own anonymous root context, so telemetry
   written outside any explicit [with_] still lands somewhere coherent
   (and two domains' root contexts never share mutable state). *)
let key = Domain.DLS.new_key (fun () -> create ())
let current () = Domain.DLS.get key

let with_ ctx f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let id t = t.id
let seed t = t.seed
let rng t = t.rng

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | x ->
    Mutex.unlock t.lock;
    x
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* ------------------------------------------------------------------ *)
(* Ledger context overlay                                              *)
(* ------------------------------------------------------------------ *)

let set_context t key value =
  locked t (fun () ->
      t.context <- (key, value) :: List.remove_assoc key t.context)

let context t = locked t (fun () -> t.context)

(* ------------------------------------------------------------------ *)
(* Typed state slots                                                   *)
(* ------------------------------------------------------------------ *)

let slot ~name init = { tid = Type.Id.make (); init; slot_name = name }
let slot_name s = s.slot_name

let get : type a. t -> a slot -> a =
 fun ctx s ->
  locked ctx (fun () ->
      let rec find : binding list -> a option = function
        | [] -> None
        | B (s', v) :: rest -> (
          match Type.Id.provably_equal s'.tid s.tid with
          | Some Type.Equal -> Some v
          | None -> find rest)
      in
      match find ctx.bindings with
      | Some v -> v
      | None ->
        let v = s.init () in
        ctx.bindings <- B (s, v) :: ctx.bindings;
        v)
