(* Monotonic clock in seconds. [Monotonic_clock.now] is a noalloc
   clock_gettime(CLOCK_MONOTONIC) returning nanoseconds; converting to a
   float keeps the rest of the span arithmetic unchanged. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The profiling switch. Hot-path instrumentation (simplex
   price/ratio/update, constraint-row emission vs assembly) checks
   [is_profiling] before reading the clock, and [with_] records GC
   deltas only while it is on. Atomic, not a bare ref: worker domains
   consult the flag on their solver hot paths while the main domain may
   flip it. *)
let profiling_flag = Atomic.make false
let enable_profiling () = Atomic.set profiling_flag true
let disable_profiling () = Atomic.set profiling_flag false
let is_profiling () = Atomic.get profiling_flag

type agg = {
  mutable count : int;
  mutable total : float;
  mutable max_ : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
  mutable compactions : int;
}

type collector = {
  id : int;
  lock : Mutex.t;
  clock : unit -> float;
  table : (string list, agg) Hashtbl.t; (* key: path, outermost first *)
}

let next_id = Atomic.make 0

(* Each domain keeps its own open-span stacks (one per collector, keyed
   by collector id), so concurrent domains recording into the same
   collector cannot interleave their paths. Only the aggregate table is
   shared, and it stays mutex-guarded. *)
let stacks_key : (int, string list ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let stack_of c =
  let stacks = Domain.DLS.get stacks_key in
  match Hashtbl.find_opt stacks c.id with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.add stacks c.id s;
    s

let create ?(clock = now) () =
  {
    id = Atomic.fetch_and_add next_id 1;
    lock = Mutex.create ();
    clock;
    table = Hashtbl.create 32;
  }

let default = create ()

let locked c f =
  Mutex.lock c.lock;
  match f () with
  | x ->
    Mutex.unlock c.lock;
    x
  | exception e ->
    Mutex.unlock c.lock;
    raise e

let find_agg c path =
  match Hashtbl.find_opt c.table path with
  | Some a -> a
  | None ->
    let a =
      {
        count = 0;
        total = 0.;
        max_ = 0.;
        minor_words = 0.;
        major_words = 0.;
        promoted_words = 0.;
        compactions = 0;
      }
    in
    Hashtbl.add c.table path a;
    a

let with_ ?(collector = default) name f =
  if String.contains name '/' then invalid_arg "Span.with_: '/' in span name";
  let stack = stack_of collector in
  stack := name :: !stack;
  let path = List.rev !stack in
  (* [quick_stat].minor_words only advances at minor collections in
     native code; [Gc.minor_words ()] reads the young pointer and is
     exact, so splice it in for the one field where small deltas
     matter. *)
  let gc_snapshot () =
    { (Gc.quick_stat ()) with Gc.minor_words = Gc.minor_words () }
  in
  let g0 = if Atomic.get profiling_flag then Some (gc_snapshot ()) else None in
  let t0 = collector.clock () in
  Fun.protect f ~finally:(fun () ->
      (* Clamp: a stepped wall clock injected via [?clock] (or plain
         noise) must never record a negative duration. *)
      let dt = Float.max 0. (collector.clock () -. t0) in
      let g1 = match g0 with Some _ -> Some (gc_snapshot ()) | None -> None in
      (* Pop back to this span even if nested spans leaked (e.g. an
         exception skipped their finalizers' order). *)
      (match !stack with
      | top :: rest when top == name || top = name -> stack := rest
      | st ->
        let rec drop = function
          | top :: rest when top = name -> rest
          | _ :: rest -> drop rest
          | [] -> []
        in
        stack := drop st);
      locked collector (fun () ->
          let a = find_agg collector path in
          a.count <- a.count + 1;
          a.total <- a.total +. dt;
          a.max_ <- Float.max a.max_ dt;
          match (g0, g1) with
          | Some g0, Some g1 ->
            a.minor_words <- a.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
            a.major_words <- a.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
            a.promoted_words <-
              a.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
            a.compactions <- a.compactions + (g1.Gc.compactions - g0.Gc.compactions)
          | _ -> ()))

let add ?(collector = default) ?(count = 1) ?max_ ?(minor_words = 0.) name
    seconds =
  if String.contains name '/' then invalid_arg "Span.add: '/' in span name";
  let stack = stack_of collector in
  let path = List.rev (name :: !stack) in
  let seconds = Float.max 0. seconds in
  let max_ =
    match max_ with Some m -> m | None -> if count <= 1 then seconds else 0.
  in
  locked collector (fun () ->
      let a = find_agg collector path in
      a.count <- a.count + count;
      a.total <- a.total +. seconds;
      a.max_ <- Float.max a.max_ max_;
      a.minor_words <- a.minor_words +. minor_words)

type entry = {
  path : string list;
  count : int;
  total : float;
  max_ : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  compactions : int;
}

let snapshot ?(collector = default) () =
  let all =
    locked collector (fun () ->
        Hashtbl.fold
          (fun path (a : agg) acc ->
            {
              path;
              count = a.count;
              total = a.total;
              max_ = a.max_;
              minor_words = a.minor_words;
              major_words = a.major_words;
              promoted_words = a.promoted_words;
              compactions = a.compactions;
            }
            :: acc)
          collector.table [])
  in
  List.sort (fun a b -> compare a.path b.path) all

let total ?collector path =
  List.find_map
    (fun e -> if e.path = path then Some e.total else None)
    (snapshot ?collector ())

let reset ?(collector = default) () =
  locked collector (fun () -> Hashtbl.reset collector.table);
  (* Open-span stacks are domain-local; only the calling domain's stack
     can be cleared here. *)
  stack_of collector := []

(* ------------------------------------------------------------------ *)
(* Self-time attribution                                               *)
(* ------------------------------------------------------------------ *)

(* For every path, self = total − Σ direct children totals, so summing
   self over all paths telescopes to the summed root totals ≈ measured
   wall time. *)

type row = {
  path : string list;
  count : int;
  total : float;
  self : float;
  max_ : float;
  minor_words : float;
  self_minor_words : float;
  major_words : float;
  promoted_words : float;
  compactions : int;
}

let is_direct_child ~parent path =
  let rec strip p c =
    match (p, c) with
    | [], [ _ ] -> true
    | x :: p, y :: c when String.equal x y -> strip p c
    | _ -> false
  in
  strip parent path

let attribution ?entries () =
  let entries = match entries with Some e -> e | None -> snapshot () in
  let rows =
    List.map
      (fun (e : entry) ->
        let kids =
          List.filter
            (fun (k : entry) -> is_direct_child ~parent:e.path k.path)
            entries
        in
        let child_total =
          List.fold_left (fun acc (k : entry) -> acc +. k.total) 0. kids
        in
        let child_minor =
          List.fold_left (fun acc (k : entry) -> acc +. k.minor_words) 0. kids
        in
        {
          path = e.path;
          count = e.count;
          total = e.total;
          self = Float.max 0. (e.total -. child_total);
          max_ = e.max_;
          minor_words = e.minor_words;
          self_minor_words = Float.max 0. (e.minor_words -. child_minor);
          major_words = e.major_words;
          promoted_words = e.promoted_words;
          compactions = e.compactions;
        })
      entries
  in
  List.sort (fun (a : row) b -> compare b.self a.self) rows

let self_total rows =
  List.fold_left (fun acc (r : row) -> acc +. r.self) 0. rows

(* Subtract [baseline] aggregates from [current], path by path; rows
   that saw no activity since the baseline are dropped. Lets callers
   (e.g. the bench harness) attribute one section of a longer run
   without resetting the global collector. *)
let diff ~baseline current =
  let base = Hashtbl.create 32 in
  List.iter (fun (e : entry) -> Hashtbl.replace base e.path e) baseline;
  List.filter_map
    (fun (e : entry) ->
      let e =
        match Hashtbl.find_opt base e.path with
        | None -> e
        | Some b ->
          {
            e with
            count = e.count - b.count;
            total = e.total -. b.total;
            minor_words = e.minor_words -. b.minor_words;
            major_words = e.major_words -. b.major_words;
            promoted_words = e.promoted_words -. b.promoted_words;
            compactions = e.compactions - b.compactions;
          }
      in
      if e.count <= 0 && e.total <= 0. then None else Some e)
    current

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph)                                           *)
(* ------------------------------------------------------------------ *)

(* One line per path: "a;b;c <self-microseconds>". Standard flamegraph
   tooling (flamegraph.pl, inferno, speedscope) consumes this directly;
   self-time is the correct per-frame value because the tools re-derive
   cumulative time by summing descendants. *)
let folded ?entries () =
  let rows = attribution ?entries () in
  let rows = List.sort (fun (a : row) b -> compare a.path b.path) rows in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : row) ->
      Buffer.add_string buf (String.concat ";" r.path);
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (string_of_int (int_of_float ((r.self *. 1e6) +. 0.5)));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let parse_folded s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             let stack = String.sub line 0 i in
             let value = String.sub line (i + 1) (String.length line - i - 1) in
             (match int_of_string_opt value with
             | None -> None
             | Some v -> Some (String.split_on_char ';' stack, v)))

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let attribution_json ?limit rows =
  let rows =
    match limit with
    | Some n when n >= 0 -> List.filteri (fun i _ -> i < n) rows
    | _ -> rows
  in
  Json.List
    (List.map
       (fun (r : row) ->
         Json.Object
           [
             ("path", Json.String (String.concat "/" r.path));
             ("count", Json.Number (float_of_int r.count));
             ("total_s", Json.Number r.total);
             ("self_s", Json.Number r.self);
             ("max_s", Json.Number r.max_);
             ("minor_words", Json.Number r.minor_words);
             ("major_words", Json.Number r.major_words);
             ("promoted_words", Json.Number r.promoted_words);
           ])
       rows)
