(* In-memory spans recorded around the benchmark's calls into the library.

   A span has a name (the layer and function it wraps), a parent span, a
   request id ("N=40", "model-00012/N=8", "browsers=48"), and monotonic
   start and end times. Spans are kept in memory while tracing is on and
   written out once, at the end of the run. When tracing is off, [with_]
   is a single branch around the call, so the untraced and traced runs
   make exactly the same calls. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : string;
  start : float;
  stop : float;
}

let enabled = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []

(* Open spans of the calling domain, innermost first: (id, request id). *)
let stack = Domain.DLS.new_key (fun () -> [])

let set_enabled on = enabled := on

let current () =
  match Domain.DLS.get stack with (id, _) :: _ -> id | [] -> 0

(* [parent] overrides the calling domain's innermost span: fleet tasks run
   on worker domains but belong to the span that launched the pool. [req]
   defaults to the parent's request id. *)
let with_ ?parent ?req name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let open_spans = Domain.DLS.get stack in
    let inherited_id, inherited_req =
      match open_spans with (p, r) :: _ -> (p, r) | [] -> (0, "")
    in
    let parent = Option.value parent ~default:inherited_id in
    let req = Option.value req ~default:inherited_req in
    Domain.DLS.set stack ((id, req) :: open_spans);
    let start = Mapqn_obs.Span.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Mapqn_obs.Span.now () in
        Domain.DLS.set stack open_spans;
        Mutex.protect lock (fun () ->
            recorded := { id; parent; name; req; start; stop } :: !recorded))
      f
  end

(* Run [f] as request [req] without opening a span: the spans it opens
   carry [req] as their request id. *)
let with_req req f =
  if not !enabled then f ()
  else begin
    let open_spans = Domain.DLS.get stack in
    Domain.DLS.set stack ((current (), req) :: open_spans);
    Fun.protect ~finally:(fun () -> Domain.DLS.set stack open_spans) f
  end

(* The spans recorded since the last [take], in start order. *)
let take () =
  Mutex.protect lock (fun () ->
      let spans = !recorded in
      recorded := [];
      List.sort (fun a b -> compare a.start b.start) spans)

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the part of it covered by
   its children. Children of one parent may overlap (fleet tasks run on
   several domains), so the covered part is the length of the union of
   their intervals, clipped to the parent. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., Float.neg_infinity) kids
      in
      (s, Float.max 0. (duration s -. covered)))
    spans

(* Summed self time of the spans called [name]. *)
let self_total selfs name =
  List.fold_left (fun acc (s, t) -> if s.name = name then acc +. t else acc) 0. selfs

let write path selfs =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%S,\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}\n"
        s.id s.parent s.name s.req s.start s.stop self)
    selfs;
  close_out oc
