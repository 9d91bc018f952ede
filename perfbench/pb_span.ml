(* Spans and counters for the traced run.

   The benchmark records spans around the public calls it makes into each
   layer; nothing inside the library is instrumented. A span carries its
   name, start, end, parent and request id. Spans stay in memory and are
   written out once, at exit, as Chrome trace-event JSON (Perfetto and
   chrome://tracing open it). Recording is off unless a traced run turns
   it on, so untraced runs pay one atomic load per call. *)

type span = {
  id : int;
  name : string;
  req : int;  (** request id: the compile, sweep, spec or request served *)
  parent : int;  (** -1 for a root span *)
  domain : int;
  t0 : float;
  t1 : float;
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let spans : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let next_id = Atomic.make 0
let origin = Unix.gettimeofday ()

(* Open spans of the calling domain, innermost first: (id, req). *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enable () = Atomic.set enabled true

(** [reset ()] — forget every span and counter and stop recording. *)
let reset () =
  Atomic.set enabled false;
  Mutex.protect lock (fun () ->
      spans := [];
      Hashtbl.reset counters)

(** [current ()] — the innermost open span of this domain, as a parent
    for work handed to another domain. *)
let current () =
  match Domain.DLS.get stack with (id, req) :: _ -> (id, req) | [] -> (-1, 0)

(** [with_ ?parent ?req name f] — run [f ()] inside a span. The parent
    and request id default to the innermost open span of this domain;
    pool tasks pass them explicitly. *)
let with_ ?parent ?req name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let up_id, up_req = current () in
    let parent = Option.value parent ~default:up_id in
    let req = Option.value req ~default:up_req in
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack ((id, req) :: saved);
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set stack saved;
      let s =
        { id; name; req; parent; domain = (Domain.self () :> int); t0; t1 }
      in
      Mutex.protect lock (fun () -> spans := s :: !spans)
    in
    Fun.protect ~finally:finish f
  end

(** [pool_map ~jobs ?req name f xs] — [Pool.parallel_map] under a
    [pool.map] span, each task a [name] span under it ([req] gives a
    task its request id). *)
let pool_map ~jobs ?req name f xs =
  with_ "pool.map" (fun () ->
      let parent, up_req = current () in
      Pool.parallel_map ~jobs
        (fun x ->
          let req = match req with Some r -> r x | None -> up_req in
          with_ ~parent ~req name (fun () -> f x))
        xs)

(** [add name n] — bump a counter recorded at a layer boundary. *)
let add name n =
  if Atomic.get enabled then
    Mutex.protect lock (fun () ->
        let cur = Option.value (Hashtbl.find_opt counters name) ~default:0.0 in
        Hashtbl.replace counters name (cur +. n))

let count name = Option.value (Hashtbl.find_opt counters name) ~default:0.0
let all () = !spans
let dur_ms s = (s.t1 -. s.t0) *. 1e3
let named name = List.filter (fun s -> s.name = name) !spans

(** Total milliseconds and number of spans of one name. *)
let total_ms name = List.fold_left (fun acc s -> acc +. dur_ms s) 0.0 (named name)

let calls name = float_of_int (List.length (named name))
let mean_ms name = Pb_util.ratio (total_ms name) (calls name)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
        | None -> go acc (Some (a, b)) rest)
  in
  go 0.0 None clipped

(** Self time of every span name: each span's duration minus the part of
    its interval that its direct children cover, summed per name. *)
let self_ms () =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) !spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let self = (s.t1 -. s.t0) -. covered ~lo:s.t0 ~hi:s.t1 kids in
      let cur = Option.value (Hashtbl.find_opt totals s.name) ~default:0.0 in
      Hashtbl.replace totals s.name (cur +. (self *. 1e3)))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare

(** Write every span as Chrome trace-event JSON: one complete ("X")
    event per span, microsecond timestamps, one track per domain. *)
let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
             \"ts\": %.1f, \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": \
             %d, \"req\": %d}}"
            (if i = 0 then "" else ",\n")
            s.name s.domain
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent s.req)
        (List.sort (fun a b -> compare a.t0 b.t0) !spans);
      output_string oc "\n]}\n")
