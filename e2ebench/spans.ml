(* Self-time accounting for the traced pass.

   A span is opened around each call the benchmark makes into a layer.  The
   hot leaves (medium sends, receive handlers: millions per run) only add
   into per-layer accumulators; the coarse spans (stack creation, each
   [Engine.run] slice, [Cluster.deliveries], [Checker.check]) are also kept
   in an in-memory log that is written out when the workload ends.  A
   layer's self time is its inclusive time minus the time of the spans
   opened while it was open. *)

type layer =
  | Engine
  | Netsim
  | Codec
  | Member
  | Create
  | Deliveries
  | Checker

let layers = [| Engine; Netsim; Codec; Member; Create; Deliveries; Checker |]

let index = function
  | Engine -> 0
  | Netsim -> 1
  | Codec -> 2
  | Member -> 3
  | Create -> 4
  | Deliveries -> 5
  | Checker -> 6

let name = function
  | Engine -> "engine.run"
  | Netsim -> "netsim.send"
  | Codec -> "codec"
  | Member -> "member.recv"
  | Create -> "cluster.create"
  | Deliveries -> "cluster.deliveries"
  | Checker -> "checker.check"

let coarse = function
  | Engine | Create | Deliveries | Checker -> true
  | Netsim | Codec | Member -> false

let now () = Int64.to_int (Monotonic_clock.now ())
let n_layers = Array.length layers
let self_ns = Array.make n_layers 0
let incl_ns = Array.make n_layers 0
let calls = Array.make n_layers 0

(* Open spans.  Layers nest at most a handful deep (engine > member >
   codec > netsim), so a small fixed stack suffices. *)
let max_depth = 32
let depth = ref 0
let open_layer = Array.make max_depth 0
let open_start = Array.make max_depth 0
let open_child = Array.make max_depth 0
let open_log = Array.make max_depth (-1)

(* The coarse span log: name, start, end and parent (an index into the log,
   or -1), in opening order. *)
type span = { id : int; layer : layer; start : int; stop : int; parent : int }

let log : span list ref = ref []
let logged = ref 0

let reset () =
  Array.fill self_ns 0 n_layers 0;
  Array.fill incl_ns 0 n_layers 0;
  Array.fill calls 0 n_layers 0;
  depth := 0;
  log := [];
  logged := 0

let parent_log () =
  let rec find d =
    if d < 0 then -1 else if open_log.(d) >= 0 then open_log.(d) else find (d - 1)
  in
  find (!depth - 1)

let enter layer =
  let d = !depth in
  if d >= max_depth then failwith "Spans.enter: nesting too deep";
  open_layer.(d) <- index layer;
  open_child.(d) <- 0;
  open_log.(d) <-
    (if coarse layer then begin
       incr logged;
       !logged - 1
     end
     else -1);
  depth := d + 1;
  open_start.(d) <- now ()

let exit () =
  let stop = now () in
  let d = !depth - 1 in
  depth := d;
  let l = open_layer.(d) in
  let elapsed = stop - open_start.(d) in
  self_ns.(l) <- self_ns.(l) + elapsed - open_child.(d);
  incl_ns.(l) <- incl_ns.(l) + elapsed;
  calls.(l) <- calls.(l) + 1;
  if d > 0 then open_child.(d - 1) <- open_child.(d - 1) + elapsed;
  let id = open_log.(d) in
  if id >= 0 then begin
    open_log.(d) <- -1;
    log :=
      { id; layer = layers.(l); start = open_start.(d); stop;
        parent = parent_log () }
      :: !log
  end

let span layer f =
  enter layer;
  let result = f () in
  exit ();
  result

let self_s layer = float_of_int self_ns.(index layer) /. 1e9
let incl_s layer = float_of_int incl_ns.(index layer) /. 1e9
let calls_of layer = calls.(index layer)
let attributed_ns () = Array.fold_left ( + ) 0 self_ns

(* One JSON object per line: the coarse spans of the last traced pass (ids
   in opening order, times in ns relative to the first span), then the
   per-layer totals. *)
let write path =
  (* The log is in closing order; ids are in opening order. *)
  let spans = List.sort (fun a b -> compare a.id b.id) !log in
  let origin = match spans with [] -> 0 | s :: _ -> s.start in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"span\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
        s.id (name s.layer) (s.start - origin) (s.stop - origin) s.parent)
    spans;
  Array.iter
    (fun l ->
      Printf.fprintf oc
        "{\"layer\":\"%s\",\"self_ns\":%d,\"incl_ns\":%d,\"calls\":%d}\n"
        (name l) self_ns.(index l) incl_ns.(index l) calls.(index l))
    layers;
  close_out oc
