type 'm t = {
  engine : Sim.Engine.t;
  fault : Fault.t;
  tracer : Sim.Trace.t;
  members : 'm array;
  is_active : 'm -> bool;
  mutable round : int;
  mutable started : bool;
  mutable callbacks : (round:int -> unit) list;  (* newest first *)
}

let create ~tracer ~engine ~fault ~active members =
  {
    engine;
    fault;
    tracer;
    members;
    is_active = active;
    round = 0;
    started = false;
    callbacks = [];
  }

let engine t = t.engine
let now t = Sim.Engine.now t.engine
let tracer t = t.tracer
let emit t event = Sim.Trace.emit t.tracer ~time:(now t) event

let note t node fmt =
  if Sim.Trace.enabled t.tracer then
    Format.kasprintf
      (fun message ->
        emit t
          (Sim.Trace.Note
             { source = Format.asprintf "%a" Node_id.pp node; message }))
      fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let member t node = t.members.(Node_id.to_int node)
let members t = Array.to_list t.members
let round t = t.round
let subrun t = t.round / 2
let on_round t callback = t.callbacks <- callback :: t.callbacks

let peers flags ~self =
  let self = Node_id.to_int self in
  let dsts = ref [] in
  for i = Array.length flags - 1 downto 0 do
    if flags.(i) && i <> self then dsts := Node_id.of_int i :: !dsts
  done;
  !dsts

let crashed t node = Fault.crashed t.fault ~now:(now t) node
let active t node = t.is_active (member t node)

let start t ~step =
  if t.started then invalid_arg "Cluster.start: already started";
  t.started <- true;
  let rec tick () =
    let round = t.round in
    let step_member = step ~round in
    Array.iteri
      (fun i member ->
        if not (crashed t (Node_id.of_int i)) then step_member member)
      t.members;
    t.round <- round + 1;
    List.iter (fun callback -> callback ~round) (List.rev t.callbacks);
    ignore
      (Sim.Engine.schedule_after ~label:"cluster.round" t.engine
         ~delay:Sim.Ticks.round tick)
  in
  ignore
    (Sim.Engine.schedule_after ~label:"cluster.round" t.engine
       ~delay:Sim.Ticks.zero tick)

let max_active t f =
  Array.fold_left
    (fun acc member -> if t.is_active member then max acc (f member) else acc)
    0 t.members

let active_members t =
  let acc = ref [] in
  for i = Array.length t.members - 1 downto 0 do
    let node = Node_id.of_int i in
    if t.is_active t.members.(i) && not (crashed t node) then
      acc := node :: !acc
  done;
  !acc

let quiescent t ~idle ~agree =
  match List.map (member t) (active_members t) with
  | [] -> true
  | first :: rest as actives ->
      List.for_all idle actives && List.for_all (agree first) rest

type 'm skeleton = 'm t

module type S = sig
  type 'a t
  type 'a member

  val core : 'a t -> 'a member skeleton
  val start : 'a t -> unit
  val member : 'a t -> Node_id.t -> 'a member
  val members : 'a t -> 'a member list
  val subrun : 'a t -> int
  val on_round : 'a t -> (round:int -> unit) -> unit
  val active_members : 'a t -> Node_id.t list
  val quiescent : 'a t -> bool
end
