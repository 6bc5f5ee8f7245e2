(** A CBCAST group bound to the simulator.

    CBCAST assumes a reliable transport underneath (the paper contrasts this
    with urcgc's independence from the transport), so the cluster mounts
    every PDU on the {!Net.Transport} entity with [h = ] "all destinations":
    copies are retransmitted until acknowledged.  Acknowledgement traffic is
    accounted separately from the protocol's own control messages. *)

type 'a delivery = {
  node : Net.Node_id.t;
  data : 'a Cb_wire.data;
  at : Sim.Ticks.t;
}

type view_change = {
  at_node : Net.Node_id.t;
  view_id : int;
  members : bool array;
  at : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  n:int ->
  k:int ->
  engine:Sim.Engine.t ->
  fault:Net.Fault.t ->
  rng:Sim.Rng.t ->
  unit ->
  'a t

include Net.Cluster.S with type 'a t := 'a t and type 'a member := 'a Member.t

val submit : ?size:int -> 'a t -> Net.Node_id.t -> 'a -> unit

val deliveries : 'a t -> 'a delivery list
val generations : 'a t -> (Net.Node_id.t * int * Sim.Ticks.t) list
(** (sender, seq, time) of every multicast data message. *)

val view_changes : 'a t -> view_change list
val flush_starts : 'a t -> (Net.Node_id.t * int * Sim.Ticks.t) list

val traffic : 'a t -> Net.Traffic.t

