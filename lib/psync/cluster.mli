(** A Psync conversation bound to the simulator.

    Psync mounts directly on the datagram subnetwork and repairs loss itself
    with retransmission requests, so the cluster uses {!Net.Netsim} without a
    transport entity. *)

type 'a delivery = {
  node : Net.Node_id.t;
  msg : 'a Context_graph.node;
  at : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  ?pending_bound:int ->
  n:int ->
  k:int ->
  net:'a Wire.body Net.Netsim.t ->
  unit ->
  'a t

include Net.Cluster.S with type 'a t := 'a t and type 'a member := 'a Member.t

val submit : ?size:int -> 'a t -> Net.Node_id.t -> 'a -> unit

val deliveries : 'a t -> 'a delivery list
val generations : 'a t -> (Context_graph.mid * Sim.Ticks.t) list
val masked : 'a t -> (Net.Node_id.t * Net.Node_id.t * Sim.Ticks.t) list
(** (who observed, who was masked, when). *)

val dropped : 'a t -> int
(** Pending messages truncated by flow control, across all members. *)

