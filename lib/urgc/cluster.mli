(** A urgc (total-order) group bound to the simulator — the mirror of
    {!Urcgc.Cluster} for the companion algorithm, on the same
    {!Net.Cluster} round clock.  Departures are traced as
    {!Sim.Trace.event.Left}. *)

type 'a delivery = {
  node : Net.Node_id.t;
  seq : int;  (** the agreed global sequence number *)
  data : 'a Total_wire.data;
  at : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  ?silence_limit:int ->
  n:int ->
  k:int ->
  net:'a Total_wire.body Net.Netsim.t ->
  unit ->
  'a t

include Net.Cluster.S with type 'a t := 'a t and type 'a member := 'a Member.t

val submit : ?size:int -> 'a t -> Net.Node_id.t -> 'a -> unit

val deliveries : 'a t -> 'a delivery list
val generations : 'a t -> (Causal.Mid.t * Sim.Ticks.t) list

val total_order_ok : 'a t -> bool
(** The URGC clause: every active process processed the same sequence of
    messages, in the same (global) order — checked on the event log. *)
