(** A group of urcgc processes bound to the simulator and the network.

    The round clock, crash gate and quiescence shape come from the shared
    {!Net.Cluster} skeleton.  This module feeds each member its round hooks
    and incoming PDUs, executes the resulting actions, and records
    everything an experiment needs: processing events with timestamps,
    confirmations, discards and departures. *)

type 'a delivery = {
  node : Net.Node_id.t;  (** where the message was processed *)
  msg : 'a Causal.Causal_msg.t;
  at : Sim.Ticks.t;
}

type 'a generation = {
  mid : Causal.Mid.t;
  payload : 'a;
  sent_at : Sim.Ticks.t;
}

type departure = {
  who : Net.Node_id.t;
  why : Member.reason;
  when_ : Sim.Ticks.t;
}

type 'a t

val create :
  ?tracer:Sim.Trace.t ->
  config:Config.t ->
  net:'a Wire.body Net.Netsim.t ->
  unit ->
  'a t
(** Creates the [config.n] members mounted directly on the datagram
    subnetwork — the paper's evaluated [h = 1] configuration.  Raises
    [Invalid_argument] if the network already has handlers on the group's
    ids. *)

val create_with_medium :
  ?tracer:Sim.Trace.t -> config:Config.t -> medium:'a Medium.t -> unit -> 'a t
(** Same, over an arbitrary {!Medium} — in particular the Section 5
    transport entity with [h > 1] ({!Medium.of_transport}). *)

val medium : 'a t -> 'a Medium.t

include Net.Cluster.S with type 'a t := 'a t and type 'a member := 'a Member.t

val config : 'a t -> Config.t

val submit :
  ?deps:Causal.Mid.t list -> ?size:int -> 'a t -> Net.Node_id.t -> 'a -> unit
(** [urcgc.data.Rq] at the given process. *)

val round : 'a t -> int
(** Rounds completed so far. *)

val on_delivery :
  'a t -> (Net.Node_id.t -> 'a Causal.Causal_msg.t -> Sim.Ticks.t -> unit) -> unit
(** [on_delivery t f] calls [f node msg at] at every processing event, as it
    happens, with nothing allocated per event.  Callbacks of this and the
    other [on_*] hooks fire in registration order. *)

val on_confirm : 'a t -> (Net.Node_id.t -> Causal.Mid.t -> unit) -> unit
(** Fired when a process's own message is locally processed
    ([urcgc.data.Conf]). *)

val on_departure : 'a t -> (departure -> unit) -> unit
(** Fired when a process leaves the group, as {!departures} records it. *)

val add_broadcast_targets : 'a t -> Net.Node_id.t list -> unit
(** Extends every member broadcast (data and decisions) to additional
    receivers outside the group — the diffusion-group configuration of
    Section 3, where messages are multicast "to the full set of server and
    client processes". *)

val iter_deliveries :
  'a t ->
  (Net.Node_id.t -> 'a Causal.Causal_msg.t -> Sim.Ticks.t -> unit) ->
  unit
(** [iter_deliveries t f] calls [f node msg at] on every processing event,
    in simulation order, straight from the recorded columns: it allocates
    nothing per event. *)

val deliveries : 'a t -> 'a delivery list
(** Every processing event, in simulation order. *)

val generations : 'a t -> 'a generation list
(** Every message generation (mid assignment + broadcast), in order. *)

val departures : 'a t -> departure list

val discards : 'a t -> (Net.Node_id.t * Causal.Mid.t list * Sim.Ticks.t) list

