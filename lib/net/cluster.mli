(** The round-clock skeleton every protocol cluster is built on.

    urcgc, urgc, CBCAST and Psync all drive their members the same way: a
    global round clock (two rounds per subrun, one subrun per rtd), a
    per-round step for every member that has not crashed, after-round
    callbacks, and the same notion of an active member and of a settled
    group.  This module owns that policy; a protocol cluster owns only its
    members' action dispatch and the events it records.

    Member [i] of the array is node [i]. *)

type 'm t

val create :
  tracer:Sim.Trace.t ->
  engine:Sim.Engine.t ->
  fault:Fault.t ->
  active:('m -> bool) ->
  'm array ->
  'm t
(** [active m] is [false] once [m] has left the group.  Crashes are not
    [active]'s business: they come from [fault]. *)

val start : 'm t -> step:(round:int -> 'm -> unit) -> unit
(** Starts the clock at the engine's current time.  Each round is one
    ["cluster.round"] engine event that applies [step ~round] once, then the
    function it returns to every member not crashed at that instant (ids
    ascending), then runs the {!on_round} callbacks.  Rounds are scheduled
    lazily, so the simulation ends when [Engine.run ~until] says so.
    Raises [Invalid_argument] if already started. *)

val engine : 'm t -> Sim.Engine.t
val now : 'm t -> Sim.Ticks.t

val tracer : 'm t -> Sim.Trace.t

val emit : 'm t -> Sim.Trace.event -> unit
(** Stamps the event with {!now}. *)

val note : 'm t -> Node_id.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Free-form narration by a member, emitted as a {!Sim.Trace.event.Note};
    with tracing off the message is never even formatted. *)

val member : 'm t -> Node_id.t -> 'm
val members : 'm t -> 'm list

val round : 'm t -> int
(** Rounds completed so far. *)

val subrun : 'm t -> int

val on_round : 'm t -> (round:int -> unit) -> unit
(** Registers a callback fired after every completed round, with that
    round's index.  Callbacks run in registration order. *)

val peers : bool array -> self:Node_id.t -> Node_id.t list
(** The nodes flagged in a membership array, [self] excluded, ids
    ascending: a member's multicast destinations. *)

val crashed : 'm t -> Node_id.t -> bool
(** Fail-stopped by fault injection at {!now}. *)

val active : 'm t -> Node_id.t -> bool
(** The member has not left the group (it may still have crashed). *)

val max_active : 'm t -> ('m -> int) -> int
(** The largest [f m] over the members that have not left; 0 if none. *)

val active_members : 'm t -> Node_id.t list
(** Members that have neither crashed nor left, ids ascending. *)

val quiescent : 'm t -> idle:('m -> bool) -> agree:('m -> 'm -> bool) -> bool
(** Every active member is [idle], and every one agrees with the first:
    nothing further will happen if no new messages are submitted.  [true]
    when no member is active. *)

(** {1 Protocol clusters} *)

type 'm skeleton = 'm t

(** The surface every protocol cluster exposes over its skeleton.  A
    cluster's interface includes it with its own [t] and member type, and
    adds its constructor, its submit primitive and its recorded events. *)
module type S = sig
  type 'a t
  type 'a member

  val core : 'a t -> 'a member skeleton

  val start : 'a t -> unit
  (** Starts the round clock at the engine's current time (see
      {!val-start}). *)

  val member : 'a t -> Node_id.t -> 'a member
  val members : 'a t -> 'a member list
  val subrun : 'a t -> int

  val on_round : 'a t -> (round:int -> unit) -> unit
  (** Registers an after-round callback (see {!val-on_round}). *)

  val active_members : 'a t -> Node_id.t list
  (** Members that have neither crashed nor left, ids ascending. *)

  val quiescent : 'a t -> bool
  (** The protocol's settledness test: every active member is idle and
      agrees with the others, so nothing further will be delivered unless
      new messages are submitted. *)
end
