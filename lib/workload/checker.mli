(** The urcgc feed of {!Sim.Oracle}, and its verdict.

    A run's processing events are fed to one {!t}, live or replayed: each
    event with the message's explicit dependencies, read in place
    ({!Labels}), and each departure with its reason.  {!finish} adds the
    one clause a trace cannot witness, {b view agreement}: all surviving
    processes hold the same group view (Section 4, assumption 4).  The
    other clauses — causal order, uniform atomicity among survivors, no
    zombie processing, primary partition — are {!Sim.Oracle}'s.  Violations
    are listed clause by clause (causal order, atomicity, zombie, views,
    partition), each clause's in event order. *)

type verdict = {
  causal_ok : bool;
  atomicity_ok : bool;
      (** survivors processed the same message sets (set equality only; the
          zombie and view clauses report separately below) *)
  zombie_ok : bool;
  views_ok : bool;
  partition_ok : bool;
  violations : string list;  (** human-readable description of each failure *)
}

val ok : verdict -> bool
(** All five clauses hold. *)

val of_oracle : Sim.Oracle.verdict -> verdict
(** The oracle's verdict in urcgc's terms: processing twice counts as a
    causal-order failure, and view agreement (never traced) holds. *)

val agrees : verdict -> verdict -> bool
(** Equal causal, atomicity, zombie and partition bits: two feeds of the
    oracle saw the same events.  View agreement is left out, since a trace
    cannot witness it. *)

type t
(** The fold's state for one run. *)

module Labels : sig
  val deliver :
    Sim.Oracle.t ->
    node:int ->
    Causal.Mid.t ->
    deps:Causal.Mid.t array ->
    at:int ->
    unit
  (** {!Sim.Oracle.Explicit} over {!Causal.Mid}. *)
end

val create : n:int -> t
(** A fold over a group of [n] members.  Every node id and mid origin fed
    to it must be below [n]. *)

val deliver : t -> Net.Node_id.t -> 'a Causal.Causal_msg.t -> Sim.Ticks.t -> unit
(** [deliver t node msg at]: [node] processed [msg] at [at].  Events come in
    order. *)

val depart : t -> Urcgc.Cluster.departure -> unit
(** A member left, fed no later than the first event at a later tick. *)

val finish :
  t ->
  actives:Net.Node_id.t list ->
  view:(Net.Node_id.t -> Causal.Group_view.t) ->
  discards:(Net.Node_id.t * Causal.Mid.t list * Sim.Ticks.t) list ->
  iter:
    ((Net.Node_id.t -> 'a Causal.Causal_msg.t -> Sim.Ticks.t -> unit) ->
    unit) ->
  verdict
(** The verdict once the run is over: the distinct [actives] survived,
    holding views [view node]; [discards] in order, as {!Urcgc.Cluster}
    records them.  [iter f] replays the events fed to the fold, calling
    [f node msg at] on each in order; it is called only when a survivor
    processed a discarded mid. *)

val check : 'a Urcgc.Cluster.t -> verdict
(** [verify] over the cluster's members, recorded deliveries, discards and
    departures, once the run is over. *)

val verify :
  n:int ->
  actives:Net.Node_id.t list ->
  view:(Net.Node_id.t -> Causal.Group_view.t) ->
  iter:
    ((Net.Node_id.t -> 'a Causal.Causal_msg.t -> Sim.Ticks.t -> unit) ->
    unit) ->
  discards:(Net.Node_id.t * Causal.Mid.t list * Sim.Ticks.t) list ->
  departures:Urcgc.Cluster.departure list ->
  verdict
(** The fold over plain inputs: {!create}, every departure, the events
    [iter] replays, then {!finish}.  [departures] in order, as
    {!Urcgc.Cluster} records them. *)

val pp : Format.formatter -> verdict -> unit
