(** Verification of the URCGC correctness clauses (Definition 3.2), as a
    fold over the processing events.

    A run's events are fed to one {!t}, live or replayed, and {!finish}
    gives the verdict on:
    - {b causal ordering}: at every process, every processed message was
      processable at the moment it was processed (its origin chain was
      gap-free and all explicit dependencies already processed); processing
      a message twice breaks it too;
    - {b uniform atomicity} among survivors: all processes active at the end
      of the run processed exactly the same set of messages;
    - {b no zombie processing}: a message discarded by group agreement was
      never processed by a surviving process, and no process processed
      anything at a tick strictly after it left the group;
    - {b view agreement}: all surviving processes hold the same group view
      (Section 4, assumption 4);
    - {b primary partition}: no member departed with reason
      {!Urcgc.Member.Partitioned}.  Such a departure means a member's
      adopted view degenerated to itself alone, i.e. the group lost its
      primary partition — impossible within the fault budget
      (silenced + crashed <= t) and therefore the detectable liveness
      signature of beyond-budget fault load.

    Causal order, processing after leaving and partition departures are
    judged at each event.  The fold keeps one {!Causal.Delivery} tracker per
    node, numbers the mids it meets densely and keeps one byte per
    (node, mid), and first departures as an array of ticks, so it allocates
    nothing per event.  Atomicity compares the survivors' byte maps with
    [Bytes.equal]; discarded mids that survivors processed show in the same
    maps, and only then are the events replayed, to list them in order.
    Violations are listed clause by clause in the order above, each
    clause's in event order. *)

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
(** All five clauses hold.  The clauses are separate fields so the
    trace-level oracle ({!Sim.Analysis}) can be cross-validated bit by bit:
    it can witness causality, atomicity, zombie processing, and partition
    departures from events alone, but not view agreement (per-node view
    state is never traced). *)

type t
(** The fold's state for one run. *)

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
