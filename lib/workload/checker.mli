(** Post-run verification of the URCGC correctness clauses (Definition 3.2).

    The checker replays the recorded processing events in one pass and
    verifies:
    - {b causal ordering}: at every process, every processed message was
      processable at the moment it was processed (its origin chain was
      gap-free and all explicit dependencies already processed);
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

    The pass keeps one {!Causal.Delivery} tracker per node for causal
    order.  For atomicity it numbers the mids it meets densely and keeps one
    byte per (survivor, mid): the survivors' processed sets are then byte
    maps compared with [Bytes.equal].  Survivors' discards form a byte map
    over the same numbering, and first departures an array of ticks, so the
    pass allocates nothing per event.  Violations are listed clause by
    clause in the order above, each clause's in event order. *)

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

val check : 'a Urcgc.Cluster.t -> verdict
(** [verify] over the cluster's members, recorded deliveries, discards and
    departures. *)

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
(** The checker over plain inputs: a group of [n] members of which the
    distinct [actives] survived, holding views [view node]; [iter f] calls
    [f node msg at] on each processing event in order; [discards] and
    [departures] in order, as {!Urcgc.Cluster} records them.  Every node id
    and mid origin must be below [n]. *)

val pp : Format.formatter -> verdict -> unit
