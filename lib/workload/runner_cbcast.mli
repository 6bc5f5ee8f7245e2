(** Experiment runner for the CBCAST baseline, mirroring {!Runner} so the
    benchmark harness can print urcgc and CBCAST rows side by side. *)

type report = {
  name : string;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;  (** end-to-end delay in rtd *)
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  control_bytes : int;
  control_mean_size : float;
  control_max_size : int;
  data_msgs : int;
  ack_msgs : int;
  unstable_peak : int;  (** CBCAST's history analogue *)
  view_changes : int;
  flush_time_rtd : float;
      (** total simulated time between the first flush start and the last
          view installation — the paper's T for CBCAST (Figure 5) *)
  causal_ok : bool;
  atomicity_ok : bool;
  violations : string list;
}

val judge :
  n:int ->
  actives:Net.Node_id.t list ->
  'a Cbcast.Cluster.delivery list ->
  Sim.Oracle.verdict
(** The oracle over a CBCAST delivery log, each message depending on entry
    [j] of its vector timestamp for every other process [j]; [actives]
    survived, and must have delivered the same messages. *)

val run :
  ?tracer:Sim.Trace.t ->
  ?name:string ->
  n:int ->
  k:int ->
  load:Load.t ->
  fault:Net.Fault.spec ->
  seed:int ->
  max_rtd:float ->
  unit ->
  report

val pp_report : Format.formatter -> report -> unit
