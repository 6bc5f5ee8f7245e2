(** Experiment runner for the Psync baseline. *)

type report = {
  name : string;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;  (** end-to-end delay in rtd *)
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  recovery_msgs : int;
  data_msgs : int;
  pending_peak : int;
  dropped : int;  (** pending messages truncated by Psync's flow control *)
  masked : int;  (** mask_out agreements observed *)
  causal_ok : bool;
  violations : string list;
}

val judge : n:int -> 'a Psync.Cluster.delivery list -> Sim.Oracle.verdict
(** The oracle over a Psync delivery log, each message depending on its
    direct predecessors.  Only causal order and processing twice are
    judged: Psync promises no atomicity. *)

val run :
  ?tracer:Sim.Trace.t ->
  ?name:string ->
  ?pending_bound:int ->
  n:int ->
  k:int ->
  load:Load.t ->
  fault:Net.Fault.spec ->
  seed:int ->
  max_rtd:float ->
  unit ->
  report

val pp_report : Format.formatter -> report -> unit
