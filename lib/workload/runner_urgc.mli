(** Experiment runner for urgc, the total-order companion algorithm
    [APR93], on the same workload loop as {!Runner}. *)

type report = {
  generated : int;
  processed : int;  (** processing events, the origin's own included *)
  delay : Stats.Summary.t;
      (** generation-to-processing delay of every processing event, in rtd:
          under total order even the origin waits for the sequencing
          decision *)
  completion_rtd : float;
  subruns : int;
  total_order_ok : bool;
}

val simulate :
  n:int ->
  k:int ->
  load:Load.t ->
  fault:Net.Fault.spec ->
  seed:int ->
  max_rtd:float ->
  unit ->
  int Urgc.Cluster.t
(** Runs the workload to quiescence or [max_rtd] and returns the cluster
    for inspection. *)

val report : int Urgc.Cluster.t -> report

val pp_report : Format.formatter -> report -> unit
(** One line. *)
