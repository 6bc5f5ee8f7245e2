(** Run to quiescence: the workload loop every runner shares.  The protocol
    supplies only how to start, submit and judge quiescence. *)

val run :
  sample:(round:int -> unit) ->
  'm Net.Cluster.t ->
  start:(unit -> unit) ->
  quiescent:(unit -> bool) ->
  submit:(Net.Node_id.t -> int -> unit) ->
  Load.t ->
  rng:Sim.Rng.t ->
  max_rtd:float ->
  (unit -> 'r) ->
  'r
(** [run ~sample core ~start ~quiescent ~submit load ~rng ~max_rtd reduce]
    registers the injector and then [sample] as after-round callbacks and
    calls [start].  It then advances the engine one rtd at a time, the last
    step clamped to [max_rtd], until the message cap is reached and the
    group is [quiescent], or the time cap is hit; and returns [reduce ()].

    After each round, each sender in turn (default: every member) submits
    when the cap is not yet reached and [Sim.Rng.bool rng load.rate] holds
    — and then only if it has not left the group.  [submit node id] gets
    the message's 1-based generation index; any further draws it makes
    (causal labels, say) come after the rate draw.

    Under [Sim.Prof] the phases are the spans ["runner.inject"],
    ["runner.sample"], ["runner.run"] and ["runner.reduce"]. *)

val mean_delay_rtd : Stats.Summary.t -> float
(** NaN-free: 0 when nothing was delivered. *)
