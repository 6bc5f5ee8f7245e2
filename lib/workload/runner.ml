type report = {
  scenario : Scenario.t;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  control_bytes : int;
  control_mean_size : float;
  control_max_size : int;
  data_msgs : int;
  data_bytes : int;
  recovery_msgs : int;
  recovery_bytes : int;
  history_peak : int;
  history_series : (int * int) list;
  waiting_peak : int;
  departures : Urcgc.Cluster.departure list;
  discarded : int;
  fragments : int;
  verdict : Checker.verdict;
}

(* Causal labels per the load model's [deps_mode]; [None] lets the member
   label with its whole frontier. *)
let deps_for (scenario : Scenario.t) cluster rng node =
  match scenario.load.Load.deps_mode with
  | Load.Frontier -> None
  | Load.Own_chain -> Some []
  | Load.Random_frontier p ->
      let member = Urcgc.Cluster.member cluster node in
      let deps = ref [] in
      for j = 0 to scenario.config.Urcgc.Config.n - 1 do
        let origin = Net.Node_id.of_int j in
        if not (Net.Node_id.equal origin node) then begin
          let seq = Urcgc.Member.last_processed member origin in
          if seq > 0 && Sim.Rng.bool rng p then
            deps := Causal.Mid.make ~origin ~seq :: !deps
        end
      done;
      Some !deps

let run ?tracer ?(metrics = Sim.Metrics.null) (scenario : Scenario.t) =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:scenario.seed in
  let fault = Net.Fault.create scenario.fault ~rng:(Sim.Rng.split rng) in
  (* Keep a handle on the raw network component: the medium abstracts it
     away, but the trace sink and the metrics counters need it. *)
  let medium, net_dropped, net_retransmissions, net_fragments, net_set_trace =
    match scenario.mount with
    | Scenario.Datagram ->
        let net =
          Net.Netsim.create ?latency:scenario.latency engine ~fault
            ~rng:(Sim.Rng.split rng) ()
        in
        ( Urcgc.Medium.of_netsim net,
          (fun () -> Net.Netsim.dropped_count net),
          (fun () -> 0),
          (fun () -> 0),
          fun trace -> Net.Netsim.set_trace net trace )
    | Scenario.Transport h ->
        let transport =
          Net.Transport.create ?latency:scenario.latency engine ~fault
            ~rng:(Sim.Rng.split rng) ()
        in
        ( Urcgc.Medium.of_transport ~h transport,
          (fun () -> Net.Transport.dropped_count transport),
          (fun () -> Net.Transport.retransmissions transport),
          (fun () -> Net.Transport.fragments_sent transport),
          fun trace -> Net.Transport.set_trace transport trace )
  in
  (match tracer with
  | Some trace when Sim.Trace.enabled trace ->
      net_set_trace trace;
      (* Narrate the fail-stop schedule: one Crash event at each scheduled
         time.  The callbacks touch only the trace sink, so enabling tracing
         cannot perturb the run itself. *)
      List.iter
        (fun (node, time) ->
          ignore
            (Sim.Engine.schedule_after engine ~delay:time (fun () ->
                 Sim.Trace.emit trace ~time
                   (Sim.Trace.Crash { node = Net.Node_id.to_int node }))))
        scenario.fault.Net.Fault.crashes
  | Some _ | None -> ());
  let medium =
    if scenario.codec_boundary then
      (* Workload payloads are ints; encode them as fixed-width strings so
         the declared payload size is honored on the wire. *)
      let int_codec =
        {
          Net.Bytebuf.encode =
            (fun value ->
              let raw = Bytes.create 8 in
              Bytes.set_int64_be raw 0 (Int64.of_int value);
              raw);
          decode =
            (fun raw ->
              if Bytes.length raw <> 8 then Error "int payload: wrong size"
              else Ok (Int64.to_int (Bytes.get_int64_be raw 0)));
        }
      in
      Urcgc.Medium.with_codec int_codec medium
    else medium
  in
  let cluster =
    Urcgc.Cluster.create_with_medium ?tracer ~config:scenario.config ~medium ()
  in
  (* Over the codec boundary the int payloads encode to exactly 8 bytes, and
     the codec refuses size lies. *)
  let payload_size =
    if scenario.codec_boundary then 8 else scenario.load.Load.payload_size
  in
  (* One fold over the processing events, fed as they happen: the verdict,
     the delays and the delivery counters. *)
  let n = scenario.config.Urcgc.Config.n in
  let checker = Checker.create ~n in
  let delays = Delays.create ~n in
  let observe = Sim.Metrics.enabled metrics in
  Urcgc.Cluster.on_delivery cluster (fun node msg at ->
      Checker.deliver checker node msg at;
      let mid = msg.Causal.Causal_msg.mid in
      let origin = (mid.origin :> int) and seq = mid.seq in
      let own = (node :> int) = origin in
      (* The origin processes its own message in the call that broadcasts
         it, at the same tick: its event carries the send time, before any
         other process can receive the message. *)
      if own then Delays.sent delays ~origin ~seq at;
      let delay = Delays.deliver delays ~origin ~seq ~remote:(not own) at in
      assert (own || delay >= 0);
      if observe && delay >= 0 then
        Sim.Metrics.observe metrics "delivery.latency_rtd"
          (Sim.Ticks.to_rtd (Sim.Ticks.of_int delay)));
  Urcgc.Cluster.on_departure cluster (Checker.depart checker);
  (* Sampling: per-round maxima of history and waiting-list lengths. *)
  let history_series = ref [] in
  let history_peak = ref 0 in
  let waiting_peak = ref 0 in
  let sample ~round =
    let history_max = ref 0 and waiting_max = ref 0 in
    List.iter
      (fun member ->
        if Urcgc.Member.active member then begin
          history_max := max !history_max (Urcgc.Member.history_length member);
          waiting_max := max !waiting_max (Urcgc.Member.waiting_length member)
        end)
      (Urcgc.Cluster.members cluster);
    history_series := (round, !history_max) :: !history_series;
    history_peak := max !history_peak !history_max;
    waiting_peak := max !waiting_peak !waiting_max;
    if Sim.Metrics.enabled metrics then begin
      Sim.Metrics.set_gauge metrics "history.occupancy" !history_max;
      Sim.Metrics.set_gauge metrics "waiting.depth" !waiting_max;
      Sim.Metrics.observe metrics "history.occupancy_per_round"
        (float_of_int !history_max);
      Sim.Metrics.observe metrics "waiting.depth_per_round"
        (float_of_int !waiting_max)
    end
  in
  Harness.run ~sample (Urcgc.Cluster.core cluster)
    ~start:(fun () -> Urcgc.Cluster.start cluster)
    ~quiescent:(fun () -> Urcgc.Cluster.quiescent cluster)
    ~submit:(fun node id ->
      Urcgc.Cluster.submit
        ?deps:(deps_for scenario cluster rng node)
        ~size:payload_size cluster node id)
    scenario.load ~rng ~max_rtd:scenario.max_rtd
  @@ fun () ->
  let traffic = Urcgc.Medium.traffic medium in
  let fragments =
    Urcgc.Cluster.active_members cluster
    |> List.map (fun node ->
           Causal.Group_view.alive_array
             (Urcgc.Member.view (Urcgc.Cluster.member cluster node)))
    |> List.sort_uniq compare |> List.length
  in
  let discards = Urcgc.Cluster.discards cluster in
  let discarded =
    List.fold_left (fun acc (_, mids, _) -> acc + List.length mids) 0 discards
  in
  let departures = Urcgc.Cluster.departures cluster in
  if observe then begin
    Sim.Metrics.incr metrics ~by:(Delays.generated delays) "messages.generated";
    Sim.Metrics.incr metrics ~by:(Delays.remote delays) "deliveries.remote";
    Sim.Metrics.incr metrics ~by:discarded "messages.discarded";
    Sim.Metrics.incr metrics ~by:(List.length departures) "departures";
    Sim.Metrics.incr metrics ~by:(net_dropped ()) "net.drops";
    Sim.Metrics.incr metrics ~by:(net_retransmissions ()) "net.retransmissions";
    Sim.Metrics.incr metrics ~by:(net_fragments ()) "net.fragments_sent"
  end;
  {
    scenario;
    generated = Delays.generated delays;
    delivered_remote = Delays.remote delays;
    delay = Delays.summary delays;
    completion_rtd = Delays.completion_rtd delays;
    subruns = Urcgc.Cluster.subrun cluster;
    control_msgs = Net.Traffic.count traffic Net.Traffic.Control;
    control_bytes = Net.Traffic.bytes traffic Net.Traffic.Control;
    control_mean_size = Net.Traffic.mean_size traffic Net.Traffic.Control;
    control_max_size = Net.Traffic.max_size traffic Net.Traffic.Control;
    data_msgs = Net.Traffic.count traffic Net.Traffic.Data;
    data_bytes = Net.Traffic.bytes traffic Net.Traffic.Data;
    recovery_msgs = Net.Traffic.count traffic Net.Traffic.Recovery;
    recovery_bytes = Net.Traffic.bytes traffic Net.Traffic.Recovery;
    history_peak = !history_peak;
    history_series = List.rev !history_series;
    waiting_peak = !waiting_peak;
    departures;
    discarded;
    fragments;
    verdict =
      Checker.finish checker
        ~actives:(Urcgc.Cluster.active_members cluster)
        ~view:(fun node -> Urcgc.Member.view (Urcgc.Cluster.member cluster node))
        ~discards ~iter:(Urcgc.Cluster.iter_deliveries cluster);
  }

let control_msgs_per_subrun report =
  if report.subruns = 0 then 0.0
  else float_of_int report.control_msgs /. float_of_int report.subruns

let mean_delay_rtd report = Harness.mean_delay_rtd report.delay

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd (p95 \
     %.3f)@ completion=%.1f rtd over %d subruns@ control: %d msgs, mean %.0f \
     B, max %d B@ recovery: %d msgs@ history peak=%d waiting peak=%d@ \
     departures=%d discarded=%d@ %a@]"
    r.scenario.Scenario.name r.generated r.delivered_remote
    (mean_delay_rtd r) r.delay.Stats.Summary.p95 r.completion_rtd r.subruns
    r.control_msgs r.control_mean_size r.control_max_size r.recovery_msgs
    r.history_peak r.waiting_peak
    (List.length r.departures)
    r.discarded Checker.pp r.verdict
