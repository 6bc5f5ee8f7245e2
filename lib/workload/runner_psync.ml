type report = {
  name : string;
  generated : int;
  delivered_remote : int;
  delay : Stats.Summary.t;
  completion_rtd : float;
  subruns : int;
  control_msgs : int;
  recovery_msgs : int;
  data_msgs : int;
  pending_peak : int;
  dropped : int;
  masked : int;
  causal_ok : bool;
  violations : string list;
}

(* The oracle's Psync feed: a message depends on its direct predecessors in
   the context graph.  Psync's report judges causal order only: no survivor
   set, and with no discard fed the events are never replayed. *)
let judge ~n deliveries =
  let oracle = Sim.Oracle.create ~n ~from_start:true in
  let mid { Psync.Context_graph.sender; seq } = { Causal.Mid.origin = sender; seq } in
  List.iter
    (fun { Psync.Cluster.node; msg; at } ->
      Checker.Labels.deliver oracle ~node:(node :> int)
        (mid msg.Psync.Context_graph.mid)
        ~deps:(Array.of_list (List.map mid msg.Psync.Context_graph.preds))
        ~at:(at :> int))
    deliveries;
  Sim.Oracle.finish oracle ~survivors:[] ~agreement:[] ~replay:ignore

let run ?tracer ?(name = "psync") ?pending_bound ~n ~k ~load ~fault ~seed
    ~max_rtd () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Psync.Cluster.create ?tracer ?pending_bound ~n ~k ~net () in
  let core = Psync.Cluster.core cluster in
  let pending_peak = ref 0 in
  let sample ~round:_ =
    pending_peak :=
      max !pending_peak (Net.Cluster.max_active core Psync.Member.pending)
  in
  Harness.run ~sample core
    ~start:(fun () -> Psync.Cluster.start cluster)
    ~quiescent:(fun () -> Psync.Cluster.quiescent cluster)
    ~submit:(fun node id ->
      Psync.Cluster.submit ~size:load.Load.payload_size cluster node id)
    load ~rng ~max_rtd
  @@ fun () ->
  let deliveries = Psync.Cluster.deliveries cluster in
  let delays = Delays.create ~n in
  List.iter
    (fun ({ Psync.Context_graph.sender; seq }, t0) ->
      Delays.sent delays ~origin:(sender :> int) ~seq t0)
    (Psync.Cluster.generations cluster);
  List.iter
    (fun { Psync.Cluster.node; msg; at } ->
      let { Psync.Context_graph.sender; seq } = msg.Psync.Context_graph.mid in
      ignore
        (Delays.deliver delays ~origin:(sender :> int) ~seq
           ~remote:(not (Net.Node_id.equal node sender))
           at))
    deliveries;
  let verdict = judge ~n deliveries in
  let traffic = Net.Netsim.traffic net in
  {
    name;
    generated = List.length (Psync.Cluster.generations cluster);
    delivered_remote = Delays.remote delays;
    delay = Delays.summary delays;
    completion_rtd = Delays.completion_rtd delays;
    subruns = Psync.Cluster.subrun cluster;
    control_msgs = Net.Traffic.count traffic Net.Traffic.Control;
    recovery_msgs = Net.Traffic.count traffic Net.Traffic.Recovery;
    data_msgs = Net.Traffic.count traffic Net.Traffic.Data;
    pending_peak = !pending_peak;
    dropped = Psync.Cluster.dropped cluster;
    masked = List.length (Psync.Cluster.masked cluster);
    causal_ok = verdict.causal_ok && verdict.at_most_once_ok;
    violations = verdict.violations;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd@ \
     completion=%.1f rtd@ control=%d recovery=%d data=%d@ pending peak=%d \
     dropped=%d masked=%d@ causal=%b@]"
    r.name r.generated r.delivered_remote (Harness.mean_delay_rtd r.delay)
    r.completion_rtd r.control_msgs r.recovery_msgs r.data_msgs r.pending_peak
    r.dropped r.masked r.causal_ok
