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

(* Causal order under Psync: a message may be delivered only after every one
   of its direct predecessors was delivered at the same node. *)
let check_causal deliveries violations =
  let seen = Hashtbl.create 1024 in
  let ok = ref true in
  List.iter
    (fun { Psync.Cluster.node; msg; at } ->
      let missing =
        List.filter
          (fun pred -> not (Hashtbl.mem seen (node, pred)))
          msg.Psync.Context_graph.preds
      in
      if missing <> [] then begin
        ok := false;
        violations :=
          Format.asprintf "%a delivered %a before %d predecessor(s) at %a"
            Net.Node_id.pp node Psync.Context_graph.pp_mid
            msg.Psync.Context_graph.mid (List.length missing) Sim.Ticks.pp at
          :: !violations
      end;
      Hashtbl.replace seen (node, msg.Psync.Context_graph.mid) ())
    deliveries;
  !ok

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
  let violations = ref [] in
  let causal_ok = check_causal deliveries violations in
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
    causal_ok;
    violations = List.rev !violations;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd@ \
     completion=%.1f rtd@ control=%d recovery=%d data=%d@ pending peak=%d \
     dropped=%d masked=%d@ causal=%b@]"
    r.name r.generated r.delivered_remote (Harness.mean_delay_rtd r.delay)
    r.completion_rtd r.control_msgs r.recovery_msgs r.data_msgs r.pending_peak
    r.dropped r.masked r.causal_ok
