type report = {
  generated : int;
  processed : int;
  delay : Stats.Summary.t;
  completion_rtd : float;
  subruns : int;
  total_order_ok : bool;
}

let simulate ~n ~k ~load ~fault ~seed ~max_rtd () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Urgc.Cluster.create ~n ~k ~net () in
  Harness.run ~sample:(fun ~round:_ -> ()) (Urgc.Cluster.core cluster)
    ~start:(fun () -> Urgc.Cluster.start cluster)
    ~quiescent:(fun () -> Urgc.Cluster.quiescent cluster)
    ~submit:(fun node id ->
      Urgc.Cluster.submit ~size:load.Load.payload_size cluster node id)
    load ~rng ~max_rtd
  @@ fun () -> cluster

let report cluster =
  let delays = Delays.create ~n:(List.length (Urgc.Cluster.members cluster)) in
  List.iter
    (fun ({ Causal.Mid.origin; seq }, t0) ->
      Delays.sent delays ~origin:(origin :> int) ~seq t0)
    (Urgc.Cluster.generations cluster);
  List.iter
    (fun { Urgc.Cluster.data = { Urgc.Total_wire.mid = { origin; seq }; _ }; at; _ } ->
      ignore (Delays.deliver delays ~origin:(origin :> int) ~seq ~remote:true at))
    (Urgc.Cluster.deliveries cluster);
  {
    generated = List.length (Urgc.Cluster.generations cluster);
    processed = Delays.remote delays;
    delay = Delays.summary delays;
    completion_rtd = Delays.completion_rtd delays;
    subruns = Urgc.Cluster.subrun cluster;
    total_order_ok = Urgc.Cluster.total_order_ok cluster;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "urgc: generated=%d processed events=%d over %d subruns; total order: %b"
    r.generated r.processed r.subruns r.total_order_ok
