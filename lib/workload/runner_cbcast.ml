type report = {
  name : string;
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
  ack_msgs : int;
  unstable_peak : int;
  view_changes : int;
  flush_time_rtd : float;
  causal_ok : bool;
  atomicity_ok : bool;
  violations : string list;
}

(* The oracle's CBCAST feed: a message depends on entry [j] of its vector
   timestamp for every other process [j].  With no discard fed, the events
   are never replayed. *)
let judge ~n ~actives deliveries =
  let oracle = Sim.Oracle.create ~n ~from_start:true in
  List.iter
    (fun { Cbcast.Cluster.node; data; at } ->
      Sim.Oracle.deliver oracle ~node:(node :> int)
        ~origin:(data.Cbcast.Cb_wire.sender :> int)
        ~seq:(Cbcast.Cb_wire.seq data)
        ~need:(Cbcast.Vclock.to_array data.Cbcast.Cb_wire.vt)
        ~at:(at :> int))
    deliveries;
  Sim.Oracle.finish oracle
    ~survivors:(List.map (fun (node : Net.Node_id.t) -> (node :> int)) actives)
    ~agreement:[] ~replay:ignore

let run ?tracer ?(name = "cbcast") ~n ~k ~load ~fault ~seed ~max_rtd () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let cluster =
    Cbcast.Cluster.create ?tracer ~n ~k ~engine ~fault ~rng:(Sim.Rng.split rng) ()
  in
  let core = Cbcast.Cluster.core cluster in
  let unstable_peak = ref 0 in
  let sample ~round:_ =
    unstable_peak :=
      max !unstable_peak (Net.Cluster.max_active core Cbcast.Member.unstable)
  in
  Harness.run ~sample core
    ~start:(fun () -> Cbcast.Cluster.start cluster)
    ~quiescent:(fun () -> Cbcast.Cluster.quiescent cluster)
    ~submit:(fun node id ->
      Cbcast.Cluster.submit ~size:load.Load.payload_size cluster node id)
    load ~rng ~max_rtd
  @@ fun () ->
  let deliveries = Cbcast.Cluster.deliveries cluster in
  let generations = Cbcast.Cluster.generations cluster in
  let delays = Delays.create ~n in
  List.iter
    (fun ((sender : Net.Node_id.t), seq, t0) ->
      Delays.sent delays ~origin:(sender :> int) ~seq t0)
    generations;
  List.iter
    (fun { Cbcast.Cluster.node; data; at } ->
      let sender = data.Cbcast.Cb_wire.sender in
      ignore
        (Delays.deliver delays
           ~origin:(sender :> int)
           ~seq:(Cbcast.Cb_wire.seq data)
           ~remote:(not (Net.Node_id.equal node sender))
           at))
    deliveries;
  let flush_time_rtd =
    match Cbcast.Cluster.flush_starts cluster with
    | [] -> 0.0
    | starts -> (
        let first =
          List.fold_left
            (fun acc (_, _, at) -> Float.min acc (Sim.Ticks.to_rtd at))
            infinity starts
        in
        match Cbcast.Cluster.view_changes cluster with
        | [] ->
            (* A flush began but never completed within the run. *)
            Sim.Ticks.to_rtd (Sim.Engine.now engine) -. first
        | changes ->
            let last =
              List.fold_left
                (fun acc { Cbcast.Cluster.at; _ } ->
                  Float.max acc (Sim.Ticks.to_rtd at))
                0.0 changes
            in
            Float.max 0.0 (last -. first))
  in
  let verdict =
    judge ~n ~actives:(Cbcast.Cluster.active_members cluster) deliveries
  in
  let traffic = Cbcast.Cluster.traffic cluster in
  {
    name;
    generated = List.length generations;
    delivered_remote = Delays.remote delays;
    delay = Delays.summary delays;
    completion_rtd = Delays.completion_rtd delays;
    subruns = Cbcast.Cluster.subrun cluster;
    control_msgs = Net.Traffic.count traffic Net.Traffic.Control;
    control_bytes = Net.Traffic.bytes traffic Net.Traffic.Control;
    control_mean_size = Net.Traffic.mean_size traffic Net.Traffic.Control;
    control_max_size = Net.Traffic.max_size traffic Net.Traffic.Control;
    data_msgs = Net.Traffic.count traffic Net.Traffic.Data;
    ack_msgs = Net.Traffic.count traffic Net.Traffic.Ack;
    unstable_peak = !unstable_peak;
    view_changes =
      List.length
        (List.sort_uniq compare
           (List.map
              (fun { Cbcast.Cluster.view_id; _ } -> view_id)
              (Cbcast.Cluster.view_changes cluster)));
    flush_time_rtd;
    causal_ok = verdict.causal_ok && verdict.at_most_once_ok;
    atomicity_ok = verdict.atomicity_ok;
    violations = verdict.violations;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ generated=%d delivered_remote=%d@ mean delay=%.3f rtd@ \
     completion=%.1f rtd@ control: %d msgs, mean %.0f B, max %d B; acks=%d@ \
     unstable peak=%d@ view changes=%d flush time=%.1f rtd@ causal=%b \
     atomic=%b@]"
    r.name r.generated r.delivered_remote (Harness.mean_delay_rtd r.delay)
    r.completion_rtd r.control_msgs r.control_mean_size r.control_max_size
    r.ack_msgs r.unstable_peak r.view_changes r.flush_time_rtd r.causal_ok r.atomicity_ok
