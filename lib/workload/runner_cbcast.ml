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

(* Replay the delivery log and verify CBCAST's own causal condition. *)
let check_causal n deliveries violations =
  let locals = Hashtbl.create 16 in
  let local node =
    match Hashtbl.find_opt locals node with
    | Some vt -> vt
    | None ->
        let vt = Cbcast.Vclock.create ~n in
        Hashtbl.replace locals node vt;
        vt
  in
  let ok = ref true in
  List.iter
    (fun { Cbcast.Cluster.node; data; at } ->
      let vt = local node in
      if
        Cbcast.Vclock.deliverable ~msg_vt:data.Cbcast.Cb_wire.vt
          ~from:data.Cbcast.Cb_wire.sender ~local:vt
      then Cbcast.Vclock.tick vt data.Cbcast.Cb_wire.sender
      else begin
        ok := false;
        violations :=
          Format.asprintf "%a delivered %a#%d out of causal order at %a"
            Net.Node_id.pp node Net.Node_id.pp data.Cbcast.Cb_wire.sender
            (Cbcast.Cb_wire.seq data) Sim.Ticks.pp at
          :: !violations;
        Cbcast.Vclock.merge vt data.Cbcast.Cb_wire.vt
      end)
    deliveries;
  !ok

let check_atomicity actives deliveries violations =
  let sets = Hashtbl.create 16 in
  List.iter
    (fun { Cbcast.Cluster.node; data; _ } ->
      Hashtbl.add sets node
        (Net.Node_id.to_int data.Cbcast.Cb_wire.sender, Cbcast.Cb_wire.seq data))
    deliveries;
  let delivered node = List.sort_uniq compare (Hashtbl.find_all sets node) in
  match actives with
  | [] -> true
  | first :: rest ->
      let reference = delivered first in
      let differing = List.filter (fun node -> delivered node <> reference) rest in
      List.iter
        (fun node ->
          violations :=
            Format.asprintf
              "cbcast atomicity: %a and %a delivered different message sets"
              Net.Node_id.pp first Net.Node_id.pp node
            :: !violations)
        differing;
      differing = []

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
  let actives = Cbcast.Cluster.active_members cluster in
  let violations = ref [] in
  let causal_ok = check_causal n deliveries violations in
  let atomicity_ok = check_atomicity actives deliveries violations in
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
    causal_ok;
    atomicity_ok;
    violations = List.rev !violations;
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
