(* The traced driver: the stack [Workload.Runner.run] builds, rebuilt from
   the public entry points in the same RNG split order (engine, fault,
   netsim, then the injector), with a timing [Urcgc.Medium.make] wrapper
   around the network and timed calls into the cluster, engine and
   checker.  Its report must equal [Runner.run]'s for the same scenario
   (checked by the caller): that proves it measures the program the
   end-to-end pass measures. *)

open Workload

(* Payloads are ints; over the codec boundary they encode to exactly 8
   bytes, as in the runner. *)
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

(* Packets offered to the network (a multicast offers one per destination)
   and PDUs through the codec. *)
let packets = ref 0
let pdus = ref 0

(* [layer] times every send; with [handlers] the receive handlers attached
   through this medium are timed as member receive work too. *)
let timed ~layer ~handlers ~count inner =
  let attach node handler =
    if handlers then
      Urcgc.Medium.attach inner node (fun body ->
          Spans.enter Spans.Member;
          handler body;
          Spans.exit ())
    else Urcgc.Medium.attach inner node handler
  in
  Urcgc.Medium.make ~engine:(Urcgc.Medium.engine inner)
    ~fault:(Urcgc.Medium.fault inner)
    ~traffic:(fun () -> Urcgc.Medium.traffic inner)
    ~attach
    ~send:(fun ~src ~dst body ->
      Spans.enter layer;
      count 1;
      Urcgc.Medium.send inner ~src ~dst body;
      Spans.exit ())
    ~multicast:(fun ~src ~dsts body ->
      Spans.enter layer;
      count (Array.length dsts);
      Urcgc.Medium.multicast inner ~src ~dsts body;
      Spans.exit ())

type stack = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  net : int Urcgc.Wire.body Net.Netsim.t;
  medium : int Urcgc.Medium.t;
  cluster : int Urcgc.Cluster.t;
}

(* Everything [Runner.run] builds before the first event.  Untraced, this
   is the unit the benchmark's [setup_s] times. *)
let build ~traced (scenario : Scenario.t) =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:scenario.seed in
  let fault = Net.Fault.create scenario.fault ~rng:(Sim.Rng.split rng) in
  let net =
    match scenario.mount with
    | Scenario.Datagram ->
        Net.Netsim.create ?latency:scenario.latency engine ~fault
          ~rng:(Sim.Rng.split rng) ()
    | Scenario.Transport _ -> invalid_arg "Traced.build: datagram mount only"
  in
  let medium = Urcgc.Medium.of_netsim net in
  let medium =
    if traced then
      timed ~layer:Spans.Netsim ~handlers:true
        ~count:(fun k -> packets := !packets + k)
        medium
    else medium
  in
  let medium =
    if scenario.codec_boundary then
      let coded = Urcgc.Medium.with_codec int_codec medium in
      if traced then
        timed ~layer:Spans.Codec ~handlers:false ~count:(fun _ -> incr pdus) coded
      else coded
    else medium
  in
  let create () =
    Urcgc.Cluster.create_with_medium ~config:scenario.config ~medium ()
  in
  let cluster = if traced then Spans.span Spans.Create create else create () in
  { engine; rng; net; medium; cluster }

(* [Runner]'s workload injection, draw for draw. *)
let injector (scenario : Scenario.t) cluster rng =
  let load = scenario.load in
  let payload_size =
    if scenario.codec_boundary then 8 else load.Load.payload_size
  in
  let senders =
    match load.Load.senders with
    | Some senders -> senders
    | None -> Net.Node_id.group scenario.config.Urcgc.Config.n
  in
  let produced = ref 0 in
  let cap_reached () =
    match load.Load.total_messages with
    | None -> false
    | Some cap -> !produced >= cap
  in
  let deps_for node =
    match load.Load.deps_mode with
    | Load.Frontier -> None
    | Load.Own_chain -> Some []
    | Load.Random_frontier p ->
        let member = Urcgc.Cluster.member cluster node in
        let n = scenario.config.Urcgc.Config.n in
        let deps = ref [] in
        for j = 0 to n - 1 do
          let origin = Net.Node_id.of_int j in
          if not (Net.Node_id.equal origin node) then begin
            let seq = Urcgc.Member.last_processed member origin in
            if seq > 0 && Sim.Rng.bool rng p then
              deps := Causal.Mid.make ~origin ~seq :: !deps
          end
        done;
        Some !deps
  in
  let inject ~round:_ =
    List.iter
      (fun node ->
        if (not (cap_reached ())) && Sim.Rng.bool rng load.Load.rate then begin
          let member = Urcgc.Cluster.member cluster node in
          if Urcgc.Member.active member then begin
            incr produced;
            Urcgc.Cluster.submit ?deps:(deps_for node) ~size:payload_size
              cluster node !produced
          end
        end)
      senders
  in
  (inject, cap_reached)

(* Figures of one traced run that the report does not carry. *)
type extra = { dropped : int; rounds : int }

let run (scenario : Scenario.t) =
  Spans.reset ();
  packets := 0;
  pdus := 0;
  let { engine; rng; net; medium; cluster } = build ~traced:true scenario in
  let inject, cap_reached = injector scenario cluster rng in
  Urcgc.Cluster.on_round cluster inject;
  let history_series = ref [] in
  let history_peak = ref 0 in
  let waiting_peak = ref 0 in
  Urcgc.Cluster.on_round cluster (fun ~round ->
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
      waiting_peak := max !waiting_peak !waiting_max);
  Urcgc.Cluster.start cluster;
  let max_ticks = Sim.Ticks.of_rtd scenario.max_rtd in
  let rtd = Sim.Ticks.of_int Sim.Ticks.per_rtd in
  let rec advance () =
    let now = Sim.Engine.now engine in
    if Sim.Ticks.(now >= max_ticks) then ()
    else begin
      let target = Sim.Ticks.add now rtd in
      let target = if Sim.Ticks.(max_ticks < target) then max_ticks else target in
      Spans.span Spans.Engine (fun () -> Sim.Engine.run engine ~until:target);
      if cap_reached () && Urcgc.Cluster.quiescent cluster then ()
      else advance ()
    end
  in
  advance ();
  let generations = Urcgc.Cluster.generations cluster in
  let sent_at =
    List.fold_left
      (fun acc { Urcgc.Cluster.mid; sent_at; _ } ->
        Causal.Mid.Map.add mid sent_at acc)
      Causal.Mid.Map.empty generations
  in
  let deliveries =
    Spans.span Spans.Deliveries (fun () -> Urcgc.Cluster.deliveries cluster)
  in
  let remote =
    List.filter
      (fun { Urcgc.Cluster.node; msg; _ } ->
        not (Net.Node_id.equal node (Causal.Mid.origin msg.Causal.Causal_msg.mid)))
      deliveries
  in
  let delays =
    List.filter_map
      (fun { Urcgc.Cluster.msg; at; _ } ->
        match Causal.Mid.Map.find_opt msg.Causal.Causal_msg.mid sent_at with
        | None -> None
        | Some t0 -> Some (Sim.Ticks.to_rtd (Sim.Ticks.diff at t0)))
      remote
  in
  let completion_rtd =
    List.fold_left
      (fun acc { Urcgc.Cluster.at; _ } -> Float.max acc (Sim.Ticks.to_rtd at))
      0.0 deliveries
  in
  let traffic = Urcgc.Medium.traffic medium in
  let fragments =
    Urcgc.Cluster.active_members cluster
    |> List.map (fun node ->
           Causal.Group_view.alive_array
             (Urcgc.Member.view (Urcgc.Cluster.member cluster node)))
    |> List.sort_uniq compare |> List.length
  in
  let discarded =
    List.fold_left
      (fun acc (_, mids, _) -> acc + List.length mids)
      0
      (Urcgc.Cluster.discards cluster)
  in
  let verdict = Spans.span Spans.Checker (fun () -> Checker.check cluster) in
  let count kind = Net.Traffic.count traffic kind in
  let bytes kind = Net.Traffic.bytes traffic kind in
  let report =
    {
      Runner.scenario;
      generated = List.length generations;
      delivered_remote = List.length remote;
      delay = Stats.Summary.of_list delays;
      completion_rtd;
      subruns = Urcgc.Cluster.subrun cluster;
      control_msgs = count Net.Traffic.Control;
      control_bytes = bytes Net.Traffic.Control;
      control_mean_size = Net.Traffic.mean_size traffic Net.Traffic.Control;
      control_max_size = Net.Traffic.max_size traffic Net.Traffic.Control;
      data_msgs = count Net.Traffic.Data;
      data_bytes = bytes Net.Traffic.Data;
      recovery_msgs = count Net.Traffic.Recovery;
      recovery_bytes = bytes Net.Traffic.Recovery;
      history_peak = !history_peak;
      history_series = List.rev !history_series;
      waiting_peak = !waiting_peak;
      departures = Urcgc.Cluster.departures cluster;
      discarded;
      fragments;
      verdict;
    }
  in
  (report, { dropped = Net.Netsim.dropped_count net; rounds = Urcgc.Cluster.round cluster })
