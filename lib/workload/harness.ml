let run ~sample core ~start ~quiescent ~submit (load : Load.t) ~rng ~max_rtd
    reduce =
  let senders =
    match load.senders with
    | Some senders -> senders
    | None -> Net.Node_id.group (List.length (Net.Cluster.members core))
  in
  let produced = ref 0 in
  let cap_reached () =
    match load.total_messages with
    | None -> false
    | Some cap -> !produced >= cap
  in
  Net.Cluster.on_round core (fun ~round:_ ->
      Sim.Prof.span "runner.inject" (fun () ->
          List.iter
            (fun node ->
              if (not (cap_reached ())) && Sim.Rng.bool rng load.rate then
                if Net.Cluster.active core node then begin
                  incr produced;
                  submit node !produced
                end)
            senders));
  Net.Cluster.on_round core (fun ~round ->
      Sim.Prof.span "runner.sample" (fun () -> sample ~round));
  start ();
  let engine = Net.Cluster.engine core in
  let max_ticks = Sim.Ticks.of_rtd max_rtd in
  let rtd = Sim.Ticks.of_int Sim.Ticks.per_rtd in
  let rec advance () =
    let now = Sim.Engine.now engine in
    if Sim.Ticks.(now < max_ticks) then begin
      let target = Sim.Ticks.add now rtd in
      let target = if Sim.Ticks.(max_ticks < target) then max_ticks else target in
      Sim.Engine.run engine ~until:target;
      if not (cap_reached () && quiescent ()) then advance ()
    end
  in
  Sim.Prof.span "runner.run" advance;
  Sim.Prof.span "runner.reduce" reduce

type latency = { remote : int; delays : float list; completion_rtd : float }

let latency ~generations ~key ~at ~remote deliveries =
  let sent_at = Hashtbl.create 256 in
  List.iter (fun (k, t0) -> Hashtbl.replace sent_at k t0) generations;
  let remote_count = ref 0 and completion = ref 0.0 in
  let delays =
    List.filter_map
      (fun d ->
        completion := Float.max !completion (Sim.Ticks.to_rtd (at d));
        if not (remote d) then None
        else begin
          incr remote_count;
          match Hashtbl.find_opt sent_at (key d) with
          | None -> None
          | Some t0 -> Some (Sim.Ticks.to_rtd (Sim.Ticks.diff (at d) t0))
        end)
      deliveries
  in
  { remote = !remote_count; delays; completion_rtd = !completion }

let mean_delay_rtd (delay : Stats.Summary.t) =
  if delay.count = 0 then 0.0 else delay.mean
