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

let mean_delay_rtd (delay : Stats.Summary.t) =
  if delay.count = 0 then 0.0 else delay.mean
