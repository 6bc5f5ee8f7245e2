(* Reference model for [Workload.Delays]: the delay reduction every runner
   used before the delay fold, kept verbatim as an executable
   specification.  It keys a polymorphic [Hashtbl] by message and collects
   the delays as a float list in delivery order, for [Stats.Summary.of_list]
   to sort. *)

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
