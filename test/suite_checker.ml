(* Equivalence of the [Workload.Checker] fold with the list-and-set
   reference in [Checker_reference]: the same verdict and the same
   violation strings, in the same order, on real runs of campaign specs
   (within and beyond the fault budget) and on synthetic delivery streams
   that the protocol itself would never produce, replayed after the run or
   fed event by event.  And equivalence of [Workload.Runner.run], which
   feeds the fold live, with a post-run recomputation through the checker
   and latency references. *)

let node = Net.Node_id.of_int
let pp_node = Format.asprintf "%a" Net.Node_id.pp
let pp_mid = Format.asprintf "%a" Causal.Mid.pp

(* A campaign scenario run to quiescence through the shared harness,
   keeping the cluster so both checkers can judge the same recorded run.
   It is the run [Workload.Runner.run] makes of the scenario: the same RNG
   splits, mounting and submissions (campaign scenarios are datagram-mounted
   with frontier labels and no codec). *)
let run_scenario (scenario : Workload.Scenario.t) =
  assert (
    scenario.mount = Workload.Scenario.Datagram
    && scenario.load.Workload.Load.deps_mode = Workload.Load.Frontier
    && not scenario.codec_boundary);
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:scenario.seed in
  let fault = Net.Fault.create scenario.fault ~rng:(Sim.Rng.split rng) in
  let net =
    Net.Netsim.create ?latency:scenario.latency engine ~fault
      ~rng:(Sim.Rng.split rng) ()
  in
  let cluster = Urcgc.Cluster.create ~config:scenario.config ~net () in
  Workload.Harness.run
    ~sample:(fun ~round:_ -> ())
    (Urcgc.Cluster.core cluster)
    ~start:(fun () -> Urcgc.Cluster.start cluster)
    ~quiescent:(fun () -> Urcgc.Cluster.quiescent cluster)
    ~submit:(fun node id ->
      Urcgc.Cluster.submit ~size:scenario.load.Workload.Load.payload_size
        cluster node id)
    scenario.load ~rng ~max_rtd:scenario.max_rtd
    (fun () -> cluster)

let run_spec ~seed spec =
  run_scenario (Workload.Campaign.scenario_of_spec ~seed spec)

let same_verdict ~what expected got =
  expected = got
  || QCheck.Test.fail_reportf "%s: reference %a@ but one-pass %a" what
       Workload.Checker.pp expected Workload.Checker.pp got

let campaign_property =
  QCheck.Test.make
    ~name:"one-pass checker matches the reference on campaign runs" ~count:60
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (over_budget, seed) ->
      let spec =
        Workload.Campaign.generate ~over_budget (Sim.Rng.create ~seed)
      in
      let cluster = run_spec ~seed spec in
      same_verdict
        ~what:
          (Format.asprintf "%a (seed %d)" Workload.Campaign.pp_spec spec seed)
        (Checker_reference.check cluster)
        (Workload.Checker.check cluster))

(* The property above is only as strong as the violations its runs show.
   Beyond the budget, real runs break zombie freedom (survivors processing
   mids the group discarded) and lose the primary partition; a fixed sweep
   must show both and agree on every run.  The other clauses' wording is
   exercised by the synthetic streams below. *)
let over_budget_sweep =
  Alcotest.test_case "over-budget sweep: equal verdicts, failing clauses seen"
    `Quick (fun () ->
      let zombie = ref 0 and partition = ref 0 in
      for seed = 0 to 39 do
        let spec =
          Workload.Campaign.generate ~over_budget:true (Sim.Rng.create ~seed)
        in
        let cluster = run_spec ~seed spec in
        let expected = Checker_reference.check cluster in
        let got = Workload.Checker.check cluster in
        Alcotest.(check (list string))
          (Printf.sprintf "violations (seed %d)" seed)
          expected.Workload.Checker.violations got.Workload.Checker.violations;
        Alcotest.(check bool)
          (Printf.sprintf "verdict (seed %d)" seed)
          true (expected = got);
        if not got.zombie_ok then incr zombie;
        if not got.partition_ok then incr partition
      done;
      Alcotest.(check bool) "some run breaks zombie freedom" true (!zombie > 0);
      Alcotest.(check bool)
        "some run loses the partition" true (!partition > 0))

(* -- synthetic delivery streams ------------------------------------------ *)

(* Small n, few sequence numbers and few ticks, so that seq gaps, duplicate
   processing, unprocessed dependencies, discarded mids that are processed
   anyway and processing after departure all occur often. *)
type synthetic = {
  n : int;
  actives : Net.Node_id.t list;
  removed : int list array;  (** per node: ids missing from its view *)
  deliveries : unit Urcgc.Cluster.delivery list;
  discards : (Net.Node_id.t * Causal.Mid.t list * Sim.Ticks.t) list;
  departures : Urcgc.Cluster.departure list;
}

let gen_synthetic =
  let open QCheck.Gen in
  let* n = int_range 2 5 in
  let gen_node = map node (int_bound (n - 1)) in
  let gen_mid =
    map2
      (fun origin seq -> Causal.Mid.make ~origin ~seq)
      gen_node (int_range 1 4)
  in
  let gen_tick = map Sim.Ticks.of_int (int_bound 12) in
  let origin = Causal.Mid.origin in
  let gen_msg =
    let* mid = gen_mid in
    let* deps = list_size (int_bound 2) gen_mid in
    (* At most one dependency per origin, none on the message's own chain:
       the labels [Causal_msg.make] accepts. *)
    let deps =
      deps
      |> List.filter (fun d -> not (Net.Node_id.equal (origin d) (origin mid)))
      |> List.sort_uniq (fun a b -> Net.Node_id.compare (origin a) (origin b))
    in
    return (Causal.Causal_msg.make ~mid ~deps ~payload_size:0 ())
  in
  let* keep = list_repeat n bool in
  let actives =
    List.concat (List.mapi (fun i kept -> if kept then [ node i ] else []) keep)
  in
  (* Clusters list survivors in id order; any order must give equal
     verdicts. *)
  let* actives = oneof [ return actives; shuffle_l actives ] in
  let* removed =
    array_repeat n (list_size (int_bound 1) (int_bound (n - 1)))
  in
  let* ticks = list_size (int_bound 40) gen_tick in
  let* deliveries =
    flatten_l
      (List.map
         (fun at ->
           map2
             (fun node msg -> { Urcgc.Cluster.node; msg; at })
             gen_node gen_msg)
         (List.sort Sim.Ticks.compare ticks))
  in
  let* discards =
    list_size (int_bound 3)
      (triple gen_node (list_size (int_range 1 3) gen_mid) gen_tick)
  in
  let* departures =
    list_size (int_bound 3)
      (map3
         (fun who why when_ -> { Urcgc.Cluster.who; why; when_ })
         gen_node
         (oneofl
            Urcgc.Member.
              [
                Declared_crashed;
                Decision_silence;
                Recovery_exhausted;
                Partitioned;
              ])
         gen_tick)
  in
  return { n; actives; removed; deliveries; discards; departures }

let print_synthetic s =
  let lines f xs = String.concat "\n" (List.map (fun x -> "  " ^ f x) xs) in
  String.concat "\n"
    [
      Printf.sprintf "n=%d actives=[%s]" s.n
        (String.concat ";" (List.map pp_node s.actives));
      "deliveries:";
      lines
        (fun { Urcgc.Cluster.node; msg; at } ->
          Printf.sprintf "%s %s deps=[%s] at %d" (pp_node node)
            (pp_mid msg.Causal.Causal_msg.mid)
            (String.concat ";" (Array.to_list (Array.map pp_mid msg.deps)))
            (Sim.Ticks.to_int at))
        s.deliveries;
      "discards:";
      lines
        (fun (who, mids, _) ->
          Printf.sprintf "%s [%s]" (pp_node who)
            (String.concat ";" (List.map pp_mid mids)))
        s.discards;
      "departures:";
      lines
        (fun { Urcgc.Cluster.who; why; when_ } ->
          Printf.sprintf "%s %s at %d" (pp_node who)
            (Urcgc.Member.reason_to_string why)
            (Sim.Ticks.to_int when_))
        s.departures;
    ]

let view_of s node =
  let v = Causal.Group_view.create ~n:s.n in
  List.iter
    (fun i -> Causal.Group_view.remove v (Net.Node_id.of_int i))
    s.removed.(Net.Node_id.to_int node);
  v

let reference_verdict s =
  Checker_reference.verify
    {
      Checker_reference.n = s.n;
      actives = s.actives;
      view = view_of s;
      deliveries = s.deliveries;
      discards = s.discards;
      departures = s.departures;
    }

let one_pass_verdict s =
  Workload.Checker.verify ~n:s.n ~actives:s.actives ~view:(view_of s)
    ~iter:(fun f ->
      List.iter
        (fun { Urcgc.Cluster.node; msg; at } -> f node msg at)
        s.deliveries)
    ~discards:s.discards ~departures:s.departures

let synthetic_property =
  QCheck.Test.make
    ~name:"one-pass checker matches the reference on synthetic streams"
    ~count:2000
    (QCheck.make ~print:print_synthetic gen_synthetic)
    (fun s ->
      same_verdict ~what:"synthetic stream" (reference_verdict s)
        (one_pass_verdict s))

(* -- the fold driven event by event ----------------------------------- *)

(* The runner feeds the fold live: each departure as it happens, which is
   anywhere after the departures before it and before the first event at a
   later tick.  [fold_verdict] feeds each departure at such a place, picked
   at random, and replays the deliveries only if [finish] asks. *)
let fold_verdict ~rand s =
  let fold = Workload.Checker.create ~n:s.n in
  let pending = ref s.departures in
  let rec depart_before at =
    match !pending with
    | ({ Urcgc.Cluster.when_; _ } as d) :: rest
      when Sim.Ticks.(when_ < at) || Random.State.bool rand ->
        Workload.Checker.depart fold d;
        pending := rest;
        depart_before at
    | _ -> ()
  in
  List.iter
    (fun { Urcgc.Cluster.node; msg; at } ->
      depart_before at;
      Workload.Checker.deliver fold node msg at)
    s.deliveries;
  List.iter (Workload.Checker.depart fold) !pending;
  Workload.Checker.finish fold ~actives:s.actives ~view:(view_of s)
    ~discards:s.discards ~iter:(fun f ->
      List.iter
        (fun { Urcgc.Cluster.node; msg; at } -> f node msg at)
        s.deliveries)

(* Departures as a cluster records them: in time order. *)
let in_time_order s =
  {
    s with
    departures =
      List.stable_sort
        (fun a b -> Sim.Ticks.compare a.Urcgc.Cluster.when_ b.Urcgc.Cluster.when_)
        s.departures;
  }

let incremental_property =
  QCheck.Test.make ~name:"fold fed event by event matches the reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (s, seed) ->
         Printf.sprintf "%s\nplacement seed %d" (print_synthetic s) seed)
       QCheck.Gen.(pair (map in_time_order gen_synthetic) int))
    (fun (s, seed) ->
      same_verdict ~what:"event-by-event fold" (reference_verdict s)
        (fold_verdict ~rand:(Random.State.make [| seed |]) s))

(* One event that is both kinds of zombie: survivor p1 left at tick 2 and
   at tick 5 processes p0's first message, which survivor p0 discarded.  The discard
   violation comes first, as in the reference. *)
let shared_zombie_event =
  Alcotest.test_case "discard and leave zombies on one event, in order"
    `Quick (fun () ->
      let mid = Causal.Mid.make ~origin:(node 0) ~seq:1 in
      let msg = Causal.Causal_msg.make ~mid ~deps:[] ~payload_size:0 () in
      let s =
        {
          n = 3;
          actives = [ node 0; node 1 ];
          removed = [| []; []; [] |];
          deliveries =
            [
              { Urcgc.Cluster.node = node 0; msg; at = Sim.Ticks.of_int 1 };
              { Urcgc.Cluster.node = node 1; msg; at = Sim.Ticks.of_int 5 };
            ];
          discards = [ (node 0, [ mid ], Sim.Ticks.of_int 6) ];
          departures =
            [
              {
                Urcgc.Cluster.who = node 1;
                why = Urcgc.Member.Decision_silence;
                when_ = Sim.Ticks.of_int 2;
              };
            ];
        }
      in
      let expected = reference_verdict s in
      (match List.rev expected.Workload.Checker.violations with
      | leave :: discard :: _ ->
          Alcotest.(check bool) "discard first" true
            (Astring_contains.contains discard "p1 processed discarded message");
          Alcotest.(check bool) "leave second" true
            (Astring_contains.contains leave "zombie: p1")
      | violations ->
          Alcotest.failf "reference: %s" (String.concat "; " violations));
      List.iter
        (fun seed ->
          let got = fold_verdict ~rand:(Random.State.make [| seed |]) s in
          Alcotest.(check (list string))
            (Printf.sprintf "violations (placement %d)" seed)
            expected.Workload.Checker.violations
            got.Workload.Checker.violations;
          Alcotest.(check bool) "verdict" true (expected = got))
        [ 0; 1; 2; 3 ])

(* Every kind of violation the checker words must occur among the streams
   the generator draws, or the property above proves little. *)
let synthetic_coverage =
  Alcotest.test_case "synthetic streams produce every kind of violation"
    `Quick (fun () ->
      let kinds =
        [
          "before its causal predecessors";
          "atomicity:";
          "processed discarded message";
          "zombie:";
          "group views diverge";
          "solo view";
        ]
      in
      let rand = Random.State.make [| 13 |] in
      let seen = Hashtbl.create 8 in
      for _ = 1 to 500 do
        List.iter
          (fun v ->
            List.iter
              (fun kind ->
                if Astring_contains.contains v kind then
                  Hashtbl.replace seen kind ())
              kinds)
          (reference_verdict (gen_synthetic rand)).Workload.Checker.violations
      done;
      List.iter
        (fun kind -> Alcotest.(check bool) kind true (Hashtbl.mem seen kind))
        kinds)

(* -- the runner's live fold ---------------------------------------------- *)

(* [Runner.run] judges and measures a run as it happens.  Recomputed after
   the run from the recorded lists, through the checker and latency
   references, the same run must give the same verdict, counts, delay
   summary (bit for bit) and delay histogram. *)
let runner_matches ~what scenario =
  let metrics = Sim.Metrics.create () in
  let report = Workload.Runner.run ~metrics scenario in
  let cluster = run_scenario scenario in
  let generations = Urcgc.Cluster.generations cluster in
  let latency =
    Latency_reference.latency
      ~generations:
        (List.map
           (fun (g : _ Urcgc.Cluster.generation) -> (g.mid, g.sent_at))
           generations)
      ~key:(fun (d : _ Urcgc.Cluster.delivery) -> d.msg.Causal.Causal_msg.mid)
      ~at:(fun (d : _ Urcgc.Cluster.delivery) -> d.at)
      ~remote:(fun { Urcgc.Cluster.node; msg; _ } ->
        not (Net.Node_id.equal node (Causal.Mid.origin msg.Causal.Causal_msg.mid)))
      (Urcgc.Cluster.deliveries cluster)
  in
  let expected_metrics = Sim.Metrics.create () in
  List.iter (Sim.Metrics.observe expected_metrics "delivery.latency_rtd")
    latency.delays;
  let bits (s : Stats.Summary.t) =
    ( s.count,
      List.map Int64.bits_of_float
        [ s.mean; s.stddev; s.min; s.max; s.p50; s.p95; s.p99 ] )
  in
  let check name ok =
    if not ok then QCheck.Test.fail_reportf "%s: %s differs" what name
  in
  (* The recomputation replays the very run the runner made. *)
  check "subruns" (report.subruns = Urcgc.Cluster.subrun cluster);
  check "departures" (report.departures = Urcgc.Cluster.departures cluster);
  check "verdict" (report.verdict = Checker_reference.check cluster);
  check "generated" (report.generated = List.length generations);
  check "delivered_remote" (report.delivered_remote = latency.remote);
  check "completion_rtd"
    (Int64.bits_of_float report.completion_rtd
    = Int64.bits_of_float latency.completion_rtd);
  check "delay" (bits report.delay = bits (Stats.Summary.of_list latency.delays));
  check "latency histogram"
    (Sim.Metrics.histogram metrics "delivery.latency_rtd"
    = Sim.Metrics.histogram expected_metrics "delivery.latency_rtd");
  check "generated counter"
    (Sim.Metrics.counter metrics "messages.generated" = List.length generations);
  check "remote counter"
    (Sim.Metrics.counter metrics "deliveries.remote" = latency.remote);
  report

let runner_property =
  QCheck.Test.make
    ~name:"runner's live fold matches a post-run recomputation" ~count:40
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (over_budget, seed) ->
      let spec =
        Workload.Campaign.generate ~over_budget (Sim.Rng.create ~seed)
      in
      ignore
        (runner_matches
           ~what:
             (Format.asprintf "%a (seed %d)" Workload.Campaign.pp_spec spec seed)
           (Workload.Campaign.scenario_of_spec ~seed spec));
      true)

(* Beyond the budget, runs whose survivors process discarded mids take the
   fold's replay path; the sweep of [over_budget_sweep] must hold some. *)
let runner_over_budget =
  Alcotest.test_case "runner's live fold on the over-budget sweep" `Quick
    (fun () ->
      let replayed = ref 0 in
      for seed = 0 to 39 do
        let spec =
          Workload.Campaign.generate ~over_budget:true (Sim.Rng.create ~seed)
        in
        let report =
          runner_matches
            ~what:(Printf.sprintf "over-budget seed %d" seed)
            (Workload.Campaign.scenario_of_spec ~seed spec)
        in
        if
          List.exists
            (fun v -> Astring_contains.contains v "processed discarded message")
            report.verdict.Workload.Checker.violations
        then incr replayed
      done;
      Alcotest.(check bool) "some run replays for discard zombies" true
        (!replayed > 0))

let suite =
  [
    ( "checker.reference",
      over_budget_sweep :: synthetic_coverage :: shared_zombie_event
      :: List.map QCheck_alcotest.to_alcotest
           [ campaign_property; synthetic_property; incremental_property ] );
    ( "runner.fold",
      runner_over_budget
      :: List.map QCheck_alcotest.to_alcotest [ runner_property ] );
  ]
