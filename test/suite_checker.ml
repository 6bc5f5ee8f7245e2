(* Equivalence of the one-pass [Workload.Checker] with the list-and-set
   reference in [Checker_reference]: the same verdict and the same
   violation strings, in the same order, on real runs of campaign specs
   (within and beyond the fault budget) and on synthetic delivery streams
   that the protocol itself would never produce. *)

let node = Net.Node_id.of_int
let pp_node = Format.asprintf "%a" Net.Node_id.pp
let pp_mid = Format.asprintf "%a" Causal.Mid.pp

(* A campaign spec run to quiescence through the shared harness, keeping
   the cluster so both checkers can judge the same recorded run. *)
let run_spec ~seed spec =
  let scenario = Workload.Campaign.scenario_of_spec ~seed spec in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault =
    Net.Fault.create scenario.Workload.Scenario.fault ~rng:(Sim.Rng.split rng)
  in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Urcgc.Cluster.create ~config:scenario.config ~net () in
  Workload.Harness.run
    ~sample:(fun ~round:_ -> ())
    (Urcgc.Cluster.core cluster)
    ~start:(fun () -> Urcgc.Cluster.start cluster)
    ~quiescent:(fun () -> Urcgc.Cluster.quiescent cluster)
    ~submit:(fun node id -> Urcgc.Cluster.submit cluster node id)
    scenario.load ~rng ~max_rtd:scenario.max_rtd
    (fun () -> cluster)

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

let suite =
  [
    ( "checker.reference",
      over_budget_sweep :: synthetic_coverage
      :: List.map QCheck_alcotest.to_alcotest
           [ campaign_property; synthetic_property ] );
  ]
