(* Advanced urcgc scenarios: the SAP primitives, transport mounting (h > 1),
   scripted fault injection, and the orphaned-sequence purge — the hardest
   case of Theorem 4.1, where every holder of a message crashes and the
   group must agree to destroy its causal descendants. *)

let node n = Net.Node_id.of_int n

let build ?(n = 4) ?(k = 3) ?silence_limit ?(fault = Net.Fault.reliable)
    ?(seed = 21) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let config = Urcgc.Config.make ~k ?silence_limit ~n () in
  let cluster = Urcgc.Cluster.create ~config ~net () in
  (engine, net, cluster)

let sap_tests =
  [
    Alcotest.test_case "delivery and indication callbacks fire in \
                        registration order"
      `Quick (fun () ->
        let engine, _net, cluster = build () in
        let fired = ref [] in
        let note tag = fired := tag :: !fired in
        Urcgc.Cluster.on_delivery cluster (fun at _ _ ->
            if Net.Node_id.equal at (node 1) then note "delivery a");
        let sap = Urcgc.Sap.attach cluster (node 1) in
        Urcgc.Sap.on_data_ind sap (fun ~mid:_ ~deps:_ _ -> note "indication a");
        Urcgc.Sap.on_data_ind sap (fun ~mid:_ ~deps:_ _ -> note "indication b");
        Urcgc.Cluster.on_delivery cluster (fun at _ _ ->
            if Net.Node_id.equal at (node 1) then note "delivery b");
        Urcgc.Cluster.submit cluster (node 0) ();
        Urcgc.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 2.0);
        Alcotest.(check (list string))
          "one processing event at p1"
          [ "delivery a"; "indication a"; "indication b"; "delivery b" ]
          (List.rev !fired));
    Alcotest.test_case "data_rq confirms and indications fire everywhere"
      `Quick (fun () ->
        let engine, _net, cluster = build () in
        let sap0 = Urcgc.Sap.attach cluster (node 0) in
        let sap2 = Urcgc.Sap.attach cluster (node 2) in
        let confirmed = ref [] in
        let indicated = ref [] in
        Urcgc.Sap.on_data_ind sap2 (fun ~mid ~deps:_ payload ->
            indicated := (mid, payload) :: !indicated);
        Urcgc.Sap.data_rq sap0 "one" ~on_conf:(fun mid ->
            confirmed := mid :: !confirmed);
        Urcgc.Sap.data_rq sap0 "two" ~on_conf:(fun mid ->
            confirmed := mid :: !confirmed);
        Urcgc.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 4.0);
        Alcotest.(check int) "both confirmed" 2 (List.length !confirmed);
        Alcotest.(check int) "nothing pending" 0 (Urcgc.Sap.pending_confirms sap0);
        (* Confirm order matches submission order. *)
        (match List.rev !confirmed with
        | [ first; second ] ->
            Alcotest.(check int) "seq 1 first" 1 (Causal.Mid.seq first);
            Alcotest.(check int) "seq 2 second" 2 (Causal.Mid.seq second)
        | _ -> Alcotest.fail "expected two confirms");
        let payloads = List.rev_map snd !indicated in
        Alcotest.(check (list string)) "indications in causal order"
          [ "one"; "two" ] payloads);
    Alcotest.test_case "one message per round service rate" `Quick (fun () ->
        let engine, _net, cluster = build () in
        let sap = Urcgc.Sap.attach cluster (node 1) in
        let conf_times = ref [] in
        for i = 1 to 4 do
          Urcgc.Sap.data_rq sap i ~on_conf:(fun _ ->
              conf_times := Sim.Engine.now engine :: !conf_times)
        done;
        Urcgc.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 6.0);
        let times = List.rev_map Sim.Ticks.to_int !conf_times in
        Alcotest.(check int) "all confirmed" 4 (List.length times);
        (* One per round: confirm instants are spaced by >= half an rtd. *)
        let rec spaced = function
          | a :: (b :: _ as rest) ->
              b - a >= Sim.Ticks.per_rtd / 2 && spaced rest
          | _ -> true
        in
        Alcotest.(check bool) "spaced by rounds" true (spaced times));
    Alcotest.test_case "indication exposes the causal label" `Quick (fun () ->
        let engine, _net, cluster = build () in
        let sap0 = Urcgc.Sap.attach cluster (node 0) in
        let sap1 = Urcgc.Sap.attach cluster (node 1) in
        let seen = ref None in
        Urcgc.Sap.data_rq sap0 "root";
        Urcgc.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 2.0);
        Urcgc.Sap.on_data_ind sap0 (fun ~mid ~deps payload ->
            if payload = "reply" then seen := Some (mid, deps));
        Urcgc.Sap.data_rq sap1 "reply";
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 4.0);
        match !seen with
        | Some (mid, deps) ->
            Alcotest.(check int) "from p1" 1
              (Net.Node_id.to_int (Causal.Mid.origin mid));
            Alcotest.(check bool) "depends on the root" true
              (List.exists
                 (fun dep -> Net.Node_id.to_int (Causal.Mid.origin dep) = 0)
                 deps)
        | None -> Alcotest.fail "reply never indicated at p0");
  ]

let medium_tests =
  [
    Alcotest.test_case "urcgc over the transport entity delivers atomically"
      `Slow (fun () ->
        let config = Urcgc.Config.make ~k:3 ~n:6 () in
        let load = Workload.Load.make ~rate:0.6 ~total_messages:50 () in
        let scenario =
          Workload.Scenario.make ~name:"transport-all"
            ~mount:(Workload.Scenario.Transport Urcgc.Medium.All)
            ~fault:(Net.Fault.omission_every 80) ~seed:17 ~max_rtd:120.0
            ~config ~load ()
        in
        let report = Workload.Runner.run scenario in
        Alcotest.(check bool) "invariants" true
          (Workload.Checker.ok report.Workload.Runner.verdict);
        Alcotest.(check int) "everything delivered" (50 * 5)
          report.Workload.Runner.delivered_remote);
    Alcotest.test_case "h=all sharply reduces recovery-from-history" `Slow
      (fun () ->
        let run mount =
          let config = Urcgc.Config.make ~k:3 ~n:6 () in
          let load = Workload.Load.make ~rate:0.6 ~total_messages:60 () in
          let scenario =
            Workload.Scenario.make ~name:"mount-cmp" ~mount
              ~fault:(Net.Fault.omission_every 50) ~seed:19 ~max_rtd:150.0
              ~config ~load ()
          in
          Workload.Runner.run scenario
        in
        let datagram = run Workload.Scenario.Datagram in
        let transported =
          run (Workload.Scenario.Transport Urcgc.Medium.All)
        in
        Alcotest.(check bool) "datagram needs recovery" true
          (datagram.Workload.Runner.recovery_msgs > 0);
        Alcotest.(check bool) "transport needs far less" true
          (transported.Workload.Runner.recovery_msgs * 5
          < datagram.Workload.Runner.recovery_msgs));
    Alcotest.test_case "At_least h is clamped to the destination count" `Quick
      (fun () ->
        let engine = Sim.Engine.create () in
        let rng = Sim.Rng.create ~seed:3 in
        let fault =
          Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.split rng)
        in
        let transport =
          Net.Transport.create engine ~fault ~rng:(Sim.Rng.split rng) ()
        in
        let medium =
          Urcgc.Medium.of_transport ~h:(Urcgc.Medium.At_least 99) transport
        in
        let got = ref 0 in
        Urcgc.Medium.attach medium (node 0) (fun _ -> ());
        Urcgc.Medium.attach medium (node 1) (fun _ -> incr got);
        let msg =
          Urcgc.Wire.Data
            (Causal.Causal_msg.make
               ~mid:(Causal.Mid.make ~origin:(node 0) ~seq:1)
               ~deps:[] ~payload_size:4 ())
        in
        Urcgc.Medium.multicast medium ~src:(node 0) ~dsts:[| node 1 |] msg;
        Sim.Engine.run engine;
        Alcotest.(check int) "delivered despite h > |dsts|" 1 !got);
  ]

(* The orphaned-sequence purge, end to end.

   p3 generates m1 = (p3,1) and m2 = (p3,2).  A scripted filter loses every
   copy of m1 on the wire, then p3 fail-stops before anyone can recover m1
   from its history.  m2 sits in every survivor's waiting list forever —
   unless the group agrees to destroy it: the coordinators see
   min_waiting(p3) = 2 while max_processed(p3) = 0 among survivors, a gap
   that can never close, and the full-group decision triggers the discard
   (Section 4: "there is nothing else to do but destroy the messages of
   that sequence"). *)
let orphan_tests =
  [
    Alcotest.test_case "orphaned suffix is destroyed by agreement" `Slow
      (fun () ->
        let fault =
          Net.Fault.with_crashes
            [ (node 3, Sim.Ticks.of_int 60) ]
            Net.Fault.reliable
        in
        let engine, net, cluster = build ~k:1 ~fault () in
        (* Lose every copy of (p3, 1) at send time. *)
        Net.Netsim.set_filter net
          (Some
             (fun packet ->
               match packet.Net.Netsim.payload with
               | Urcgc.Wire.Data msg ->
                   not
                     (Causal.Mid.equal msg.Causal.Causal_msg.mid
                        (Causal.Mid.make ~origin:(node 3) ~seq:1))
               | Urcgc.Wire.Request _ | Urcgc.Wire.Decision_pdu _
               | Urcgc.Wire.Recover_req _ | Urcgc.Wire.Recover_reply _ ->
                   true));
        (* Two submissions: m1 goes out (and is lost) in round 0, m2 in
           round 1; p3 crashes at tick 60, between the two rounds'
           broadcasts and before any recovery can reach it. *)
        Urcgc.Cluster.submit cluster (node 3) "m1-lost-forever";
        Urcgc.Cluster.submit cluster (node 3) "m2-orphan";
        Urcgc.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 20.0);
        (* The survivors all discarded m2... *)
        let discards = Urcgc.Cluster.discards cluster in
        Alcotest.(check int) "3 survivors discarded" 3 (List.length discards);
        List.iter
          (fun (_, mids, _) ->
            Alcotest.(check bool) "m2 among the discards" true
              (List.exists
                 (fun mid ->
                   Causal.Mid.equal mid
                     (Causal.Mid.make ~origin:(node 3) ~seq:2))
                 mids))
          discards;
        (* ... their waiting lists are empty, nobody processed m2, and the
           group is consistent. *)
        List.iter
          (fun member ->
            (* p3 itself crashed; it processed its own messages before. *)
            if not (Net.Node_id.equal (Urcgc.Member.id member) (node 3)) then begin
              Alcotest.(check int) "waiting empty" 0
                (Urcgc.Member.waiting_length member);
              Alcotest.(check int) "nothing of p3 processed" 0
                (Urcgc.Member.last_processed member (node 3))
            end)
          (Urcgc.Cluster.members cluster);
        let verdict = Workload.Checker.check cluster in
        Alcotest.(check bool) "invariants" true (Workload.Checker.ok verdict));
    Alcotest.test_case
      "no purge while a holder survives: recovery wins instead" `Slow
      (fun () ->
        (* Same loss of m1 on the wire, but p3 stays alive: the survivors
           recover m1 from p3's history and process both messages. *)
        let engine, net, cluster = build ~k:1 () in
        Net.Netsim.set_filter net
          (Some
             (fun packet ->
               match packet.Net.Netsim.payload with
               | Urcgc.Wire.Data msg ->
                   not
                     (Causal.Mid.equal msg.Causal.Causal_msg.mid
                        (Causal.Mid.make ~origin:(node 3) ~seq:1))
               | Urcgc.Wire.Request _ | Urcgc.Wire.Decision_pdu _
               | Urcgc.Wire.Recover_req _ | Urcgc.Wire.Recover_reply _ ->
                   true));
        Urcgc.Cluster.submit cluster (node 3) "m1";
        Urcgc.Cluster.submit cluster (node 3) "m2";
        Urcgc.Cluster.start cluster;
        Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 20.0);
        Alcotest.(check int) "nothing discarded" 0
          (List.length (Urcgc.Cluster.discards cluster));
        List.iter
          (fun member ->
            Alcotest.(check int) "both processed everywhere" 2
              (Urcgc.Member.last_processed member (node 3)))
          (Urcgc.Cluster.members cluster);
        let verdict = Workload.Checker.check cluster in
        Alcotest.(check bool) "invariants" true (Workload.Checker.ok verdict));
  ]

let filter_tests =
  [
    Alcotest.test_case "set_filter drops selected packets only" `Quick
      (fun () ->
        let engine = Sim.Engine.create () in
        let rng = Sim.Rng.create ~seed:3 in
        let fault =
          Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.split rng)
        in
        let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
        let got = ref [] in
        Net.Netsim.attach net (node 1) (fun p ->
            got := p.Net.Netsim.payload :: !got);
        Net.Netsim.set_filter net (Some (fun p -> p.Net.Netsim.payload <> "drop"));
        Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
          ~size:1 "keep";
        Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
          ~size:1 "drop";
        Net.Netsim.set_filter net None;
        Net.Netsim.send net ~src:(node 0) ~dst:(node 1) ~kind:Net.Traffic.Data
          ~size:1 "drop";
        Sim.Engine.run engine;
        (* Arrival order depends on per-packet jitter; compare as sets. *)
        Alcotest.(check (list string)) "filtered" [ "drop"; "keep" ]
          (List.sort compare !got));
  ]

let suite =
  [
    ("urcgc.sap", sap_tests);
    ("urcgc.medium", medium_tests);
    ("urcgc.orphan", orphan_tests);
    ("net.filter", filter_tests);
  ]
