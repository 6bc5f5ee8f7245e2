(* Tests for the optimized delivery hot path (dependency-indexed waiting
   list, dense history rings):

   - History purge regression tests, including purging at exactly the
     highest stored seq (a case the pre-optimization code mishandled with a
     dead match arm);
   - the incrementally maintained per-origin oldest against brute-force
     recomputation from [to_list];
   - a randomized equivalence property driving [Waiting_list_reference]
     (the old O(W)-scan implementation, kept as an executable spec) and the
     production [Causal.Waiting_list] with identical operation sequences. *)

let node n = Net.Node_id.of_int n
let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s

let msg ?(deps = []) o s =
  Causal.Causal_msg.make ~mid:(mid o s) ~deps ~payload_size:8 (o, s)

let mid_testable = Alcotest.testable Causal.Mid.pp Causal.Mid.equal

(* -- history purge regressions ------------------------------------------ *)

let history_tests =
  [
    Alcotest.test_case "purge at exactly the highest stored seq" `Quick
      (fun () ->
        let h = Causal.History.create ~n:2 in
        for s = 1 to 5 do
          Causal.History.store h (msg 0 s)
        done;
        Alcotest.(check int) "removed all five" 5
          (Causal.History.purge_upto h ~origin:(node 0) ~seq:5);
        Alcotest.(check bool) "seq 5 gone" false
          (Causal.History.mem h (mid 0 5));
        Alcotest.(check int) "origin empty" 0
          (Causal.History.entry_length h (node 0));
        Alcotest.(check int) "history empty" 0 (Causal.History.length h));
    Alcotest.test_case "purge at an interior seq keeps the suffix" `Quick
      (fun () ->
        let h = Causal.History.create ~n:2 in
        for s = 1 to 5 do
          Causal.History.store h (msg 0 s)
        done;
        Alcotest.(check int) "removed prefix" 3
          (Causal.History.purge_upto h ~origin:(node 0) ~seq:3);
        Alcotest.(check bool) "seq 3 gone" false
          (Causal.History.mem h (mid 0 3));
        Alcotest.(check bool) "seq 4 kept" true
          (Causal.History.mem h (mid 0 4));
        Alcotest.(check int) "max_seq unchanged" 5
          (Causal.History.max_seq h ~origin:(node 0));
        Alcotest.(check int) "two left" 2
          (Causal.History.entry_length h (node 0)));
    Alcotest.test_case "purge counts only stored slots in a sparse window"
      `Quick (fun () ->
        let h = Causal.History.create ~n:2 in
        List.iter (fun s -> Causal.History.store h (msg 0 s)) [ 1; 4; 7 ];
        Alcotest.(check int) "two of the first four seqs stored" 2
          (Causal.History.purge_upto h ~origin:(node 0) ~seq:4);
        Alcotest.(check bool) "seq 7 kept" true
          (Causal.History.mem h (mid 0 7));
        Alcotest.(check int) "one left" 1
          (Causal.History.entry_length h (node 0)));
    Alcotest.test_case "store after a full purge restarts the window" `Quick
      (fun () ->
        let h = Causal.History.create ~n:2 in
        for s = 1 to 3 do
          Causal.History.store h (msg 0 s)
        done;
        ignore (Causal.History.purge_upto h ~origin:(node 0) ~seq:3);
        Causal.History.store h (msg 0 9);
        Alcotest.(check bool) "seq 9 stored" true
          (Causal.History.mem h (mid 0 9));
        Alcotest.(check int) "max_seq follows" 9
          (Causal.History.max_seq h ~origin:(node 0));
        Alcotest.(check (list mid_testable)) "range sees only seq 9"
          [ mid 0 9 ]
          (List.map
             (fun m -> m.Causal.Causal_msg.mid)
             (Causal.History.range h ~origin:(node 0) ~lo:1 ~hi:20)));
  ]

(* -- incremental oldest vs brute force ---------------------------------- *)

let brute_oldest_vector wl ~n =
  let waiting = Causal.Waiting_list.to_list wl in
  Array.init n (fun o ->
      List.fold_left
        (fun acc m ->
          let mid = m.Causal.Causal_msg.mid in
          if Net.Node_id.to_int (Causal.Mid.origin mid) <> o then acc
          else
            match acc with
            | Some best when Causal.Mid.seq best <= Causal.Mid.seq mid -> acc
            | Some _ | None -> Some mid)
        None waiting)

let check_oldest_matches_brute ~ctx wl ~n =
  let fast = Causal.Waiting_list.oldest_vector wl in
  let brute = brute_oldest_vector wl ~n in
  for o = 0 to n - 1 do
    Alcotest.(check (option mid_testable))
      (Printf.sprintf "%s: oldest of origin %d" ctx o)
      brute.(o) fast.(o)
  done

let oldest_tests =
  [
    Alcotest.test_case "incremental oldest matches brute force" `Quick
      (fun () ->
        let n = 4 in
        let rng = Random.State.make [| 0x01de57 |] in
        let wl = Causal.Waiting_list.create ~n in
        let delivery = Causal.Delivery.create ~n in
        for step = 1 to 400 do
          let ctx = Printf.sprintf "step %d" step in
          (match Random.State.int rng 100 with
          | r when r < 55 ->
              let o = Random.State.int rng n in
              Causal.Waiting_list.add wl
                (msg o (1 + Random.State.int rng 10))
          | r when r < 70 ->
              Causal.Waiting_list.remove wl
                (mid (Random.State.int rng n) (1 + Random.State.int rng 10))
          | r when r < 85 ->
              ignore
                (Causal.Waiting_list.discard_from wl
                   ~origin:(node (Random.State.int rng n))
                   ~seq:(1 + Random.State.int rng 10))
          | _ -> (
              match Causal.Waiting_list.take_processable wl delivery with
              | Some m -> Causal.Delivery.mark delivery m.Causal.Causal_msg.mid
              | None -> ()));
          check_oldest_matches_brute ~ctx wl ~n
        done);
  ]

(* -- randomized equivalence against the reference model ------------------

   Each shape drives [Waiting_list_reference] and the production list with
   identical operation sequences and checks every observation, plus
   [Causal.Waiting_list.check_invariants] after every operation.  Besides
   add / remove / discard / drain, the operations re-add a removed mid under
   different dependencies, advance the delivery vector without processing
   (orphan skips), and process many mids "elsewhere" before an add — with
   the list empty that leaves the production list's cached vector stale.
   QCHECK_LONG=1 runs 20x more seeds per shape. *)

type shape = {
  label : string;
  runs : int;
  ops : int;
  n_min : int;  (* group size drawn from [n_min, n_max] *)
  n_max : int;
  frontier : bool;
      (* messages follow a causal history, each depending on the recent
         frontier of up to n-1 origins; otherwise labels are uniformly
         random over seqs [1, 12] with sparse deps *)
  quirks : bool;
      (* dependency arrays may repeat a mid or name the sender's own
         predecessor *)
}

let long_run =
  match Sys.getenv_opt "QCHECK_LONG" with
  | Some ("1" | "true") -> true
  | Some _ | None -> false

let shapes =
  [
    { label = "random labels, n = 4"; runs = 120; ops = 60; n_min = 4;
      n_max = 4; frontier = false; quirks = false };
    { label = "frontier deps, n up to 40"; runs = 40; ops = 150; n_min = 2;
      n_max = 40; frontier = true; quirks = false };
    { label = "duplicate and own-predecessor deps"; runs = 80; ops = 80;
      n_min = 2; n_max = 8; frontier = false; quirks = true };
    { label = "frontier deps with quirks, n up to 12"; runs = 60; ops = 120;
      n_min = 2; n_max = 12; frontier = true; quirks = true };
  ]

let run_equivalence shape seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let n = shape.n_min + Random.State.int rng (shape.n_max - shape.n_min + 1) in
  let max_seq = 12 in
  let reference = Waiting_list_reference.create ~n in
  let wl = Causal.Waiting_list.create ~n in
  let delivery = Causal.Delivery.create ~n in
  (* Alcotest prints this message on failure, so the failing seed is always
     recoverable: rerun [run_equivalence shape seed] alone to shrink by
     hand. *)
  let fail fmt =
    Format.kasprintf
      (fun detail ->
        Alcotest.failf "%s: equivalence mismatch (failing seed %d, n = %d): %s"
          shape.label seed n detail)
      fmt
  in
  let chance k = Random.State.int rng k = 0 in
  let rand_origin () = Random.State.int rng n in
  let rand_seq () = 1 + Random.State.int rng max_seq in
  (* Frontier mode: [generated.(o)] messages of origin o exist so far, and
     [pool] holds them (most recent first) for out-of-order arrival.  The
     group has been running: every origin's first message is processed,
     so labels carry deps on nearly all n-1 other origins from the start. *)
  let generated = Array.make n 0 in
  let pool = ref [] in
  if shape.frontier then
    for o = 0 to n - 1 do
      Causal.Delivery.mark delivery (mid o 1);
      generated.(o) <- 1
    done;
  let last o = Causal.Delivery.last_processed delivery (node o) in
  let rand_deps o s =
    List.filter_map
      (fun o' ->
        if o' = o then
          if shape.quirks && s > 1 && chance 3 then Some (mid o (s - 1))
          else None
        else if shape.frontier then
          if generated.(o') = 0 || chance 8 then None
          else
            Some (mid o' (max 1 (generated.(o') - Random.State.int rng 3)))
        else if Random.State.int rng 4 > 0 then None
        else Some (mid o' (rand_seq ())))
      (List.init n Fun.id)
  in
  (* [Causal_msg.make] deduplicates, so a repeated dep needs the raw
     record; the array stays sorted. *)
  let label o s deps =
    let m = msg ~deps o s in
    match m.Causal.Causal_msg.deps with
    | [||] -> m
    | ds when shape.quirks && chance 3 ->
        let dup = ds.(Random.State.int rng (Array.length ds)) in
        let deps = List.sort Causal.Mid.compare (dup :: Array.to_list ds) in
        { m with deps = Array.of_list deps }
    | _ -> m
  in
  let fresh_msg () =
    let o = rand_origin () in
    if shape.frontier then begin
      let s = generated.(o) + 1 in
      let m = label o s (rand_deps o s) in
      generated.(o) <- s;
      pool := m :: !pool;
      (* A recent message of the history: arrivals are out of order, and
         some are re-deliveries of messages already taken. *)
      List.nth !pool (Random.State.int rng (min (List.length !pool) (2 * n)))
    end
    else
      let s = rand_seq () in
      label o s (rand_deps o s)
  in
  let add m =
    Waiting_list_reference.add reference m;
    Causal.Waiting_list.add wl m
  in
  let remove victim =
    let ma = Waiting_list_reference.mem reference victim in
    let mb = Causal.Waiting_list.mem wl victim in
    if ma <> mb then
      fail "mem %a: %b (reference) vs %b" Causal.Mid.pp victim ma mb;
    Waiting_list_reference.remove reference victim;
    Causal.Waiting_list.remove wl victim
  in
  let mids_of l = List.map (fun m -> m.Causal.Causal_msg.mid) l in
  let check_state () =
    (try Causal.Waiting_list.check_invariants wl
     with Failure e -> fail "invariant: %s" e);
    let la = Waiting_list_reference.length reference in
    let lb = Causal.Waiting_list.length wl in
    if la <> lb then fail "length %d (reference) vs %d" la lb;
    let ta = mids_of (Waiting_list_reference.to_list reference) in
    let tb = mids_of (Causal.Waiting_list.to_list wl) in
    if not (List.equal Causal.Mid.equal ta tb) then
      fail "to_list [%a] (reference) vs [%a]"
        (Format.pp_print_list Causal.Mid.pp)
        ta
        (Format.pp_print_list Causal.Mid.pp)
        tb;
    let va = Waiting_list_reference.oldest_vector reference in
    let vb = Causal.Waiting_list.oldest_vector wl in
    for o = 0 to n - 1 do
      if not (Option.equal Causal.Mid.equal va.(o) vb.(o)) then
        fail "oldest_vector origin %d: %a (reference) vs %a" o
          (Format.pp_print_option Causal.Mid.pp)
          va.(o)
          (Format.pp_print_option Causal.Mid.pp)
          vb.(o)
    done
  in
  for _op = 1 to shape.ops do
    (match Random.State.int rng 100 with
    | r when r < 35 -> add (fresh_msg ())
    | r when r < 43 -> remove (mid (rand_origin ()) (rand_seq ()))
    | r when r < 50 -> (
        (* Remove a waiting mid, then re-add it under different deps: its
           old blocker registrations must not count for the new entry. *)
        match Causal.Waiting_list.to_list wl with
        | [] -> ()
        | waiting ->
            let m =
              List.nth waiting (Random.State.int rng (List.length waiting))
            in
            let victim = m.Causal.Causal_msg.mid in
            let o = Net.Node_id.to_int (Causal.Mid.origin victim)
            and s = Causal.Mid.seq victim in
            remove victim;
            add (label o s (rand_deps o s)))
    | r when r < 60 ->
        let origin = node (rand_origin ()) and seq = rand_seq () in
        let da = Waiting_list_reference.discard_from reference ~origin ~seq in
        let db = Causal.Waiting_list.discard_from wl ~origin ~seq in
        if not (List.equal Causal.Mid.equal da db) then
          fail "discard_from (%a,%d): [%a] (reference) vs [%a]" Net.Node_id.pp
            origin seq
            (Format.pp_print_list Causal.Mid.pp)
            da
            (Format.pp_print_list Causal.Mid.pp)
            db
    | r when r < 85 ->
        let rec drain () =
          let a = Waiting_list_reference.take_processable reference delivery in
          let b = Causal.Waiting_list.take_processable wl delivery in
          match (a, b) with
          | None, None -> ()
          | Some ma, Some mb
            when Causal.Mid.equal ma.Causal.Causal_msg.mid
                   mb.Causal.Causal_msg.mid ->
              Causal.Delivery.mark delivery ma.Causal.Causal_msg.mid;
              check_state ();
              drain ()
          | a, b ->
              let pp ppf = function
                | None -> Format.pp_print_string ppf "None"
                | Some m -> Causal.Mid.pp ppf m.Causal.Causal_msg.mid
              in
              fail "take_processable %a (reference) vs %a" pp a pp b
        in
        drain ()
    | r when r < 92 ->
        (* Shared delivery state jumps ahead without processing, exercising
           the optimized list's lazy resynchronization. *)
        let o = rand_origin () in
        let seq = if shape.frontier then last o + 1 + Random.State.int rng 3
          else rand_seq () in
        Causal.Delivery.force_skip_to delivery ~origin:(node o) ~seq;
        generated.(o) <- max generated.(o) seq
    | _ ->
        (* Many mids processed elsewhere (received directly in order), then
           one arrival. *)
        for _ = 1 to 1 + Random.State.int rng (3 * n) do
          let o = rand_origin () in
          Causal.Delivery.mark delivery (mid o (last o + 1));
          generated.(o) <- max generated.(o) (last o)
        done;
        add (fresh_msg ()));
    check_state ()
  done

let equivalence_tests =
  List.map
    (fun shape ->
      let runs = if long_run then 20 * shape.runs else shape.runs in
      Alcotest.test_case
        (Printf.sprintf "waiting list equals reference model: %s (%d runs)"
           shape.label runs)
        `Quick
        (fun () ->
          for seed = 0 to runs - 1 do
            run_equivalence shape seed
          done))
    shapes

(* -- bounded memory ------------------------------------------------------- *)

(* One list, many block/unblock cycles of a 39-dep message: everything a
   cycle registers must be reclaimed once it unblocks, so the list's
   footprint after 10k cycles is no larger than after 2k. *)
let memory_tests =
  [
    Alcotest.test_case "block/unblock cycles keep the footprint flat" `Quick
      (fun () ->
        let n = 40 in
        let wl = Causal.Waiting_list.create ~n in
        let delivery = Causal.Delivery.create ~n in
        let cycle = ref 0 in
        let run cycles =
          for _ = 1 to cycles do
            incr cycle;
            let c = !cycle in
            (* Message c of origin 0 depends on message c of every other
               origin, none of them processed yet. *)
            let deps = List.init (n - 1) (fun j -> mid (j + 1) c) in
            Causal.Waiting_list.add wl (msg ~deps 0 c);
            if Option.is_some (Causal.Waiting_list.take_processable wl delivery)
            then Alcotest.fail "processable before its deps";
            for j = 1 to n - 1 do
              Causal.Delivery.mark delivery (mid j c)
            done;
            match Causal.Waiting_list.take_processable wl delivery with
            | Some m when Causal.Mid.equal m.Causal.Causal_msg.mid (mid 0 c) ->
                Causal.Delivery.mark delivery (mid 0 c)
            | Some _ | None -> Alcotest.fail "not unblocked by its deps"
          done;
          Obj.reachable_words (Obj.repr wl)
        in
        let after_2k = run 2_000 in
        let after_10k = run 8_000 in
        if after_10k > after_2k then
          Alcotest.failf "list grew from %d words (2k cycles) to %d (10k)"
            after_2k after_10k);
  ]

(* -- member equivalence: sink emission vs the list-building reference ----

   [Member_reference] is the pre-sink implementation kept verbatim as an
   executable spec.  A lockstep twin of every node runs under both
   implementations; every operation must produce identical action streams
   (polymorphic equality covers the full PDU payloads, dependency arrays
   included) and identical observable state.  The "network" is a queue of
   in-flight bodies with random delivery order and random drops, so
   recovery, decisions and departures are all exercised. *)

let member_equivalence_runs = 40
let member_equivalence_ops = 90

let run_member_equivalence seed =
  let n = 4 in
  let config = Urcgc.Config.make ~n () in
  let rng = Random.State.make [| 0xd0c5; seed |] in
  let prod = Array.init n (fun i -> Urcgc.Member.create config (node i)) in
  let refm = Array.init n (fun i -> Member_reference.create config (node i)) in
  let inflight = ref [] in
  let payload = ref 0 in
  let subrun = ref 0 in
  let mid_phase = ref false in
  let fail fmt =
    Format.kasprintf
      (fun detail ->
        Alcotest.failf "member equivalence mismatch (failing seed %d): %s"
          seed detail)
      fmt
  in
  let check_actions ctx i (pa : int Urcgc.Member.action list) ra =
    if pa <> ra then fail "%s: node %d action streams differ" ctx i
  in
  let check_state ctx i =
    let p = prod.(i) and r = refm.(i) in
    if Urcgc.Member.active p <> Member_reference.active r then
      fail "%s: node %d active" ctx i;
    if Urcgc.Member.left_reason p <> Member_reference.left_reason r then
      fail "%s: node %d left_reason" ctx i;
    if Urcgc.Member.history_length p <> Member_reference.history_length r then
      fail "%s: node %d history_length" ctx i;
    if Urcgc.Member.waiting_length p <> Member_reference.waiting_length r then
      fail "%s: node %d waiting_length" ctx i;
    if Urcgc.Member.processed_count p <> Member_reference.processed_count r
    then fail "%s: node %d processed_count" ctx i;
    if Urcgc.Member.sap_backlog p <> Member_reference.sap_backlog r then
      fail "%s: node %d sap_backlog" ctx i;
    for o = 0 to n - 1 do
      if
        Urcgc.Member.last_processed p (node o)
        <> Member_reference.last_processed r (node o)
      then fail "%s: node %d last_processed of %d" ctx i o
    done
  in
  let route i actions =
    List.iter
      (fun action ->
        match action with
        | Urcgc.Member.Broadcast body ->
            for j = 0 to n - 1 do
              if j <> i then inflight := !inflight @ [ (j, body) ]
            done
        | Urcgc.Member.Send (dst, body) ->
            inflight := !inflight @ [ (Net.Node_id.to_int dst, body) ]
        | Urcgc.Member.Processed _ | Urcgc.Member.Confirmed _
        | Urcgc.Member.Queued _ | Urcgc.Member.Discarded _
        | Urcgc.Member.Left _ ->
            ())
      actions
  in
  let remove_nth k l = List.filteri (fun j _ -> j <> k) l in
  for step = 1 to member_equivalence_ops do
    let ctx = Printf.sprintf "step %d" step in
    (match Random.State.int rng 100 with
    | r when r < 15 ->
        let i = Random.State.int rng n in
        incr payload;
        Urcgc.Member.submit prod.(i) !payload;
        Member_reference.submit refm.(i) !payload
    | r when r < 40 ->
        (* One half-round across every node, alternating begin/mid. *)
        for i = 0 to n - 1 do
          let pa, ra =
            if !mid_phase then
              ( Urcgc.Member.mid_subrun prod.(i) ~subrun:!subrun,
                Member_reference.mid_subrun refm.(i) ~subrun:!subrun )
            else
              ( Urcgc.Member.begin_subrun prod.(i) ~subrun:!subrun,
                Member_reference.begin_subrun refm.(i) ~subrun:!subrun )
          in
          check_actions ctx i pa ra;
          route i pa
        done;
        if !mid_phase then incr subrun;
        mid_phase := not !mid_phase
    | r when r < 85 -> (
        match !inflight with
        | [] -> ()
        | l ->
            let k = Random.State.int rng (List.length l) in
            let dst, body = List.nth l k in
            inflight := remove_nth k l;
            let pa = Urcgc.Member.handle prod.(dst) body in
            let ra = Member_reference.handle refm.(dst) body in
            check_actions ctx dst pa ra;
            route dst pa)
    | _ -> (
        (* Lose one in-flight copy: recovery-from-history territory. *)
        match !inflight with
        | [] -> ()
        | l -> inflight := remove_nth (Random.State.int rng (List.length l)) l));
    for i = 0 to n - 1 do
      check_state ctx i
    done
  done

let member_equivalence_tests =
  [
    Alcotest.test_case
      (Printf.sprintf "member equals reference model (%d randomized runs)"
         member_equivalence_runs)
      `Quick
      (fun () ->
        for seed = 0 to member_equivalence_runs - 1 do
          run_member_equivalence seed
        done);
  ]

let suite =
  [
    ("hotpath.history", history_tests);
    ("hotpath.oldest", oldest_tests);
    ("hotpath.equivalence", equivalence_tests);
    ("hotpath.memory", memory_tests);
    ("hotpath.member_equivalence", member_equivalence_tests);
  ]
