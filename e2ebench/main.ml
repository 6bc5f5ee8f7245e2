(* End-to-end benchmark of the urcgc reproduction.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|tiny] [--pins FILE] [--record-pins]

   Workloads (why each was chosen is in README.md):
     steady_n128     Runner.run, fault-free n=128, Frontier deps, no codec
     lossy_n40_wire  Runner.run, n=40, omissions 1/200, crash of node 3 at
                     subrun 5, every PDU through the codec
     campaign_j2     Campaign.run, the standard within-budget sweep at -j 2
     explore_n3      Explore.explore -n 3 --messages 6 --window 2
                     --crash-choices, oracle on (takes no seed)

   With --trace 0 the operation is timed untraced, after untimed warm-up
   repetitions, for S seconds; the end-to-end metrics are medians over the
   timed repetitions, timings scaled to the host's speed (calib.ml).  With
   --trace 1 a separate traced pass attributes the run to layers (see
   traced.ml and spans.ml).  Every repetition is checked:
   checker verdicts, determinism across repetitions, pinned outputs for the
   seed (pins.txt), and for the traced pass equality with the untraced
   report.  Human-readable lines come first, one per metric with its unit;
   the last line is one JSON object.  Any failed check exits 1. *)

open Workload

let now = Spans.now
let seconds_of_ns ns = float_of_int ns /. 1e9

let median values =
  match List.sort Float.compare values with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* Words allocated so far by every domain, terminated ones included: minor
   plus direct-to-major (major words include promoted ones, which the minor
   count already holds).  Exact right after [Gc.minor ()]: a domain's
   counters advance at its minor collections, and at its end. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The largest [top_heap_words] read after any op so far.  With several
   domains OCaml 5 reports it as a snapshot that can go down again, so the
   maximum is kept here. *)
let peak_words = ref 0

let note_peak () =
  peak_words := max !peak_words (Gc.quick_stat ()).Gc.top_heap_words

let peak_heap_mb () = float_of_int (!peak_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- command line ------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  pins : string;
  record_pins : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload steady_n128|lossy_n40_wire|campaign_j2|explore_n3 \
     --seed N --seconds S --trace 0|1 [--size full|tiny] [--pins FILE] \
     [--record-pins]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref false and tiny = ref false in
  let pins = ref "e2ebench/pins.txt" and record_pins = ref false in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := Some s
        | _ -> usage ());
        go rest
    | "--trace" :: "0" :: rest -> trace := false; go rest
    | "--trace" :: "1" :: rest -> trace := true; go rest
    | "--size" :: "full" :: rest -> tiny := false; go rest
    | "--size" :: "tiny" :: rest -> tiny := true; go rest
    | "--pins" :: v :: rest -> pins := v; go rest
    | "--record-pins" :: rest -> record_pins := true; go rest
    | arg :: _ ->
        prerr_endline ("main.exe: unexpected argument " ^ arg);
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds) with
  | Some seed, Some seconds ->
      { workload = !workload; seed; seconds; trace = !trace; tiny = !tiny;
        pins = !pins; record_pins = !record_pins }
  | Some seed, None when !record_pins ->
      { workload = !workload; seed; seconds = 0.0; trace = false; tiny = !tiny;
        pins = !pins; record_pins = true }
  | _ -> usage ()

(* ---- pinned outputs ----------------------------------------------------- *)

(* pins.txt: one line per (workload, size, seed) — "-" for the seedless
   explorer — followed by key=value pairs.  '#' starts a comment. *)
let load_pins path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> close_in ic; acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | workload :: size :: seed :: pairs
          when String.length workload > 0 && workload.[0] <> '#' ->
            let kv =
              List.filter_map
                (fun pair ->
                  match String.index_opt pair '=' with
                  | Some i ->
                      Some
                        ( String.sub pair 0 i,
                          String.sub pair (i + 1) (String.length pair - i - 1) )
                  | None -> None)
                pairs
            in
            read (((workload, size, seed), kv) :: acc)
        | _ -> read acc)
  in
  read []

let pin_line ~workload ~size ~seed fingerprint =
  String.concat " "
    (workload :: size :: seed
    :: List.map (fun (k, v) -> k ^ "=" ^ v) fingerprint)

(* ---- one operation ------------------------------------------------------ *)

(* What one timed operation did.  [fingerprint] holds its deterministic
   outputs: they must repeat exactly across repetitions and match the pins
   for the seed. *)
type outcome = {
  ops : int;  (** runs, or explored schedules *)
  bad : int;  (** ops with a non-OK verdict *)
  deliveries : int;  (** remote deliveries *)
  fingerprint : (string * string) list;
}

(* [scale] is the host-speed factor of {!Calib}, taken right before. *)
type sample = { wall_ns : int; scale : float; words : float; outcome : outcome }

(* One timed op.  It starts from a collected heap, so the calibration loop
   before it does not pay for the previous op's garbage, and each op pays
   for the collection work its own allocation triggers.  Emptying the minor
   heap around the op makes the allocation counters exact. *)
let timed op =
  Gc.full_major ();
  let scale = Calib.scale () in
  Gc.minor ();
  let w0 = allocated_words () in
  let t0 = now () in
  let outcome = op () in
  let wall_ns = now () - t0 in
  Gc.minor ();
  let words = allocated_words () -. w0 in
  note_peak ();
  { wall_ns; scale; words; outcome }

let scaled_s s = seconds_of_ns s.wall_ns *. s.scale

(* ---- workloads --------------------------------------------------------- *)

let steady_scenario ~tiny ~seed =
  let n, messages = if tiny then (16, 40) else (128, 512) in
  Scenario.make ~name:"steady_n128" ~seed
    ~config:(Urcgc.Config.make ~n ())
    ~load:(Load.make ~rate:0.5 ~total_messages:messages ~deps_mode:Load.Frontier ())
    ()

let lossy_scenario ~tiny ~seed =
  let n, messages = if tiny then (8, 40) else (40, 800) in
  let scenario =
    Scenario.make ~name:"lossy_n40_wire" ~seed
      ~fault:(Net.Fault.omission_every 200) ~codec_boundary:true
      ~config:(Urcgc.Config.make ~n ())
      ~load:(Load.make ~rate:0.5 ~total_messages:messages ~deps_mode:Load.Frontier ())
      ()
  in
  Scenario.crash_at_subrun scenario (Net.Node_id.of_int 3) ~subrun:5

let campaign_budget ~tiny = if tiny then 6 else 1000
let campaign_jobs = 2

let explore_config ~tiny =
  if tiny then Explore.config ~messages:3 ~window_subruns:1 ~crash_choices:true ~n:3 ()
  else Explore.config ~messages:6 ~window_subruns:2 ~crash_choices:true ~n:3 ()

let report_fingerprint (r : Runner.report) =
  [
    ("generated", string_of_int r.generated);
    ("delivered_remote", string_of_int r.delivered_remote);
    ("control_msgs", string_of_int r.control_msgs);
    ("data_msgs", string_of_int r.data_msgs);
    ("recovery_msgs", string_of_int r.recovery_msgs);
    ("discarded", string_of_int r.discarded);
    ("delay_p95_rtd", Printf.sprintf "%.6f" r.delay.Stats.Summary.p95);
    ("wire_bytes", string_of_int (r.control_bytes + r.data_bytes + r.recovery_bytes));
  ]

let runner_outcome (r : Runner.report) =
  {
    ops = 1;
    bad = (if Checker.ok r.verdict then 0 else 1);
    deliveries = r.delivered_remote;
    fingerprint = report_fingerprint r;
  }

let campaign_outcome (c : Campaign.t) json =
  let deliveries =
    List.fold_left (fun acc (r : Campaign.run) -> acc + r.delivered_remote) 0 c.runs
  in
  {
    ops = List.length c.runs;
    bad = c.failed;
    deliveries;
    fingerprint =
      [
        ("runs", string_of_int (List.length c.runs));
        ("failed", string_of_int c.failed);
        ("delivered_remote", string_of_int deliveries);
        ("report_md5", Digest.to_hex (Digest.string json));
      ];
  }

let explore_fingerprint (stats : Sim.Explore.stats) =
  [
    ("total", string_of_int stats.total);
    ("explored", string_of_int stats.explored);
    ("pruned", string_of_int stats.pruned);
    ("max_depth", string_of_int stats.max_depth);
    ("truncated", string_of_bool stats.truncated);
  ]

let explore_outcome ~deliveries (r : Explore.report) =
  let bad =
    r.schedules_with_violations + r.oracle_disagreements
    + (if r.stats.truncated then 1 else 0)
    + if r.config.with_oracle && r.oracle_checked <> r.stats.explored then 1 else 0
  in
  {
    ops = r.stats.explored;
    bad;
    deliveries;
    fingerprint =
      explore_fingerprint r.stats
      @ [ ("ok", string_of_bool (Explore.ok r)) ];
  }

(* The traced explorer pass: the same search [Explore.explore] runs, driven
   through [Sim.Explore.explore] so each schedule's harness call is timed
   and its deliveries counted. *)
type explore_trace = {
  stats : Sim.Explore.stats;
  schedule_ns : int;
  delivered : int;
  violations : int;
}

let traced_explore config =
  let schedule_ns = ref 0 and delivered = ref 0 and violations = ref 0 in
  let harness ctx =
    let t0 = now () in
    let result = Explore.run_schedule config ctx in
    schedule_ns := !schedule_ns + (now () - t0);
    result
  in
  let stats =
    Sim.Explore.explore ~prune:true ~max_schedules:200_000 harness
      ~on_schedule:(fun ~schedule:_ (r : Explore.run_result) ->
        delivered := !delivered + r.delivered_remote;
        if r.violations <> [] then incr violations)
  in
  { stats; schedule_ns = !schedule_ns; delivered = !delivered;
    violations = !violations }

(* ---- reporting ---------------------------------------------------------- *)

let end_to_end =
  [
    ("ns_per_delivery", "ns");
    ("words_per_delivery", "words");
    ("peak_heap_mb", "MiB");
    ("setup_s", "s");
    ("ops_per_sec", "ops/s");
  ]

let per_layer =
  [
    ("engine.run_s", "s"); ("engine.residual_s", "s");
    ("netsim.send_s", "s"); ("netsim.calls", "count");
    ("netsim.packets", "count"); ("netsim.drop_ratio", "ratio");
    ("codec.s", "s"); ("codec.ns_per_pdu", "ns"); ("codec.pdus", "count");
    ("member.recv_s", "s"); ("member.recv_calls", "count");
    ("member.recv_ns_per_call", "ns");
    ("cluster.create_s", "s"); ("cluster.deliveries_s", "s");
    ("cluster.rounds", "count");
    ("history.peak", "msgs"); ("waiting.peak", "msgs");
    ("recovery.msgs_per_delivery", "msgs"); ("discarded", "msgs");
    ("checker.s", "s"); ("checker.share", "ratio");
    ("campaign.generate_s", "s"); ("campaign.execute_ms_p50", "ms");
    ("campaign.execute_ms_p95", "ms"); ("campaign.to_json_s", "s");
    ("pool.busy_share", "ratio"); ("pool.steals", "count");
    ("pool.speedup", "ratio");
    ("explore.explored", "schedules"); ("explore.prune_ratio", "ratio");
    ("analysis.oracle_share", "ratio");
    ("trace.overhead", "ratio"); ("unattributed_share", "ratio");
    ("delay_p95_rtd", "rtd"); ("wire_bytes_per_delivery", "bytes");
    ("runs_per_sec", "runs/s"); ("schedules_per_sec", "schedules/s");
    ("words_per_schedule", "words"); ("failed_share", "ratio");
    ("warmup.reps", "count");
  ]

(* Prints [names] (each with its unit) from [values]; a per-layer metric the
   workload's path does not reach reads 0. *)
let emit ~names ~values ~attempted ~failed =
  let value name = Option.value (List.assoc_opt name values) ~default:0.0 in
  List.iter
    (fun (name, unit) -> Printf.printf "metric %s = %.6g %s\n" name (value name) unit)
    names;
  if not (List.mem_assoc "failed_share" names) then
    Printf.printf "metric failed_share = %.6g ratio\n"
      (if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted);
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name) unit)
      names
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " metrics)

(* ---- measurement -------------------------------------------------------- *)

(* Medians of 21 samples of a set-up unit, each repeated until it has run
   for at least 5 ms, per unit, in seconds: scaled by {!Calib} and unscaled.
   Each sample starts from a collected heap, so it does not pay for the
   garbage of the operations before it. *)
let measure_setup unit_ =
  let sample () =
    Gc.full_major ();
    let scale = Calib.scale () in
    let t0 = now () in
    let rec go reps =
      unit_ ();
      let elapsed = now () - t0 in
      if elapsed >= 5_000_000 then
        (seconds_of_ns elapsed /. float_of_int reps, scale)
      else go (reps + 1)
    in
    go 1
  in
  let samples = List.init 21 (fun _ -> sample ()) in
  (median (List.map (fun (t, k) -> t *. k) samples), median (List.map fst samples))

(* Untimed warm-up: repeat while the operation still gets more than 5%
   faster from one repetition to the next (heap growth, cold caches), at
   most [max_reps] times or for a third of the run.  Returns the samples,
   which the caller checks but leaves out of the medians. *)
let warm_up ~budget_ns ~max_reps op =
  let start = now () in
  let rec go acc prev =
    let s = timed op in
    let acc = s :: acc in
    let ramping = float_of_int s.wall_ns < 0.95 *. prev in
    if ramping && List.length acc < max_reps && now () - start < budget_ns then
      go acc (float_of_int s.wall_ns)
    else List.rev acc
  in
  go [] infinity

(* Repeats [op] until [seconds] have elapsed (at least [min_reps] times). *)
let repeat ~seconds ~min_reps op =
  let stop = now () + int_of_float (seconds *. 1e9) in
  let rec go acc k =
    if k >= min_reps && now () >= stop then List.rev acc
    else go (op () :: acc) (k + 1)
  in
  go [] 0

(* ---- checks -------------------------------------------------------------- *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

(* Ops attempted and failed over [samples]: an op fails on a non-OK verdict,
   and every op of a repetition fails when that repetition's deterministic
   outputs differ from the pins or from the first repetition. *)
let check_samples ~what ~pin samples =
  let reference = match samples with s :: _ -> s.outcome.fingerprint | [] -> [] in
  List.fold_left
    (fun (attempted, failed) s ->
      let o = s.outcome in
      let mismatch =
        if o.fingerprint <> reference then begin
          fail "%s: outputs differ between repetitions" what;
          true
        end
        else
          match pin with
          | None -> false
          | Some pinned ->
              let wrong =
                List.filter
                  (fun (k, v) -> List.assoc_opt k pinned <> Some v)
                  o.fingerprint
              in
              List.iter
                (fun (k, v) ->
                  fail "%s: %s=%s, pinned %s" what k v
                    (Option.value (List.assoc_opt k pinned) ~default:"(none)"))
                wrong;
              wrong <> []
      in
      if o.bad > 0 then fail "%s: %d ops with a non-OK verdict" what o.bad;
      (attempted + o.ops, failed + if mismatch then o.ops else o.bad))
    (0, 0) samples

(* ---- the workloads ------------------------------------------------------- *)

type workload = {
  setup : unit -> unit;  (** one set-up unit, timed for [setup_s] *)
  op : unit -> outcome;  (** the timed operation *)
  verify : sample -> unit;  (** extra checks after the timed phase *)
  traced : untraced:sample -> (string * float) list;
      (** one traced pass after the untraced op [untraced]: its per-layer
          metrics, [trace.overhead] included *)
}

let runner_workload make_scenario =
  let scenario = make_scenario () in
  (* The report of the latest untraced run, for the parity check. *)
  let last = ref None in
  let op () =
    let report = Runner.run scenario in
    last := Some report;
    runner_outcome report
  in
  let setup () = ignore (Traced.build ~traced:false (make_scenario ())) in
  let traced ~(untraced : sample) =
    let t0 = now () in
    let report, extra = Traced.run scenario in
    let wall = float_of_int (now () - t0) in
    if compare (Some report) !last <> 0 then
      fail "traced driver: report differs from Runner.run";
    let untraced_s = seconds_of_ns untraced.wall_ns in
    let delivered = float_of_int (max 1 report.delivered_remote) in
    let pdus = !Traced.pdus and packets = !Traced.packets in
    let per = function 0 -> 0.0 | k -> 1.0 /. float_of_int k in
    [
      ("trace.overhead", wall /. float_of_int untraced.wall_ns);
      ("engine.run_s", Spans.incl_s Spans.Engine);
      ("engine.residual_s", Spans.self_s Spans.Engine);
      ("netsim.send_s", Spans.self_s Spans.Netsim);
      ("netsim.calls", float_of_int (Spans.calls_of Spans.Netsim));
      ("netsim.packets", float_of_int packets);
      ("netsim.drop_ratio", float_of_int extra.Traced.dropped *. per packets);
      ("codec.s", Spans.self_s Spans.Codec);
      ("codec.ns_per_pdu", Spans.self_s Spans.Codec *. 1e9 *. per pdus);
      ("codec.pdus", float_of_int pdus);
      ("member.recv_s", Spans.self_s Spans.Member);
      ("member.recv_calls", float_of_int (Spans.calls_of Spans.Member));
      ( "member.recv_ns_per_call",
        Spans.self_s Spans.Member *. 1e9 *. per (Spans.calls_of Spans.Member) );
      ("cluster.create_s", Spans.incl_s Spans.Create);
      ("cluster.deliveries_s", Spans.incl_s Spans.Deliveries);
      ("cluster.rounds", float_of_int extra.Traced.rounds);
      ("history.peak", float_of_int report.history_peak);
      ("waiting.peak", float_of_int report.waiting_peak);
      ("recovery.msgs_per_delivery", float_of_int report.recovery_msgs /. delivered);
      ("discarded", float_of_int report.discarded);
      ("checker.s", Spans.incl_s Spans.Checker);
      ("checker.share", Spans.incl_s Spans.Checker /. untraced_s);
      ( "unattributed_share",
        (wall -. float_of_int (Spans.attributed_ns ())) /. wall );
      ("delay_p95_rtd", report.delay.Stats.Summary.p95);
      ( "wire_bytes_per_delivery",
        float_of_int (report.control_bytes + report.data_bytes + report.recovery_bytes)
        /. delivered );
      ("runs_per_sec", 1.0 /. scaled_s untraced);
    ]
  in
  { setup; op; verify = (fun _ -> ()); traced }

let campaign_workload ~tiny ~seed =
  let budget = campaign_budget ~tiny in
  let sweep jobs =
    let c = Campaign.run ~jobs ~budget ~seed () in
    campaign_outcome c (Campaign.to_json c)
  in
  let setup () =
    let rng = Sim.Rng.create ~seed in
    for index = 0 to budget - 1 do
      let spec = Campaign.generate rng in
      ignore (Campaign.scenario_of_spec ~seed:(Sim.Rng.derive ~seed index) spec)
    done
  in
  let verify (first : sample) =
    let sequential = sweep 1 in
    if sequential.fingerprint <> first.outcome.fingerprint then
      fail "campaign_j2: the -j %d report differs from the -j 1 report" campaign_jobs
  in
  let traced ~(untraced : sample) =
    (* Pool statistics and the speed-up come from untraced sweeps; the
       traced pass itself runs the campaign's phases one by one at -j 1. *)
    Sim.Pool.reset_stats ();
    let t0 = now () in
    ignore (Campaign.run ~jobs:campaign_jobs ~budget ~seed ());
    let wall_j2 = now () - t0 in
    let stats = Sim.Pool.stats () in
    let t0 = now () in
    ignore (Campaign.run ~jobs:1 ~budget ~seed ());
    let wall_j1 = now () - t0 in
    let start = now () in
    let rng = Sim.Rng.create ~seed in
    let specs = Array.init budget (fun _ -> Campaign.generate rng) in
    let generate_ns = now () - start in
    let exec_ms = ref [] in
    let runs =
      List.init budget (fun index ->
          let run_seed = Sim.Rng.derive ~seed index in
          let t0 = now () in
          let outcome, report = Campaign.execute ~seed:run_seed specs.(index) in
          exec_ms := float_of_int (now () - t0) /. 1e6 :: !exec_ms;
          {
            Campaign.index;
            seed = run_seed;
            spec = specs.(index);
            outcome;
            generated = report.Runner.generated;
            delivered_remote = report.delivered_remote;
            subruns = report.subruns;
            mean_delay_rtd = Runner.mean_delay_rtd report;
            shrunk = None;
            metrics = None;
            analysis = None;
            oracle_agrees = None;
          })
    in
    let failed = List.length (List.filter (fun (r : Campaign.run) -> not r.outcome.ok) runs) in
    let c = { Campaign.campaign_seed = seed; budget; over_budget = false; runs; failed } in
    let t0 = now () in
    let json = Campaign.to_json c in
    let to_json_ns = now () - t0 in
    let wall = float_of_int (now () - start) in
    if (campaign_outcome c json).fingerprint <> untraced.outcome.fingerprint then
      fail "campaign_j2: the traced -j 1 pass differs from the untraced report";
    let exec = Stats.Summary.of_list !exec_ms in
    let exec_ns = List.fold_left ( +. ) 0.0 !exec_ms *. 1e6 in
    let sum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 stats in
    let busy = sum (fun s -> s.Sim.Pool.busy_ns) in
    let idle = sum (fun s -> s.Sim.Pool.idle_ns) in
    [
      ("trace.overhead", wall /. float_of_int wall_j1);
      ("campaign.generate_s", seconds_of_ns generate_ns);
      ("campaign.execute_ms_p50", exec.Stats.Summary.p50);
      ("campaign.execute_ms_p95", exec.Stats.Summary.p95);
      ("campaign.to_json_s", seconds_of_ns to_json_ns);
      ("pool.busy_share", if busy +. idle > 0.0 then busy /. (busy +. idle) else 0.0);
      ("pool.steals", sum (fun s -> float_of_int s.Sim.Pool.steals));
      ("pool.speedup", float_of_int wall_j1 /. float_of_int wall_j2);
      ( "unattributed_share",
        (wall -. float_of_int (generate_ns + to_json_ns) -. exec_ns) /. wall );
      ("runs_per_sec", float_of_int budget /. scaled_s untraced);
    ]
  in
  { setup; op = (fun () -> sweep campaign_jobs); verify; traced }

let explore_workload ~tiny ~deliveries =
  let config = explore_config ~tiny in
  let setup () = Explore.validate (explore_config ~tiny) in
  let traced ~(untraced : sample) =
    let t0 = now () in
    let off = Explore.explore { config with with_oracle = false } in
    let wall_off = now () - t0 in
    if not (Explore.ok off) then fail "explore_n3: oracle-off exploration not OK";
    let t0 = now () in
    let t = traced_explore config in
    let wall = float_of_int (now () - t0) in
    if explore_fingerprint t.stats <> explore_fingerprint off.stats
       || t.violations <> 0
    then fail "explore_n3: the traced pass differs from Explore.explore";
    if t.delivered <> deliveries then
      fail "explore_n3: traced pass delivered %d, pinned %d" t.delivered deliveries;
    let explored = float_of_int t.stats.explored in
    [
      ("trace.overhead", wall /. float_of_int untraced.wall_ns);
      ("explore.explored", explored);
      ( "explore.prune_ratio",
        float_of_int t.stats.pruned /. float_of_int (max 1 t.stats.total) );
      ( "analysis.oracle_share",
        1.0 -. (float_of_int wall_off /. float_of_int untraced.wall_ns) );
      ("unattributed_share", (wall -. float_of_int t.schedule_ns) /. wall);
      ("schedules_per_sec", explored /. scaled_s untraced);
      ("words_per_schedule", untraced.words /. explored);
    ]
  in
  {
    setup;
    op = (fun () -> explore_outcome ~deliveries (Explore.explore config));
    verify = (fun _ -> ());
    traced;
  }

(* ---- main ---------------------------------------------------------------- *)

let () =
  let args = parse_args () in
  let size = if args.tiny then "tiny" else "full" in
  let seed_key = if args.workload = "explore_n3" then "-" else string_of_int args.seed in
  let pins = load_pins args.pins in
  let pin = List.assoc_opt (args.workload, size, seed_key) pins in
  let tiny = args.tiny and seed = args.seed in
  let t_start = now () in
  let workload =
    match args.workload with
    | "steady_n128" -> runner_workload (fun () -> steady_scenario ~tiny ~seed)
    | "lossy_n40_wire" -> runner_workload (fun () -> lossy_scenario ~tiny ~seed)
    | "campaign_j2" -> campaign_workload ~tiny ~seed
    | "explore_n3" ->
        let deliveries =
          match args.record_pins, Option.bind pin (List.assoc_opt "delivered_remote") with
          | true, _ -> (traced_explore (explore_config ~tiny)).delivered
          | false, Some v -> int_of_string v
          | false, None ->
              prerr_endline "main.exe: explore_n3 needs its pinned delivered_remote";
              exit 1
        in
        explore_workload ~tiny ~deliveries
    | _ -> usage ()
  in
  if args.record_pins then begin
    let o = workload.op () in
    if o.bad > 0 then begin
      prerr_endline "main.exe: refusing to pin a run with a non-OK verdict";
      exit 1
    end;
    let extra =
      if args.workload = "explore_n3" then [ ("delivered_remote", string_of_int o.deliveries) ]
      else []
    in
    print_endline
      (pin_line ~workload:args.workload ~size ~seed:seed_key (o.fingerprint @ extra));
    exit 0
  end;
  if pin = None then
    Printf.printf "note: no pins for %s %s seed %s; checking determinism only\n"
      args.workload size seed_key;
  let budget_ns = int_of_float (args.seconds *. 1e9 /. 3.0) in
  let warm = warm_up ~budget_ns ~max_reps:5 workload.op in
  let setup_s, setup_unscaled = measure_setup workload.setup in
  Printf.printf "warmup_reps = %d (setup and warm-up took %.2f s)\n"
    (List.length warm) (seconds_of_ns (now () - t_start));
  let what = args.workload in
  if not args.trace then begin
    let samples =
      repeat ~seconds:args.seconds ~min_reps:3 (fun () -> timed workload.op)
    in
    let peak = peak_heap_mb () in
    workload.verify (List.hd samples);
    let attempted, failed = check_samples ~what ~pin (warm @ samples) in
    let per f = median (List.map f samples) in
    let deliveries s = float_of_int (max 1 s.outcome.deliveries) in
    let values =
      [
        ("ns_per_delivery", per (fun s -> scaled_s s *. 1e9 /. deliveries s));
        ("words_per_delivery", per (fun s -> s.words /. deliveries s));
        ("peak_heap_mb", peak);
        ("setup_s", setup_s);
        ( "ops_per_sec",
          per (fun s -> float_of_int s.outcome.ops /. scaled_s s) );
      ]
    in
    Printf.printf "timed_reps = %d\n" (List.length samples);
    Printf.printf
      "calibration: loop median %.2f ms (nominal %.0f ms); unscaled: ns_per_delivery \
       %.6g ns, ops_per_sec %.6g ops/s, setup_s %.6g s\n"
      (per (fun s -> Calib.nominal_ns /. s.scale /. 1e6))
      (Calib.nominal_ns /. 1e6)
      (per (fun s -> float_of_int s.wall_ns /. deliveries s))
      (per (fun s -> float_of_int s.outcome.ops /. seconds_of_ns s.wall_ns))
      setup_unscaled;
    (match args.workload with
    | "campaign_j2" ->
        Printf.printf "metric runs_per_sec = %.6g runs/s\n" (List.assoc "ops_per_sec" values)
    | "explore_n3" ->
        Printf.printf "metric schedules_per_sec = %.6g schedules/s\n"
          (List.assoc "ops_per_sec" values);
        Printf.printf "metric words_per_schedule = %.6g words\n"
          (per (fun s -> s.words /. float_of_int (max 1 s.outcome.ops)))
    | _ -> ());
    List.iter (fun msg -> Printf.printf "FAILED: %s\n" msg) (List.rev !failures);
    let failed = if !failures <> [] && failed = 0 then 1 else failed in
    emit ~names:end_to_end ~values ~attempted ~failed;
    exit (if failed = 0 then 0 else 1)
  end
  else begin
    let passes =
      repeat ~seconds:args.seconds ~min_reps:1 (fun () ->
          let untraced = timed workload.op in
          Gc.full_major ();
          (untraced, workload.traced ~untraced))
    in
    let attempted, failed = check_samples ~what ~pin (warm @ List.map fst passes) in
    let values =
      List.map
        (fun (name, _) ->
          (name, median (List.filter_map (fun (_, l) -> List.assoc_opt name l) passes)))
        per_layer
    in
    let values =
      ("warmup.reps", float_of_int (List.length warm))
      :: ( "failed_share",
           if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted )
      :: values
    in
    if not (Sys.file_exists "e2ebench/out") then Sys.mkdir "e2ebench/out" 0o755;
    (* Only the run workloads go through the traced driver's spans. *)
    if !Spans.logged > 0 then
      Spans.write (Printf.sprintf "e2ebench/out/spans_%s_%s.jsonl" args.workload size);
    Printf.printf "traced_passes = %d\n" (List.length passes);
    List.iter (fun msg -> Printf.printf "FAILED: %s\n" msg) (List.rev !failures);
    let failed = if !failures <> [] && failed = 0 then 1 else failed in
    emit ~names:per_layer ~values ~attempted ~failed;
    exit (if failed = 0 then 0 else 1)
  end
