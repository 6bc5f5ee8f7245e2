(* Command-line front end: run an ad-hoc urcgc scenario and print the report.

   Examples:
     urcgc_sim run -n 15 --rate 0.5 --messages 200
     urcgc_sim run -n 40 --crash 3@5 --crash 7@5 --omission 500 -K 4 --trace
*)

(* [<node>@<time>], both non-negative; [usage] is the error message. *)
let at_conv ~usage =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char '@' s) with
    | [ Some node; Some at ] when node >= 0 && at >= 0 -> Ok (node, at)
    | _ -> Error (`Msg usage)
  in
  Cmdliner.Arg.conv
    (parse, fun ppf (node, at) -> Format.fprintf ppf "%d@%d" node at)

let crash_conv = at_conv ~usage:"crash must be <node>@<subrun>"

open Cmdliner

let group_size_arg default =
  Arg.(
    value & opt int default
    & info [ "n"; "group-size" ] ~doc:"Group cardinality.")

let retries_arg default =
  Arg.(
    value & opt int default
    & info [ "K"; "retries" ] ~doc:"Crash-detection retries K.")

let n_arg = group_size_arg 15
let k_arg = retries_arg 3

let out_file_arg doc =
  Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")

let rate_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "rate" ] ~doc:"Per-process submission probability per round.")

let messages_arg =
  Arg.(
    value
    & opt int 200
    & info [ "messages" ] ~doc:"Total messages to generate before draining.")

let omission_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "omission" ]
        ~doc:"Omission failure rate: one omission every $(docv) packets."
        ~docv:"N")

let crash_arg =
  Arg.(
    value
    & opt_all crash_conv []
    & info [ "crash" ] ~doc:"Fail-stop $(docv) (repeatable)." ~docv:"NODE@SUBRUN")

let flow_arg =
  Arg.(
    value
    & flag
    & info [ "flow-control" ] ~doc:"Enable the 8n history flow-control threshold.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Dump the protocol trace.")

let codec_arg =
  Arg.(
    value
    & flag
    & info [ "codec" ]
        ~doc:"Run every PDU through the binary wire codec in flight.")

let max_rtd_arg =
  Arg.(value & opt float 400.0 & info [ "max-rtd" ] ~doc:"Simulated time cap.")

let metrics_arg =
  Arg.(
    value
    & flag
    & info [ "metrics" ]
        ~doc:"Record the run's metrics registry and include it in the output.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ]
        ~doc:
          "Profile the run: write the span-tree cost-attribution report \
           (JSON, schema in docs/PROFILE.md) to $(docv), the \
           deterministic structural report to $(docv).structural, and \
           folded stacks for flamegraph.pl/speedscope to $(docv).folded. \
           The human summary goes to standard error.  Profiled campaigns \
           run with a single worker.  The simulation outputs are \
           byte-identical with and without profiling."
        ~docv:"FILE")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* A JSON report goes to [out], and the human summary to standard output;
   or the report to standard output, and the summary to standard error. *)
let output_report out json pp_summary =
  match out with
  | Some path ->
      write_file path (json ^ "\n");
      Format.printf "%t@." pp_summary
  | None ->
      print_endline json;
      Format.eprintf "%t@." pp_summary

let profile_enable = function None -> () | Some _ -> Sim.Prof.enable ()

(* Capture between the workload and the output path: serialization and
   printing stay outside the root span, so coverage measures the run. *)
let profile_finish = function
  | None -> ()
  | Some path ->
      let report = Sim.Prof.capture () in
      write_file path (Sim.Prof.report_json report);
      write_file (path ^ ".structural") (Sim.Prof.structural_json report);
      write_file (path ^ ".folded") (Sim.Prof.folded report);
      Format.eprintf "%a@." Sim.Prof.pp_summary report

(* Spec validation failures (negative budget, silenced >= n, rate outside
   [0, 1], ...) surface as Invalid_argument from the library; report them as
   CLI usage errors rather than crashing. *)
let cli_guard f =
  match f () with
  | code -> code
  | exception Invalid_argument msg ->
      Format.eprintf "urcgc_sim: %s@." msg;
      2

let fault_spec omission crashes =
  let base =
    match omission with
    | Some every -> Net.Fault.omission_every every
    | None -> Net.Fault.reliable
  in
  Net.Fault.with_crashes
    (List.map
       (fun (node, subrun) ->
         ( Net.Node_id.of_int node,
           Sim.Ticks.of_int ((subrun * Sim.Ticks.per_rtd) + 1) ))
       crashes)
    base

(* The urcgc scenario flags, as a thunk: building the scenario may raise
   Invalid_argument, which [cli_guard] turns into exit 2. *)
let scenario_term ~name =
  let build n k rate messages omission crashes flow seed codec max_rtd () =
    let flow_threshold = if flow then Some (Some (8 * n)) else None in
    let config = Urcgc.Config.make ~k ?flow_threshold ~n () in
    let load = Workload.Load.make ~rate ~total_messages:messages () in
    let fault = fault_spec omission crashes in
    Workload.Scenario.make ~name ~fault ~codec_boundary:codec ~seed ~max_rtd
      ~config ~load ()
  in
  Term.(
    const build $ n_arg $ k_arg $ rate_arg $ messages_arg $ omission_arg
    $ crash_arg $ flow_arg $ seed_arg $ codec_arg $ max_rtd_arg)

let print_trace tracer =
  Sim.Trace.iter tracer ~f:(Format.printf "%a@." Sim.Trace.pp_record)

let run_scenario scenario trace =
  cli_guard @@ fun () ->
  let scenario = scenario () in
  let tracer = if trace then Sim.Trace.create () else Sim.Trace.null in
  let report = Workload.Runner.run ~tracer scenario in
  print_trace tracer;
  Format.printf "%a@." Workload.Runner.pp_report report;
  if Workload.Checker.ok report.Workload.Runner.verdict then 0 else 1

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a urcgc scenario and print its report.")
    Term.(const run_scenario $ scenario_term ~name:"cli" $ trace_arg)

(* ---- trace: typed JSONL export ---------------------------------------- *)

let trace_out_arg =
  out_file_arg "Write the JSONL trace to $(docv) instead of standard output."

let run_trace scenario metrics profile out =
  cli_guard @@ fun () ->
  let scenario = scenario () in
  let trace = Sim.Trace.unbounded () in
  let registry = if metrics then Sim.Metrics.create () else Sim.Metrics.null in
  profile_enable profile;
  let report = Workload.Runner.run ~tracer:trace ~metrics:registry scenario in
  profile_finish profile;
  (* Byte-exact output path: no Format margins anywhere near the JSONL. *)
  let oc = match out with Some path -> open_out path | None -> stdout in
  Sim.Trace.iter trace ~f:(fun record ->
      output_string oc (Sim.Trace.json_of_record record);
      output_char oc '\n');
  if metrics then begin
    output_string oc "{\"metrics\":";
    output_string oc (Sim.Metrics.to_json registry);
    output_string oc "}\n"
  end;
  (match out with Some _ -> close_out oc | None -> flush stdout);
  Format.eprintf "%a@." Workload.Runner.pp_report report;
  if Workload.Checker.ok report.Workload.Runner.verdict then 0 else 1

let trace_cmd =
  let term =
    Term.(
      const run_trace $ scenario_term ~name:"trace" $ metrics_arg $ profile_arg
      $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a urcgc scenario and export its typed protocol trace as \
          deterministic JSONL (one event per line; schema in docs/TRACE.md). \
          With $(b,--metrics), a final line carries the metrics registry. \
          The human report goes to standard error.")
    term

(* ---- analyze: offline trace analysis ----------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let analyze_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~doc:"JSONL trace file (as produced by $(b,urcgc_sim trace))."
        ~docv:"TRACE")

let perfetto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "perfetto" ]
        ~doc:
          "Also write a Chrome trace-event (Perfetto) timeline to $(docv); \
           load it in ui.perfetto.dev or chrome://tracing."
        ~docv:"FILE")

let run_analyze file out perfetto =
  cli_guard @@ fun () ->
  match read_lines file with
  | exception Sys_error msg ->
      Format.eprintf "urcgc_sim: %s@." msg;
      2
  | lines -> (
      match Sim.Analysis.parse_jsonl lines with
      | Error msg ->
          Format.eprintf "urcgc_sim: %s: %s@." file msg;
          2
      | Ok (records, metrics_json) ->
          let analysis = Sim.Analysis.analyze ?metrics_json records in
          let report = Sim.Analysis.report_json analysis in
          (match out with
          | Some path -> write_file path (report ^ "\n")
          | None -> print_endline report);
          Option.iter
            (fun path ->
              write_file path (Sim.Analysis.perfetto_json records ^ "\n"))
            perfetto;
          Format.eprintf "%a@." Sim.Analysis.pp_summary analysis;
          if Sim.Oracle.ok analysis.Sim.Analysis.verdict then 0
          else 1)

let analyze_out_arg =
  out_file_arg
    "Write the JSON analysis report to $(docv) instead of standard output."

let analyze_cmd =
  let term =
    Term.(const run_analyze $ analyze_file_arg $ analyze_out_arg $ perfetto_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze a JSONL protocol trace offline: reconstruct per-message \
          lifecycles, re-check the causal/at-most-once/atomicity/no-zombie \
          invariants from events alone, and emit a deterministic JSON report \
          (plus, with $(b,--perfetto), a timeline for ui.perfetto.dev). The \
          human summary goes to standard error; the exit status is 0 when \
          the oracle found no violation, 1 otherwise, 2 on unreadable or \
          malformed input.")
    term

(* ---- baselines: CBCAST, Psync and urgc on the same scenario shape ---- *)

(* [run] returns the report printer and whether the protocol's own
   correctness clauses held. *)
let run_baseline run n k rate messages omission crashes seed trace max_rtd =
  cli_guard @@ fun () ->
  let load = Workload.Load.make ~rate ~total_messages:messages () in
  let fault = fault_spec omission crashes in
  let tracer = if trace then Sim.Trace.create () else Sim.Trace.null in
  let pp_report, ok = run ~tracer ~n ~k ~load ~fault ~seed ~max_rtd in
  print_trace tracer;
  Format.printf "%t@." pp_report;
  if ok then 0 else 1

let baseline_cmd name ~doc ~omission ~trace run =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (run_baseline run)
      $ n_arg $ k_arg $ rate_arg $ messages_arg $ omission $ crash_arg
      $ seed_arg $ trace $ max_rtd_arg)

let cbcast_cmd =
  baseline_cmd "cbcast" ~omission:(Term.const None) ~trace:trace_arg
    ~doc:"Run the CBCAST baseline on the same scenario shape."
    (fun ~tracer ~n ~k ~load ~fault ~seed ~max_rtd ->
      let r =
        Workload.Runner_cbcast.run ~tracer ~n ~k ~load ~fault ~seed ~max_rtd ()
      in
      ( (fun ppf -> Workload.Runner_cbcast.pp_report ppf r),
        r.causal_ok && r.atomicity_ok ))

let psync_cmd =
  baseline_cmd "psync" ~omission:omission_arg ~trace:trace_arg
    ~doc:"Run the Psync baseline on the same scenario shape."
    (fun ~tracer ~n ~k ~load ~fault ~seed ~max_rtd ->
      let r =
        Workload.Runner_psync.run ~tracer ~n ~k ~load ~fault ~seed ~max_rtd ()
      in
      ((fun ppf -> Workload.Runner_psync.pp_report ppf r), r.causal_ok))

let urgc_cmd =
  baseline_cmd "urgc" ~omission:omission_arg ~trace:(Term.const false)
    ~doc:"Run the total-order companion algorithm on the same scenario shape."
    (fun ~tracer:_ ~n ~k ~load ~fault ~seed ~max_rtd ->
      let r =
        Workload.Runner_urgc.report
          (Workload.Runner_urgc.simulate ~n ~k ~load ~fault ~seed ~max_rtd ())
      in
      ((fun ppf -> Workload.Runner_urgc.pp_report ppf r), r.total_order_ok))

(* ---- campaign: randomized fault sweep with shrinking ------------------ *)

let budget_arg =
  Arg.(
    value
    & opt int 100
    & info [ "budget" ] ~doc:"Number of randomized runs in the campaign.")

let over_budget_arg =
  Arg.(
    value
    & flag
    & info [ "over-budget" ]
        ~doc:
          "Force every run's silenced-per-subrun burst strictly beyond the \
           resilience bound t = (n-1)/2, searching for the failure envelope.")

let no_shrink_arg =
  Arg.(
    value
    & flag
    & info [ "no-shrink" ] ~doc:"Skip minimizing failing runs.")

let out_arg =
  out_file_arg
    "Write the JSON report to $(docv) instead of standard output (the human \
     summary then goes to standard output instead of stderr)."

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker count for the parallel campaign phases (run execution and \
           speculative shrink candidates).  $(docv) = 0 means the detected \
           core count.  The JSON report is byte-identical at any job count; \
           on runtimes without domains (OCaml 4.x) execution is sequential \
           regardless."
        ~docv:"JOBS")

let campaign_analyze_arg =
  Arg.(
    value
    & flag
    & info [ "analyze" ]
        ~doc:
          "Trace every run, feed the trace to the invariant oracle, and \
           embed the per-run analysis report plus the bit saying it agrees \
           with the live checker in the JSON output.")

let run_campaign budget seed over_budget no_shrink with_metrics with_analysis
    jobs profile out =
  cli_guard @@ fun () ->
  Sim.Pool.reset_stats ();
  profile_enable profile;
  let campaign =
    Workload.Campaign.run ~over_budget ~shrink_failures:(not no_shrink)
      ~with_metrics ~with_analysis ~jobs ~budget ~seed ()
  in
  profile_finish profile;
  (* The pool's per-domain counters are wall-clock-dependent, so they go to
     the human (stderr), never into the byte-compared JSON report. *)
  if with_metrics then begin
    let pool_registry = Sim.Metrics.create () in
    Sim.Pool.record_metrics pool_registry;
    Format.eprintf "@[<v 2>pool:@ %a@]@." Sim.Metrics.pp pool_registry
  end;
  output_report out (Workload.Campaign.to_json campaign) (fun ppf ->
      Workload.Campaign.pp_summary ppf campaign);
  let disagreements =
    List.filter
      (fun r -> r.Workload.Campaign.oracle_agrees = Some false)
      campaign.Workload.Campaign.runs
  in
  List.iter
    (fun r ->
      Format.eprintf
        "run %d (seed %d): trace oracle disagrees with the live checker@."
        r.Workload.Campaign.index r.Workload.Campaign.seed)
    disagreements;
  if campaign.Workload.Campaign.failed = 0 && disagreements = [] then 0 else 1

let campaign_cmd =
  let term =
    Term.(
      const run_campaign $ budget_arg $ seed_arg $ over_budget_arg
      $ no_shrink_arg $ metrics_arg $ campaign_analyze_arg $ jobs_arg
      $ profile_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Sweep randomized fault configurations, check every correctness and \
          liveness invariant, shrink failures to minimal reproducers, and \
          emit a deterministic JSON report.")
    term

(* ---- replay: re-run one campaign configuration ------------------------ *)

let send_omission_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "send-omission" ] ~doc:"Per-packet send-side drop probability.")

let recv_omission_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "recv-omission" ]
        ~doc:"Per-packet receive-side drop probability.")

let link_loss_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "link-loss" ] ~doc:"Per-packet subnetwork loss probability.")

let silenced_arg =
  Arg.(
    value
    & opt int 0
    & info [ "silenced" ]
        ~doc:"Processes silenced per subrun (adversarial bursts).")

let replay_analyze_arg =
  Arg.(
    value
    & flag
    & info [ "analyze" ]
        ~doc:
          "Trace the run, print the offline trace-oracle summary, and fail \
           if the oracle disagrees with the live checker.")

let run_replay n k rate messages send_omission recv_omission link_loss
    silenced crashes max_rtd seed trace metrics analyze profile =
  cli_guard @@ fun () ->
  let spec =
    {
      Workload.Campaign.n;
      k;
      rate;
      messages;
      send_omission;
      recv_omission;
      link_loss;
      silenced_per_subrun = silenced;
      crashes;
      max_rtd;
    }
  in
  (* The analyzer needs the whole run, so --analyze upgrades the bounded
     default ring to an unbounded sink. *)
  let tracer =
    if analyze then Sim.Trace.unbounded ()
    else if trace then Sim.Trace.create ()
    else Sim.Trace.null
  in
  let registry = if metrics then Sim.Metrics.create () else Sim.Metrics.null in
  let scenario =
    Workload.Campaign.scenario_of_spec ~name:"replay" ~seed spec
  in
  profile_enable profile;
  let report = Workload.Runner.run ~tracer ~metrics:registry scenario in
  profile_finish profile;
  if trace then print_trace tracer;
  let outcome = Workload.Campaign.evaluate spec report in
  Format.printf "%a@." Workload.Runner.pp_report report;
  Format.printf "spec: %a@." Workload.Campaign.pp_spec spec;
  if metrics then
    Format.printf "@[<v 2>metrics:@ %a@]@." Sim.Metrics.pp registry;
  let oracle_agrees =
    if not analyze then true
    else begin
      let analysis = Sim.Analysis.analyze ~n (Sim.Trace.records tracer) in
      Format.printf "@[<v 2>analysis:@ %a@]@." Sim.Analysis.pp_summary analysis;
      let agrees =
        Workload.Checker.agrees report.Workload.Runner.verdict
          (Workload.Checker.of_oracle analysis.Sim.Analysis.verdict)
      in
      if not agrees then
        Format.printf "replay: trace oracle disagrees with the live checker@.";
      agrees
    end
  in
  if outcome.Workload.Campaign.ok then begin
    Format.printf "replay: ok@.";
    if oracle_agrees then 0 else 1
  end
  else begin
    List.iter
      (fun v -> Format.printf "replay violation: %s@." v)
      outcome.Workload.Campaign.violations;
    1
  end

let replay_cmd =
  let term =
    Term.(
      const run_replay $ n_arg $ k_arg $ rate_arg $ messages_arg
      $ send_omission_arg $ recv_omission_arg $ link_loss_arg $ silenced_arg
      $ crash_arg $ max_rtd_arg $ seed_arg $ trace_arg $ metrics_arg
      $ replay_analyze_arg $ profile_arg)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay one campaign configuration (the repro command line a \
          campaign report emits) and print its full report and verdict.")
    term

(* ---- explore: bounded schedule exploration ---------------------------- *)


let explore_messages_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "messages" ]
        ~doc:
          "Message program size: message $(i,j) is submitted by node $(i,j) \
           mod n at subrun $(i,j) / n.  Defaults to n (one per node in \
           subrun 0); must fit the window (at most n * window)."
        ~docv:"M")

let window_arg =
  Arg.(
    value
    & opt int 1
    & info [ "window" ]
        ~doc:"Subruns with explored nondeterminism." ~docv:"SUBRUNS")

let horizon_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "horizon" ]
        ~doc:
          "Total run length in subruns (defaults to window + 2K + 4)."
        ~docv:"SUBRUNS")

let crash_choices_arg =
  Arg.(
    value
    & flag
    & info [ "crash-choices" ]
        ~doc:
          "Enumerate one optional fail-stop of any node before any round of \
           the window.")

let fixed_crash_conv = at_conv ~usage:"fixed crash must be <node>@<round>"

let fixed_crash_arg =
  Arg.(
    value
    & opt_all fixed_crash_conv []
    & info [ "fixed-crash" ]
        ~doc:
          "Always-applied fail-stop before protocol round $(i,ROUND) \
           (repeatable; two rounds per subrun)."
        ~docv:"NODE@ROUND")

let omission_choices_arg =
  Arg.(
    value
    & opt int 0
    & info [ "omission-choices" ]
        ~doc:
          "Enumerate losing one of the first $(docv) packet copies offered \
           to the network (0 disables omission branching)."
        ~docv:"COPIES")

let explore_silenced_arg =
  Arg.(
    value
    & opt int 0
    & info [ "silenced" ]
        ~doc:
          "Adversarial send-omission burst size; the silenced set of each \
           window subrun is an explored choice."
        ~docv:"S")

let silence_mode_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("window", Workload.Explore.Window);
             ("persistent", Workload.Explore.Persistent);
           ])
        Workload.Explore.Persistent
    & info [ "silence-mode" ]
        ~doc:
          "What happens to the silenced set beyond the window: \
           $(b,persistent) (default) keeps the last chosen set applying \
           until the horizon, $(b,window) ends the burst with the window \
           (the campaign-style per-subrun adversary, directly enumerable)."
        ~docv:"MODE")

let max_schedules_arg =
  Arg.(
    value
    & opt int 200_000
    & info [ "max-schedules" ]
        ~doc:"Schedule budget before the search reports truncation.")

let no_prune_arg =
  Arg.(
    value
    & flag
    & info [ "no-prune" ]
        ~doc:
          "Disable commutativity pruning and enumerate the raw choice tree \
           (brute force).")

let no_oracle_arg =
  Arg.(
    value
    & flag
    & info [ "no-oracle" ]
        ~doc:
          "Skip the per-schedule offline trace-oracle cross-check (faster).")

let replay_schedule_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay-schedule" ]
        ~doc:
          "Replay one schedule (comma-separated choice indices, or $(b,-) \
           for the empty schedule) instead of exploring, printing the \
           labelled decision log and the verdict."
        ~docv:"CSV")

let run_explore n k messages window horizon crash_choices fixed_crashes
    omission_choices silenced silence_mode max_schedules no_prune no_oracle
    replay_schedule profile out =
  cli_guard @@ fun () ->
  let config =
    Workload.Explore.config ~k ?messages ~window_subruns:window
      ?horizon_subruns:horizon ~crash_choices ~fixed_crashes ~omission_choices
      ~silenced ~silence_mode ~with_oracle:(not no_oracle) ~n ()
  in
  match replay_schedule with
  | Some csv ->
      let schedule =
        if csv = "-" || csv = "" then []
        else
          String.split_on_char ',' csv
          |> List.map (fun s ->
                 match int_of_string_opt (String.trim s) with
                 | Some i when i >= 0 -> i
                 | _ ->
                     invalid_arg
                       "explore: --replay-schedule wants comma-separated \
                        non-negative integers")
      in
      profile_enable profile;
      let result, steps = Workload.Explore.replay config ~schedule in
      profile_finish profile;
      List.iteri
        (fun i step ->
          Format.printf "%3d: %d/%d %s@." i step.Sim.Explore.chosen
            step.Sim.Explore.arity step.Sim.Explore.label)
        steps;
      Format.printf
        "replay: %d rounds, %d generated, %d remote processing events@."
        result.Workload.Explore.rounds result.Workload.Explore.generated
        result.Workload.Explore.delivered_remote;
      List.iter
        (fun (node, reason) ->
          Format.printf "replay: p%d left the group (%s)@." node reason)
        result.Workload.Explore.departures;
      if result.Workload.Explore.violations = [] then begin
        Format.printf "replay: ok@.";
        0
      end
      else begin
        List.iter
          (fun v -> Format.printf "replay violation: %s@." v)
          result.Workload.Explore.violations;
        1
      end
  | None ->
      profile_enable profile;
      let report =
        Workload.Explore.explore ~prune:(not no_prune) ~max_schedules config
      in
      profile_finish profile;
      output_report out (Workload.Explore.to_json report) (fun ppf ->
          Workload.Explore.pp_report ppf report);
      if Workload.Explore.ok report then 0 else 1

let explore_cmd =
  let term =
    Term.(
      const run_explore $ group_size_arg 3 $ retries_arg 2 $ explore_messages_arg
      $ window_arg $ horizon_arg $ crash_choices_arg $ fixed_crash_arg
      $ omission_choices_arg $ explore_silenced_arg $ silence_mode_arg
      $ max_schedules_arg $ no_prune_arg $ no_oracle_arg $ replay_schedule_arg
      $ profile_arg
      $ out_file_arg "Write the JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively enumerate crash timing, omission placement, \
          adversarial silencing and delivery interleavings of a small \
          configuration, judging every schedule with the correctness \
          checker and the trace oracle, and emit a deterministic JSON \
          report with state-space counts and a replayable counterexample.")
    term

let main_cmd =
  Cmd.group
    (Cmd.info "urcgc_sim" ~version:"1.0.0"
       ~doc:"Simulator for the urcgc causal reliable multicast protocol.")
    [
      run_cmd;
      trace_cmd;
      analyze_cmd;
      cbcast_cmd;
      psync_cmd;
      urgc_cmd;
      campaign_cmd;
      replay_cmd;
      explore_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
