(* Offline trace-analysis experiment: the message-lifecycle view of a
   representative faulty run, plus the analyzer's own cost.

   The per-message spans quantify what the paper argues qualitatively in
   Sections 4-5: messages spend bounded time on the waiting list, stability
   lags processing by under a round, and recovery traffic concentrates
   around the crash window.  The throughput figure at the end keeps the
   analyzer honest as traces grow. *)

let spec =
  {
    Workload.Campaign.n = 9;
    k = 3;
    rate = 0.6;
    messages = 120;
    send_omission = 0.002;
    recv_omission = 0.002;
    link_loss = 0.001;
    silenced_per_subrun = 1;
    crashes = [ (2, 4) ];
    max_rtd = 300.0;
  }

let run () =
  Format.printf "@.== Offline trace analysis ==@.@.";
  let tracer = Sim.Trace.unbounded () in
  let _outcome, report = Workload.Campaign.execute ~tracer ~seed:42 spec in
  let records = Sim.Trace.records tracer in
  let analysis = Sim.Analysis.analyze ~n:spec.Workload.Campaign.n records in
  Format.printf "%a@.@." Sim.Analysis.pp_summary analysis;
  Format.printf "checker-vs-oracle agreement: %b@."
    (Workload.Checker.agrees report.Workload.Runner.verdict
       (Workload.Checker.of_oracle analysis.Sim.Analysis.verdict));
  (* Analyzer cost on this trace: full JSONL round-trip plus analysis. *)
  let lines = List.map Sim.Trace.json_of_record records in
  let t0 = Sys.time () in
  let rounds = 20 in
  for _ = 1 to rounds do
    match Sim.Analysis.parse_jsonl lines with
    | Ok (parsed, _) ->
        ignore (Sim.Analysis.report_json (Sim.Analysis.analyze parsed))
    | Error msg -> failwith msg
  done;
  let elapsed = Sys.time () -. t0 in
  Format.printf
    "analyzer throughput: %d events parsed+analyzed+reported in %.1f ms/round \
     (%.0f events/s)@."
    (List.length records)
    (elapsed /. float_of_int rounds *. 1000.0)
    (float_of_int (List.length records * rounds) /. elapsed)
