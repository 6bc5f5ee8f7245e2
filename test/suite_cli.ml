(* The urcgc_sim binary's exit-code contract, exercised end-to-end on the
   built executable:

     0    verdict OK
     1    verdict failure (safety/liveness violation found)
     2    malformed input caught by spec validation (Invalid_argument)
     124  command-line parse error (cmdliner)

   The test stanza depends on ../bin/urcgc_sim.exe and runs from
   _build/default/test/, so the relative path below is stable. *)

let exe = Filename.concat Filename.parent_dir_name "bin/urcgc_sim.exe"

let run_cli args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" exe args)

let check_exit label expected args =
  Alcotest.test_case label `Quick (fun () ->
      Alcotest.(check int)
        (Printf.sprintf "%s: exit code of %S" label args)
        expected (run_cli args))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_file f =
  let path = Filename.temp_file "urcgc_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let tests =
  [
    check_exit "run rejects an empty group with exit 2" 2 "run -n 0";
    check_exit "trace rejects an empty group with exit 2" 2 "trace -n 0";
    check_exit "replay rejects a negative silencing count with exit 2" 2
      "replay -n 5 --silenced=-2";
    check_exit "replay rejects an out-of-range rate with exit 2" 2
      "replay -n 5 --rate 7";
    check_exit "campaign rejects a negative budget with exit 2" 2
      "campaign --budget=-3";
    check_exit "unknown flags are a parse error (124)" 124 "run --nonsense";
    check_exit "a healthy tiny campaign exits 0" 0
      "campaign --budget 1 --seed 1";
    check_exit "campaign --metrics leaves the verdict untouched" 0
      "campaign --metrics --budget 1 --seed 1";
    Alcotest.test_case "a replayed violation exits 1" `Slow (fun () ->
        (* A known failing reproducer: silencing 2 of 3 every subrun is
           beyond the t = (n-1)/2 budget, and under this seed the group
           dissolves entirely — the last member departs with a solo view,
           which the primary-partition clause flags. *)
        Alcotest.(check int)
          "verdict failure" 1
          (run_cli
             "replay -n 3 -K 2 --rate 0.5 --messages 6 --silenced 2 \
              --max-rtd 60 --seed 1"));
    Alcotest.test_case "trace --out is byte-identical across runs" `Slow
      (fun () ->
        with_temp_file (fun out_a ->
            with_temp_file (fun out_b ->
                let cmd out =
                  Printf.sprintf
                    "trace -n 4 -K 2 --rate 1 --messages 3 --seed 5 \
                     --max-rtd 30 --out %s"
                    (Filename.quote out)
                in
                Alcotest.(check int) "first run ok" 0 (run_cli (cmd out_a));
                Alcotest.(check int) "second run ok" 0 (run_cli (cmd out_b));
                let a = read_file out_a and b = read_file out_b in
                Alcotest.(check bool) "non-empty" true (String.length a > 0);
                Alcotest.(check string) "byte-identical JSONL" a b)));
    check_exit "analyze on a missing file exits 2" 2 "analyze /nonexistent.jsonl";
    Alcotest.test_case "analyze on a malformed line exits 2" `Quick (fun () ->
        with_temp_file (fun path ->
            let oc = open_out path in
            output_string oc "{\"t\":0,\"ev\":\"mystery\"}\n";
            close_out oc;
            Alcotest.(check int)
              "schema violation" 2
              (run_cli (Printf.sprintf "analyze %s" (Filename.quote path)))));
    Alcotest.test_case "trace | analyze: clean verdict, deterministic exports"
      `Slow (fun () ->
        with_temp_file (fun trace_path ->
            with_temp_file (fun report_a ->
                with_temp_file (fun report_b ->
                    with_temp_file (fun perf_a ->
                        with_temp_file (fun perf_b ->
                            Alcotest.(check int)
                              "trace ok" 0
                              (run_cli
                                 (Printf.sprintf
                                    "trace -n 4 -K 2 --rate 1 --messages 3 \
                                     --seed 5 --max-rtd 30 --metrics --out %s"
                                    (Filename.quote trace_path)));
                            let analyze report perf =
                              run_cli
                                (Printf.sprintf
                                   "analyze %s --out %s --perfetto %s"
                                   (Filename.quote trace_path)
                                   (Filename.quote report)
                                   (Filename.quote perf))
                            in
                            Alcotest.(check int)
                              "clean verdict" 0 (analyze report_a perf_a);
                            Alcotest.(check int)
                              "second pass" 0 (analyze report_b perf_b);
                            let a = read_file report_a in
                            Alcotest.(check bool)
                              "verdict embedded" true
                              (Astring_contains.contains a {|"ok":true|});
                            Alcotest.(check string)
                              "report deterministic" a (read_file report_b);
                            Alcotest.(check string)
                              "perfetto deterministic" (read_file perf_a)
                              (read_file perf_b)))))));
    check_exit "campaign --analyze leaves a healthy verdict untouched" 0
      "campaign --analyze --budget 1 --seed 1";
    Alcotest.test_case "urgc honors a fractional time cap" `Quick (fun () ->
        (* Regression: the urgc loop used to overshoot a fractional
           --max-rtd to the next whole rtd, so 10.5 printed exactly what 11
           prints.  A saturating load keeps the group busy past both caps. *)
        let stdout_of max_rtd =
          with_temp_file (fun out ->
              Alcotest.(check int) "urgc ok" 0
                (Sys.command
                   (Printf.sprintf
                      "%s urgc -n 5 --rate 1.0 --messages 100000 --max-rtd %s \
                       > %s 2>/dev/null"
                      exe max_rtd (Filename.quote out)));
              read_file out)
        in
        let capped = stdout_of "10.5" and whole = stdout_of "11" in
        Alcotest.(check string) "10.5 rtd"
          "urgc: generated=105 processed events=435 over 11 subruns; total \
           order: true\n"
          capped;
        Alcotest.(check bool) "differs from 11 rtd" true (capped <> whole));
  ]

let suite = [ ("cli.exit-codes", tests) ]
