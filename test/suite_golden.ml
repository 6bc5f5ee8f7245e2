(* The baseline runners pinned byte-for-byte: the reports of CBCAST, Psync
   and urgc on the CLI's default scenario shape (n = 15, K = 3, rate 0.5,
   200 messages, 400 rtd cap), one reliable run and one faulty run each,
   against expect/baselines.txt.  Each block is headed by the equivalent
   urcgc_sim command line, so a diff can be reproduced from the shell. *)

let n = 15
let k = 3
let max_rtd = 400.0
let load = Workload.Load.make ~rate:0.5 ~total_messages:200 ()

let crash_3_at_4 =
  Net.Fault.with_crashes
    [ (Net.Node_id.of_int 3, Sim.Ticks.of_int ((4 * Sim.Ticks.per_rtd) + 1)) ]

let reliable = Net.Fault.reliable
let crash = crash_3_at_4 Net.Fault.reliable
let crash_omission = crash_3_at_4 (Net.Fault.omission_every 200)

let cbcast ~seed ~fault () =
  Format.asprintf "%a@." Workload.Runner_cbcast.pp_report
    (Workload.Runner_cbcast.run ~n ~k ~load ~fault ~seed ~max_rtd ())

let psync ~seed ~fault () =
  Format.asprintf "%a@." Workload.Runner_psync.pp_report
    (Workload.Runner_psync.run ~n ~k ~load ~fault ~seed ~max_rtd ())

let urgc ~seed ~fault () =
  Format.asprintf "%a@." Workload.Runner_urgc.pp_report
    (Workload.Runner_urgc.report
       (Workload.Runner_urgc.simulate ~n ~k ~load ~fault ~seed ~max_rtd ()))

let cases =
  [
    ("cbcast --seed 42", cbcast ~seed:42 ~fault:reliable);
    ("cbcast --seed 7 --crash 3@4", cbcast ~seed:7 ~fault:crash);
    ("psync --seed 42", psync ~seed:42 ~fault:reliable);
    ( "psync --seed 7 --crash 3@4 --omission 200",
      psync ~seed:7 ~fault:crash_omission );
    ("urgc --seed 42", urgc ~seed:42 ~fault:reliable);
    ( "urgc --seed 7 --crash 3@4 --omission 200",
      urgc ~seed:7 ~fault:crash_omission );
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tests =
  [
    Alcotest.test_case "baseline reports match the committed expectation"
      `Slow (fun () ->
        let actual =
          String.concat ""
            (List.map
               (fun (command, run) ->
                 Printf.sprintf "== %s\n%s" command (run ()))
               cases)
        in
        Alcotest.(check string)
          "expect/baselines.txt"
          (read_file (Filename.concat "expect" "baselines.txt"))
          actual);
  ]

(* The wire format pinned byte-for-byte: hex of every sample PDU of the
   four codecs, against expect/codec_vectors.txt.  A roundtrip test cannot
   see a layout change made the same way on the encode and decode sides;
   this can. *)
let vector_tests =
  [
    Alcotest.test_case "codec wire vectors match the committed expectation"
      `Quick (fun () ->
        Alcotest.(check string)
          "expect/codec_vectors.txt"
          (read_file (Filename.concat "expect" "codec_vectors.txt"))
          (Codec_samples.vectors ()));
  ]

let suite =
  [ ("golden.baselines", tests); ("golden.codec_vectors", vector_tests) ]
