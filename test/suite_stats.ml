(* Tests for the statistics toolkit and the paper's analytic formulas. *)

let summary_tests =
  [
    Alcotest.test_case "empty sample" `Quick (fun () ->
        let s = Stats.Summary.of_list [] in
        Alcotest.(check int) "count" 0 s.Stats.Summary.count;
        Alcotest.(check (float 1e-9)) "mean" 0.0 s.Stats.Summary.mean);
    Alcotest.test_case "mean, min, max, stddev" `Quick (fun () ->
        let s = Stats.Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
        Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.Summary.mean;
        Alcotest.(check (float 1e-9)) "sd" 2.0 s.Stats.Summary.stddev;
        Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.Summary.min;
        Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.Summary.max);
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
        Alcotest.(check (float 1e-9)) "p50" 25.0
          (Stats.Summary.percentile sorted 0.5);
        Alcotest.(check (float 1e-9)) "p0" 10.0
          (Stats.Summary.percentile sorted 0.0);
        Alcotest.(check (float 1e-9)) "p100" 40.0
          (Stats.Summary.percentile sorted 1.0));
    Alcotest.test_case "percentile validates input" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Summary.percentile: empty sample") (fun () ->
            ignore (Stats.Summary.percentile [||] 0.5));
        Alcotest.check_raises "q"
          (Invalid_argument "Summary.percentile: q out of range") (fun () ->
            ignore (Stats.Summary.percentile [| 1.0 |] 1.5)));
    Alcotest.test_case "of_ints" `Quick (fun () ->
        let s = Stats.Summary.of_ints [ 1; 2; 3 ] in
        Alcotest.(check (float 1e-9)) "mean" 2.0 s.Stats.Summary.mean);
    Alcotest.test_case "single sample pins every percentile" `Quick (fun () ->
        let s = Stats.Summary.of_list [ 42.0 ] in
        Alcotest.(check (float 1e-9)) "p50" 42.0 s.Stats.Summary.p50;
        Alcotest.(check (float 1e-9)) "p95" 42.0 s.Stats.Summary.p95;
        Alcotest.(check (float 1e-9)) "p99" 42.0 s.Stats.Summary.p99;
        Alcotest.(check (float 1e-9)) "min" 42.0 s.Stats.Summary.min;
        Alcotest.(check (float 1e-9)) "max" 42.0 s.Stats.Summary.max);
    Alcotest.test_case "all-ties sample collapses to the tied value" `Quick
      (fun () ->
        let s = Stats.Summary.of_list [ 7.0; 7.0; 7.0; 7.0; 7.0 ] in
        Alcotest.(check (float 1e-9)) "p50" 7.0 s.Stats.Summary.p50;
        Alcotest.(check (float 1e-9)) "p95" 7.0 s.Stats.Summary.p95;
        Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.Summary.stddev);
  ]

(* Properties the percentile estimator must satisfy on any sample: results
   stay inside [min, max], q is monotone, and a constant sample is a fixed
   point regardless of q or length. *)
let percentile_properties =
  let nonempty =
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 1e6))
  in
  let quantile = QCheck.float_range 0.0 1.0 in
  [
    QCheck.Test.make ~name:"percentile stays within [min, max]" ~count:300
      QCheck.(pair nonempty quantile)
      (fun (xs, q) ->
        let sorted = Array.of_list (List.sort compare xs) in
        let p = Stats.Summary.percentile sorted q in
        p >= sorted.(0) && p <= sorted.(Array.length sorted - 1));
    QCheck.Test.make ~name:"percentile is monotone in q" ~count:300
      QCheck.(triple nonempty quantile quantile)
      (fun (xs, qa, qb) ->
        let sorted = Array.of_list (List.sort compare xs) in
        let lo = Float.min qa qb and hi = Float.max qa qb in
        Stats.Summary.percentile sorted lo
        <= Stats.Summary.percentile sorted hi);
    QCheck.Test.make ~name:"constant samples are a percentile fixed point"
      ~count:300
      QCheck.(triple (int_range 1 50) (float_range 0.0 1e6) quantile)
      (fun (len, v, q) ->
        let sorted = Array.make len v in
        Float.abs (Stats.Summary.percentile sorted q -. v) <= 1e-9);
  ]

(* [Summary.sort_floats] must be [Array.sort Float.compare] bit for bit:
   the values that compare equal but differ in bits ([0.] and [-0.], NaNs
   with different payloads) must land in the same slots. *)
let sort_property =
  let special =
    [|
      0.0; -0.0; 1.0; -1.0; 2.5; infinity; neg_infinity; nan; -.nan;
      Int64.float_of_bits 0x7ff0000000000001L; max_float; min_float;
      epsilon_float;
    |]
  in
  let element =
    QCheck.Gen.(
      frequency
        [ (3, map (Array.get special) (int_bound (Array.length special - 1)));
          (1, float) ])
  in
  let arrays =
    QCheck.make
      ~print:QCheck.Print.(array float)
      QCheck.Gen.(array_size (int_bound 120) element)
  in
  QCheck.Test.make ~name:"sort_floats is Array.sort Float.compare, bit for bit"
    ~count:500 arrays (fun a ->
      let expected = Array.copy a and got = Array.copy a in
      Array.sort Float.compare expected;
      Stats.Summary.sort_floats got;
      let bits = Array.map Int64.bits_of_float in
      bits expected = bits got)

(* [Workload.Delays] summarizes integer tick delays by counting them in a
   histogram; its summary must be [of_list] over the delays in rtd, bit for
   bit (the report's printed figures and the e2ebench pins depend on it). *)
let summary_bits (s : Stats.Summary.t) =
  ( s.count,
    List.map Int64.bits_of_float
      [ s.mean; s.stddev; s.min; s.max; s.p50; s.p95; s.p99 ] )

let counted ticks =
  let delays = Workload.Delays.create ~n:1 in
  List.iteri
    (fun seq tick ->
      Workload.Delays.sent delays ~origin:0 ~seq Sim.Ticks.zero;
      ignore
        (Workload.Delays.deliver delays ~origin:0 ~seq ~remote:true
           (Sim.Ticks.of_int tick)))
    ticks;
  Workload.Delays.summary delays

let counting_matches ticks =
  summary_bits (counted ticks)
  = summary_bits
      (Stats.Summary.of_list
         (List.map (fun t -> Sim.Ticks.to_rtd (Sim.Ticks.of_int t)) ticks))

let counting_property =
  let ticks =
    QCheck.Gen.(
      oneof
        [
          (* few distinct values: many duplicates *)
          list_size (int_bound 200) (int_bound 8);
          list_size (int_bound 200) (int_bound 5_000);
          (* a few large ticks among small ones *)
          list_size (int_bound 20)
            (frequency [ (4, int_bound 300); (1, int_range 100_000 400_000) ]);
        ])
  in
  QCheck.Test.make
    ~name:"counting summary is of_list over the delays in rtd, bit for bit"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list int) ticks)
    counting_matches

let counting_tests =
  let case name ticks =
    Alcotest.test_case ("counting summary: " ^ name) `Quick (fun () ->
        Alcotest.(check bool) name true (counting_matches ticks))
  in
  [
    case "empty" [];
    case "one sample" [ 37 ];
    case "one sample at tick 0" [ 0 ];
    case "duplicates only" (List.init 1000 (fun _ -> 45));
    case "large ticks" [ 3; 1_000_000; 48; 999_999; 1_000_000 ];
    Alcotest.test_case "counting summary allocates nothing per sample" `Quick
      (fun () ->
        let delays = Workload.Delays.create ~n:4 in
        let samples = 400_000 and spread = 1_000 in
        let feed () =
          for i = 0 to samples - 1 do
            let origin = i mod 4 and seq = i / 4 in
            Workload.Delays.sent delays ~origin ~seq Sim.Ticks.zero;
            ignore
              (Workload.Delays.deliver delays ~origin ~seq ~remote:true
                 (Sim.Ticks.of_int (i mod spread)))
          done
        in
        (* The first pass grows the tables; the second must allocate
           nothing, and the summary only per histogram bucket. *)
        feed ();
        let before = Gc.minor_words () in
        feed ();
        let fed = Gc.minor_words () -. before in
        let before = Gc.minor_words () in
        let summary = Workload.Delays.summary delays in
        let summarized = Gc.minor_words () -. before in
        Alcotest.(check int) "count" (2 * samples) summary.Stats.Summary.count;
        if fed > 0.0 then
          Alcotest.failf "re-feeding %d samples allocated %.0f words" samples fed;
        if summarized > float_of_int (20 * spread) then
          Alcotest.failf "the summary of %d samples in %d buckets allocated \
                          %.0f words"
            (2 * samples) spread summarized);
  ]

let allocation_tests =
  [
    Alcotest.test_case "of_list allocates under 4 words per sample" `Quick
      (fun () ->
        let count = 10_000 in
        let rng = Random.State.make [| 7 |] in
        let samples = List.init count (fun _ -> Random.State.float rng 100.0) in
        let words () =
          Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)
        in
        let before = words () in
        let summary = Stats.Summary.of_list samples in
        let per_sample = (words () -. before) /. float_of_int count in
        Alcotest.(check int) "count" count summary.Stats.Summary.count;
        if per_sample >= 4.0 then
          Alcotest.failf "of_list allocated %.2f words per sample" per_sample);
  ]

let series_tests =
  [
    Alcotest.test_case "y_at exact lookup" `Quick (fun () ->
        let s = Stats.Series.make ~label:"t" [ (1.0, 10.0); (2.0, 20.0) ] in
        Alcotest.(check (option (float 1e-9))) "hit" (Some 20.0)
          (Stats.Series.y_at s 2.0);
        Alcotest.(check (option (float 1e-9))) "miss" None
          (Stats.Series.y_at s 3.0));
    Alcotest.test_case "y_max and map_y" `Quick (fun () ->
        let s = Stats.Series.of_ints ~label:"t" [ (0, 3); (1, 7); (2, 5) ] in
        Alcotest.(check (float 1e-9)) "max" 7.0 (Stats.Series.y_max s);
        let doubled = Stats.Series.map_y s ~f:(fun y -> 2.0 *. y) in
        Alcotest.(check (float 1e-9)) "max doubled" 14.0
          (Stats.Series.y_max doubled));
    Alcotest.test_case "pp_table renders aligned rows" `Quick (fun () ->
        let a = Stats.Series.of_ints ~label:"a" [ (0, 1); (1, 2) ] in
        let b = Stats.Series.of_ints ~label:"b" [ (0, 3) ] in
        let out = Format.asprintf "%a" Stats.Series.pp_table [ a; b ] in
        Alcotest.(check bool) "has header" true
          (String.length out > 0
          &&
          let lines = String.split_on_char '\n' out in
          List.length lines >= 3);
        (* the hole in series b renders as '-' *)
        Alcotest.(check bool) "hole marked" true
          (String.contains out '-'));
    Alcotest.test_case "ascii_plot does not crash on edge inputs" `Quick
      (fun () ->
        let empty = Stats.Series.make ~label:"e" [] in
        let single = Stats.Series.make ~label:"s" [ (1.0, 1.0) ] in
        ignore (Format.asprintf "%a" (Stats.Series.ascii_plot ~width:20 ~height:5) [ empty ]);
        ignore
          (Format.asprintf "%a" (Stats.Series.ascii_plot ~width:20 ~height:5) [ single ]));
  ]

let table_tests =
  [
    Alcotest.test_case "renders aligned cells" `Quick (fun () ->
        let t =
          Stats.Table.create
            ~columns:[ ("name", Stats.Table.Left); ("value", Stats.Table.Right) ]
        in
        Stats.Table.add_row t [ "alpha"; "1" ];
        Stats.Table.add_rule t;
        Stats.Table.add_row t [ "b"; "100" ];
        let out = Format.asprintf "%a" Stats.Table.pp t in
        Alcotest.(check bool) "contains alpha" true
          (Astring_contains.contains out "alpha");
        Alcotest.(check bool) "right aligned value" true
          (Astring_contains.contains out "|     1 |"));
    Alcotest.test_case "rejects wrong arity" `Quick (fun () ->
        let t = Stats.Table.create ~columns:[ ("a", Stats.Table.Left) ] in
        Alcotest.check_raises "arity"
          (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
            Stats.Table.add_row t [ "x"; "y" ]));
    Alcotest.test_case "cell formatting" `Quick (fun () ->
        Alcotest.(check string) "int" "42" (Stats.Table.cell_int 42);
        Alcotest.(check string) "float" "3.14"
          (Stats.Table.cell_float ~decimals:2 3.14159));
  ]

let analytic_tests =
  [
    Alcotest.test_case "Table 1 formulas at the paper's n=15, K=3" `Quick
      (fun () ->
        Alcotest.(check int) "urcgc reliable msgs" 28
          (Stats.Analytic.urcgc_control_msgs_reliable ~n:15);
        Alcotest.(check int) "cbcast reliable msgs" 16
          (Stats.Analytic.cbcast_control_msgs_reliable ~n:15);
        Alcotest.(check int) "cbcast reliable size" 64
          (Stats.Analytic.cbcast_msg_size_reliable ~n:15);
        Alcotest.(check int) "cbcast flush size" 56
          (Stats.Analytic.cbcast_flush_size ~n:15);
        Alcotest.(check int) "urcgc crash msgs (f=0)" 168
          (Stats.Analytic.urcgc_control_msgs_crash ~n:15 ~k:3 ~f:0);
        Alcotest.(check int) "cbcast crash msgs (f=0)" 84
          (Stats.Analytic.cbcast_control_msgs_crash ~n:15 ~k:3 ~f:0));
    Alcotest.test_case "Figure 5 slopes" `Quick (fun () ->
        (* urcgc: 2K + f — slope 1 in f.  CBCAST: K(5f+6) — slope 5K. *)
        let u0 = Stats.Analytic.urcgc_recovery_time ~k:3 ~f:0 in
        let u1 = Stats.Analytic.urcgc_recovery_time ~k:3 ~f:1 in
        let c0 = Stats.Analytic.cbcast_recovery_time ~k:3 ~f:0 in
        let c1 = Stats.Analytic.cbcast_recovery_time ~k:3 ~f:1 in
        Alcotest.(check int) "urcgc slope 1" 1 (u1 - u0);
        Alcotest.(check int) "cbcast slope 5K" 15 (c1 - c0);
        Alcotest.(check int) "urcgc f=0 is 2K" 6 u0;
        Alcotest.(check int) "cbcast f=0 is 6K" 18 c0);
    Alcotest.test_case "history bounds" `Quick (fun () ->
        Alcotest.(check int) "reliable 2n" 80
          (Stats.Analytic.urcgc_history_bound_reliable ~n:40);
        Alcotest.(check int) "faulty 2(2K+f)n" 560
          (Stats.Analytic.urcgc_history_bound ~n:40 ~k:3 ~f:1));
    Alcotest.test_case "a urcgc control message fits an IP datagram at n=15"
      `Quick (fun () ->
        let d = Urcgc.Decision.initial ~n:15 in
        let r =
          {
            Urcgc.Wire.sender = Net.Node_id.of_int 1;
            subrun = 0;
            last_processed = Array.make 15 0;
            waiting = Array.make 15 None;
            prev_decision = d;
          }
        in
        Alcotest.(check bool) "request fits" true
          (Urcgc.Wire.request_size r <= Stats.Analytic.ip_min_datagram);
        Alcotest.(check bool) "decision fits" true
          (4 + Urcgc.Decision.encoded_size d <= Stats.Analytic.ip_min_datagram));
    Alcotest.test_case "a urcgc control message fits an Ethernet frame at n=40"
      `Quick (fun () ->
        let d = Urcgc.Decision.initial ~n:40 in
        Alcotest.(check bool) "fits" true
          (4 + Urcgc.Decision.encoded_size d
          <= Stats.Analytic.ethernet_max_payload));
  ]

let suite =
  [
    ( "stats.summary",
      summary_tests @ allocation_tests @ counting_tests
      @ List.map QCheck_alcotest.to_alcotest
          (sort_property :: counting_property :: percentile_properties) );
    ("stats.series", series_tests);
    ("stats.table", table_tests);
    ("stats.analytic", analytic_tests);
  ]
