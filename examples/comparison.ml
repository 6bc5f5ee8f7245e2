(* Comparison: urcgc against the CBCAST and Psync baselines on one scenario.

   Run with:  dune exec examples/comparison.exe

   The same workload (15 processes, 150 messages at half load) is pushed
   through all three protocols, first on a reliable network and then with a
   crash injected at subrun 4.  This is a miniature of the paper's Section 6
   argument in one screen: all three behave alike when nothing fails; under
   a crash, urcgc's delay does not move while CBCAST pays a blocking flush
   and Psync runs its mask_out agreement. *)

let n = 15
let k = 3
let messages = 150

let crash_fault =
  Net.Fault.with_crashes
    [ (Net.Node_id.of_int 9, Sim.Ticks.of_int ((4 * Sim.Ticks.per_rtd) + 1)) ]
    Net.Fault.reliable

let load () = Workload.Load.make ~rate:0.5 ~total_messages:messages ()

let urcgc_row ~fault label =
  let config = Urcgc.Config.make ~k ~n () in
  let scenario =
    Workload.Scenario.make ~name:label ~fault ~seed:42 ~max_rtd:300.0 ~config
      ~load:(load ()) ()
  in
  let r = Workload.Runner.run scenario in
  ( label,
    Workload.Runner.mean_delay_rtd r,
    r.Workload.Runner.delay.Stats.Summary.p95,
    r.Workload.Runner.completion_rtd,
    Printf.sprintf "%d ctl msgs, max %dB" r.Workload.Runner.control_msgs
      r.Workload.Runner.control_max_size,
    Workload.Checker.ok r.Workload.Runner.verdict )

let cbcast_row ~fault label =
  let r =
    Workload.Runner_cbcast.run ~name:label ~n ~k ~load:(load ()) ~fault
      ~seed:42 ~max_rtd:300.0 ()
  in
  ( label,
    Workload.Harness.mean_delay_rtd r.Workload.Runner_cbcast.delay,
    r.Workload.Runner_cbcast.delay.Stats.Summary.p95,
    r.Workload.Runner_cbcast.completion_rtd,
    Printf.sprintf "%d ctl msgs, max %dB; %.1f rtd flushing"
      r.Workload.Runner_cbcast.control_msgs
      r.Workload.Runner_cbcast.control_max_size
      r.Workload.Runner_cbcast.flush_time_rtd,
    r.Workload.Runner_cbcast.causal_ok && r.Workload.Runner_cbcast.atomicity_ok
  )

let psync_row ~fault label =
  let r =
    Workload.Runner_psync.run ~name:label ~n ~k ~pending_bound:(8 * n)
      ~load:(load ()) ~fault ~seed:42 ~max_rtd:300.0 ()
  in
  ( label,
    Workload.Harness.mean_delay_rtd r.Workload.Runner_psync.delay,
    r.Workload.Runner_psync.delay.Stats.Summary.p95,
    r.Workload.Runner_psync.completion_rtd,
    Printf.sprintf "%d ctl msgs; %d mask_out observations"
      r.Workload.Runner_psync.control_msgs r.Workload.Runner_psync.masked,
    r.Workload.Runner_psync.causal_ok )

let () =
  Format.printf
    "== one scenario, three protocols (n = %d, K = %d, %d messages) ==@.@." n
    k messages;
  let table =
    Stats.Table.create
      ~columns:
        [
          ("protocol / condition", Stats.Table.Left);
          ("mean D (rtd)", Stats.Table.Right);
          ("p95 D", Stats.Table.Right);
          ("done (rtd)", Stats.Table.Right);
          ("control traffic", Stats.Table.Left);
          ("invariants", Stats.Table.Left);
        ]
  in
  let add (label, mean, p95, completion, traffic, ok) =
    Stats.Table.add_row table
      [
        label;
        Stats.Table.cell_float ~decimals:3 mean;
        Stats.Table.cell_float ~decimals:3 p95;
        Stats.Table.cell_float ~decimals:1 completion;
        traffic;
        (if ok then "ok" else "VIOLATED");
      ]
  in
  add (urcgc_row ~fault:Net.Fault.reliable "urcgc / reliable");
  add (cbcast_row ~fault:Net.Fault.reliable "cbcast / reliable");
  add (psync_row ~fault:Net.Fault.reliable "psync / reliable");
  Stats.Table.add_rule table;
  add (urcgc_row ~fault:crash_fault "urcgc / crash@4");
  add (cbcast_row ~fault:crash_fault "cbcast / crash@4");
  add (psync_row ~fault:crash_fault "psync / crash@4");
  Stats.Table.pp Format.std_formatter table;
  Format.printf
    "@.read it as the paper does: under the crash, urcgc's delay column does@.";
  Format.printf
    "not move, CBCAST spends time flushing with swollen messages, and Psync@.";
  Format.printf "needs a mask_out agreement.@."
