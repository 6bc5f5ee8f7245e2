(* Hot-path benchmarks of the delivery-critical data structures, with a
   tracked JSON baseline.

     dune exec bench/main.exe -- hotpath
     dune exec bench/main.exe -- hotpath --quick --out BENCH_hotpath.json
     dune exec bench/main.exe -- hotpath --quick --check BENCH_hotpath.json

   Structure-level scenarios (waiting-list drain, frontier-dep drain and
   stale-vector resync, discard cascade, history store+purge, history
   range) are sized to expose super-linear behaviour — a quadratic
   waiting-list scan is ~100x slower at W = 2048 —
   plus a full simulated subrun at n in {8, 15, 40, 128} as the end-to-end
   sanity point.  Every sample reports wall-clock and GC minor words per
   logical operation, so allocation regressions surface alongside time.

   `--check FILE` compares the fresh run against a committed baseline and
   fails (exit 1) if any operation regressed more than 5x: a loose bound
   that catches an accidental return to O(W^2) behaviour, not scheduler
   noise.  See docs/PERF.md for the methodology. *)

let node = Net.Node_id.of_int

let msg ?(deps = []) ~origin ~seq () =
  let mid = Causal.Mid.make ~origin:(node origin) ~seq in
  Causal.Causal_msg.make ~mid ~deps ~payload_size:8 ()

(* -- measurement -------------------------------------------------------- *)

type sample = {
  name : string;
  ops : int;  (* logical operations per repetition *)
  reps : int;
  ns_per_op : float;
  minor_words_per_op : float;
}

let measure ~quick ~name ~ops f =
  f ();
  (* Warm-up above also sanity-checks the scenario (each [f] asserts its own
     cascade/purge counts).  Repetitions target ~0.25 s per benchmark. *)
  let reps =
    if quick then 2
    else begin
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt <= 1e-9 then 100 else max 1 (min 100 (int_of_float (0.25 /. dt)))
    end
  in
  Gc.full_major ();
  (* [Gc.minor_words] counts the words allocated so far, including those
     still in the minor heap; OCaml 5's [Gc.quick_stat] only advances its
     count at a minor collection, which two quick repetitions rarely reach. *)
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let total = float_of_int (reps * ops) in
  {
    name;
    ops;
    reps;
    ns_per_op = (t1 -. t0) *. 1e9 /. total;
    minor_words_per_op = (w1 -. w0) /. total;
  }

(* -- scenarios ---------------------------------------------------------- *)

(* Origin 0 holds [w] permanently blocked messages (their seq-1 predecessor
   never arrives) sitting *before* origin 1 in mid order; origin 1's chain
   of [w] messages then unblocks in cascade.  An implementation that rescans
   the whole list per pop pays O(w) per drained message here. *)
let waiting_drain ~w () =
  let wl = Causal.Waiting_list.create ~n:2 in
  for s = 2 to w + 1 do
    Causal.Waiting_list.add wl (msg ~origin:0 ~seq:s ())
  done;
  for s = 2 to w + 1 do
    Causal.Waiting_list.add wl (msg ~origin:1 ~seq:s ())
  done;
  let d = Causal.Delivery.create ~n:2 in
  Causal.Delivery.mark d (Causal.Mid.make ~origin:(node 1) ~seq:1);
  let drained = ref 0 in
  let rec drain () =
    match Causal.Waiting_list.take_processable wl d with
    | Some m ->
        Causal.Delivery.mark d m.Causal.Causal_msg.mid;
        incr drained;
        drain ()
    | None -> ()
  in
  drain ();
  if !drained <> w then failwith "hotpath: waiting_drain cascade broke"

(* A w-deep explicit dependency chain across 8 origins: discarding the chain
   root must transitively discard every waiting message. *)
let discard_cascade ~w () =
  let wl = Causal.Waiting_list.create ~n:8 in
  let prev = ref None in
  for i = 0 to w - 1 do
    let deps = match !prev with None -> [] | Some mid -> [ mid ] in
    let m = msg ~origin:(i mod 8) ~seq:((i / 8) + 2) ~deps () in
    Causal.Waiting_list.add wl m;
    prev := Some m.Causal.Causal_msg.mid
  done;
  let discarded = Causal.Waiting_list.discard_from wl ~origin:(node 0) ~seq:2 in
  if List.length discarded <> w then
    failwith "hotpath: discard_cascade count broke"

(* A causal history of [w] messages at group size [n], each depending on
   the current frontier of every other origin (up to n-1 deps), all blocked
   behind one missing mid (0, 1); processing it drains the whole history.
   This is the dependency-heavy blocked path of a lossy run with frontier
   labels. *)
let waiting_frontier ~n ~w =
  let latest = Array.make n 0 in
  latest.(0) <- 1;
  let msgs =
    Array.init w (fun i ->
        let o = 1 + (i mod (n - 1)) in
        let deps =
          List.filter_map
            (fun j ->
              if j = o || latest.(j) = 0 then None
              else Some (Causal.Mid.make ~origin:(node j) ~seq:latest.(j)))
            (List.init n Fun.id)
        in
        latest.(o) <- latest.(o) + 1;
        msg ~origin:o ~seq:latest.(o) ~deps ())
  in
  fun () ->
    let wl = Causal.Waiting_list.create ~n in
    let d = Causal.Delivery.create ~n in
    Array.iter (Causal.Waiting_list.add wl) msgs;
    if Option.is_some (Causal.Waiting_list.take_processable wl d) then
      failwith "hotpath: waiting_frontier processable too early";
    Causal.Delivery.mark d (Causal.Mid.make ~origin:(node 0) ~seq:1);
    let drained = ref 0 in
    let rec drain () =
      match Causal.Waiting_list.take_processable wl d with
      | Some m ->
          Causal.Delivery.mark d m.Causal.Causal_msg.mid;
          incr drained;
          drain ()
      | None -> ()
    in
    drain ();
    if !drained <> w then failwith "hotpath: waiting_frontier drain broke"

(* [mids] messages processed one by one past an empty list (the fault-free
   loop: each [take_processable] returns at once, so the list's cached
   delivery vector falls behind), then one message blocks on a chain gap
   with deps on the newest mid of every other origin.  The resync it forces
   must cost the keys registered, not the whole processed gap. *)
let waiting_stale_seen ~n ~mids () =
  let wl = Causal.Waiting_list.create ~n in
  let d = Causal.Delivery.create ~n in
  for i = 0 to mids - 1 do
    Causal.Delivery.mark d
      (Causal.Mid.make ~origin:(node (i mod n)) ~seq:((i / n) + 1));
    if Option.is_some (Causal.Waiting_list.take_processable wl d) then
      failwith "hotpath: waiting_stale_seen empty list took a message"
  done;
  let top o = Causal.Delivery.last_processed d (node o) in
  let deps =
    List.init (n - 1) (fun j ->
        Causal.Mid.make ~origin:(node (j + 1)) ~seq:(top (j + 1)))
  in
  let gap = top 0 + 1 in
  Causal.Waiting_list.add wl (msg ~origin:0 ~seq:(gap + 1) ~deps ());
  if Option.is_some (Causal.Waiting_list.take_processable wl d) then
    failwith "hotpath: waiting_stale_seen processable across a gap";
  Causal.Delivery.mark d (Causal.Mid.make ~origin:(node 0) ~seq:gap);
  match Causal.Waiting_list.take_processable wl d with
  | Some m when Causal.Mid.seq m.Causal.Causal_msg.mid = gap + 1 -> ()
  | Some _ | None -> failwith "hotpath: waiting_stale_seen unblock broke"

let history_store_purge ~w () =
  let h = Causal.History.create ~n:8 in
  for o = 0 to 7 do
    for s = 1 to w do
      Causal.History.store h (msg ~origin:o ~seq:s ())
    done
  done;
  let removed = ref 0 in
  for o = 0 to 7 do
    removed := !removed + Causal.History.purge_upto h ~origin:(node o) ~seq:w
  done;
  if !removed <> 8 * w then failwith "hotpath: history purge count broke"

let history_range ~w =
  let h = Causal.History.create ~n:8 in
  for o = 0 to 7 do
    for s = 1 to w do
      Causal.History.store h (msg ~origin:o ~seq:s ())
    done
  done;
  let lo = w / 4 and hi = 3 * w / 4 in
  let expect = hi - lo + 1 in
  fun () ->
    for o = 0 to 7 do
      let msgs = Causal.History.range h ~origin:(node o) ~lo ~hi in
      if List.length msgs <> expect then
        failwith "hotpath: history range count broke"
    done

(* [calls] snapshots per repetition: one takes ~100 ns, below what the
   microsecond clock can time in the two repetitions of [--quick]. *)
let oldest_vector ~w ~calls =
  let n = 8 in
  let wl = Causal.Waiting_list.create ~n in
  for i = 0 to w - 1 do
    Causal.Waiting_list.add wl (msg ~origin:(i mod n) ~seq:((i / n) + 2) ())
  done;
  fun () ->
    for _ = 1 to calls do
      let v = Causal.Waiting_list.oldest_vector wl in
      for o = 0 to n - 1 do
        match v.(o) with
        | Some mid when Causal.Mid.seq mid = 2 -> ()
        | Some _ | None -> failwith "hotpath: oldest_vector broke"
      done
    done

let subrun ~n () =
  let config = Urcgc.Config.make ~n () in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:1 in
  let fault = Net.Fault.create Net.Fault.reliable ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let cluster = Urcgc.Cluster.create ~config ~net () in
  List.iter (fun node -> Urcgc.Cluster.submit cluster node 0) (Net.Node_id.group n);
  Urcgc.Cluster.start cluster;
  Sim.Engine.run engine ~until:(Sim.Ticks.of_int Sim.Ticks.per_rtd)

let run_all ~quick =
  let m = measure ~quick in
  [
    m ~name:"waiting_drain_w128" ~ops:128 (waiting_drain ~w:128);
    m ~name:"waiting_drain_w512" ~ops:512 (waiting_drain ~w:512);
    m ~name:"waiting_drain_w2048" ~ops:2048 (waiting_drain ~w:2048);
    m ~name:"waiting_frontier_n40_w80" ~ops:80 (waiting_frontier ~n:40 ~w:80);
    m ~name:"waiting_stale_seen_n40" ~ops:10_000
      (waiting_stale_seen ~n:40 ~mids:10_000);
    m ~name:"discard_cascade_w128" ~ops:128 (discard_cascade ~w:128);
    m ~name:"discard_cascade_w512" ~ops:512 (discard_cascade ~w:512);
    m ~name:"discard_cascade_w2048" ~ops:2048 (discard_cascade ~w:2048);
    m ~name:"history_store_purge_w256" ~ops:(8 * 256) (history_store_purge ~w:256);
    m ~name:"history_store_purge_w2048" ~ops:(8 * 2048)
      (history_store_purge ~w:2048);
    m ~name:"history_range_w2048" ~ops:(8 * 1025) (history_range ~w:2048);
    m ~name:"oldest_vector_w512" ~ops:1000 (oldest_vector ~w:512 ~calls:1000);
    m ~name:"subrun_n8" ~ops:8 (subrun ~n:8);
    m ~name:"subrun_n15" ~ops:15 (subrun ~n:15);
    m ~name:"subrun_n40" ~ops:40 (subrun ~n:40);
    m ~name:"subrun_n128" ~ops:128 (subrun ~n:128);
    m ~name:"subrun_n256" ~ops:256 (subrun ~n:256);
    m ~name:"subrun_n512" ~ops:512 (subrun ~n:512);
  ]

(* -- JSON export and baseline check ------------------------------------- *)

let json_of_samples ~quick samples =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"urcgc.bench.hotpath/1\",";
  Buffer.add_string buf
    (Printf.sprintf "\"quick\":%b,\"results\":[" quick);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"ops\":%d,\"reps\":%d,\"ns_per_op\":%.2f,\"minor_words_per_op\":%.2f}"
           s.name s.ops s.reps s.ns_per_op s.minor_words_per_op))
    samples;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let baseline_ns path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  let number = function
    | Some (Sim.Json.Int v) -> Some (float_of_int v)
    | Some (Sim.Json.Float v) -> Some v
    | Some _ | None -> None
  in
  match Sim.Json.parse raw with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok json -> (
      match Sim.Json.member "results" json with
      | Some (Sim.Json.List rows) ->
          let entry row =
            match
              (Sim.Json.member "name" row, number (Sim.Json.member "ns_per_op" row))
            with
            | Some (Sim.Json.Str name), Some ns ->
                Some (name, (ns, number (Sim.Json.member "minor_words_per_op" row)))
            | _ -> None
          in
          Ok (List.filter_map entry rows)
      | Some _ | None -> Error (Printf.sprintf "%s: no results array" path))

let check_against ~path ~baseline samples =
  match baseline with
  | Error e ->
      Format.printf "  baseline check: %s@." e;
      false
  | Ok baseline ->
      let tolerance = 5.0 in
      (* Allocation per op is near-deterministic (no scheduler in the loop),
         so the minor-words gate is much tighter than the wall-clock one:
         it exists to catch a reintroduced per-message list or closure, not
         noise.  A small absolute slack absorbs GC-stat granularity on the
         scenarios that allocate almost nothing. *)
      let mw_tolerance = 1.5 in
      let mw_slack = 32.0 in
      let failures =
        List.concat_map
          (fun s ->
            match List.assoc_opt s.name baseline with
            | None -> []
            | Some (base_ns, base_mw) ->
                let time =
                  if s.ns_per_op <= tolerance *. base_ns then []
                  else
                    [
                      Printf.sprintf
                        "%s: %.0f ns/op vs baseline %.0f ns/op (> %.0fx)"
                        s.name s.ns_per_op base_ns tolerance;
                    ]
                in
                let words =
                  match base_mw with
                  | None -> []
                  | Some base_mw
                    when s.minor_words_per_op
                         <= (mw_tolerance *. base_mw) +. mw_slack ->
                      []
                  | Some base_mw ->
                      [
                        Printf.sprintf
                          "%s: %.0f mw/op vs baseline %.0f mw/op (> %.1fx + \
                           %.0f)"
                          s.name s.minor_words_per_op base_mw mw_tolerance
                          mw_slack;
                      ]
                in
                time @ words)
          samples
      in
      List.iter (fun line -> Format.printf "  REGRESSION %s@." line) failures;
      if failures = [] then
        Format.printf
          "  baseline check: all ops within %.0fx time and %.1fx allocation \
           of %s@."
          tolerance mw_tolerance path;
      failures = []

(* One profiled n=128 subrun: span-level time/allocation attribution of the
   end-to-end scenario the `subrun_*` rows measure.  Writes the canonical
   JSON report plus `.structural` and `.folded` siblings, exactly like the
   CLI's --profile. *)
let write_profile path =
  Sim.Prof.enable ();
  subrun ~n:128 ();
  let report = Sim.Prof.capture () in
  let write_file p contents =
    let oc = open_out_bin p in
    output_string oc contents;
    close_out oc
  in
  write_file path (Sim.Prof.report_json report);
  write_file (path ^ ".structural") (Sim.Prof.structural_json report);
  write_file (path ^ ".folded") (Sim.Prof.folded report);
  Format.printf "  wrote %s (+ .structural, .folded)@." path;
  Format.eprintf "%a@." Sim.Prof.pp_summary report

let run ?(quick = false) ?out ?check ?profile () =
  Format.printf "@.== Hot-path benchmarks (delivery-critical structures) ==@.@.";
  if quick then Format.printf "  (quick mode: 2 repetitions per benchmark)@.";
  (* Read the committed baseline up front: `--out` may overwrite the same
     path the check compares against. *)
  let baseline = Option.map (fun path -> (path, baseline_ns path)) check in
  let samples = run_all ~quick in
  Format.printf "  %-28s %6s %6s %14s %10s@." "benchmark" "ops" "reps"
    "ns/op" "mw/op";
  List.iter
    (fun s ->
      Format.printf "  %-28s %6d %6d %14.1f %10.2f@." s.name s.ops s.reps
        s.ns_per_op s.minor_words_per_op)
    samples;
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      output_string oc (json_of_samples ~quick samples);
      close_out oc;
      Format.printf "  wrote %s@." path);
  Option.iter write_profile profile;
  match baseline with
  | None -> ()
  | Some (path, baseline) ->
      if not (check_against ~path ~baseline samples) then exit 1
