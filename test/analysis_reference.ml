(* Reference model for the trace feed of [Sim.Oracle]: the verdict half
   of the trace analyzer as it stood before the oracle was shared, kept
   verbatim as an executable specification.  The lifecycle bookkeeping is
   cut away; what remains is its own clause code — a [Mid_set] of
   processed mids and a chain table per node, a delivery vector per node
   for the broadcast-time frontier, discards per discarding node, and one
   pass over the survivors at the end.  [Suite_analysis] requires
   [Sim.Analysis.analyze] to return the same clause bits and the same
   skipped-check list on every trace it is given. *)

module Trace = Sim.Trace
module Ticks = Sim.Ticks

type verdict = {
  causal_ok : bool;
  at_most_once_ok : bool;
  atomicity_ok : bool;
  zombie_ok : bool;
  partition_ok : bool;
  skipped : string list;
  violations : string list;
}

module Mid_key = struct
  type t = int * int

  let compare = compare
end

module Mid_set = Set.Make (Mid_key)

(* The message's label as the oracle needs it: the origin's delivery
   vector at the broadcast instant, and whether it was the full frontier. *)
type acc = { a_vector : int array; a_frontier : bool }

let max_node_index records =
  let top = ref (-1) in
  let see i = if i > !top then top := i in
  let see_pdu = function
    | Trace.Data { origin; _ } -> see origin
    | Trace.Request { sender; _ } -> see sender
    | Trace.Decision { coordinator; _ } -> see coordinator
    | Trace.Recover_req { requester; origin; _ } ->
        see requester;
        see origin
    | Trace.Recover_reply { responder; _ } -> see responder
  in
  List.iter
    (fun { Trace.event; _ } ->
      match event with
      | Trace.Send { src; dst; pdu } ->
          see src;
          see dst;
          see_pdu pdu
      | Trace.Broadcast { src; pdu; _ } ->
          see src;
          see_pdu pdu
      | Trace.Receive { node; pdu } ->
          see node;
          see_pdu pdu
      | Trace.Deliver { node; mid } | Trace.Confirm { node; mid } ->
          see node;
          see mid.Trace.origin
      | Trace.Wait_add { node; mid; _ } ->
          see node;
          see mid.Trace.origin
      | Trace.Wait_discard { node; mids } ->
          see node;
          List.iter (fun m -> see m.Trace.origin) mids
      | Trace.Rotate { coordinator; _ } -> see coordinator
      | Trace.Left { node; _ } | Trace.Crash { node } -> see node
      | Trace.Drop { src; dst; _ } ->
          see src;
          see dst
      | Trace.Note _ -> ())
    records;
  !top + 1

(* A complete urcgc trace opens with the subrun-0 rotation at tick 0 (the
   first simulated round emits it before anything else).  Anything else is a
   bounded-ring suffix: the analyzer then reports a coverage window and
   suppresses the checks that a missing prefix would false-flag. *)
let looks_complete records =
  match records with
  | [] -> true
  | { Trace.time; event } :: _ -> (
      Ticks.to_int time = 0
      && match event with Trace.Rotate { subrun = 0; _ } -> true | _ -> false)

let verdict ?n ?(complete : bool option) records =
  let n =
    match n with Some n -> Stdlib.max n (max_node_index records) | None -> max_node_index records
  in
  let complete =
    match complete with Some c -> c | None -> looks_complete records
  in
  (* Per-node state. *)
  let vectors = Array.init n (fun _ -> Array.make (Stdlib.max n 1) 0) in
  let seen_chain = Hashtbl.create 64 in  (* (node, origin) -> last seq seen *)
  let delivered : Mid_set.t array = Array.make (Stdlib.max n 1) Mid_set.empty in
  let accs : (Mid_key.t, acc) Hashtbl.t = Hashtbl.create 64 in
  let crashed = Hashtbl.create 8 in
  let left = Hashtbl.create 8 in
  (* Discards per discarding node: only the discards of nodes that turn out
     to be survivors witness group agreement (a departed member may have
     purged orphans under a solo decision nobody else holds). *)
  let discarded_by : (int, Mid_set.t) Hashtbl.t = Hashtbl.create 8 in
  let violations = ref [] in
  let causal_ok = ref true in
  let amo_ok = ref true in
  let zombie_ok = ref true in
  let partition_ok = ref true in
  let violation flag fmt =
    Printf.ksprintf
      (fun msg ->
        flag := false;
        violations := msg :: !violations)
      fmt
  in
  let key (m : Trace.mid) = (m.Trace.origin, m.Trace.seq) in
  let on_data_broadcast ~src (origin, seq) ~deps =
    let k = (origin, seq) in
    match Hashtbl.find_opt accs k with
    | Some _ -> ()
    | None ->
        if src = origin then begin
          let vector = Array.copy vectors.(src) in
          let nonzero = Array.fold_left (fun acc v -> if v > 0 then acc + 1 else acc) 0 vector in
          Hashtbl.replace accs k
            { a_vector = vector; a_frontier = complete && nonzero = deps }
        end
  in
  let deliver ~tick node (mid : Trace.mid) =
    let k = key mid in
    let origin = mid.Trace.origin in
    let seq = mid.Trace.seq in
    if node < 0 || node >= n || origin < 0 || origin >= n then
      violation causal_ok "node or origin out of range in deliver of (%d,%d)"
        origin seq
    else begin
      (* A departed process must not keep processing: same-tick events
         belong to the action batch that contained the departure, anything
         strictly later is zombie processing. *)
      (match Hashtbl.find_opt left node with
      | Some left_tick when tick > left_tick ->
          violation zombie_ok
            "zombie: node %d processed (%d,%d) at tick %d after leaving at \
             tick %d"
            node origin seq tick left_tick
      | _ -> ());
      (* At-most-once. *)
      if Mid_set.mem k delivered.(node) then
        violation amo_ok "node %d processed (%d,%d) more than once" node origin
          seq
      else begin
        delivered.(node) <- Mid_set.add k delivered.(node);
        (* Origin-chain contiguity (the per-origin FIFO half of causality). *)
        (match Hashtbl.find_opt seen_chain (node, origin) with
        | Some last ->
            if seq <> last + 1 then
              violation causal_ok
                "node %d processed (%d,%d) out of order (expected seq %d)"
                node origin seq (last + 1);
            Hashtbl.replace seen_chain (node, origin) (Stdlib.max last seq)
        | None ->
            if complete && seq <> 1 then
              violation causal_ok
                "node %d processed (%d,%d) before the start of its chain" node
                origin seq;
            Hashtbl.replace seen_chain (node, origin) seq);
        (* Cross-origin causal past, when the label was the full frontier. *)
        (match Hashtbl.find_opt accs k with
        | None -> ()
        | Some acc ->
            if acc.a_frontier then
              Array.iteri
                (fun j need ->
                  if j <> origin && need > vectors.(node).(j) then
                    violation causal_ok
                      "node %d processed (%d,%d) before its causal \
                       predecessor (%d,%d)"
                      node origin seq j need)
                acc.a_vector);
        if seq > vectors.(node).(origin) then vectors.(node).(origin) <- seq
      end
    end
  in
  List.iter
    (fun { Trace.time; event } ->
      let tick = Ticks.to_int time in
      match event with
      | Trace.Broadcast { src; pdu = Trace.Data { origin; seq; deps; _ }; _ } ->
          on_data_broadcast ~src (origin, seq) ~deps
      | Trace.Deliver { node; mid } -> deliver ~tick node mid
      | Trace.Wait_discard { node; mids } ->
          List.iter
            (fun mid ->
              let k = key mid in
              Hashtbl.replace discarded_by node
                (Mid_set.add k
                   (Option.value ~default:Mid_set.empty
                      (Hashtbl.find_opt discarded_by node))))
            mids
      | Trace.Left { node; reason } ->
          if not (Hashtbl.mem left node) then Hashtbl.replace left node tick;
          (* The reason string is the wire-stable rendering of
             [Urcgc.Member.reason_to_string] (docs/TRACE.md).  A solo-view
             departure means the group lost its primary partition — never
             legitimate within the fault budget. *)
          if reason = "partitioned (solo view)" then
            violation partition_ok
              "liveness: node %d left with a solo view at tick %d — the \
               group lost its primary partition"
              node tick
      | Trace.Crash { node } -> Hashtbl.replace crashed node ()
      | _ -> ())
    records;
  (* Survivors: every index that neither crashed nor left. *)
  let survivors =
    List.filter
      (fun i -> not (Hashtbl.mem crashed i || Hashtbl.mem left i))
      (List.init n Fun.id)
  in
  let skipped = ref [] in
  (* Uniform atomicity among survivors (complete traces only: a missing
     prefix hides deliveries and would false-flag every survivor). *)
  let atomicity_ok = ref true in
  if not complete then
    skipped :=
      "atomicity: trace window is truncated, per-node delivery sets are \
       incomplete"
      :: !skipped
  else begin
    match survivors with
    | [] -> ()
    | first :: rest ->
        let reference = delivered.(first) in
        List.iter
          (fun node ->
            if not (Mid_set.equal delivered.(node) reference) then begin
              let only_ref = Mid_set.diff reference delivered.(node) in
              let only_node = Mid_set.diff delivered.(node) reference in
              violation atomicity_ok
                "atomicity: nodes %d and %d disagree (%d messages only at \
                 %d, %d only at %d)"
                first node
                (Mid_set.cardinal only_ref)
                first
                (Mid_set.cardinal only_node)
                node
            end)
          rest
  end;
  (* Zombie processing: survivors must not have processed a mid that a
     survivor discarded by group agreement. *)
  let discarded =
    List.fold_left
      (fun acc node ->
        match Hashtbl.find_opt discarded_by node with
        | Some set -> Mid_set.union acc set
        | None -> acc)
      Mid_set.empty survivors
  in
  List.iter
    (fun node ->
      Mid_set.iter
        (fun (origin, seq) ->
          if Mid_set.mem (origin, seq) delivered.(node) then
            violation zombie_ok
              "zombie: surviving node %d processed discarded message (%d,%d)"
              node origin seq)
        discarded)
    survivors;
  if not complete then
    skipped :=
      "causal: cross-origin dependency checks limited to the trace window"
      :: !skipped;
  {
    causal_ok = !causal_ok;
    at_most_once_ok = !amo_ok;
    atomicity_ok = !atomicity_ok;
    zombie_ok = !zombie_ok;
    partition_ok = !partition_ok;
    skipped = List.rev !skipped;
    violations = List.rev !violations;
  }
