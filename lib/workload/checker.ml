type verdict = {
  causal_ok : bool;
  atomicity_ok : bool;
  zombie_ok : bool;
  views_ok : bool;
  partition_ok : bool;
  violations : string list;
}

let ok v =
  v.causal_ok && v.atomicity_ok && v.zombie_ok && v.views_ok && v.partition_ok

(* Dense numbering of the mids a run touches, in first-sight order: row
   [origin] maps a sequence number to the mid's index, or -1.  It lets the
   per-survivor processed sets be flat byte maps instead of [Mid.Set]s. *)
type index = { rows : int array array; mutable size : int }

let index_of ix (mid : Causal.Mid.t) =
  let origin = (mid.origin :> int) in
  let row = ix.rows.(origin) in
  let row =
    if mid.seq < Array.length row then row
    else begin
      let grown = Array.make (max (2 * Array.length row) (mid.seq + 1)) (-1) in
      Array.blit row 0 grown 0 (Array.length row);
      ix.rows.(origin) <- grown;
      grown
    end
  in
  let i = row.(mid.seq) in
  if i >= 0 then i
  else begin
    let i = ix.size in
    row.(mid.seq) <- i;
    ix.size <- i + 1;
    i
  end

(* The survivors' byte maps grow together, so they always have equal
   lengths and [Bytes.equal] compares processed sets. *)
let grow maps ~size =
  Array.iteri
    (fun k old ->
      let grown = Bytes.make (max (2 * Bytes.length old) size) '\000' in
      Bytes.blit old 0 grown 0 (Bytes.length old);
      maps.(k) <- grown)
    maps

let check_atomicity ~actives maps violations =
  match actives with
  | [] -> true
  | first :: rest ->
      let reference = maps.(0) in
      let atomicity_ok = ref true in
      List.iteri
        (fun k node ->
          let set = maps.(k + 1) in
          if not (Bytes.equal set reference) then begin
            atomicity_ok := false;
            let only_ref = ref 0 and only_node = ref 0 in
            Bytes.iteri
              (fun i r ->
                if r <> Bytes.get set i then
                  if r = '\001' then incr only_ref else incr only_node)
              reference;
            violations :=
              Format.asprintf
                "atomicity: %a and %a disagree (%d messages only at %a, %d \
                 only at %a)"
                Net.Node_id.pp first Net.Node_id.pp node !only_ref
                Net.Node_id.pp first !only_node Net.Node_id.pp node
              :: !violations
          end)
        rest;
      !atomicity_ok

(* A [Partitioned] departure means a member's adopted view degenerated to
   itself alone: the group lost its primary partition.  Within the fault
   budget (silenced + crashed <= t) this can never happen — at least
   n - t >= t + 1 members keep agreeing on a common view — so any such
   departure is the detectable liveness cost of beyond-budget fault load. *)
let check_partition departures violations =
  let ok = ref true in
  List.iter
    (fun { Urcgc.Cluster.who; why; when_ } ->
      if why = Urcgc.Member.Partitioned then begin
        ok := false;
        violations :=
          Format.asprintf
            "liveness: %a departed at %a with a solo view — the group lost \
             its primary partition"
            Net.Node_id.pp who Sim.Ticks.pp when_
          :: !violations
      end)
    departures;
  !ok

(* At quiescence every surviving member must hold the same group view
   (assumption 4 of Section 4: "the algorithm guarantees that all the
   active processes in G achieve the same knowledge about the group"). *)
let check_views ~actives ~view violations =
  match List.map (fun node -> (node, view node)) actives with
  | [] -> true
  | (first_node, first) :: rest ->
      let ok = ref true in
      List.iter
        (fun (node, view) ->
          if not (Causal.Group_view.equal view first) then begin
            ok := false;
            violations :=
              Format.asprintf "group views diverge: %a holds %a but %a holds %a"
                Net.Node_id.pp first_node Causal.Group_view.pp first
                Net.Node_id.pp node Causal.Group_view.pp view
              :: !violations
          end)
        rest;
      !ok

let verify ~n ~actives ~view ~iter ~discards ~departures =
  (* Survivor slot per node, -1 for a member that crashed or left. *)
  let slot = Array.make n (-1) in
  List.iteri
    (fun k (node : Net.Node_id.t) -> slot.((node :> int)) <- k)
    actives;
  let ix = { rows = Array.make n [||]; size = 0 } in
  (* Only survivors' discards witness group agreement.  A member that later
     departed may have purged orphans under a decision nobody else holds —
     the solo "full-group" decision of a partitioned node is the canonical
     case — and charging its discards against the survivors would flag
     perfectly uniform runs. *)
  let discarded_ix =
    List.concat_map
      (fun ((node : Net.Node_id.t), mids, _) ->
        if slot.((node :> int)) >= 0 then List.map (index_of ix) mids else [])
      discards
  in
  let discarded = Bytes.make ix.size '\000' in
  List.iter (fun i -> Bytes.set discarded i '\001') discarded_ix;
  (* First departure tick per node, -1 if none: a member that left must
     never process anything at a strictly later tick (same-tick events
     belong to the action batch that contained the departure). *)
  let left_at = Array.make n (-1) in
  List.iter
    (fun { Urcgc.Cluster.who; when_; _ } ->
      let who = (who :> int) in
      if left_at.(who) < 0 then left_at.(who) <- (when_ :> int))
    departures;
  let trackers = Array.init n (fun _ -> Causal.Delivery.create ~n) in
  let processed = Array.make (List.length actives) Bytes.empty in
  let causal = ref [] and zombie = ref [] in
  iter (fun (node : Net.Node_id.t) (msg : _ Causal.Causal_msg.t) at ->
      let mid = msg.mid in
      let tracker = trackers.((node :> int)) in
      if Causal.Delivery.processable tracker msg then
        Causal.Delivery.mark tracker mid
      else begin
        causal :=
          Format.asprintf
            "%a processed %a at %a before its causal predecessors (missing %a)"
            Net.Node_id.pp node Causal.Mid.pp mid Sim.Ticks.pp at
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               Causal.Mid.pp)
            (Causal.Delivery.missing tracker msg)
          :: !causal;
        (* Keep replaying from the observed state to catch further issues. *)
        Causal.Delivery.force_skip_to tracker ~origin:mid.origin ~seq:mid.seq
      end;
      let k = slot.((node :> int)) in
      if k >= 0 then begin
        let i = index_of ix mid in
        if i >= Bytes.length processed.(k) then grow processed ~size:(i + 1);
        Bytes.set processed.(k) i '\001';
        if i < Bytes.length discarded && Bytes.get discarded i = '\001' then
          zombie :=
            Format.asprintf "%a processed discarded message %a" Net.Node_id.pp
              node Causal.Mid.pp mid
            :: !zombie
      end;
      let left = left_at.((node :> int)) in
      if left >= 0 && (at :> int) > left then
        zombie :=
          Format.asprintf "zombie: %a processed %a at %a after leaving at %a"
            Net.Node_id.pp node Causal.Mid.pp mid Sim.Ticks.pp at Sim.Ticks.pp
            (Sim.Ticks.of_int left)
          :: !zombie);
  (* Violations are reported clause by clause, each in event order. *)
  let violations = ref !causal in
  let atomicity_ok = check_atomicity ~actives processed violations in
  violations := !zombie @ !violations;
  let views_ok = check_views ~actives ~view violations in
  let partition_ok = check_partition departures violations in
  {
    causal_ok = !causal = [];
    atomicity_ok;
    zombie_ok = !zombie = [];
    views_ok;
    partition_ok;
    violations = List.rev !violations;
  }

let check cluster =
  verify ~n:(Urcgc.Cluster.config cluster).Urcgc.Config.n
    ~actives:(Urcgc.Cluster.active_members cluster)
    ~view:(fun node -> Urcgc.Member.view (Urcgc.Cluster.member cluster node))
    ~iter:(Urcgc.Cluster.iter_deliveries cluster)
    ~discards:(Urcgc.Cluster.discards cluster)
    ~departures:(Urcgc.Cluster.departures cluster)

let pp ppf v =
  if ok v then Format.pp_print_string ppf "all invariants hold"
  else
    Format.fprintf ppf "@[<v 2>violations:@ %a@]"
      (Format.pp_print_list Format.pp_print_string)
      v.violations
