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

(* Dense numbering of the mids a run processes, in first-sight order: row
   [origin] maps a sequence number to the mid's index, or -1.  It lets the
   per-node processed sets be flat byte maps instead of [Mid.Set]s. *)
type index = { rows : int array array; mutable size : int }

(* The mid's index, or -1 if the run never touched it. *)
let find ix (mid : Causal.Mid.t) =
  let row = ix.rows.((mid.origin :> int)) in
  if mid.seq < Array.length row then row.(mid.seq) else -1

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

type t = {
  n : int;
  trackers : Causal.Delivery.t array;
  ix : index;
  (* One byte per (node, mid index): every node's map, since survivors are
     known only at the end.  The maps grow together, so they always have
     equal lengths and [Bytes.equal] compares processed sets. *)
  processed : Bytes.t array;
  (* First departure tick per node, -1 if none. *)
  left_at : int array;
  (* Violations found so far, newest first. *)
  mutable causal : string list;
  mutable left_zombie : string list;
  mutable partition : string list;
}

let create ~n =
  {
    n;
    trackers = Array.init n (fun _ -> Causal.Delivery.create ~n);
    ix = { rows = Array.make n [||]; size = 0 };
    processed = Array.make n Bytes.empty;
    left_at = Array.make n (-1);
    causal = [];
    left_zombie = [];
    partition = [];
  }

let left_zombie_violation node mid at left =
  Format.asprintf "zombie: %a processed %a at %a after leaving at %a"
    Net.Node_id.pp node Causal.Mid.pp mid Sim.Ticks.pp at Sim.Ticks.pp
    (Sim.Ticks.of_int left)

(* A [Partitioned] departure means a member's adopted view degenerated to
   itself alone: the group lost its primary partition.  Within the fault
   budget (silenced + crashed <= t) this can never happen — at least
   n - t >= t + 1 members keep agreeing on a common view — so any such
   departure is the detectable liveness cost of beyond-budget fault load. *)
let depart t { Urcgc.Cluster.who; why; when_ } =
  let node = (who :> int) in
  if t.left_at.(node) < 0 then t.left_at.(node) <- (when_ :> int);
  if why = Urcgc.Member.Partitioned then
    t.partition <-
      Format.asprintf
        "liveness: %a departed at %a with a solo view — the group lost its \
         primary partition"
        Net.Node_id.pp who Sim.Ticks.pp when_
      :: t.partition

let deliver t (node : Net.Node_id.t) (msg : _ Causal.Causal_msg.t)
    (at : Sim.Ticks.t) =
  let mid = msg.mid in
  let tracker = t.trackers.((node :> int)) in
  if Causal.Delivery.processable tracker msg then
    Causal.Delivery.mark tracker mid
  else begin
    t.causal <-
      Format.asprintf
        "%a processed %a at %a before its causal predecessors (missing %a)"
        Net.Node_id.pp node Causal.Mid.pp mid Sim.Ticks.pp at
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Causal.Mid.pp)
        (Causal.Delivery.missing tracker msg)
      :: t.causal;
    (* Keep replaying from the observed state to catch further issues. *)
    Causal.Delivery.force_skip_to tracker ~origin:mid.origin ~seq:mid.seq
  end;
  let i = index_of t.ix mid in
  let maps = t.processed in
  if i >= Bytes.length maps.(0) then begin
    let size = max (2 * Bytes.length maps.(0)) (i + 1) in
    Array.iteri
      (fun k old ->
        let grown = Bytes.make size '\000' in
        Bytes.blit old 0 grown 0 (Bytes.length old);
        maps.(k) <- grown)
      maps
  end;
  Bytes.set maps.((node :> int)) i '\001';
  (* A member that left must never process anything at a strictly later
     tick (same-tick events belong to the action batch that contained the
     departure). *)
  let left = t.left_at.((node :> int)) in
  if left >= 0 && (at :> int) > left then
    t.left_zombie <- left_zombie_violation node mid at left :: t.left_zombie

let check_atomicity t ~actives =
  match actives with
  | [] -> []
  | (first : Net.Node_id.t) :: rest ->
      let reference = t.processed.((first :> int)) in
      List.filter_map
        (fun (node : Net.Node_id.t) ->
          let set = t.processed.((node :> int)) in
          if Bytes.equal set reference then None
          else begin
            let only_ref = ref 0 and only_node = ref 0 in
            Bytes.iteri
              (fun i r ->
                if r <> Bytes.get set i then
                  if r = '\001' then incr only_ref else incr only_node)
              reference;
            Some
              (Format.asprintf
                 "atomicity: %a and %a disagree (%d messages only at %a, %d \
                  only at %a)"
                 Net.Node_id.pp first Net.Node_id.pp node !only_ref
                 Net.Node_id.pp first !only_node Net.Node_id.pp node)
          end)
        rest

(* Zombie violations in event order.  Only survivors' discards witness
   group agreement.  A member that later departed may have purged orphans
   under a decision nobody else holds — the solo "full-group" decision of a
   partitioned node is the canonical case — and charging its discards
   against the survivors would flag perfectly uniform runs.  A survivor
   that processed a discarded mid shows in the byte maps; only then is
   the run replayed, to interleave those violations with the departure
   ones found live. *)
let check_zombies t ~survivor ~actives ~discards ~iter =
  let discarded = Bytes.make t.ix.size '\000' in
  let seen = ref false in
  List.iter
    (fun ((node : Net.Node_id.t), mids, _) ->
      if survivor.((node :> int)) then
        List.iter
          (fun mid ->
            let i = find t.ix mid in
            if i >= 0 then begin
              Bytes.set discarded i '\001';
              if
                List.exists
                  (fun (k : Net.Node_id.t) ->
                    Bytes.get t.processed.((k :> int)) i = '\001')
                  actives
              then seen := true
            end)
          mids)
    discards;
  if not !seen then List.rev t.left_zombie
  else begin
    let zombie = ref [] in
    iter (fun (node : Net.Node_id.t) (msg : _ Causal.Causal_msg.t)
             (at : Sim.Ticks.t) ->
        let mid = msg.mid in
        if survivor.((node :> int)) && Bytes.get discarded (find t.ix mid) = '\001'
        then
          zombie :=
            Format.asprintf "%a processed discarded message %a" Net.Node_id.pp
              node Causal.Mid.pp mid
            :: !zombie;
        let left = t.left_at.((node :> int)) in
        if left >= 0 && (at :> int) > left then
          zombie := left_zombie_violation node mid at left :: !zombie);
    List.rev !zombie
  end

(* At quiescence every surviving member must hold the same group view
   (assumption 4 of Section 4: "the algorithm guarantees that all the
   active processes in G achieve the same knowledge about the group"). *)
let check_views ~actives ~view =
  match List.map (fun node -> (node, view node)) actives with
  | [] -> []
  | (first_node, first) :: rest ->
      List.filter_map
        (fun (node, view) ->
          if Causal.Group_view.equal view first then None
          else
            Some
              (Format.asprintf
                 "group views diverge: %a holds %a but %a holds %a"
                 Net.Node_id.pp first_node Causal.Group_view.pp first
                 Net.Node_id.pp node Causal.Group_view.pp view))
        rest

let finish t ~actives ~view ~discards ~iter =
  let survivor = Array.make t.n false in
  List.iter (fun (node : Net.Node_id.t) -> survivor.((node :> int)) <- true) actives;
  let atomicity = check_atomicity t ~actives in
  let zombie = check_zombies t ~survivor ~actives ~discards ~iter in
  let views = check_views ~actives ~view in
  (* Violations are reported clause by clause, each in event order. *)
  {
    causal_ok = t.causal = [];
    atomicity_ok = atomicity = [];
    zombie_ok = zombie = [];
    views_ok = views = [];
    partition_ok = t.partition = [];
    violations =
      List.concat
        [ List.rev t.causal; atomicity; zombie; views; List.rev t.partition ];
  }

let verify ~n ~actives ~view ~iter ~discards ~departures =
  let t = create ~n in
  (* Feeding every departure first is feeding each at its place in the
     stream: a departure only bears on events at later ticks. *)
  List.iter (depart t) departures;
  iter (deliver t);
  finish t ~actives ~view ~discards ~iter

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
