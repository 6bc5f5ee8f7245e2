type verdict = {
  causal_ok : bool;
  at_most_once_ok : bool;
  atomicity_ok : bool;
  zombie_ok : bool;
  partition_ok : bool;
  skipped : string list;
  violations : string list;
}

let ok v =
  v.causal_ok && v.at_most_once_ok && v.atomicity_ok && v.zombie_ok
  && v.partition_ok

(* Dense numbering of the mids the fold meets, in first-sight order: row
   [origin] maps a seq to the mid's index, or -1.  It lets the per-node
   processed sets be flat byte maps.  A row grows only while the seq stays
   within twice the origin's indexed count (plus slack), which a protocol's
   gap-free chains always do; a far seq (a trace window starting mid-run, a
   hostile trace) is numbered in [spill] instead, so memory stays
   proportional to the mids seen. *)
type index = {
  rows : int array array;
  counts : int array;
  spill : (int * int, int) Hashtbl.t;
  mutable size : int;
}

(* The mid's index, or -1 if the fold never touched it. *)
let find ix origin seq =
  let row = ix.rows.(origin) in
  let i = if seq < Array.length row then row.(seq) else -1 in
  if i >= 0 || Hashtbl.length ix.spill = 0 then i
  else Option.value ~default:(-1) (Hashtbl.find_opt ix.spill (origin, seq))

let index_of ix origin seq =
  let row = ix.rows.(origin) in
  if seq < Array.length row && row.(seq) >= 0 then row.(seq)
  else
    let found = find ix origin seq in
    if found >= 0 then found
    else begin
      let i = ix.size in
      ix.size <- i + 1;
      let count = ix.counts.(origin) in
      ix.counts.(origin) <- count + 1;
      if seq < Array.length row then row.(seq) <- i
      else if seq <= (2 * count) + 64 then begin
        let grown = Array.make (max (2 * Array.length row) (seq + 1)) (-1) in
        Array.blit row 0 grown 0 (Array.length row);
        grown.(seq) <- i;
        ix.rows.(origin) <- grown
      end
      else Hashtbl.replace ix.spill (origin, seq) i;
      i
    end

type t = {
  n : int;
  from_start : bool;
  (* Per node, the highest seq processed of each origin; -1 for a chain not
     yet anchored in a window that starts mid-run. *)
  chains : int array array;
  ix : index;
  (* One byte per (node, mid index): every node's map, since survivors are
     known only at the end.  The maps grow together, so they always have
     equal lengths and [Bytes.equal] compares processed sets. *)
  processed : Bytes.t array;
  (* First departure tick per node, -1 if none. *)
  left_at : int array;
  mutable causal_ok : bool;
  mutable at_most_once_ok : bool;
  (* Violations found so far, newest first. *)
  mutable order : string list;
  mutable left_zombie : string list;
  mutable partition : string list;
  mutable discards : (int * int * int) list;
}

let create ~n ~from_start =
  {
    n;
    from_start;
    chains = Array.init n (fun _ -> Array.make n (if from_start then 0 else -1));
    ix =
      {
        rows = Array.make n [||];
        counts = Array.make n 0;
        spill = Hashtbl.create 1;
        size = 0;
      };
    processed = Array.make n Bytes.empty;
    left_at = Array.make n (-1);
    causal_ok = true;
    at_most_once_ok = true;
    order = [];
    left_zombie = [];
    partition = [];
    discards = [];
  }

let frontier t node = Array.copy t.chains.(node)

let processed t ~node ~origin ~seq =
  let i = find t.ix origin seq in
  i >= 0 && Bytes.get t.processed.(node) i = '\001'

let pp_node = Printf.sprintf "p%d"
let pp_mid origin seq = Printf.sprintf "p%d#%d" origin seq
let pp_tick at = Format.asprintf "%a" Ticks.pp (Ticks.of_int at)

let left_zombie node origin seq at left =
  Printf.sprintf "zombie: %s processed %s at %s after leaving at %s"
    (pp_node node) (pp_mid origin seq) (pp_tick at) (pp_tick left)

(* The event was not the next of its chain or a dependency was still
   unprocessed: processing twice if the node already holds the mid, a
   causal-order violation otherwise.  [missing] are the unprocessed
   dependencies, the chain's next seq is added here. *)
let unmet t ~node ~origin ~seq ~at missing =
  let next = t.chains.(node).(origin) + 1 in
  let missing = if seq > next then (origin, next) :: missing else missing in
  if processed t ~node ~origin ~seq then t.at_most_once_ok <- false
  else t.causal_ok <- false;
  t.order <-
    Printf.sprintf
      "%s processed %s at %s before its causal predecessors (missing %s)"
      (pp_node node) (pp_mid origin seq) (pp_tick at)
      (String.concat ", " (List.map (fun (o, s) -> pp_mid o s) missing))
    :: t.order

(* What every event does once judged: advance the chain (past a gap too,
   to keep judging from the observed state), mark the byte map, and catch
   processing at a tick strictly after leaving (same-tick events belong to
   the action batch that contained the departure). *)
let settle t ~node ~origin ~seq ~at =
  let chain = t.chains.(node) in
  if seq > chain.(origin) then chain.(origin) <- seq;
  let i = index_of t.ix origin seq in
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
  Bytes.set maps.(node) i '\001';
  let left = t.left_at.(node) in
  if left >= 0 && at > left then
    t.left_zombie <- left_zombie node origin seq at left :: t.left_zombie

(* Top-level recursion: the per-dependency loops allocate neither a closure
   nor a partial application. *)
let rec need_met chain need origin j =
  j >= Array.length need
  || ((j = origin || need.(j) <= chain.(j)) && need_met chain need origin (j + 1))

let deliver t ~node ~origin ~seq ~need ~at =
  let chain = t.chains.(node) in
  if chain.(origin) < 0 then chain.(origin) <- seq - 1;
  if not (seq = chain.(origin) + 1 && need_met chain need origin 0) then begin
    let missing = ref [] in
    for j = Array.length need - 1 downto 0 do
      if j <> origin && need.(j) > chain.(j) then
        missing := (j, need.(j)) :: !missing
    done;
    unmet t ~node ~origin ~seq ~at !missing
  end;
  settle t ~node ~origin ~seq ~at

module type MID = sig
  type node = private int
  type mid = { origin : node; seq : int }
end

module Explicit (M : MID) = struct
  let rec met chain (deps : M.mid array) i =
    i >= Array.length deps
    ||
    let dep = deps.(i) in
    dep.seq <= chain.((dep.origin :> int)) && met chain deps (i + 1)

  let deliver t ~node (mid : M.mid) ~deps ~at =
    let origin = (mid.origin :> int) and seq = mid.seq in
    let chain = t.chains.(node) in
    if chain.(origin) < 0 then chain.(origin) <- seq - 1;
    if not (seq = chain.(origin) + 1 && met chain deps 0) then
      unmet t ~node ~origin ~seq ~at
        (List.filter_map
           (fun (dep : M.mid) ->
             let o = (dep.origin :> int) in
             if dep.seq <= chain.(o) then None else Some (o, dep.seq))
           (Array.to_list deps));
    settle t ~node ~origin ~seq ~at
end

let depart t ~node ~at ~partitioned =
  if t.left_at.(node) < 0 then t.left_at.(node) <- at;
  if partitioned then
    t.partition <-
      Printf.sprintf
        "liveness: %s departed at %s with a solo view — the group lost its \
         primary partition"
        (pp_node node) (pp_tick at)
      :: t.partition

let discard t ~node ~origin ~seq =
  t.discards <- (node, origin, seq) :: t.discards

let atomicity t survivors =
  match survivors with
  | [] -> []
  | first :: rest ->
      let reference = t.processed.(first) in
      List.filter_map
        (fun node ->
          let set = t.processed.(node) in
          if Bytes.equal set reference then None
          else begin
            let only_ref = ref 0 and only_node = ref 0 in
            Bytes.iteri
              (fun i r ->
                if r <> Bytes.get set i then
                  if r = '\001' then incr only_ref else incr only_node)
              reference;
            Some
              (Printf.sprintf
                 "atomicity: %s and %s disagree (%d messages only at %s, %d \
                  only at %s)"
                 (pp_node first) (pp_node node) !only_ref (pp_node first)
                 !only_node (pp_node node))
          end)
        rest

(* Zombie violations in event order.  Only survivors' discards witness
   group agreement: a member that later departed may have purged orphans
   under a decision nobody else holds — the solo "full-group" decision of a
   partitioned node is the canonical case.  A survivor that processed a
   discarded mid shows in the byte maps; only then are the events replayed,
   to interleave those violations with the departure ones found live. *)
let zombies t ~survivor ~survivors ~replay =
  let discarded = Bytes.make t.ix.size '\000' in
  let seen = ref false in
  List.iter
    (fun (node, origin, seq) ->
      if survivor.(node) then begin
        let i = find t.ix origin seq in
        if i >= 0 then begin
          Bytes.set discarded i '\001';
          if List.exists (fun k -> Bytes.get t.processed.(k) i = '\001') survivors
          then seen := true
        end
      end)
    t.discards;
  if not !seen then List.rev t.left_zombie
  else begin
    let zombie = ref [] in
    replay (fun node origin seq at ->
        if survivor.(node) && Bytes.get discarded (find t.ix origin seq) = '\001'
        then
          zombie :=
            Printf.sprintf "%s processed discarded message %s" (pp_node node)
              (pp_mid origin seq)
            :: !zombie;
        let left = t.left_at.(node) in
        if left >= 0 && at > left then
          zombie := left_zombie node origin seq at left :: !zombie);
    List.rev !zombie
  end

let finish t ~survivors ~agreement ~replay =
  let survivor = Array.make t.n false in
  List.iter (fun node -> survivor.(node) <- true) survivors;
  let atomicity = if t.from_start then atomicity t survivors else [] in
  let zombie = zombies t ~survivor ~survivors ~replay in
  {
    causal_ok = t.causal_ok;
    at_most_once_ok = t.at_most_once_ok;
    atomicity_ok = atomicity = [];
    zombie_ok = zombie = [];
    partition_ok = t.partition = [];
    skipped =
      (if t.from_start then []
       else
         [
           "atomicity: trace window is truncated, per-node delivery sets are \
            incomplete";
           "causal: cross-origin dependency checks limited to the trace window";
         ]);
    violations =
      List.concat
        [ List.rev t.order; atomicity; zombie; agreement; List.rev t.partition ];
  }
