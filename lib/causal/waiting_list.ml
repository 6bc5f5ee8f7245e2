(* Dependency-indexed waiting list.

   Messages live in per-origin dense rings and are indexed by what blocks
   them, so the hot paths touch only the messages they affect:

   - Per origin, waiting messages live in a circular buffer keyed by
     contiguous seq (window [base, base+span), holes allowed), the same
     layout as [History]: membership, insert and removal are O(1), and the
     window is compressed at the front so the per-origin oldest mid — the
     [waiting_i] field of every Request — reads off the window base.
   - Each waiting entry counts its unresolved blockers ([missing]): the
     chain predecessor [(origin, seq-1)] if unprocessed, plus each
     unprocessed explicit dependency (a repeated dependency counts once per
     listing).  [waiters] maps each blocker, as the int key
     [seq * n + origin], to the entries registered on it.
   - [seen] caches the last [Delivery] vector this list has observed; every
     registered key lies above it.  On [take_processable] the list syncs
     against the live vector: for each origin that advanced it pops the
     newly processed keys, decrementing each waiter's count, and entries
     whose count reaches zero join [ready].  Each origin's ring also
     counts the registrations on that origin's mids and bounds their seqs,
     which bounds that walk: a long gap processed while the list was empty
     costs only the keys actually registered in it.
   - Registrations are never withdrawn: an entry removed (taken, discarded
     or removed by the caller) leaves its registrations behind, and a pop
     skips any whose entry is no longer the live one for its mid
     ([find_entry … == entry]) — this also covers a mid removed and re-added
     with different dependencies.  Stale registrations are reclaimed when
     [seen] passes their key.
   - [ready] is exactly the set of processable entries.  An entry is ready
     iff its seq is [seen(origin)+1] and its deps are processed, so [ready]
     holds at most one mid per origin (<= n elements); popping its minimum
     reproduces the reference scan's first-processable-in-mid-order choice
     bit-for-bit, at O(log n) worst case.
   - [discard_from] walks the dependency graph forward from the roots:
     per-origin tail sweeps cover the implicit chain, and an explicit
     dep -> dependers index, built on demand from the live entries, covers
     listed dependencies.  Discards are rare (orphan destruction), so no
     such index is kept between them.

   Entries whose chain position the group skipped past (decided orphan
   destruction) are never processable; they simply never enter [ready], but
   remain visible to [oldest]/[length]/[to_list].

   Mids handed to [add] must have all origins (message and deps) in [0, n);
   the rest of the stack guarantees this. *)

type 'a entry = { msg : 'a Causal_msg.t; mutable missing : int }

type 'a ring = {
  mutable buf : 'a entry option array;
  mutable head : int;  (* physical index of seq [base] *)
  mutable base : int;  (* lowest seq covered by the window *)
  mutable span : int;  (* seqs covered: [base, base + span) *)
  mutable count : int; (* occupied slots within the window *)
  mutable regs : int;  (* blocker registrations on this origin's mids *)
  mutable reg_lo : int;  (* bounds on their seqs, kept while [regs > 0] *)
  mutable reg_hi : int;
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type 'a t = {
  n : int;
  mutable size : int;
  mutable rings : 'a ring option array;
      (* [||] until the first add, then lazily created per origin: an origin
         with no waiting message and no blocker registered on its mids
         costs one word.  Most lists never see a blocked
         message at all, so the per-origin arrays only exist once one does —
         a member allocates one waiting list per group member it simulates,
         and the empty-list footprint is what every fault-free run pays. *)
  mutable ready : Mid.Set.t;
  mutable seen : int array;  (* [||] until the first add *)
  mutable empty_vec : Mid.t option array;  (* shared all-[None] vector *)
  waiters : 'a entry list Itbl.t;
}

let create ~n =
  if n <= 0 then invalid_arg "Waiting_list.create: n must be positive";
  {
    n;
    size = 0;
    rings = [||];
    ready = Mid.Set.empty;
    seen = [||];
    empty_vec = [||];
    (* Small initial table: kept eager (it is a handful of words). *)
    waiters = Itbl.create 8;
  }

(* Allocate the per-origin state on the first add.  [seen] starting at all
   zeros is exactly the eager behaviour: it only ever catches up inside
   [take_processable], which never runs while the list is empty. *)
let ensure t =
  if Array.length t.seen = 0 then begin
    t.rings <- Array.make t.n None;
    t.seen <- Array.make t.n 0
  end

(* [Mid.t] fields and the private [Node_id.t] are read directly: libraries
   build with [-opaque], so the accessors would be out-of-line calls. *)
let origin_of (mid : Mid.t) = (mid.origin :> int)

(* -- per-origin rings ---------------------------------------------------- *)

let ring_of t o =
  match t.rings.(o) with
  | Some r -> r
  | None ->
      let r =
        { buf = [||]; head = 0; base = 0; span = 0; count = 0; regs = 0;
          reg_lo = 0; reg_hi = 0 }
      in
      t.rings.(o) <- Some r;
      r

let phys r i = (r.head + i) land (Array.length r.buf - 1)

let slot r seq =
  if r.span = 0 || seq < r.base || seq >= r.base + r.span then None
  else r.buf.(phys r (seq - r.base))

let find_entry t (mid : Mid.t) =
  if Array.length t.rings = 0 then None
  else
    match t.rings.(origin_of mid) with
    | None -> None
    | Some r -> slot r mid.seq

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* Re-house the window in a fresh buffer of at least [needed] slots, leaving
   [offset] empty slots below the current base (for downward extension). *)
let rehouse r ~needed ~offset =
  let ncap = next_pow2 needed 16 in
  let nbuf = Array.make ncap None in
  for i = 0 to r.span - 1 do
    nbuf.(offset + i) <- r.buf.(phys r i)
  done;
  r.buf <- nbuf;
  r.head <- 0

(* Make seq part of the window and store the entry there.  The caller has
   already checked the mid is not present, so the slot is a hole. *)
let ring_put r seq entry =
  if r.span = 0 then begin
    if Array.length r.buf = 0 then r.buf <- Array.make 16 None;
    r.head <- 0;
    r.base <- seq;
    r.span <- 1
  end
  else if seq >= r.base + r.span then begin
    let needed = seq - r.base + 1 in
    if needed > Array.length r.buf then rehouse r ~needed ~offset:0;
    r.span <- needed
  end
  else if seq < r.base then begin
    let delta = r.base - seq in
    let needed = r.span + delta in
    if needed > Array.length r.buf then rehouse r ~needed ~offset:delta
    else begin
      let cap = Array.length r.buf in
      r.head <- (r.head + cap - delta) land (cap - 1)
    end;
    r.base <- seq;
    r.span <- needed
  end;
  r.buf.(phys r (seq - r.base)) <- Some entry;
  r.count <- r.count + 1

(* Remove seq from the window, keeping the front compressed: when [count >
   0] the base slot is always occupied.  The hole-skipping scan amortizes to
   O(1) — each slot position is stepped over at most once per window pass. *)
let ring_remove r seq =
  r.buf.(phys r (seq - r.base)) <- None;
  r.count <- r.count - 1;
  if r.count = 0 then begin
    r.head <- 0;
    r.span <- 0
  end
  else if seq = r.base then begin
    let i = ref 1 in
    while Option.is_none r.buf.(phys r !i) do
      incr i
    done;
    r.head <- phys r !i;
    r.base <- r.base + !i;
    r.span <- r.span - !i
  end

(* Live entries from the highest (origin, seq) down: consing in [f] builds
   an ascending list. *)
let fold_entries f t init =
  let acc = ref init in
  for o = Array.length t.rings - 1 downto 0 do
    match t.rings.(o) with
    | None -> ()
    | Some r ->
        for i = r.span - 1 downto 0 do
          match r.buf.(phys r i) with
          | Some entry -> acc := f entry !acc
          | None -> ()
        done
  done;
  !acc

(* -- blocker registration ------------------------------------------------ *)

let key t ~origin ~seq = (seq * t.n) + origin

(* Register [entry] as waiting on [(origin, seq)], which lies above
   [seen(origin)]. *)
let register t entry ~origin ~seq =
  let k = key t ~origin ~seq in
  (match Itbl.find_opt t.waiters k with
  | Some l -> Itbl.replace t.waiters k (entry :: l)
  | None -> Itbl.add t.waiters k [ entry ]);
  entry.missing <- entry.missing + 1;
  let r = ring_of t origin in
  if r.regs = 0 || seq < r.reg_lo then r.reg_lo <- seq;
  if r.regs = 0 || seq > r.reg_hi then r.reg_hi <- seq;
  r.regs <- r.regs + 1

let add t msg =
  let mid = msg.Causal_msg.mid in
  match find_entry t mid with
  | Some _ -> () (* idempotent *)
  | None ->
      ensure t;
      let o = origin_of mid and s = mid.seq in
      let entry = { msg; missing = 0 } in
      ring_put (ring_of t o) s entry;
      t.size <- t.size + 1;
      if s - 1 > t.seen.(o) then register t entry ~origin:o ~seq:(s - 1);
      let deps = msg.Causal_msg.deps in
      for i = 0 to Array.length deps - 1 do
        let (dep : Mid.t) = deps.(i) in
        let dep_origin = origin_of dep in
        if dep.seq > t.seen.(dep_origin) then
          register t entry ~origin:dep_origin ~seq:dep.seq
      done;
      (* Ready iff nothing blocks it and its chain position is still ahead
         of what this list has seen processed. *)
      if entry.missing = 0 && s > t.seen.(o) then
        t.ready <- Mid.Set.add mid t.ready

let mem t mid = Option.is_some (find_entry t mid)

let remove t mid =
  match find_entry t mid with
  | None -> ()
  | Some _ ->
      ring_remove (ring_of t (origin_of mid)) mid.Mid.seq;
      t.size <- t.size - 1;
      t.ready <- Mid.Set.remove mid t.ready

let length t = t.size

let is_empty t = t.size = 0

let oldest t ~origin =
  let o = Net.Node_id.to_int origin in
  if o >= t.n || Array.length t.rings = 0 then None
  else
    match t.rings.(o) with
    | None -> None
    | Some r -> (
        if r.count = 0 then None
        else
          match r.buf.(r.head) with
          | Some entry -> Some entry.msg.Causal_msg.mid
          | None -> assert false (* front compression: base slot occupied *))

let oldest_vector t =
  if t.size = 0 then begin
    (* Every request of a member with nothing waiting carries an all-[None]
       vector; share one physical array per list instead of allocating n
       words per subrun.  Callers treat request vectors as read-only. *)
    if Array.length t.empty_vec < t.n then t.empty_vec <- Array.make t.n None;
    t.empty_vec
  end
  else Array.init t.n (fun i -> oldest t ~origin:(Net.Node_id.of_int i))

(* -- readiness sync ------------------------------------------------------ *)

let is_live t entry =
  match find_entry t entry.msg.Causal_msg.mid with
  | Some live -> live == entry
  | None -> false

(* One blocker is now processed: each live waiter has one fewer.  Top-level
   recursion so the per-key pop allocates no closure. *)
let rec resolve t = function
  | [] -> ()
  | entry :: rest ->
      if is_live t entry then begin
        entry.missing <- entry.missing - 1;
        let mid = entry.msg.Causal_msg.mid in
        (* Unblocked, but only processable if the group did not skip past
           its chain position meanwhile. *)
        if entry.missing = 0 && mid.seq > t.seen.(origin_of mid) then
          t.ready <- Mid.Set.add mid t.ready
      end;
      resolve t rest

(* Catch [seen] up with the live delivery vector.  Cost: O(n) plus O(1) per
   registered key in the newly processed ranges — amortized constant per
   registration. *)
let sync t delivery =
  for o = 0 to t.n - 1 do
    let origin = Net.Node_id.of_int o in
    let last = Delivery.last_processed delivery origin in
    let prev = t.seen.(o) in
    if last > prev then begin
      (* The one entry of this origin that could sit in [ready] has seq
         [prev+1]; the group has now processed or skipped it elsewhere. *)
      if not (Mid.Set.is_empty t.ready) then
        t.ready <- Mid.Set.remove (Mid.make ~origin ~seq:(prev + 1)) t.ready;
      t.seen.(o) <- last;
      match t.rings.(o) with
      | Some r when r.regs > 0 ->
          let hi = min last r.reg_hi in
          let s = ref (max (prev + 1) r.reg_lo) in
          while !s <= hi && r.regs > 0 do
            let k = key t ~origin:o ~seq:!s in
            (match Itbl.find_opt t.waiters k with
            | None -> ()
            | Some waiters ->
                Itbl.remove t.waiters k;
                r.regs <- r.regs - List.length waiters;
                resolve t waiters);
            incr s
          done;
          (* Every key left for this origin lies above [last]. *)
          if last >= r.reg_lo then r.reg_lo <- last + 1
      | Some _ | None -> ()
    end
  done

let take_processable t delivery =
  (* Empty-list fast path: the fault-free hot loop calls this once per
     processed message, and an O(n) sync there would make every delivery
     O(n) again.  Skipping the sync just lets [seen] lag, which is safe:
     blockers computed against a stale vector are conservative and resolve
     on the next non-empty sync. *)
  if t.size = 0 then None
  else begin
    sync t delivery;
    match Mid.Set.min_elt_opt t.ready with
    | None -> None
    | Some mid -> (
        match find_entry t mid with
        | None -> assert false (* ready entries are always live *)
        | Some entry ->
            remove t mid;
            Some entry.msg)
  end

(* -- discard cascade ----------------------------------------------------- *)

(* Explicit dependency key -> live entries listing it (once per listing). *)
let dependers_index t =
  let index = Itbl.create (2 * t.size) in
  fold_entries
    (fun entry () ->
      Array.iter
        (fun (dep : Mid.t) ->
          Itbl.add index (key t ~origin:(origin_of dep) ~seq:dep.seq) entry)
        entry.msg.Causal_msg.deps)
    t ();
  index

let discard_from t ~origin ~seq =
  if t.size = 0 then []
  else begin
    let victims = Itbl.create 16 in
    let queue = Queue.create () in
    (* Lowest seq from which each origin's waiting tail has been swept:
       sweeps of overlapping tails (one per same-origin victim) stay
       linear. *)
    let swept_from = Array.make t.n max_int in
    let add_victim (mid : Mid.t) =
      let k = key t ~origin:(origin_of mid) ~seq:mid.seq in
      if not (Itbl.mem victims k) then begin
        Itbl.add victims k mid;
        Queue.push mid queue
      end
    in
    (* Every waiting message of [o] with seq >= [from] depends on a victim
       through the implicit per-origin chain. *)
    let sweep_tail o from =
      if from < swept_from.(o) then begin
        let upto = swept_from.(o) in
        swept_from.(o) <- from;
        match t.rings.(o) with
        | None -> ()
        | Some r ->
            if r.span > 0 then begin
              let lo = max from r.base in
              let hi = min (upto - 1) (r.base + r.span - 1) in
              for s = lo to hi do
                match r.buf.(phys r (s - r.base)) with
                | Some entry -> add_victim entry.msg.Causal_msg.mid
                | None -> ()
              done
            end
      end
    in
    sweep_tail (Net.Node_id.to_int origin) seq;
    (* Only built once there is a victim whose dependers matter. *)
    let index = lazy (dependers_index t) in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      let vo = origin_of v in
      sweep_tail vo (v.seq + 1);
      List.iter
        (fun entry -> add_victim entry.msg.Causal_msg.mid)
        (Itbl.find_all (Lazy.force index) (key t ~origin:vo ~seq:v.seq))
    done;
    let discarded =
      Itbl.fold (fun _ mid acc -> mid :: acc) victims []
      |> List.sort Mid.compare
    in
    List.iter (remove t) discarded;
    discarded
  end

let to_list t = fold_entries (fun entry acc -> entry.msg :: acc) t []

(* -- invariants ---------------------------------------------------------- *)

let violated fmt = Format.kasprintf failwith ("Waiting_list: " ^^ fmt)

(* Registrations: bounds, per-origin counts, and per live entry (by mid
   key) how many of them are live. *)
let live_registrations t =
  let live = Itbl.create 16 in
  let per_origin = Array.make t.n 0 in
  Itbl.iter
    (fun k waiters ->
      let o = k mod t.n and s = k / t.n in
      if s <= t.seen.(o) then
        violated "registration on p%d#%d at or below seen %d" o s t.seen.(o);
      (match t.rings.(o) with
      | Some r when r.reg_lo <= s && s <= r.reg_hi -> ()
      | Some r ->
          violated "registration on p%d#%d outside [%d, %d]" o s r.reg_lo
            r.reg_hi
      | None -> violated "registration on p%d#%d without a ring" o s);
      per_origin.(o) <- per_origin.(o) + List.length waiters;
      List.iter
        (fun entry ->
          if is_live t entry then begin
            let mid = entry.msg.Causal_msg.mid in
            let ek = key t ~origin:(origin_of mid) ~seq:mid.seq in
            let c = Option.value (Itbl.find_opt live ek) ~default:0 in
            Itbl.replace live ek (c + 1)
          end)
        waiters)
    t.waiters;
  Array.iteri
    (fun o c ->
      let counted = match t.rings.(o) with Some r -> r.regs | None -> 0 in
      if c <> counted then
        violated "p%d: %d registrations counted, %d present" o counted c)
    per_origin;
  live

let check_invariants t =
  let ring_total =
    Array.fold_left
      (fun acc -> function Some r -> acc + r.count | None -> acc)
      0 t.rings
  in
  if ring_total <> t.size then
    violated "size %d but the rings hold %d" t.size ring_total;
  if Array.length t.seen = 0 then begin
    (* Nothing else exists before the first add. *)
    if not (Mid.Set.is_empty t.ready && Itbl.length t.waiters = 0) then
      violated "ready or waiters populated before the first add"
  end
  else begin
    let live = live_registrations t in
    fold_entries
      (fun entry () ->
        let mid = entry.msg.Causal_msg.mid in
        let o = origin_of mid in
        let regs =
          Option.value ~default:0
            (Itbl.find_opt live (key t ~origin:o ~seq:mid.seq))
        in
        if entry.missing <> regs then
          violated "%a: missing %d but %d live registrations" Mid.pp mid
            entry.missing regs;
        let in_ready = Mid.Set.mem mid t.ready in
        if in_ready <> (entry.missing = 0 && mid.seq = t.seen.(o) + 1) then
          violated "%a: missing %d, seen %d, in ready %b" Mid.pp mid
            entry.missing t.seen.(o) in_ready)
      t ();
    Mid.Set.iter
      (fun mid ->
        if not (mem t mid) then
          violated "%a is ready but not waiting" Mid.pp mid)
      t.ready
  end
