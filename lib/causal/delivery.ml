type t = { last : int array }

let create ~n =
  if n <= 0 then invalid_arg "Delivery.create: n must be positive";
  { last = Array.make n 0 }

let n t = Array.length t.last

(* The functions below read [Mid.t]'s fields and coerce [Node_id.t] (a
   private int) directly instead of going through [Mid.origin], [Mid.seq]
   and [Node_id.to_int]: every library is compiled with [-opaque] in the
   default build profile, so those accessors would be out-of-line calls —
   three per dependency on the receive path and in the checker's replay. *)
let last_processed t (origin : Net.Node_id.t) = t.last.((origin :> int))

let vector t = Array.copy t.last

let processed t (mid : Mid.t) = mid.seq <= t.last.((mid.origin :> int))

let missing t (msg : _ Causal_msg.t) =
  let mid = msg.mid in
  let origin = Mid.origin mid in
  let chain_gap =
    let next = last_processed t origin + 1 in
    if Mid.seq mid > next then [ Mid.make ~origin ~seq:next ] else []
  in
  let unprocessed_deps =
    Array.fold_right
      (fun dep acc -> if processed t dep then acc else dep :: acc)
      msg.deps []
  in
  chain_gap @ unprocessed_deps

(* Top-level recursion, not [Array.for_all (processed t)]: this runs once
   per received message and must allocate neither a closure nor a partial
   application. *)
let rec deps_processed t deps i =
  i >= Array.length deps || (processed t deps.(i) && deps_processed t deps (i + 1))

let processable t (msg : _ Causal_msg.t) =
  let mid = msg.mid in
  mid.seq = t.last.((mid.origin :> int)) + 1 && deps_processed t msg.deps 0

let mark t (mid : Mid.t) =
  let i = (mid.origin :> int) in
  if mid.seq <> t.last.(i) + 1 then
    invalid_arg "Delivery.mark: out-of-order processing";
  t.last.(i) <- mid.seq

let force_skip_to t ~(origin : Net.Node_id.t) ~seq =
  let i = (origin :> int) in
  if seq > t.last.(i) then t.last.(i) <- seq

let count t = Array.fold_left ( + ) 0 t.last

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       Format.pp_print_int)
    (Array.to_seq t.last)
