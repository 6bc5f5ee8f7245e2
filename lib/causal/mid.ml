type t = { origin : Net.Node_id.t; seq : int }

let make ~origin ~seq =
  if seq < 1 then invalid_arg "Mid.make: seq must be >= 1";
  { origin; seq }

let origin t = t.origin
let seq t = t.seq

let compare a b =
  let c = Net.Node_id.compare a.origin b.origin in
  if c <> 0 then c else Int.compare a.seq b.seq

let equal a b = compare a b = 0

let predecessor t = if t.seq = 1 then None else Some { t with seq = t.seq - 1 }

let successor t = { t with seq = t.seq + 1 }

let encoded_size = 8

let write w t =
  Net.Bytebuf.Writer.u32 w (Net.Node_id.to_int t.origin);
  Net.Bytebuf.Writer.u32 w t.seq

let read r =
  let origin = Net.Bytebuf.Reader.u32 r in
  let seq = Net.Bytebuf.Reader.u32 r in
  if seq < 1 then Net.Bytebuf.Reader.fail "mid: sequence number must be >= 1";
  { origin = Net.Node_id.of_int origin; seq }

let pp ppf t = Format.fprintf ppf "%a#%d" Net.Node_id.pp t.origin t.seq

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
