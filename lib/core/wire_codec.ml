module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

type 'a payload = 'a Net.Bytebuf.codec = {
  encode : 'a -> bytes;
  decode : bytes -> ('a, string) result;
}

let string_payload = Net.Bytebuf.string_codec

(* Body tags. *)
let tag_data = 1
let tag_request = 2
let tag_decision = 3
let tag_recover_req = 4
let tag_recover_reply = 5

let write_node w node = W.u32 w (Net.Node_id.to_int node)
let read_node r = Net.Node_id.of_int (R.u32 r)

let u32s ~n r = R.array r ~count:n ~elt:4 R.u32

(* -- data messages --------------------------------------------------------

   Layout (= Causal_msg.header_size + 8 |deps| + payload):
     tag u8 | origin u24 | seq u32 | dep count u16 | payload length u16
     deps (8 bytes each) | payload bytes *)

let write_data payload w (msg : 'a Causal.Causal_msg.t) =
  let body =
    Net.Bytebuf.encode_payload ~who:"Wire_codec" payload
      ~size:msg.payload_size msg.payload
  in
  W.u8 w tag_data;
  W.u24 w (Net.Node_id.to_int (Causal.Mid.origin msg.mid));
  W.u32 w (Causal.Mid.seq msg.mid);
  W.u16 w (Array.length msg.deps);
  W.u16 w (Bytes.length body);
  Array.iter (Causal.Mid.write w) msg.deps;
  W.bytes w body

(* The tag has been consumed by the caller. *)
let read_data payload r =
  let origin = R.u24 r in
  let seq = R.u32 r in
  let dep_count = R.u16 r in
  let payload_len = R.u16 r in
  if seq < 1 then R.fail "data: sequence number must be >= 1";
  let deps =
    R.array r ~count:dep_count ~elt:Causal.Mid.encoded_size Causal.Mid.read
  in
  let value = R.result (payload.decode (R.bytes r payload_len)) in
  (* [of_sorted_deps] rather than [make]: the encoder always writes deps
     sorted, so an out-of-order frame is a malformed frame and decodes to
     an error rather than being silently re-sorted. *)
  match
    Causal.Causal_msg.of_sorted_deps
      ~mid:(Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq)
      ~deps ~payload_size:payload_len value
  with
  | msg -> msg
  | exception Invalid_argument reason -> R.fail "%s" reason

(* -- decisions ------------------------------------------------------------

   Layout (= Decision.encoded_size):
     subrun+1 u32 | coordinator u32 | flags u8
     stable, max_processed, most_updated, min_waiting, acc_stable,
       acc_min_waiting: n x u32 each (acc_stable via u32_or_max)
     attempts: n x u16 | alive bitmap | heard bitmap *)

let write_decision w (d : Decision.t) =
  W.u32 w (d.subrun + 1);
  write_node w d.coordinator;
  W.u8 w (if d.full_group then 1 else 0);
  Array.iter (W.u32 w) d.stable;
  Array.iter (W.u32 w) d.max_processed;
  Array.iter (write_node w) d.most_updated;
  Array.iter (W.u32 w) d.min_waiting;
  Array.iter (W.u32_or_max w) d.acc_stable;
  Array.iter (W.u32 w) d.acc_min_waiting;
  Array.iter (W.u16 w) d.attempts;
  W.bitmap w d.alive;
  W.bitmap w d.heard

let encode_decision d =
  let w = W.create () in
  write_decision w d;
  W.contents w

let read_decision ~n r =
  let subrun_plus1 = R.u32 r in
  let coordinator = read_node r in
  let flags = R.u8 r in
  let stable = u32s ~n r in
  let max_processed = u32s ~n r in
  let most_updated = R.array r ~count:n ~elt:4 read_node in
  let min_waiting = u32s ~n r in
  let acc_stable = R.array r ~count:n ~elt:4 R.u32_or_max in
  let acc_min_waiting = u32s ~n r in
  let attempts = R.array r ~count:n ~elt:2 R.u16 in
  let alive = R.bitmap r n in
  let heard = R.bitmap r n in
  {
    Decision.subrun = subrun_plus1 - 1;
    coordinator;
    full_group = flags land 1 <> 0;
    stable;
    max_processed;
    most_updated;
    min_waiting;
    attempts;
    alive;
    heard;
    acc_stable;
    acc_min_waiting;
  }

let decode_decision ~n raw = Net.Bytebuf.decode (read_decision ~n) raw

(* -- requests -------------------------------------------------------------

   Layout (= Wire.request_size):
     tag u8 | sender u16 | reserved u8 | subrun u32
     last_processed: n x u32 | waiting seqs: n x u32 (0 = none)
     piggybacked decision *)

let write_request w (r : Wire.request) =
  W.u8 w tag_request;
  W.u16 w (Net.Node_id.to_int r.sender);
  W.zeros w 1;
  W.u32 w r.subrun;
  Array.iter (W.u32 w) r.last_processed;
  Array.iter
    (fun waiting ->
      W.u32 w (match waiting with None -> 0 | Some mid -> Causal.Mid.seq mid))
    r.waiting;
  write_decision w r.prev_decision

let read_request ~n r =
  let sender = Net.Node_id.of_int (R.u16 r) in
  R.skip r 1;
  let subrun = R.u32 r in
  let last_processed = u32s ~n r in
  let waiting =
    Array.mapi
      (fun origin seq ->
        if seq = 0 then None
        else Some (Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq))
      (u32s ~n r)
  in
  let prev_decision = read_decision ~n r in
  { Wire.sender; subrun; last_processed; waiting; prev_decision }

(* -- top level ------------------------------------------------------------ *)

let write_body payload w body =
  match body with
  | Wire.Data msg -> write_data payload w msg
  | Wire.Request r -> write_request w r
  | Wire.Decision_pdu d ->
      W.u8 w tag_decision;
      W.zeros w 3;
      write_decision w d
  | Wire.Recover_req { requester; origin; from_seq; to_seq } ->
      W.u8 w tag_recover_req;
      W.zeros w 3;
      write_node w requester;
      write_node w origin;
      W.u32 w from_seq;
      W.u32 w to_seq
  | Wire.Recover_reply { responder; messages } ->
      W.u8 w tag_recover_reply;
      (* Message count rides in the pad field.  Relying on the buffer end to
         delimit the list let a reply truncated at a message boundary decode
         Ok with fewer messages; an explicit count makes that an error. *)
      W.u24 w (List.length messages);
      write_node w responder;
      List.iter (write_data payload w) messages

let encode_body_into w payload body =
  W.clear w;
  write_body payload w body;
  W.contents w

let encode_body payload body =
  let w = W.create () in
  write_body payload w body;
  W.contents w

let read_body payload ~n r =
  match R.u8 r with
  | tag when tag = tag_data -> Wire.Data (read_data payload r)
  | tag when tag = tag_request -> Wire.Request (read_request ~n r)
  | tag when tag = tag_decision ->
      R.skip r 3;
      Wire.Decision_pdu (read_decision ~n r)
  | tag when tag = tag_recover_req ->
      R.skip r 3;
      let requester = read_node r in
      let origin = read_node r in
      let from_seq = R.u32 r in
      let to_seq = R.u32 r in
      Wire.Recover_req { requester; origin; from_seq; to_seq }
  | tag when tag = tag_recover_reply ->
      let count = R.u24 r in
      let responder = read_node r in
      let messages =
        R.list r ~count ~elt:Causal.Causal_msg.header_size (fun r ->
            if R.u8 r <> tag_data then
              R.fail "recover-reply: expected a data message";
            read_data payload r)
      in
      Wire.Recover_reply { responder; messages }
  | tag -> R.fail "unknown body tag %d" tag

let decode_body payload ~n raw = Net.Bytebuf.decode (read_body payload ~n) raw
