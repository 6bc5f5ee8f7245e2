module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

let tag_msg = 1
let tag_retrans_req = 2
let tag_retrans_reply = 3
let tag_keepalive = 4
let tag_mask_out = 5
let tag_mask_ack = 6
let tag_mask_done = 7

(* mid: the 8-byte Causal.Mid layout, as Wire's size model assumes. *)
let write_mid w (mid : Context_graph.mid) =
  Causal.Mid.write w { Causal.Mid.origin = mid.sender; seq = mid.seq }

let read_mid r =
  let { Causal.Mid.origin; seq } = Causal.Mid.read r in
  { Context_graph.sender = origin; seq }

(* node: tag u8 | sender u24 | seq u32 | pred count u16 | payload len u16
   | preds (8 each) | payload.  Total = 8 + 8 |preds| + 4 + payload
   = Wire.node_size. *)
let write_node payload w (node : 'a Context_graph.node) =
  let body =
    Net.Bytebuf.encode_payload ~who:"Ps_codec" payload
      ~size:node.payload_size node.payload
  in
  W.u8 w tag_msg;
  W.u24 w (Net.Node_id.to_int node.mid.sender);
  W.u32 w node.mid.seq;
  W.u16 w (List.length node.preds);
  W.u16 w (Bytes.length body);
  List.iter (write_mid w) node.preds;
  W.bytes w body

(* The tag has been consumed by the caller. *)
let read_node payload r =
  let sender = Net.Node_id.of_int (R.u24 r) in
  let seq = R.u32 r in
  let pred_count = R.u16 r in
  let payload_len = R.u16 r in
  if seq < 1 then R.fail "psync msg: seq must be >= 1";
  let preds =
    R.list r ~count:pred_count ~elt:Causal.Mid.encoded_size read_mid
  in
  let value = R.result (payload.Net.Bytebuf.decode (R.bytes r payload_len)) in
  {
    Context_graph.mid = { sender; seq };
    preds;
    payload = value;
    payload_size = payload_len;
  }

let encode_body payload body =
  Net.Bytebuf.encode_sized ~who:"Ps_codec" ~size:(Wire.body_size body)
    (fun w ->
      match body with
      | Wire.Msg node -> write_node payload w node
      | Wire.Retrans_req { requester; wanted } ->
          W.u8 w tag_retrans_req;
          W.u24 w (Net.Node_id.to_int requester);
          write_mid w wanted
      | Wire.Retrans_reply node ->
          W.u8 w tag_retrans_reply;
          W.zeros w 3;
          write_node payload w node
      | Wire.Keepalive ->
          W.u8 w tag_keepalive;
          W.zeros w 7
      | Wire.Mask_out { target; initiator } ->
          W.u8 w tag_mask_out;
          W.u24 w (Net.Node_id.to_int initiator);
          W.u32 w (Net.Node_id.to_int target);
          W.zeros w 4
      | Wire.Mask_ack { target } ->
          W.u8 w tag_mask_ack;
          W.zeros w 3;
          W.u32 w (Net.Node_id.to_int target)
      | Wire.Mask_done { target } ->
          W.u8 w tag_mask_done;
          W.zeros w 3;
          W.u32 w (Net.Node_id.to_int target))

let read_target r =
  R.skip r 3;
  Net.Node_id.of_int (R.u32 r)

let read_body payload r =
  match R.u8 r with
  | tag when tag = tag_msg -> Wire.Msg (read_node payload r)
  | tag when tag = tag_retrans_req ->
      let requester = Net.Node_id.of_int (R.u24 r) in
      Wire.Retrans_req { requester; wanted = read_mid r }
  | tag when tag = tag_retrans_reply ->
      R.skip r 3;
      if R.u8 r <> tag_msg then R.fail "retrans-reply: expected a message";
      Wire.Retrans_reply (read_node payload r)
  | tag when tag = tag_keepalive ->
      R.skip r 7;
      Wire.Keepalive
  | tag when tag = tag_mask_out ->
      let initiator = Net.Node_id.of_int (R.u24 r) in
      let target = Net.Node_id.of_int (R.u32 r) in
      R.skip r 4;
      Wire.Mask_out { target; initiator }
  | tag when tag = tag_mask_ack -> Wire.Mask_ack { target = read_target r }
  | tag when tag = tag_mask_done -> Wire.Mask_done { target = read_target r }
  | tag -> R.fail "unknown psync tag %d" tag

let decode_body payload raw = Net.Bytebuf.decode (read_body payload) raw
