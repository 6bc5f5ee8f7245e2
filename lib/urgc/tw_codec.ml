module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

let tag_data = 1
let tag_request = 2
let tag_decision = 3
let tag_recover_req = 4
let tag_recover_reply = 5

(* data: tag u8 | origin u24 | seq u32 | payload len u16 | pad u16 | payload
   — 8 + 4 + payload = Total_wire.data_size. *)
let data_header = 12

let write_data payload w (d : 'a Total_wire.data) =
  let body =
    Net.Bytebuf.encode_payload ~who:"Tw_codec" payload ~size:d.payload_size
      d.payload
  in
  W.u8 w tag_data;
  W.u24 w (Net.Node_id.to_int (Causal.Mid.origin d.mid));
  W.u32 w (Causal.Mid.seq d.mid);
  W.u16 w (Bytes.length body);
  W.zeros w 2;
  W.bytes w body

(* The tag has been consumed by the caller. *)
let read_data payload r =
  let origin = R.u24 r in
  let seq = R.u32 r in
  let payload_len = R.u16 r in
  R.skip r 2;
  if seq < 1 then R.fail "data: seq must be >= 1";
  let value = R.result (payload.Net.Bytebuf.decode (R.bytes r payload_len)) in
  {
    Total_wire.mid = Causal.Mid.make ~origin:(Net.Node_id.of_int origin) ~seq;
    payload = value;
    payload_size = payload_len;
  }

(* decision (= Total_decision.encoded_size):
     subrun+1 u32 | coordinator u32 | next_seq u32 | first_assigned u32 |
     stable_seq u32 | flags u8
     assignments: (next_seq - first_assigned) mids, 8 bytes each
     attempts: n x u16 | acc_processed: n x u32 (via u32_or_max)
     alive bitmap | heard bitmap *)
let write_decision w (d : Total_decision.t) =
  W.u32 w (d.subrun + 1);
  W.u32 w (Net.Node_id.to_int d.coordinator);
  W.u32 w d.next_seq;
  W.u32 w d.first_assigned;
  W.u32 w d.stable_seq;
  W.u8 w (if d.full_group then 1 else 0);
  Array.iter (Causal.Mid.write w) d.assignments;
  Array.iter (W.u16 w) d.attempts;
  Array.iter (W.u32_or_max w) d.acc_processed;
  W.bitmap w d.alive;
  W.bitmap w d.heard

let read_decision ~n r =
  let subrun_plus1 = R.u32 r in
  let coordinator = Net.Node_id.of_int (R.u32 r) in
  let next_seq = R.u32 r in
  let first_assigned = R.u32 r in
  let stable_seq = R.u32 r in
  let flags = R.u8 r in
  let window = next_seq - first_assigned in
  if window < 0 then R.fail "decision: negative assignment window";
  let assignments =
    R.array r ~count:window ~elt:Causal.Mid.encoded_size Causal.Mid.read
  in
  let attempts = R.array r ~count:n ~elt:2 R.u16 in
  let acc_processed = R.array r ~count:n ~elt:4 R.u32_or_max in
  let alive = R.bitmap r n in
  let heard = R.bitmap r n in
  {
    Total_decision.subrun = subrun_plus1 - 1;
    coordinator;
    next_seq;
    first_assigned;
    assignments;
    stable_seq;
    full_group = flags land 1 <> 0;
    attempts;
    alive;
    heard;
    acc_processed;
  }

(* request (= 4 + 4 + 4 + 8 |unsequenced| + decision):
     tag u8 | sender u24 | subrun u32 | processed_upto u16 | count u16
     unsequenced mids, 8 bytes each | piggybacked decision
   processed_upto is a u16: the encoder refuses a run past 65535
   globally sequenced messages. *)
let write_request w (r : Total_wire.request) =
  W.u8 w tag_request;
  W.u24 w (Net.Node_id.to_int r.sender);
  W.u32 w r.subrun;
  W.u16 w r.processed_upto;
  W.u16 w (List.length r.unsequenced);
  List.iter (Causal.Mid.write w) r.unsequenced;
  write_decision w r.prev_decision

let read_request ~n r =
  let sender = Net.Node_id.of_int (R.u24 r) in
  let subrun = R.u32 r in
  let processed_upto = R.u16 r in
  let count = R.u16 r in
  let unsequenced =
    R.list r ~count ~elt:Causal.Mid.encoded_size Causal.Mid.read
  in
  let prev_decision = read_decision ~n r in
  { Total_wire.sender; subrun; unsequenced; processed_upto; prev_decision }

let encode_body payload body =
  Net.Bytebuf.encode_sized ~who:"Tw_codec" ~size:(Total_wire.body_size body)
    (fun w ->
      match body with
      | Total_wire.Data d -> write_data payload w d
      | Total_wire.Request r -> write_request w r
      | Total_wire.Decision_pdu d ->
          W.u8 w tag_decision;
          W.zeros w 3;
          write_decision w d
      | Total_wire.Recover_req { requester; from_seq; to_seq } ->
          W.u8 w tag_recover_req;
          W.u24 w (Net.Node_id.to_int requester);
          W.u32 w from_seq;
          W.u32 w to_seq;
          W.zeros w 4
      | Total_wire.Recover_reply { responder; messages } ->
          W.u8 w tag_recover_reply;
          W.u24 w (Net.Node_id.to_int responder);
          W.u32 w (List.length messages);
          List.iter
            (fun (seq, d) ->
              W.u32 w seq;
              write_data payload w d)
            messages)

let read_body payload ~n r =
  match R.u8 r with
  | tag when tag = tag_data -> Total_wire.Data (read_data payload r)
  | tag when tag = tag_request -> Total_wire.Request (read_request ~n r)
  | tag when tag = tag_decision ->
      R.skip r 3;
      Total_wire.Decision_pdu (read_decision ~n r)
  | tag when tag = tag_recover_req ->
      let requester = Net.Node_id.of_int (R.u24 r) in
      let from_seq = R.u32 r in
      let to_seq = R.u32 r in
      R.skip r 4;
      Total_wire.Recover_req { requester; from_seq; to_seq }
  | tag when tag = tag_recover_reply ->
      let responder = Net.Node_id.of_int (R.u24 r) in
      let count = R.u32 r in
      let messages =
        R.list r ~count ~elt:(4 + data_header) (fun r ->
            let seq = R.u32 r in
            if R.u8 r <> tag_data then R.fail "recover-reply: expected data";
            (seq, read_data payload r))
      in
      Total_wire.Recover_reply { responder; messages }
  | tag -> R.fail "unknown urgc tag %d" tag

let decode_body payload ~n raw = Net.Bytebuf.decode (read_body payload ~n) raw
