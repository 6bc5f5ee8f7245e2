module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

let tag_data = 1
let tag_heartbeat = 2
let tag_token = 3
let tag_stability = 4
let tag_suspect = 5
let tag_flush_req = 6
let tag_flush_unstable = 7
let tag_new_view = 8

let write_vclock w vt = Array.iter (W.u32 w) (Vclock.to_array vt)
let read_vclock ~n r = Vclock.of_array (R.array r ~count:n ~elt:4 R.u32)

(* Data: tag u8 | sender u24 | view u32 | vt | payload-to-end. *)
let write_data payload w (d : 'a Cb_wire.data) =
  W.u8 w tag_data;
  W.u24 w (Net.Node_id.to_int d.sender);
  W.u32 w d.view_id;
  write_vclock w d.vt;
  W.bytes w (payload.Net.Bytebuf.encode d.payload)

(* The tag has been consumed by the caller. *)
let read_data payload ~n ~payload_len r =
  let sender = Net.Node_id.of_int (R.u24 r) in
  let view_id = R.u32 r in
  let vt = read_vclock ~n r in
  let value = R.result (payload.Net.Bytebuf.decode (R.bytes r payload_len)) in
  { Cb_wire.sender; view_id; vt; payload = value; payload_size = payload_len }

(* Inner retransmitted messages: count u16, then (length u16 | data), where
   length = Cb_wire.data_size = 8 + 4n + payload. *)
let write_msgs payload w msgs =
  W.u16 w (List.length msgs);
  List.iter
    (fun (d : 'a Cb_wire.data) ->
      W.u16 w (Cb_wire.data_size d);
      write_data payload w d)
    msgs

let read_msgs payload ~n r =
  let count = R.u16 r in
  R.list r ~count ~elt:(2 + 8 + (4 * n)) (fun r ->
      let len = R.u16 r in
      if R.u8 r <> tag_data then R.fail "flush: expected a data message";
      let payload_len = len - 8 - (4 * n) in
      if payload_len < 0 then R.fail "flush: message length too small";
      read_data payload ~n ~payload_len r)

(* Flush header: tag u8 | who u24 | view u32 | members bitmap, zero-padded to
   Cb_wire.flush_header n. *)
let bitmap_header n = 8 + ((n + 7) / 8)

let write_flush_header w ~tag ~who ~view_id ~members =
  let n = Array.length members in
  W.u8 w tag;
  W.u24 w who;
  W.u32 w view_id;
  W.bitmap w members;
  W.zeros w (Cb_wire.flush_header n - bitmap_header n)

(* The tag has been consumed by the caller. *)
let read_flush_header ~n r =
  let who = Net.Node_id.of_int (R.u24 r) in
  let view_id = R.u32 r in
  let members = R.bitmap r n in
  R.skip r (Cb_wire.flush_header n - bitmap_header n);
  (who, view_id, members)

let encode_body payload body =
  Net.Bytebuf.encode_sized ~who:"Cb_codec" ~size:(Cb_wire.body_size body)
    (fun w ->
      match body with
      | Cb_wire.Data d -> write_data payload w d
      | Cb_wire.Heartbeat { vt } ->
          W.u8 w tag_heartbeat;
          W.zeros w 3;
          write_vclock w vt
      | Cb_wire.Token { initiator; acc } ->
          W.u8 w tag_token;
          W.u24 w (Net.Node_id.to_int initiator);
          write_vclock w acc
      | Cb_wire.Stability { vt } ->
          W.u8 w tag_stability;
          W.zeros w 3;
          write_vclock w vt
      | Cb_wire.Suspect { suspect; reporter } ->
          W.u8 w tag_suspect;
          W.u24 w (Net.Node_id.to_int reporter);
          W.u32 w (Net.Node_id.to_int suspect)
      | Cb_wire.Flush_req { view_id; members; coordinator } ->
          write_flush_header w ~tag:tag_flush_req
            ~who:(Net.Node_id.to_int coordinator)
            ~view_id ~members
      | Cb_wire.Flush_unstable { view_id; sender; msgs } ->
          W.u8 w tag_flush_unstable;
          W.u24 w (Net.Node_id.to_int sender);
          W.u32 w view_id;
          write_msgs payload w msgs
      | Cb_wire.New_view { view_id; members; retransmit } ->
          write_flush_header w ~tag:tag_new_view ~who:0 ~view_id ~members;
          write_msgs payload w retransmit)

let read_body payload ~n r =
  match R.u8 r with
  | tag when tag = tag_data ->
      (* The payload runs to the end of the datagram. *)
      let payload_len = R.remaining r - 7 - (4 * n) in
      if payload_len < 0 then R.fail "data: too short";
      Cb_wire.Data (read_data payload ~n ~payload_len r)
  | tag when tag = tag_heartbeat ->
      R.skip r 3;
      Cb_wire.Heartbeat { vt = read_vclock ~n r }
  | tag when tag = tag_token ->
      let initiator = Net.Node_id.of_int (R.u24 r) in
      Cb_wire.Token { initiator; acc = read_vclock ~n r }
  | tag when tag = tag_stability ->
      R.skip r 3;
      Cb_wire.Stability { vt = read_vclock ~n r }
  | tag when tag = tag_suspect ->
      let reporter = Net.Node_id.of_int (R.u24 r) in
      let suspect = Net.Node_id.of_int (R.u32 r) in
      Cb_wire.Suspect { suspect; reporter }
  | tag when tag = tag_flush_req ->
      let coordinator, view_id, members = read_flush_header ~n r in
      Cb_wire.Flush_req { view_id; members; coordinator }
  | tag when tag = tag_flush_unstable ->
      let sender = Net.Node_id.of_int (R.u24 r) in
      let view_id = R.u32 r in
      Cb_wire.Flush_unstable { view_id; sender; msgs = read_msgs payload ~n r }
  | tag when tag = tag_new_view ->
      let _who, view_id, members = read_flush_header ~n r in
      Cb_wire.New_view { view_id; members; retransmit = read_msgs payload ~n r }
  | tag -> R.fail "unknown cbcast tag %d" tag

let decode_body payload ~n raw = Net.Bytebuf.decode (read_body payload ~n) raw
