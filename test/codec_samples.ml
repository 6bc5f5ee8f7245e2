(* Sample PDUs of all four wire codecs, named, shared by the size,
   roundtrip, boundary, fuzz and wire-vector tests.  Every sample decodes
   with the group size [n] of its codec. *)

let node n = Net.Node_id.of_int n
let mid o s = Causal.Mid.make ~origin:(node o) ~seq:s
let payload = Net.Bytebuf.string_codec

(* -- urcgc ---------------------------------------------------------------- *)

let urcgc_msg ?(deps = []) o s text =
  Causal.Causal_msg.make ~mid:(mid o s) ~deps ~payload_size:(String.length text)
    text

let urcgc_decision n =
  {
    Urcgc.Decision.subrun = 7;
    coordinator = node (n - 1);
    full_group = true;
    stable = Array.init n (fun i -> i * 3);
    max_processed = Array.init n (fun i -> (i * 5) + 1);
    most_updated = Array.init n (fun i -> node ((i + 1) mod n));
    min_waiting = Array.init n (fun i -> if i mod 2 = 0 then 0 else i);
    attempts = Array.init n (fun i -> i mod 3);
    alive = Array.init n (fun i -> i mod 4 <> 3);
    heard = Array.init n (fun i -> i mod 2 = 0);
    acc_stable = Array.init n (fun i -> if i = 0 then max_int else i);
    acc_min_waiting = Array.init n (fun i -> i);
  }

let urcgc_request n =
  {
    Urcgc.Wire.sender = node 2;
    subrun = 9;
    last_processed = Array.init n (fun i -> i * 2);
    waiting =
      Array.init n (fun i ->
          if i mod 3 = 0 then Some (mid i (i + 1)) else None);
    prev_decision = urcgc_decision n;
  }

let urcgc_bodies n : (string * string Urcgc.Wire.body) list =
  [
    ("data", Urcgc.Wire.Data (urcgc_msg 1 4 "hello world"));
    ( "data_deps",
      Urcgc.Wire.Data (urcgc_msg ~deps:[ mid 0 2; mid 2 9 ] 1 5 "") );
    ("request", Urcgc.Wire.Request (urcgc_request n));
    ("decision", Urcgc.Wire.Decision_pdu (urcgc_decision n));
    ( "recover_req",
      Urcgc.Wire.Recover_req
        { requester = node 0; origin = node 3; from_seq = 4; to_seq = 19 } );
    ( "recover_reply",
      Urcgc.Wire.Recover_reply
        {
          responder = node 1;
          messages =
            [ urcgc_msg 3 1 "a"; urcgc_msg ~deps:[ mid 3 1 ] 3 2 "bb" ];
        } );
  ]

(* -- CBCAST ---------------------------------------------------------------- *)

let cb_vt = Cbcast.Vclock.of_array

let cb_data ?(view = 0) sender vt_arr text =
  {
    Cbcast.Cb_wire.sender = node sender;
    view_id = view;
    vt = cb_vt vt_arr;
    payload = text;
    payload_size = String.length text;
  }

let cbcast_bodies : (string * string Cbcast.Cb_wire.body) list =
  [
    ("data", Cbcast.Cb_wire.Data (cb_data 1 [| 0; 3; 0; 0; 2 |] "payload!"));
    ("heartbeat", Cbcast.Cb_wire.Heartbeat { vt = cb_vt [| 1; 2; 3; 4; 5 |] });
    ( "token",
      Cbcast.Cb_wire.Token
        { initiator = node 2; acc = cb_vt [| 9; 9; 9; 9; 9 |] } );
    ("stability", Cbcast.Cb_wire.Stability { vt = cb_vt [| 4; 4; 4; 4; 4 |] });
    ("suspect", Cbcast.Cb_wire.Suspect { suspect = node 3; reporter = node 0 });
    ( "flush_req",
      Cbcast.Cb_wire.Flush_req
        {
          view_id = 2;
          members = [| true; true; false; true; true |];
          coordinator = node 0;
        } );
    ( "flush_unstable",
      Cbcast.Cb_wire.Flush_unstable
        {
          view_id = 2;
          sender = node 4;
          msgs =
            [
              cb_data 4 [| 0; 0; 0; 0; 1 |] "a";
              cb_data 4 [| 0; 0; 0; 0; 2 |] "";
            ];
        } );
    ( "flush_unstable_empty",
      Cbcast.Cb_wire.Flush_unstable
        { view_id = 2; sender = node 4; msgs = [] } );
    ( "new_view",
      Cbcast.Cb_wire.New_view
        {
          view_id = 2;
          members = [| true; true; false; true; true |];
          retransmit = [ cb_data 1 [| 0; 7; 0; 0; 0 |] "late one" ];
        } );
  ]

(* -- urgc ------------------------------------------------------------------ *)

let urgc_data o s text =
  {
    Urgc.Total_wire.mid = mid o s;
    payload = text;
    payload_size = String.length text;
  }

let urgc_decision n =
  {
    Urgc.Total_decision.subrun = 4;
    coordinator = node 1;
    next_seq = 5;
    first_assigned = 2;
    assignments = [| mid 0 1; mid 2 1; mid 1 3 |];
    stable_seq = 1;
    full_group = true;
    attempts = Array.init n (fun i -> i mod 2);
    alive = Array.init n (fun i -> i <> 2);
    heard = Array.init n (fun i -> i mod 2 = 0);
    acc_processed = Array.init n (fun i -> if i = 0 then max_int else i);
  }

let urgc_bodies n : (string * string Urgc.Total_wire.body) list =
  [
    ("data", Urgc.Total_wire.Data (urgc_data 1 4 "entry"));
    ( "request",
      Urgc.Total_wire.Request
        {
          sender = node 2;
          subrun = 6;
          unsequenced = [ mid 0 2; mid 3 1 ];
          processed_upto = 3;
          prev_decision = urgc_decision n;
        } );
    ("decision", Urgc.Total_wire.Decision_pdu (urgc_decision n));
    ( "recover_req",
      Urgc.Total_wire.Recover_req
        { requester = node 0; from_seq = 2; to_seq = 9 } );
    ( "recover_reply",
      Urgc.Total_wire.Recover_reply
        {
          responder = node 1;
          messages = [ (2, urgc_data 0 1 "a"); (3, urgc_data 2 1 "") ];
        } );
  ]

(* -- Psync ----------------------------------------------------------------- *)

let ps_mid s q = { Psync.Context_graph.sender = node s; seq = q }

let ps_node ?(preds = []) s q text =
  {
    Psync.Context_graph.mid = ps_mid s q;
    preds;
    payload = text;
    payload_size = String.length text;
  }

let psync_bodies : (string * string Psync.Wire.body) list =
  [
    ( "msg",
      Psync.Wire.Msg (ps_node ~preds:[ ps_mid 0 1; ps_mid 2 4 ] 1 2 "stroke") );
    ("msg_empty", Psync.Wire.Msg (ps_node 3 1 ""));
    ( "retrans_req",
      Psync.Wire.Retrans_req { requester = node 2; wanted = ps_mid 0 9 } );
    ( "retrans_reply",
      Psync.Wire.Retrans_reply (ps_node ~preds:[ ps_mid 1 1 ] 0 2 "again") );
    ("keepalive", Psync.Wire.Keepalive);
    ("mask_out", Psync.Wire.Mask_out { target = node 3; initiator = node 0 });
    ("mask_ack", Psync.Wire.Mask_ack { target = node 3 });
    ("mask_done", Psync.Wire.Mask_done { target = node 3 });
  ]

(* -- the four codecs, type-erased ----------------------------------------- *)

type codec = {
  name : string;
  samples : (string * bytes) list;  (** named encodings *)
  decode : bytes -> (unit, string) result;
}

let erase name encode decode bodies =
  {
    name;
    samples = List.map (fun (label, body) -> (label, encode body)) bodies;
    decode = (fun raw -> Result.map ignore (decode raw));
  }

let n = 5

let codecs =
  [
    erase "urcgc"
      (Urcgc.Wire_codec.encode_body payload)
      (Urcgc.Wire_codec.decode_body payload ~n)
      (urcgc_bodies n);
    erase "cbcast"
      (Cbcast.Cb_codec.encode_body payload)
      (Cbcast.Cb_codec.decode_body payload ~n)
      cbcast_bodies;
    erase "urgc"
      (Urgc.Tw_codec.encode_body payload)
      (Urgc.Tw_codec.decode_body payload ~n)
      (urgc_bodies n);
    erase "psync"
      (Psync.Ps_codec.encode_body payload)
      (Psync.Ps_codec.decode_body payload)
      psync_bodies;
  ]

let hex raw =
  String.concat ""
    (List.init (Bytes.length raw) (fun i ->
         Printf.sprintf "%02x" (Bytes.get_uint8 raw i)))

(* One line per sample: codec, sample name, hex of its encoding. *)
let vectors () =
  String.concat ""
    (List.concat_map
       (fun c ->
         List.map
           (fun (label, raw) ->
             Printf.sprintf "%s %s %s\n" c.name label (hex raw))
           c.samples)
       codecs)
