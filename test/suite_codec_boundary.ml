(* The protocol running over its own wire format: every PDU is encoded to
   bytes and decoded again in flight.  A full scenario over this boundary
   must behave exactly like the direct run (the simulator is deterministic,
   so "exactly" means identical delivery logs). *)

let node n = Net.Node_id.of_int n

let run_cluster ~with_codec ~fault_spec ~seed =
  let n = 6 and k = 3 in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let fault = Net.Fault.create fault_spec ~rng:(Sim.Rng.split rng) in
  let net = Net.Netsim.create engine ~fault ~rng:(Sim.Rng.split rng) () in
  let medium =
    let base = Urcgc.Medium.of_netsim net in
    if with_codec then
      Urcgc.Medium.with_codec Urcgc.Wire_codec.string_payload base
    else base
  in
  let config = Urcgc.Config.make ~k ~n () in
  let cluster = Urcgc.Cluster.create_with_medium ~config ~medium () in
  let produced = ref 0 in
  Urcgc.Cluster.on_round cluster (fun ~round:_ ->
      List.iter
        (fun nd ->
          if !produced < 40 && Sim.Rng.bool rng 0.5 then begin
            incr produced;
            (* String payloads whose length always matches the declared
               payload size. *)
            let text = Printf.sprintf "message-%04d" !produced in
            Urcgc.Cluster.submit ~size:(String.length text) cluster nd text
          end)
        (Net.Node_id.group n));
  Urcgc.Cluster.start cluster;
  Sim.Engine.run engine ~until:(Sim.Ticks.of_rtd 40.0);
  List.map
    (fun { Urcgc.Cluster.node; msg; at } ->
      ( Net.Node_id.to_int node,
        Format.asprintf "%a" Causal.Mid.pp msg.Causal.Causal_msg.mid,
        msg.Causal.Causal_msg.payload,
        Sim.Ticks.to_int at ))
    (Urcgc.Cluster.deliveries cluster)

let tests =
  [
    Alcotest.test_case
      "a reliable run over the codec boundary is byte-for-byte identical"
      `Slow (fun () ->
        let direct =
          run_cluster ~with_codec:false ~fault_spec:Net.Fault.reliable ~seed:3
        in
        let boundary =
          run_cluster ~with_codec:true ~fault_spec:Net.Fault.reliable ~seed:3
        in
        Alcotest.(check int) "same delivery count" (List.length direct)
          (List.length boundary);
        Alcotest.(check bool) "identical logs" true (direct = boundary));
    Alcotest.test_case
      "a faulty run (crash + omission) over the codec boundary is identical"
      `Slow (fun () ->
        let fault_spec =
          Net.Fault.with_crashes
            [ (node 2, Sim.Ticks.of_int 401) ]
            (Net.Fault.omission_every 120)
        in
        let direct = run_cluster ~with_codec:false ~fault_spec ~seed:8 in
        let boundary = run_cluster ~with_codec:true ~fault_spec ~seed:8 in
        Alcotest.(check bool) "identical logs" true (direct = boundary);
        Alcotest.(check bool) "nontrivial run" true (List.length direct > 100));
  ]

(* -- decode-error cases: short and oversized buffers --------------------

   Every sample frame of every codec must reject truncation (any strict
   prefix of a valid encoding) and trailing garbage with Error, never Ok on
   partial data.  The recover-reply case is the nasty one: its payload is a
   list of self-delimiting data messages, so a buffer cut exactly at a
   message boundary used to decode Ok with silently fewer messages.

   CBCAST data is the documented exception (Cb_codec.decode_body): its
   payload has no length field and runs to the end of the datagram, so a
   prefix that keeps the 8 + 4n-byte header, or an extension, decodes Ok
   with a shorter or longer payload. *)

let mid_ = Codec_samples.mid
let msg_ = Codec_samples.urcgc_msg

let decode_error_tests =
  List.concat_map
    (fun (c : Codec_samples.codec) ->
      let decodes_ok raw = Result.is_ok (c.decode raw) in
      List.concat_map
        (fun (label, raw) ->
          let name = Printf.sprintf "%s %s" c.name label in
          let open_ended = c.name = "cbcast" && label = "data" in
          let header = 8 + (4 * Codec_samples.n) in
          let prefix_ok len = open_ended && len >= header in
          [
            Alcotest.test_case
              (name
              ^
              if open_ended then " decodes prefixes that keep its header"
              else " rejects every strict prefix")
              `Quick
              (fun () ->
                Alcotest.(check bool) "full buffer decodes" true
                  (decodes_ok raw);
                for len = 0 to Bytes.length raw - 1 do
                  if decodes_ok (Bytes.sub raw 0 len) <> prefix_ok len then
                    Alcotest.failf "prefix of %d/%d bytes: wrong verdict" len
                      (Bytes.length raw)
                done);
            Alcotest.test_case
              (name
              ^
              if open_ended then " reads a trailing byte as payload"
              else " rejects a trailing byte")
              `Quick
              (fun () ->
                let oversized = Bytes.extend raw 0 1 in
                Bytes.set oversized (Bytes.length raw) '\x00';
                Alcotest.(check bool) "oversized decodes" open_ended
                  (decodes_ok oversized));
          ])
        c.samples)
    Codec_samples.codecs
  @ [
      Alcotest.test_case
        "recover_reply truncated at a message boundary is an error" `Quick
        (fun () ->
          let payload = Urcgc.Wire_codec.string_payload in
          let one = msg_ 3 1 "a" in
          let two = msg_ ~deps:[ mid_ 3 1 ] 3 2 "bb" in
          let full =
            Urcgc.Wire_codec.encode_body payload
              (Urcgc.Wire.Recover_reply
                 { responder = node 1; messages = [ one; two ] })
          in
          let only_first =
            Urcgc.Wire_codec.encode_body payload
              (Urcgc.Wire.Recover_reply
                 { responder = node 1; messages = [ one ] })
          in
          (* Cut the two-message reply exactly where the one-message reply
             ends: a clean inter-message boundary, not mid-field. *)
          let cut = Bytes.sub full 0 (Bytes.length only_first) in
          match Urcgc.Wire_codec.decode_body payload ~n:6 cut with
          | Ok _ -> Alcotest.fail "boundary-truncated reply decoded Ok"
          | Error reason ->
              Alcotest.(check bool)
                (Printf.sprintf "diagnosis mentions truncation: %S" reason)
                true
                (Astring_contains.contains reason "truncated"));
      Alcotest.test_case "recover_reply round-trips through the new framing"
        `Quick (fun () ->
          let payload = Urcgc.Wire_codec.string_payload in
          let messages = [ msg_ 3 1 "a"; msg_ ~deps:[ mid_ 3 1 ] 3 2 "bb" ] in
          let body =
            Urcgc.Wire.Recover_reply { responder = node 1; messages }
          in
          let raw = Urcgc.Wire_codec.encode_body payload body in
          Alcotest.(check int)
            "encoded length still matches Wire.body_size"
            (Urcgc.Wire.body_size body)
            (Bytes.length raw);
          match Urcgc.Wire_codec.decode_body payload ~n:6 raw with
          | Ok (Urcgc.Wire.Recover_reply { responder; messages = decoded }) ->
              Alcotest.(check int) "responder" 1 (Net.Node_id.to_int responder);
              Alcotest.(check int) "count" 2 (List.length decoded)
          | Ok _ -> Alcotest.fail "decoded to a different body"
          | Error reason -> Alcotest.failf "round-trip failed: %s" reason);
    ]

(* -- dependency-frame edges: empty and the u16 count boundary ------------ *)

let dep_frame_tests =
  let payload = Urcgc.Wire_codec.string_payload in
  [
    Alcotest.test_case "empty-deps data frame round-trips" `Quick (fun () ->
        let body = Urcgc.Wire.Data (msg_ 1 1 "solo") in
        let raw = Urcgc.Wire_codec.encode_body payload body in
        Alcotest.(check int) "length matches Wire.body_size"
          (Urcgc.Wire.body_size body)
          (Bytes.length raw);
        match Urcgc.Wire_codec.decode_body payload ~n:6 raw with
        | Ok (Urcgc.Wire.Data msg) ->
            Alcotest.(check int) "no deps" 0
              (Array.length msg.Causal.Causal_msg.deps);
            Alcotest.(check string) "payload" "solo"
              msg.Causal.Causal_msg.payload
        | Ok _ -> Alcotest.fail "decoded to a different body"
        | Error reason -> Alcotest.failf "round-trip failed: %s" reason);
    Alcotest.test_case "65535 deps (u16 max) round-trips" `Slow (fun () ->
        (* Distinct origins, as the causal model requires: origin o depends
           on at most one outstanding message. *)
        let deps = Array.init 65535 (fun o -> mid_ o 1) in
        let msg =
          Causal.Causal_msg.of_sorted_deps
            ~mid:(mid_ 70000 1) ~deps ~payload_size:1 "x"
        in
        let raw = Urcgc.Wire_codec.encode_body payload (Urcgc.Wire.Data msg) in
        match Urcgc.Wire_codec.decode_body payload ~n:6 raw with
        | Ok (Urcgc.Wire.Data decoded) ->
            Alcotest.(check int) "all deps back" 65535
              (Array.length decoded.Causal.Causal_msg.deps);
            Alcotest.(check bool) "deps identical" true
              (decoded.Causal.Causal_msg.deps = deps)
        | Ok _ -> Alcotest.fail "decoded to a different body"
        | Error reason -> Alcotest.failf "round-trip failed: %s" reason);
    Alcotest.test_case "65536 deps do not fit the u16 count field" `Slow
      (fun () ->
        let deps = Array.init 65536 (fun o -> mid_ o 1) in
        let msg =
          Causal.Causal_msg.of_sorted_deps
            ~mid:(mid_ 70000 1) ~deps ~payload_size:1 "x"
        in
        match Urcgc.Wire_codec.encode_body payload (Urcgc.Wire.Data msg) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "overflowing dep count encoded without error");
    Alcotest.test_case "an out-of-order dep frame decodes to Error" `Quick
      (fun () ->
        (* Deps sorted descending on the wire: the encoder never produces
           this, so the decoder must flag it rather than re-sort. *)
        let good =
          Urcgc.Wire_codec.encode_body payload
            (Urcgc.Wire.Data (msg_ ~deps:[ mid_ 0 1; mid_ 2 1 ] 1 5 "x"))
        in
        (* Swap the two 8-byte dep records in place (they start right after
           the 12-byte data header). *)
        let swapped = Bytes.copy good in
        Bytes.blit good 12 swapped 20 8;
        Bytes.blit good 20 swapped 12 8;
        match Urcgc.Wire_codec.decode_body payload ~n:6 swapped with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unsorted dep frame decoded Ok");
  ]

(* -- hostile counts: a count field the frame cannot back ------------------

   A short frame claiming a huge element count must decode to Error
   without allocating for the claim: the count is checked against the
   bytes left before any array or list is built. *)

let frame write =
  let w = Net.Bytebuf.Writer.create () in
  write w;
  Net.Bytebuf.Writer.contents w

let rejected_cheaply decode raw () =
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let before = words () in
  let verdict = decode raw in
  let used = words () -. before in
  Alcotest.(check bool) "decodes to Error" true (Result.is_error verdict);
  if used >= 1000.0 then Alcotest.failf "allocated %.0f words" used

let urcgc_decode raw =
  Urcgc.Wire_codec.decode_body Urcgc.Wire_codec.string_payload ~n:6 raw

let urgc_decode raw =
  Urgc.Tw_codec.decode_body Net.Bytebuf.string_codec ~n:5 raw

let hostile_count_tests =
  let module W = Net.Bytebuf.Writer in
  [
    Alcotest.test_case "urcgc data frame claiming 65535 deps" `Quick
      (rejected_cheaply urcgc_decode
         (frame (fun w ->
              (* 12-byte header with dep count 65535, then one dep. *)
              W.u8 w 1;
              W.u24 w 1;
              W.u32 w 5;
              W.u16 w 65535;
              W.u16 w 0;
              W.u32 w 0;
              W.u32 w 1)));
    Alcotest.test_case "urgc decision window of 2^32 - 1 mids" `Quick
      (rejected_cheaply urgc_decode
         (frame (fun w ->
              W.u8 w 3;
              W.u24 w 0;
              W.u32 w 1;
              W.u32 w 0;
              W.u32 w 0xFFFFFFFF (* next_seq *);
              W.u32 w 0 (* first_assigned *);
              W.u32 w 0;
              W.u8 w 0;
              W.u32 w 0;
              W.u32 w 1)));
    Alcotest.test_case "urgc recover reply claiming 2^32 - 1 messages" `Quick
      (rejected_cheaply urgc_decode
         (frame (fun w ->
              W.u8 w 5;
              W.u24 w 1;
              W.u32 w 0xFFFFFFFF;
              (* one message: seq, then a 12-byte data header *)
              W.u32 w 1;
              W.u8 w 1;
              W.u24 w 0;
              W.u32 w 1;
              W.u16 w 0;
              W.u16 w 0)));
  ]

let suite =
  [
    ("codec.boundary", tests);
    ("codec.decode_errors", decode_error_tests);
    ("codec.dep_frames", dep_frame_tests);
    ("codec.hostile_counts", hostile_count_tests);
  ]
