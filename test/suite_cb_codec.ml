(* CBCAST codec tests: encoded length = Cb_wire.body_size (the measurement
   behind Table 1's CBCAST rows), lossless roundtrips, hostile input. *)

let node = Codec_samples.node
let payload = Codec_samples.payload
let data = Codec_samples.cb_data
let bodies = List.map snd Codec_samples.cbcast_bodies

let size_tests =
  [
    Alcotest.test_case "encoded length equals Cb_wire.body_size for every PDU"
      `Quick (fun () ->
        List.iter
          (fun body ->
            let raw = Cbcast.Cb_codec.encode_body payload body in
            Alcotest.(check int)
              (Format.asprintf "%a" Cbcast.Cb_wire.pp_body body)
              (Cbcast.Cb_wire.body_size body) (Bytes.length raw))
          bodies);
    Alcotest.test_case "heartbeat size is the paper's 4(n+1)" `Quick (fun () ->
        let hb =
          Cbcast.Cb_wire.Heartbeat { vt = Cbcast.Vclock.create ~n:15 }
        in
        Alcotest.(check int) "64" 64
          (Bytes.length (Cbcast.Cb_codec.encode_body payload hb)));
    Alcotest.test_case "flush header is the paper's 4(n-1) for usual n" `Quick
      (fun () ->
        let req =
          Cbcast.Cb_wire.Flush_req
            { view_id = 1; members = Array.make 15 true; coordinator = node 0 }
        in
        Alcotest.(check int) "56" 56
          (Bytes.length (Cbcast.Cb_codec.encode_body payload req)));
  ]

let roundtrip_tests =
  [
    Alcotest.test_case "every PDU kind roundtrips to identical bytes" `Quick
      (fun () ->
        List.iter
          (fun body ->
            let raw = Cbcast.Cb_codec.encode_body payload body in
            match Cbcast.Cb_codec.decode_body payload ~n:5 raw with
            | Error e ->
                Alcotest.failf "decode %a: %s" Cbcast.Cb_wire.pp_body body e
            | Ok decoded ->
                Alcotest.(check bool)
                  (Format.asprintf "%a" Cbcast.Cb_wire.pp_body body)
                  true
                  (Bytes.equal raw (Cbcast.Cb_codec.encode_body payload decoded)))
          bodies);
    Alcotest.test_case "flush payloads survive the roundtrip" `Quick (fun () ->
        let body =
          Cbcast.Cb_wire.Flush_unstable
            {
              view_id = 7;
              sender = node 3;
              msgs =
                [ data ~view:7 3 [| 1; 2; 3; 4; 5 |] "hello"; data 3 [| 0; 0; 0; 1; 0 |] "x" ];
            }
        in
        let raw = Cbcast.Cb_codec.encode_body payload body in
        match Cbcast.Cb_codec.decode_body payload ~n:5 raw with
        | Ok (Cbcast.Cb_wire.Flush_unstable { msgs; view_id; _ }) ->
            Alcotest.(check int) "view" 7 view_id;
            Alcotest.(check (list string)) "payloads" [ "hello"; "x" ]
              (List.map (fun (d : _ Cbcast.Cb_wire.data) -> d.payload) msgs)
        | Ok _ -> Alcotest.fail "wrong variant"
        | Error e -> Alcotest.fail e);
  ]

let hostile_tests =
  [
    Alcotest.test_case "truncated vclock is an error" `Quick (fun () ->
        let raw =
          Cbcast.Cb_codec.encode_body payload
            (Cbcast.Cb_wire.Heartbeat { vt = Cbcast.Vclock.create ~n:5 })
        in
        match
          Cbcast.Cb_codec.decode_body payload ~n:5
            (Bytes.sub raw 0 (Bytes.length raw - 2))
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted truncated input");
    Alcotest.test_case "wrong group size is an error" `Quick (fun () ->
        let raw =
          Cbcast.Cb_codec.encode_body payload
            (Cbcast.Cb_wire.Heartbeat { vt = Cbcast.Vclock.create ~n:5 })
        in
        match Cbcast.Cb_codec.decode_body payload ~n:8 raw with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted size mismatch");
    Alcotest.test_case "garbage tag is an error" `Quick (fun () ->
        match
          Cbcast.Cb_codec.decode_body payload ~n:5 (Bytes.make 24 '\xAB')
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted garbage");
  ]

let suite =
  [
    ("cb_codec.sizes", size_tests);
    ("cb_codec.roundtrip", roundtrip_tests);
    ("cb_codec.hostile", hostile_tests);
  ]
