(* urgc codec tests: size model equality, roundtrips.  Hostile input is
   fuzzed with the other codecs in suite_fuzz.ml. *)

let payload = Codec_samples.payload
let sample_decision = Codec_samples.urgc_decision
let bodies n = List.map snd (Codec_samples.urgc_bodies n)

let tests =
  [
    Alcotest.test_case "encoded length equals Total_wire.body_size" `Quick
      (fun () ->
        List.iter
          (fun body ->
            Alcotest.(check int)
              (Format.asprintf "%a" Urgc.Total_wire.pp_body body)
              (Urgc.Total_wire.body_size body)
              (Bytes.length (Urgc.Tw_codec.encode_body payload body)))
          (bodies 5));
    Alcotest.test_case "every PDU roundtrips to identical bytes" `Quick
      (fun () ->
        List.iter
          (fun body ->
            let raw = Urgc.Tw_codec.encode_body payload body in
            match Urgc.Tw_codec.decode_body payload ~n:5 raw with
            | Error e -> Alcotest.failf "decode: %s" e
            | Ok decoded ->
                Alcotest.(check bool)
                  (Format.asprintf "%a" Urgc.Total_wire.pp_body body)
                  true
                  (Bytes.equal raw (Urgc.Tw_codec.encode_body payload decoded)))
          (bodies 5));
    Alcotest.test_case "the assignment window survives the roundtrip" `Quick
      (fun () ->
        let d = sample_decision 5 in
        let raw =
          Urgc.Tw_codec.encode_body payload (Urgc.Total_wire.Decision_pdu d)
        in
        match Urgc.Tw_codec.decode_body payload ~n:5 raw with
        | Ok (Urgc.Total_wire.Decision_pdu d') ->
            Alcotest.(check int) "window size" 3
              (Array.length d'.Urgc.Total_decision.assignments);
            Alcotest.(check (option unit)) "seq 3 binding" (Some ())
              (Option.map (fun _ -> ())
                 (Urgc.Total_decision.assignment d' 3));
            Alcotest.(check (array int)) "acc sentinel survives"
              d.Urgc.Total_decision.acc_processed
              d'.Urgc.Total_decision.acc_processed
        | Ok _ -> Alcotest.fail "wrong variant"
        | Error e -> Alcotest.fail e);
  ]

let suite = [ ("tw_codec", tests) ]
