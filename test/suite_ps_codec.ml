(* Psync codec tests: size model equality, roundtrips.  Hostile input is
   fuzzed with the other codecs in suite_fuzz.ml. *)

let payload = Codec_samples.payload
let mid = Codec_samples.ps_mid
let cg = Codec_samples.ps_node
let bodies = List.map snd Codec_samples.psync_bodies

let tests =
  [
    Alcotest.test_case "encoded length equals Wire.body_size" `Quick (fun () ->
        List.iter
          (fun body ->
            Alcotest.(check int)
              (Format.asprintf "%a" Psync.Wire.pp_body body)
              (Psync.Wire.body_size body)
              (Bytes.length (Psync.Ps_codec.encode_body payload body)))
          bodies);
    Alcotest.test_case "every PDU roundtrips to identical bytes" `Quick
      (fun () ->
        List.iter
          (fun body ->
            let raw = Psync.Ps_codec.encode_body payload body in
            match Psync.Ps_codec.decode_body payload raw with
            | Error e -> Alcotest.failf "decode: %s" e
            | Ok decoded ->
                Alcotest.(check bool)
                  (Format.asprintf "%a" Psync.Wire.pp_body body)
                  true
                  (Bytes.equal raw
                     (Psync.Ps_codec.encode_body payload decoded)))
          bodies);
    Alcotest.test_case "predecessors survive the roundtrip" `Quick (fun () ->
        let body = Psync.Wire.Msg (cg ~preds:[ mid 0 1; mid 2 4 ] 1 2 "s") in
        match
          Psync.Ps_codec.decode_body payload
            (Psync.Ps_codec.encode_body payload body)
        with
        | Ok (Psync.Wire.Msg node) ->
            Alcotest.(check int) "2 preds" 2
              (List.length node.Psync.Context_graph.preds)
        | Ok _ -> Alcotest.fail "wrong variant"
        | Error e -> Alcotest.fail e);
  ]

let suite = [ ("ps_codec", tests) ]
