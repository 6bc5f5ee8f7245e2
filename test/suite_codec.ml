(* Tests for the binary wire codec: the encoded length of every PDU must be
   exactly Wire.body_size (Table 1's byte accounting is measured from these
   formulas), roundtrips must be lossless, and hostile input must be
   rejected with Error, never an exception. *)

open Codec_samples
module W = Net.Bytebuf.Writer
module R = Net.Bytebuf.Reader

let msg = urcgc_msg
let sample_decision = urcgc_decision
let bodies n = List.map snd (urcgc_bodies n)

let bytes_t =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%d bytes" (Bytes.length b))
    Bytes.equal

let roundtrip body =
  let raw = Urcgc.Wire_codec.encode_body payload body in
  match Urcgc.Wire_codec.decode_body payload ~n:5 raw with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded ->
      let again = Urcgc.Wire_codec.encode_body payload decoded in
      Alcotest.(check bytes_t) "re-encoding is identical" raw again

let size_tests =
  [
    Alcotest.test_case "encoded length equals Wire.body_size for every PDU"
      `Quick (fun () ->
        List.iter
          (fun body ->
            let raw = Urcgc.Wire_codec.encode_body payload body in
            Alcotest.(check int)
              (Format.asprintf "%a" Urcgc.Wire.pp_body body)
              (Urcgc.Wire.body_size body) (Bytes.length raw))
          (bodies 5));
    Alcotest.test_case "decision codec matches Decision.encoded_size" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let d = sample_decision n in
            Alcotest.(check int)
              (Printf.sprintf "n=%d" n)
              (Urcgc.Decision.encoded_size d)
              (Bytes.length (Urcgc.Wire_codec.encode_decision d)))
          [ 1; 5; 8; 15; 40 ]);
    Alcotest.test_case "payload_size lies are rejected at encode time" `Quick
      (fun () ->
        let lying =
          Causal.Causal_msg.make ~mid:(mid 0 1) ~deps:[] ~payload_size:99
            "short"
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Urcgc.Wire_codec.encode_body payload (Urcgc.Wire.Data lying));
             false
           with Invalid_argument _ -> true));
  ]

let roundtrip_tests =
  [
    Alcotest.test_case "every PDU kind roundtrips losslessly" `Quick (fun () ->
        List.iter roundtrip (bodies 5));
    Alcotest.test_case "decision fields survive the roundtrip" `Quick (fun () ->
        let d = sample_decision 7 in
        let raw = Urcgc.Wire_codec.encode_decision d in
        match Urcgc.Wire_codec.decode_decision ~n:7 raw with
        | Error e -> Alcotest.failf "decode: %s" e
        | Ok d' ->
            Alcotest.(check int) "subrun" d.Urcgc.Decision.subrun
              d'.Urcgc.Decision.subrun;
            Alcotest.(check bool) "full_group" d.Urcgc.Decision.full_group
              d'.Urcgc.Decision.full_group;
            Alcotest.(check (array int)) "stable" d.Urcgc.Decision.stable
              d'.Urcgc.Decision.stable;
            Alcotest.(check (array int)) "acc_stable (sentinel)"
              d.Urcgc.Decision.acc_stable d'.Urcgc.Decision.acc_stable;
            Alcotest.(check (array bool)) "alive" d.Urcgc.Decision.alive
              d'.Urcgc.Decision.alive;
            Alcotest.(check (array bool)) "heard" d.Urcgc.Decision.heard
              d'.Urcgc.Decision.heard);
  ]

let hostile_tests =
  [
    Alcotest.test_case "unknown tag is an error" `Quick (fun () ->
        match
          Urcgc.Wire_codec.decode_body payload ~n:5 (Bytes.make 4 '\xee')
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted garbage");
    Alcotest.test_case "truncated input is an error" `Quick (fun () ->
        let raw =
          Urcgc.Wire_codec.encode_body payload
            (Urcgc.Wire.Decision_pdu (sample_decision 5))
        in
        let truncated = Bytes.sub raw 0 (Bytes.length raw - 3) in
        match Urcgc.Wire_codec.decode_body payload ~n:5 truncated with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted truncated input");
    Alcotest.test_case "trailing bytes are an error" `Quick (fun () ->
        let raw =
          Urcgc.Wire_codec.encode_body payload (Urcgc.Wire.Data (msg 0 1 "x"))
        in
        let padded = Bytes.cat raw (Bytes.make 2 '\x00') in
        match Urcgc.Wire_codec.decode_body payload ~n:5 padded with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted trailing bytes");
    Alcotest.test_case "zero sequence number is rejected" `Quick (fun () ->
        (* Hand-craft a data PDU with seq = 0. *)
        let w = W.create () in
        W.u8 w 1;
        W.u24 w 0;
        W.u32 w 0;
        W.u16 w 0;
        W.u16 w 0;
        match
          Urcgc.Wire_codec.decode_body payload ~n:5
            (W.contents w)
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted seq 0");
    Alcotest.test_case "empty input is an error" `Quick (fun () ->
        match Urcgc.Wire_codec.decode_body payload ~n:5 Bytes.empty with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted empty input");
  ]

let decoded = function Ok v -> v | Error e -> Alcotest.fail e

let is_error = function Ok _ -> false | Error _ -> true

let written write =
  let w = W.create () in
  write w;
  W.contents w

let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let bytebuf_tests =
  [
    Alcotest.test_case "integers roundtrip at width boundaries" `Quick
      (fun () ->
        let raw =
          written (fun w ->
              W.u8 w 255;
              W.u16 w 65535;
              W.u24 w 0xFFFFFF;
              W.u32 w 0xFFFFFFFF)
        in
        let read r =
          let a = R.u8 r in
          let b = R.u16 r in
          let c = R.u24 r in
          let d = R.u32 r in
          (a, b, c, d)
        in
        let a, b, c, d = decoded (Net.Bytebuf.decode read raw) in
        Alcotest.(check int) "u8" 255 a;
        Alcotest.(check int) "u16" 65535 b;
        Alcotest.(check int) "u24" 0xFFFFFF c;
        Alcotest.(check int) "u32" 0xFFFFFFFF d);
    Alcotest.test_case "writer rejects out-of-range" `Quick (fun () ->
        let w = W.create () in
        Alcotest.(check bool) "u8 256" true
          (try
             W.u8 w 256;
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "negative" true
          (try
             W.u16 w (-1);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "bitmap roundtrips odd sizes" `Quick (fun () ->
        List.iter
          (fun n ->
            let flags = Array.init n (fun i -> i mod 3 = 0) in
            let w = W.create () in
            W.bitmap w flags;
            Alcotest.(check int) "packed size" ((n + 7) / 8) (W.length w);
            Alcotest.(check (array bool)) "flags" flags
              (decoded
                 (Net.Bytebuf.decode (fun r -> R.bitmap r n) (W.contents w))))
          [ 1; 7; 8; 9; 15; 40 ]);
    (let encode w i =
       (* A representative mixed-width frame, parameterized so successive
          encodes into a reused writer produce different bytes. *)
       W.u8 w (i land 0xFF);
       W.u16 w (i * 7);
       W.u24 w (i * 131);
       W.u32 w (i * 65537);
       W.bytes w (Bytes.make 5 (Char.chr (97 + (i mod 26))));
       W.bitmap w (Array.init 11 (fun b -> (b + i) mod 2 = 0));
       W.contents w
     in
     Alcotest.test_case "clear-then-encode matches a fresh writer" `Quick
       (fun () ->
         let reused = W.create ~capacity:8 () in
         for i = 0 to 40 do
           W.clear reused;
           let fresh = W.create () in
           let expected = encode fresh i in
           let got = encode reused i in
           Alcotest.(check bool)
             (Printf.sprintf "frame %d identical" i)
             true
             (Bytes.equal expected got)
         done));
    Alcotest.test_case "clear empties the writer" `Quick (fun () ->
        let w = W.create () in
        W.u32 w 0xDEADBEEF;
        Alcotest.(check int) "filled" 4 (W.length w);
        W.clear w;
        Alcotest.(check int) "cleared" 0 (W.length w);
        Alcotest.(check int) "empty contents" 0 (Bytes.length (W.contents w)));
    Alcotest.test_case "decode rejects truncation and trailing bytes" `Quick
      (fun () ->
        let read r = R.u16 r in
        Alcotest.(check int) "exact" 0x0102
          (decoded (Net.Bytebuf.decode read (Bytes.of_string "\001\002")));
        Alcotest.(check bool) "short" true
          (is_error (Net.Bytebuf.decode read (Bytes.of_string "\001")));
        Alcotest.(check bool) "long" true
          (is_error
             (Net.Bytebuf.decode read (Bytes.of_string "\001\002\003"))));
    Alcotest.test_case "zeros and skip frame pad fields" `Quick (fun () ->
        let raw =
          written (fun w ->
              W.u8 w 7;
              W.zeros w 3;
              W.u8 w 9)
        in
        Alcotest.(check string) "wire" "\007\000\000\000\009"
          (Bytes.to_string raw);
        let read r =
          let a = R.u8 r in
          R.skip r 3;
          (a, R.u8 r)
        in
        Alcotest.(check (pair int int)) "fields" (7, 9)
          (decoded (Net.Bytebuf.decode read raw));
        Alcotest.(check bool) "skip past the end" true
          (is_error (Net.Bytebuf.decode (fun r -> R.skip r 6) raw)));
    Alcotest.test_case "array and list keep wire order" `Quick (fun () ->
        let raw = written (fun w -> List.iter (W.u16 w) [ 3; 1; 2 ]) in
        Alcotest.(check (array int)) "array" [| 3; 1; 2 |]
          (decoded
             (Net.Bytebuf.decode
                (fun r -> R.array r ~count:3 ~elt:2 R.u16)
                raw));
        Alcotest.(check (list int)) "list" [ 3; 1; 2 ]
          (decoded
             (Net.Bytebuf.decode
                (fun r -> R.list r ~count:3 ~elt:2 R.u16)
                raw));
        Alcotest.(check (array int)) "empty" [||]
          (decoded
             (Net.Bytebuf.decode
                (fun r -> R.array r ~count:0 ~elt:2 R.u16)
                Bytes.empty)));
    Alcotest.test_case "a hostile count fails before allocating" `Quick
      (fun () ->
        let raw = Bytes.make 8 '\001' in
        let before = words () in
        let a =
          Net.Bytebuf.decode (fun r -> R.array r ~count:max_int ~elt:1 R.u8) raw
        in
        let l =
          Net.Bytebuf.decode
            (fun r -> R.list r ~count:(1 lsl 32) ~elt:8 R.u8)
            raw
        in
        let used = words () -. before in
        Alcotest.(check bool) "array refused" true (is_error a);
        Alcotest.(check bool) "list refused" true (is_error l);
        Alcotest.(check bool) "negative refused" true
          (is_error
             (Net.Bytebuf.decode
                (fun r -> R.array r ~count:(-1) ~elt:1 R.u8)
                raw));
        if used >= 1000.0 then Alcotest.failf "allocated %.0f words" used);
    Alcotest.test_case "result and fail become Error, never an exception"
      `Quick (fun () ->
        Alcotest.(check bool) "payload error" true
          (is_error
             (Net.Bytebuf.decode (fun _ -> R.result (Error "bad")) Bytes.empty));
        Alcotest.(check int) "payload ok" 4
          (decoded (Net.Bytebuf.decode (fun _ -> R.result (Ok 4)) Bytes.empty));
        match
          Net.Bytebuf.decode (fun _ -> R.fail "custom %d" 42) Bytes.empty
        with
        | Error reason -> Alcotest.(check string) "reason" "custom 42" reason
        | Ok () -> Alcotest.fail "fail decoded Ok");
    Alcotest.test_case "the size checks name the codec" `Quick (fun () ->
        let raises f =
          match f () with
          | _ -> false
          | exception Invalid_argument reason ->
              Astring_contains.contains reason "Demo"
        in
        Alcotest.(check bool) "payload_size lie" true
          (raises (fun () ->
               Net.Bytebuf.encode_payload ~who:"Demo" Net.Bytebuf.string_codec
                 ~size:3 "four"));
        Alcotest.(check bool) "size model lie" true
          (raises (fun () ->
               Net.Bytebuf.encode_sized ~who:"Demo" ~size:2 (fun w ->
                   W.u8 w 1)));
        Alcotest.(check int) "honest body" 2
          (Bytes.length
             (Net.Bytebuf.encode_sized ~who:"Demo" ~size:2 (fun w ->
                  W.u16 w 1))));
  ]

(* Property: arbitrary generated bodies have encoded length = body_size and
   roundtrip to identical bytes. *)
let codec_property =
  let gen =
    QCheck.Gen.(
      let n = 5 in
      let mid_gen =
        map2 (fun o s -> mid o (s + 1)) (int_bound (n - 1)) (int_bound 50)
      in
      let data_gen =
        map2
          (fun m text ->
            (* at most one dep per origin, none on the message's own origin
               at or past its seq: build from distinct other origins *)
            let deps =
              List.filteri
                (fun i _ -> i mod 2 = 0)
                (List.init (Net.Node_id.to_int (Causal.Mid.origin m)) (fun o ->
                     mid o 1))
            in
            Urcgc.Wire.Data
              (Causal.Causal_msg.make ~mid:m ~deps
                 ~payload_size:(String.length text) text))
          mid_gen (string_size (int_bound 32))
      in
      let recover_gen =
        map2
          (fun a b ->
            Urcgc.Wire.Recover_req
              {
                requester = node (a mod n);
                origin = node (b mod n);
                from_seq = a + 1;
                to_seq = a + b + 1;
              })
          small_nat small_nat
      in
      oneof [ data_gen; recover_gen ])
  in
  QCheck.Test.make ~name:"codec: length = body_size and lossless roundtrip"
    ~count:300
    (QCheck.make
       ~print:(fun body -> Format.asprintf "%a" Urcgc.Wire.pp_body body)
       gen)
    (fun body ->
      let raw = Urcgc.Wire_codec.encode_body payload body in
      Bytes.length raw = Urcgc.Wire.body_size body
      &&
      match Urcgc.Wire_codec.decode_body payload ~n:5 raw with
      | Ok decoded ->
          Bytes.equal raw (Urcgc.Wire_codec.encode_body payload decoded)
      | Error _ -> false)

let suite =
  [
    ("codec.sizes", size_tests);
    ("codec.roundtrip", roundtrip_tests @ [ QCheck_alcotest.to_alcotest codec_property ]);
    ("codec.hostile", hostile_tests);
    ("codec.bytebuf", bytebuf_tests);
  ]
