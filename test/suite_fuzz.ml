(* Decoder fuzzing over all four wire codecs: arbitrary byte strings and
   single-byte mutations of valid encodings must never raise — hostile
   input yields [Error] (or, for a mutation, possibly a different valid
   value) and nothing else.  This is the property that lets a protocol
   entity sit directly on an untrusted datagram socket.  Run it long with
   QCHECK_LONG=1 QCHECK_LONG_FACTOR=200. *)

let arbitrary gen =
  QCheck.make ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b)) gen

(* Half plain garbage, half garbage behind a tag byte every codec knows
   (tags run from 1 to at most 8), so the fuzz gets past dispatch. *)
let garbage =
  QCheck.Gen.(
    let raw = map Bytes.of_string (string_size (int_bound 200)) in
    oneof
      [
        raw;
        map2
          (fun tag rest -> Bytes.cat (Bytes.make 1 (Char.chr tag)) rest)
          (int_range 1 8) raw;
      ])

let mutation (c : Codec_samples.codec) =
  QCheck.Gen.(
    map3
      (fun (_, raw) pos value ->
        let raw = Bytes.copy raw in
        Bytes.set_uint8 raw (pos mod Bytes.length raw) value;
        raw)
      (oneofl c.samples) nat (int_bound 255))

let never_raises name gen (c : Codec_samples.codec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s decoder %s" c.name name)
    ~count:500 (arbitrary gen)
    (fun raw -> match c.decode raw with Ok () | Error _ -> true)

let suite =
  [
    ( "fuzz.decoders",
      List.map QCheck_alcotest.to_alcotest
        (List.concat_map
           (fun c ->
             [
               never_raises "never raises on garbage" garbage c;
               never_raises "survives single-byte mutations" (mutation c) c;
             ])
           Codec_samples.codecs) );
  ]
