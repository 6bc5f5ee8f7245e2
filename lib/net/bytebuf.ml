(* The one exception a reader raises on malformed input; [decode] turns it
   into [Error] and nothing else ever sees it. *)
exception Malformed of string

module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 256) () = Buffer.create capacity

  let length = Buffer.length

  let check value bits =
    if value < 0 || (bits < 63 && value lsr bits <> 0) then
      invalid_arg (Printf.sprintf "Bytebuf.Writer: %d does not fit u%d" value bits)

  let u8 t v =
    check v 8;
    Buffer.add_uint8 t v

  let u16 t v =
    check v 16;
    Buffer.add_uint16_be t v

  let u24 t v =
    check v 24;
    Buffer.add_uint8 t (v lsr 16);
    Buffer.add_uint16_be t (v land 0xFFFF)

  let u32 t v =
    check v 32;
    Buffer.add_int32_be t (Int32.of_int v)

  let u32_or_max t v = u32 t (if v = max_int then 0xFFFFFFFF else v)

  let bytes t b = Buffer.add_bytes t b

  let zeros t n =
    for _ = 1 to n do
      Buffer.add_char t '\000'
    done

  let bitmap t flags =
    let n = Array.length flags in
    let byte_count = (n + 7) / 8 in
    for byte = 0 to byte_count - 1 do
      let value = ref 0 in
      for bit = 0 to 7 do
        let i = (byte * 8) + bit in
        if i < n && flags.(i) then value := !value lor (1 lsl bit)
      done;
      Buffer.add_uint8 t !value
    done

  let contents t = Buffer.to_bytes t

  let clear = Buffer.clear
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let remaining t = Bytes.length t.data - t.pos

  let fail fmt = Printf.ksprintf (fun reason -> raise (Malformed reason)) fmt

  (* Claims the next [n] bytes, returning where they start. *)
  let advance t n =
    if n < 0 then fail "negative length %d" n;
    if remaining t < n then fail "truncated: need %d bytes" n;
    let pos = t.pos in
    t.pos <- pos + n;
    pos

  let u8 t = Bytes.get_uint8 t.data (advance t 1)

  let u16 t = Bytes.get_uint16_be t.data (advance t 2)

  let u24 t =
    let pos = advance t 3 in
    (Bytes.get_uint8 t.data pos lsl 16) lor Bytes.get_uint16_be t.data (pos + 1)

  let u32 t =
    Int32.to_int (Bytes.get_int32_be t.data (advance t 4)) land 0xFFFFFFFF

  let u32_or_max t = match u32 t with 0xFFFFFFFF -> max_int | v -> v

  let bytes t n = Bytes.sub t.data (advance t n) n

  let skip t n = ignore (advance t n)

  let bitmap t n =
    if n < 0 then fail "negative bitmap size %d" n;
    let pos = advance t ((n + 7) / 8) in
    Array.init n (fun i ->
        Bytes.get_uint8 t.data (pos + (i / 8)) land (1 lsl (i mod 8)) <> 0)

  (* A hostile count is refused before anything is allocated for it:
     [count] elements of at least [elt] bytes each must fit in what is left. *)
  let array t ~count ~elt read =
    if count < 0 then fail "negative count %d" count
    else if count > remaining t / elt then
      fail "truncated: %d elements of at least %d bytes, %d bytes left" count
        elt (remaining t)
    else if count = 0 then [||]
    else begin
      let arr = Array.make count (read t) in
      for i = 1 to count - 1 do
        arr.(i) <- read t
      done;
      arr
    end

  let list t ~count ~elt read = Array.to_list (array t ~count ~elt read)

  let result = function Ok v -> v | Error reason -> fail "%s" reason
end

let decode read data =
  let r = { Reader.data; pos = 0 } in
  match read r with
  | value ->
      let trailing = Reader.remaining r in
      if trailing = 0 then Ok value
      else Error (Printf.sprintf "%d trailing bytes" trailing)
  | exception Malformed reason -> Error reason

type 'a codec = {
  encode : 'a -> bytes;
  decode : bytes -> ('a, string) result;
}

let string_codec =
  { encode = Bytes.of_string; decode = (fun b -> Ok (Bytes.to_string b)) }

let encode_payload ~who codec ~size value =
  let raw = codec.encode value in
  if Bytes.length raw <> size then
    invalid_arg
      (Printf.sprintf
         "%s: declared payload_size %d but the payload encodes to %d bytes" who
         size (Bytes.length raw));
  raw

let encode_sized ~who ~size write =
  let w = Writer.create () in
  write w;
  if Writer.length w <> size then
    invalid_arg
      (Printf.sprintf "%s: encoded %d bytes but the size model says %d" who
         (Writer.length w) size);
  Writer.contents w
