(** Binary codec for the CBCAST PDUs.

    As with {!Urcgc.Wire_codec}, encoded lengths are exactly
    {!Cb_wire.body_size} — Table 1's headline comparison (CBCAST's constant
    [4(n+1)]-byte piggybacks vs its swollen flush messages) is measured from
    sizes these codecs realize byte for byte. *)

val encode_body : 'a Net.Bytebuf.codec -> 'a Cb_wire.body -> bytes
(** Raises [Invalid_argument] when a field exceeds its wire width or when a
    data payload's encoding is larger than 65535 bytes. *)

val decode_body :
  'a Net.Bytebuf.codec -> n:int -> bytes -> ('a Cb_wire.body, string) result
(** Total: hostile input yields [Error].  Every PDU but [Data] rejects a
    strict prefix and a trailing byte.  [Data] is the exception: by the
    size model ([8 + 4n + payload]) its payload has no length field and
    runs to the end of the datagram, so a prefix that keeps the
    [8 + 4n]-byte header, or any extension, decodes [Ok] with a shorter or
    longer payload (which the payload codec may still refuse). *)
