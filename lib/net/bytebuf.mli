(** Byte-level writer/reader and the combinators the wire codecs are built
    from.

    Big-endian fixed-width integers.  The reader contract: readers are
    written in direct style and return plain values; on truncated or
    malformed input (or an explicit {!Reader.fail}) they abort with an
    exception private to this module.  {!decode} is the only way to run a
    reader: it turns that abort into [Error] and rejects trailing bytes, so
    decoding a hostile packet can never take a protocol entity down and no
    codec repeats an end-of-frame check. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u24 : t -> int -> unit
  val u32 : t -> int -> unit
  (** Each raises [Invalid_argument] when the value does not fit. *)

  val u32_or_max : t -> int -> unit
  (** {!u32}, but [max_int] (an accumulator with no bound yet) goes on the
      wire as [0xFFFFFFFF]. *)

  val bytes : t -> bytes -> unit

  val zeros : t -> int -> unit
  (** [zeros w k] writes [k] zero bytes: pad and reserved fields. *)

  val bitmap : t -> bool array -> unit
  (** Packs 8 flags per byte, LSB first, padded to a whole byte. *)

  val contents : t -> bytes

  val clear : t -> unit
  (** Empty the writer, keeping its grown internal storage: codec-heavy
      loops can encode one frame per iteration into a single writer
      without re-allocating the buffer each time.  A clear-then-encode
      produces exactly the bytes a fresh writer would. *)
end

module Reader : sig
  type t

  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u24 : t -> int
  val u32 : t -> int

  val u32_or_max : t -> int
  (** Inverse of {!Writer.u32_or_max}. *)

  val bytes : t -> int -> bytes

  val skip : t -> int -> unit
  (** Consumes pad and reserved fields without looking at them. *)

  val bitmap : t -> int -> bool array
  (** [bitmap r n] reads [ceil (n/8)] bytes and returns [n] flags. *)

  val array : t -> count:int -> elt:int -> (t -> 'a) -> 'a array
  val list : t -> count:int -> elt:int -> (t -> 'a) -> 'a list
  (** [count] elements, in wire order.  [elt] (> 0) is the fewest bytes
      one element can occupy: a count that cannot fit in the remaining
      bytes fails before anything is allocated for it. *)

  val result : ('a, string) result -> 'a
  (** Unwraps a payload codec's result; [Error reason] fails the read. *)

  val fail : ('a, unit, string, 'b) format4 -> 'a
  (** Fails the read with a formatted reason. *)
end

val decode : (Reader.t -> 'a) -> bytes -> ('a, string) result
(** [decode read raw] runs [read] over all of [raw]: [Ok] only when it
    succeeds and consumes every byte. *)

type 'a codec = {
  encode : 'a -> bytes;
  decode : bytes -> ('a, string) result;
}
(** Payload codec threaded through the protocol wire codecs. *)

val string_codec : string codec

val encode_payload : who:string -> 'a codec -> size:int -> 'a -> bytes
(** The payload's encoding; raises [Invalid_argument] (naming [who]) when
    its length differs from the declared [payload_size] [size], since the
    size accounting would silently lie otherwise. *)

val encode_sized : who:string -> size:int -> (Writer.t -> unit) -> bytes
(** Runs a body writer on a fresh writer; raises [Invalid_argument]
    (naming [who]) when the body's length differs from its size model
    [size]. *)
