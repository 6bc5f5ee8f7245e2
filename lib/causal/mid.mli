(** Message identifiers.

    A [mid] uniquely identifies a message: the originating process and a
    progressive sequence number within that process's causal sequence
    (Section 4: "it assigns to msg a progressive order").  Sequence numbers
    start at 1; 0 denotes "nothing processed yet" in [last_processed]
    vectors. *)

type t = { origin : Net.Node_id.t; seq : int }

val make : origin:Net.Node_id.t -> seq:int -> t
(** Raises [Invalid_argument] if [seq < 1]. *)

val origin : t -> Net.Node_id.t
val seq : t -> int

val compare : t -> t -> int
(** Orders by origin then sequence number. *)

val equal : t -> t -> bool

val predecessor : t -> t option
(** The previous message of the same origin's sequence; [None] for the root
    (seq 1). *)

val successor : t -> t

val encoded_size : int
(** Bytes a mid occupies on the wire (4-byte origin + 4-byte seq). *)

val write : Net.Bytebuf.Writer.t -> t -> unit
val read : Net.Bytebuf.Reader.t -> t
(** The {!encoded_size}-byte wire layout: origin u32 | seq u32; [read]
    fails on [seq < 1]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [p3#7]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
