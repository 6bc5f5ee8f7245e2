(** PDUs of the CBCAST baseline (ISIS-style causal multicast [BSS91]).

    Sizes follow the paper's accounting: a vector timestamp costs [4n] bytes,
    piggyback/stability messages cost [4(n+1)] bytes, flush messages carry a
    [4(n-1)]-byte header and the retransmitted unstable messages, which is
    why CBCAST's control-message size grows under crashes (Table 1). *)

type 'a data = {
  sender : Net.Node_id.t;
  view_id : int;
  vt : Vclock.t;  (** [vt(sender)] is the message's sequence number *)
  payload : 'a;
  payload_size : int;
}

type 'a body =
  | Data of 'a data
  | Heartbeat of { vt : Vclock.t }
      (** stability/keep-alive message sent when a process has no data
          traffic in a subrun ("piggyback or, if needed, stability
          messages") *)
  | Token of { initiator : Net.Node_id.t; acc : Vclock.t }
      (** stability token circulating the ring, accumulating the pointwise
          minimum of delivery vectors *)
  | Stability of { vt : Vclock.t }
      (** broadcast stable cut: history below it can be discarded *)
  | Suspect of { suspect : Net.Node_id.t; reporter : Net.Node_id.t }
  | Flush_req of {
      view_id : int;
      members : bool array;
      coordinator : Net.Node_id.t;
    }
  | Flush_unstable of {
      view_id : int;
      sender : Net.Node_id.t;
      msgs : 'a data list;
    }
  | New_view of { view_id : int; members : bool array; retransmit : 'a data list }

val seq : 'a data -> int
(** The message's sequence number, [vt(sender)]. *)

val data_size : 'a data -> int

val flush_header : int -> int
(** Bytes of a flush header in a group of [n]: the paper's [4(n-1)], but
    never less than the 8 bytes of fields plus the members bitmap. *)

val body_size : 'a body -> int

val kind : 'a body -> Net.Traffic.kind
(** [Data] is data traffic; everything else is control traffic (flush
    retransmissions included, as in the paper's Table 1 accounting). *)

val pp_body : Format.formatter -> 'a body -> unit
