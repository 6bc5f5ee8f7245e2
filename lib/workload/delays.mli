(** The delay fold every runner shares: processing events reduced, one at a
    time, to the report's remote count, completion time and delay summary.

    Messages are keyed by [(origin, seq)] in a dense int table (one row of
    send ticks per origin, indexed by [seq]), and delays are kept as integer
    ticks in a histogram, so a run's events cost no allocation beyond the
    tables' growth.  {!summary} is bit-identical to [Stats.Summary.of_list]
    over the delays in rtd. *)

type t

val create : n:int -> t
(** A fold over a group of [n] members: origins lie in [0, n). *)

val sent : t -> origin:int -> seq:int -> Sim.Ticks.t -> unit
(** Records the send time of message [(origin, seq)]; a later call for the
    same message replaces it.  Sequence numbers are non-negative. *)

val deliver : t -> origin:int -> seq:int -> remote:bool -> Sim.Ticks.t -> int
(** [deliver t ~origin ~seq ~remote at] records a processing event of
    message [(origin, seq)] at [at].  Every event counts towards
    {!completion_rtd}; a [remote] one counts towards {!remote}, and adds
    its delay to the summary when the message's send time is known.
    Returns that delay in ticks, or -1 when none was added. *)

val generated : t -> int
(** Messages with a recorded send time. *)

val remote : t -> int
(** Remote processing events. *)

val completion_rtd : t -> float
(** Time of the last processing event of all, 0 before any. *)

val summary : t -> Stats.Summary.t
(** The delays in rtd, from a counting pass over the histogram. *)
