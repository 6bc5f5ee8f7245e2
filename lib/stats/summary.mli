(** Descriptive statistics over a sample of floats. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation; 0 for count < 2 *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val empty : t
(** All-zero summary of an empty sample. *)

val of_list : float list -> t
(** Allocates the sorted copy of the sample and the summary, nothing per
    comparison. *)

val sort_floats : float array -> unit
(** In-place ascending sort: the same permutation as
    [Array.sort Float.compare] (so the result is bit-identical, [-0.]
    versus [0.] and NaN payloads included), without boxing. *)

val of_counts : (int -> float) -> int array -> t
(** [of_counts value counts] summarizes a sample given as a histogram:
    [counts.(b)] samples of value [value b], with [value] non-decreasing.
    The result is bit-identical to [of_list] over the same samples: the
    passes visit the samples in ascending order, one by one, as [of_list]
    does after sorting.  It allocates nothing per sample. *)

val of_ints : int list -> t

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0, 1], linear interpolation.  The
    array must be sorted ascending; raises [Invalid_argument] if empty or
    [q] out of range. *)

val pp : Format.formatter -> t -> unit
