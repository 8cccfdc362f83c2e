(** Order statistics for the benchmark's reports. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even count.
    Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float
(** First and third quartiles with the same interpolation as Python's
    [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
    spreads printed here match the ones computed from the results.
    Needs at least two samples. *)

val percentile : level:float -> float list -> float
(** Nearest-rank percentile: the smallest sample with at least
    [level]% of the samples at or below it. *)

val tail_level : int -> float option
(** The highest of 99.9, 99, 95, 90, 75 and 50 whose nearest-rank
    percentile over [n] samples leaves at least ten samples beyond it;
    [None] under twenty samples. A tail read from fewer samples beyond
    it is a single outlier, not a percentile. *)

val tail : float list -> (float * float) option
(** [(level, value)]: the percentile at {!tail_level}, or the maximum
    (reported as level 100) when there are too few samples for any;
    [None] for no samples. *)
