(** Order statistics: medians, quartiles, run-to-run spread and tail
    percentiles that stay meaningful at the sample counts a run yields. *)

val median : float list -> float
(** [nan] on the empty list. *)

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile, computed exactly as
    Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
    method). *)

val spread : float list -> float
(** Distance between the quartiles as a share of the median. *)

val percentile : float list -> float -> float
(** Nearest-rank percentile: [percentile xs 90.] is the smallest sample
    with at least 90% of the samples at or below it. *)

val beyond : int -> float -> int
(** [beyond n p]: how many of [n] samples lie strictly above the
    nearest-rank [p]-th percentile. *)

val tail_percentile : int -> float option
(** The highest of p50, p90, p99 and p99.9 that has at least ten samples
    beyond it among [n] samples; [None] below 20 samples. *)

val best_of : float list list -> float list
(** Per position, the smallest sample across the lists (a position only
    some lists reach takes the best of those): [best_of [[3.;1.];[2.;4.;5.]]]
    is [[2.;1.;5.]]. *)
