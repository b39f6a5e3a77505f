(** Comparing two result sets of the benchmark: one row per workload and
    end-to-end metric, judged by the rule of the benchmark's README
    (ten or more pairs, nine-tenths wins, a median gap wider than the
    parent's quartile distance; no regression beyond the metric's bound;
    "unresolved" when the run-to-run spread is wider than the bound). *)

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

val metrics_json : units:(string * string) list -> (string * float) list -> Tbct_service.Json.t
(** [{"<name>": {"value": v, "unit": u}, ...}], with a metric's unit
    looked up in [units] ([""] when absent). *)

val result_to_json : result -> units:(string * string) list -> Tbct_service.Json.t
(** The benchmark's result object, with the workload and seed added. *)

val result_of_json : Tbct_service.Json.t -> result option

type spec = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float;
}

val specs_of_benchmark : Tbct_service.Json.t -> spec list
(** The [end_to_end] entries of a [BENCHMARK.json]. *)

type verdict =
  | Gain  (** wins at least 9/10 of at least ten pairs, past the parent's spread *)
  | Better_every_run  (** spread wider than the bound, yet every new run beats every old one *)
  | Within_bound  (** no gain claimed, no regression beyond the bound *)
  | Regression  (** the new median is worse by more than the bound *)
  | Unresolved  (** spread wider than the bound *)

val verdict_to_string : verdict -> string

type row = {
  r_workload : string;
  r_metric : string;
  old_median : float;
  new_median : float;
  old_spread : float;
  new_spread : float;
  wins : int;
  losses : int;
  pairs : int;
  verdict : verdict;
}

val judge : spec -> old_runs:(int * float) list -> new_runs:(int * float) list -> row
(** Runs are [(seed, value)]; runs with the same seed pair up first, then
    the rest pair in order.  [r_workload] is left empty. *)

val compare : spec list -> old_:result list -> new_:result list -> row list
(** Every (workload, metric) present on both sides, workloads sorted. *)
