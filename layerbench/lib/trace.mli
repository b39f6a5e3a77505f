(** In-memory spans recorded around calls into the system's layers.

    A span has a name, a start, an end and the span that was open when it
    began (its parent); every span of one tracer shares the tracer's run
    id.  Spans stay in memory and are written once, when the benchmark
    ends.  A tracer is single-threaded: spans are opened and closed from
    the domain that created it. *)

type span = {
  id : int;  (** start order within the tracer *)
  parent : int;  (** [-1] for a root *)
  name : string;
  run : int;
  t0 : float;
  t1 : float;
  repeat : bool;
      (** a sibling whose count depends on timing; the canonical tree
          records a run of such siblings once *)
  clock : bool;
      (** a duration the system measured itself (an engine stage clock),
          placed at the end of its parent's interval so far *)
}

type t

val create : run:int -> t

val span : ?repeat:bool -> t -> string -> (unit -> 'a) -> 'a
(** [span tr name f] runs [f] inside a new span, closed even if [f]
    raises. *)

val clock : t -> string -> float -> unit
(** [clock tr name dt] records a child of the open span lasting [dt]
    seconds (at least 0) and ending now. *)

val spans : t -> span list
(** Every closed span, in start order. *)

val self_times : span list -> (int * float) list
(** Each span's self time: its duration minus the part of its interval
    that its children's intervals cover (overlapping children are counted
    once). *)

val by_name : span list -> (string * float * float) list
(** Per span name, the summed total and self times, sorted by name. *)

val subtree : span list -> root:int -> span list
(** The span [root] and all its descendants. *)

val canonical : span list -> string
(** The span tree with timestamps stripped: names nested by parent, in
    start order, with each run of identical [repeat] siblings collapsed to
    one entry marked [+]. *)

val to_jsonl : span list -> string
(** One JSON object per span (run, id, parent, name, start, end, self),
    newline-terminated. *)
