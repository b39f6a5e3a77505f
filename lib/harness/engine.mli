(** The execution engine: every compile-and-execute of the harness flows
    through an explicit [Engine.t] instead of calling
    {!Compilers.Backend.run} directly.

    The engine is a set of memoized layers behind one memory -> disk ->
    compute path.  Each layer is a table: a bounded in-memory LRU, an
    optional namespace in the disk store, and the stage its fresh computes
    are billed to.

    {ul
    {- runs ({!run}): [(target, module digest, input digest)] -> run
       result; disk namespace [run:]; stage ["execute"].}
    {- the backend's optimize+validate stage, handed to
       {!Compilers.Backend.run} as its [optimize] hook on a run miss:
       [((pipeline, flags), module digest)] -> crash signature or
       optimized module plus validation verdict; memory only; no stage
       (its time stays inside ["execute"]).  Targets sharing a pipeline
       share the work.}
    {- the backend's render stage (the [render] hook, compiled kernel
       only): [(post-rewrite module digest, input digest)] -> render
       result; memory only; no stage.  A miss lowers the module for the
       flat execution kernel and renders it; lowered programs are not
       kept.  In reference mode renders are not memoized, so the
       interpreter stays an independent oracle for the memoized compiled
       path.}
    {- the clean [-O] step ({!optimize}): module digest -> optimized
       module; [opt:]; ["optimize"].}
    {- per-pass translation validation ({!tv_check}): [(before digest,
       after digest)] -> verdict; [tv:]; ["tv"].}
    {- whole-pipeline translation validation ({!tv_pipeline}):
       [((pipeline, flags), module digest)] -> guilty pass or crash
       signature, plus the abstention labels of its steps; memory only;
       no stage (a miss runs {!tv_check} per pass, which bills ["tv"]).
       Targets sharing a pipeline share the work.}}

    A lookup tries memory, then the disk store, then computes with the
    mutex released; only successful results are cached, in memory and
    written through to disk.  Every hit and compute counter in {!stats} is
    projected from the tables.  Beside them sits the baseline cache for
    original-program runs, keyed by [(target, reference name)] — a name,
    not a content digest, so it is a plain table.  All state is guarded by
    one mutex, so one engine may be shared by several OCaml 5 domains — the
    domain-parallel campaigns of {!Experiments} do exactly that.

    Digests are computed once per module value: {!Spirv_ir.Digest} keeps
    each domain's last few digests by physical identity, so the nine
    targets, the optimize hook and consecutive TV steps share one
    disassembly and MD5 of the same module.  A TV step whose pass changed
    nothing digests nothing at all: the translation-validated pipeline of
    {!Compilers.Optimizer} hands the pass's input value on, and
    {!tv_check} answers [before == after] with [Equivalent].

    The in-memory tables are bounded: {!create}'s [memo_capacity] caps the
    entry count of each and least-recently-used entries are evicted past
    it (surfaced as [memo_evictions] in {!stats}), so a long-running
    service does not grow without bound.

    With [?store] the engine becomes durable: misses read through to a
    {!Tbct_store.Cas} on disk, and fresh results are written through, so a
    later campaign — or the same one resumed after a crash — replays
    previously-executed variants at disk-read cost.  Corrupt store objects
    decode to [None] and are treated as misses.

    Memoization (memory or disk) is sound because {!Compilers.Backend.run}
    is a deterministic function of its arguments and the codecs are exact
    (see DESIGN.md §5 and §7): a cached result is structurally identical to
    a recomputed one, so the §3.4 interestingness tests — and therefore the
    set of transformations delta debugging keeps — cannot be affected by
    cache hits.

    The engine also keeps per-stage wall-clock accounting: each layer bills
    its fresh computes to its stage (memory and disk hits cost nothing
    there), and callers wrap other phases with {!timed}. *)

open Spirv_ir

type t

type stats = {
  runs_executed : int;   (** backend executions actually performed *)
  cache_hits : int;      (** in-memory content-addressed memo hits *)
  baseline_hits : int;   (** baseline (target, reference) cache hits *)
  opt_runs : int;        (** clean [-O] optimizations actually performed *)
  opt_hits : int;        (** optimize-step hits (memory or disk) *)
  store_hits : int;      (** run results served from the disk store *)
  store_writes : int;    (** objects written through to the disk store *)
  tv_checks : int;
      (** per-pass translation-validation checks requested: direct
          {!tv_check} calls plus the steps of pipelines {!tv_pipeline}
          actually re-validated (its memo hits check nothing) *)
  tv_hits : int;
      (** TV verdicts served without re-validating (memo, disk, or a pass
          that changed nothing) *)
  compiles : int;
      (** modules lowered by the flat execution kernel: one per compiled
          render computed *)
  compile_hits : int;
      (** always [0]: lowered programs are no longer cached (a render miss
          lowers afresh); kept for readers of the record *)
  memo_entries : int;    (** current entries across the memo tables *)
  memo_capacity : int;   (** the per-table LRU entry cap *)
  memo_evictions : int;  (** entries evicted by the LRU bound *)
  runs_saved : int;      (** [cache_hits + baseline_hits + store_hits] *)
  hit_rate : float;      (** [runs_saved / (runs_saved + runs_executed)] *)
  execute_wall : float;  (** seconds spent inside the backend *)
  stages : (string * float) list;
      (** cumulative wall-clock per stage, sorted by stage name;
          ["execute"] is maintained by {!run}, ["optimize"] by
          {!optimize}, ["tv"] by {!tv_check}, others by {!timed} *)
  per_domain_runs : (int * int) list;
      (** backend executions per OCaml domain id, sorted by id — how
          evenly a {!Pool}'s workers shared the execute load; summed it
          equals [runs_executed].  A single entry means a sequential
          run. *)
  counters : (string * int) list;
      (** caller-defined named tallies ({!bump_counter}), sorted by name —
          e.g. the per-transformation-type [proposed/*] and [applied/*]
          counts campaign drivers accumulate from fuzzer results *)
  backend_opt_runs : int;
      (** backend optimize+validate stages actually computed *)
  backend_opt_hits : int;
      (** optimize+validate stages served by another target's (or an
          earlier run's) result for the same pipeline, flags and module *)
  renders : int;         (** compiled renders actually executed *)
  render_hits : int;     (** renders served from the render memo *)
  tv_pipelines : int;
      (** pipelines translation-validated afresh by {!tv_pipeline} *)
  tv_pipeline_hits : int;
      (** {!tv_pipeline} outcomes served by another target's (or an
          earlier call's) validation of the same pipeline, flags and
          module *)
}

val default_memo_capacity : int

val create :
  ?store:Tbct_store.Cas.t -> ?memo_capacity:int -> ?compiled:bool -> unit -> t
(** A fresh engine with empty caches and zeroed counters.  [store] makes
    the run, optimize and TV layers read-through/write-through to the
    given on-disk CAS; [memo_capacity] (default
    {!default_memo_capacity}) bounds each in-memory table.

    [compiled] (default [true]) selects the execution kernel for the hot
    path: each memoized render miss lowers its module with
    {!Spirv_ir.Compile.lower} into a flat program ([compiles] in
    {!stats}) and executes it with {!Spirv_ir.Compile.render_batch} —
    observably bit-identical to the reference interpreter.  [~compiled:false] keeps every render on
    {!Spirv_ir.Interp.render}: the reference-interpreter mode the CI
    byte-equality gate runs campaigns under (the differential oracle for
    the kernel itself). *)

val cas : t -> Tbct_store.Cas.t option
(** The disk store this engine is backed by, if any. *)

val run : t -> Compilers.Target.t -> Module_ir.t -> Input.t ->
  Compilers.Backend.run_result
(** Content-addressed [Backend.run]: memory memo, then the disk store,
    then execute-and-record (billing the ["execute"] stage).  The mutex is
    not held during execution, so concurrent misses proceed in parallel. *)

val baseline : t -> Compilers.Target.t -> ref_name:string ->
  Module_ir.t -> Input.t -> Compilers.Backend.run_result
(** The original program's behaviour on a target, cached per
    [(target, reference name)].  Misses fall through to {!run}, so
    baselines also populate the content-addressed store. *)

val optimize : t -> Module_ir.t -> (Module_ir.t, string) result
(** The clean [-O] pipeline, memoized by module digest through the same
    memory/disk path as runs; disk hits count under [opt_hits], not
    [store_hits].  Only actual optimizer work is billed to the
    ["optimize"] stage; errors are not cached. *)

val tv_check : t -> before:Module_ir.t -> after:Module_ir.t ->
  Compilers.Tv.verdict
(** Translation validation ({!Compilers.Tv.check_pass}), memoized by the
    [(digest before, digest after)] pair: physically equal modules (no
    digest needed) or equal digests short-circuit to [Equivalent]
    (counted as a check and a hit), then the in-memory LRU,
    then the disk store (if any), then symbolic validation billed to the
    ["tv"] stage and written through.  Sound for the same reason run
    memoization is: [check_pass] is a deterministic function of the two
    modules and the verdict codec is exact. *)

val tv_pipeline : t -> Compilers.Target.t -> Module_ir.t ->
  (Compilers.Optimizer.pass_name option, string) result
(** The target's pipeline (with its injected-bug flags) translation-
    validated on a module: [Ok] of the guilty pass of the first
    [Mismatch], if any, or [Error] of the crash signature of a pass that
    crashed — what {!Compilers.Optimizer}'s [run_tv] reports with
    {!tv_check} as its checker.  Memoized in memory by [((pipeline, flags), module
    digest)]; a miss runs [run_tv] with {!tv_check}'s memoized checks.
    Each lookup, hit or miss, bumps the [tv-abstain:*] counters by the
    abstentions of the pipeline's steps, so they equal a check-by-check
    run. *)

val timed : t -> stage:string -> (unit -> 'a) -> 'a
(** Run a thunk and add its wall-clock time to the named stage. *)

val bump_counter : t -> string -> int -> unit
(** [bump_counter e name n] adds [n] to the named tally (creating it at 0).
    Mutex-guarded, so domains may bump concurrently. *)

val stats : t -> stats
(** A consistent snapshot of the engine's counters. *)

val reset : t -> unit
(** Clear every cache and zero every counter and stage clock.  The disk
    store (if any) is left untouched. *)

val pp_stats : Format.formatter -> stats -> unit
(** Human-readable rendering of {!stats}. *)

val stats_to_string : stats -> string
