(** Running a test case on a target — the "compile and execute" box of
    Figure 1.

    Order of play: front-end crash predicates on the module as submitted;
    the target's optimizer pipeline (possibly crashing via injected
    optimizer bugs); back-end crash predicates on the optimized module;
    validation of the optimizer's output (the "emits illegal SPIR-V" bug
    class surfaces here as a crash signature); then, for device targets,
    the target's miscompilation rewrites are applied and the result executed
    over the input's fragment grid. *)

open Spirv_ir

type run_result =
  | Rendered of Image.t  (** device targets: the image produced *)
  | Compiled_ok          (** tooling targets (spirv-opt): no execution *)
  | Crashed of string    (** a crash signature *)

type optimized =
  | Opt_crashed of string  (** the optimizer crashed: the signature *)
  | Optimized of { optimized : Module_ir.t; invalid : string option }
      (** the optimizer's output, and the crash signature its validation
          failure reports, if it is invalid *)
(** The outcome of the optimize+validate stage. *)

val optimize_validate : Target.t -> Module_ir.t -> optimized
(** Run the target's optimizer pipeline, then validate its output.  Reads
    only the target's [pipeline] and [opt_flags]: a pure function of
    (pipeline, flags, module), which the harness engine memoizes across
    targets that share a pipeline. *)

val run :
  ?optimize:(Module_ir.t -> optimized) ->
  ?render:(Module_ir.t -> Input.t -> (Image.t, Interp.trap) result) ->
  Target.t ->
  Module_ir.t ->
  Input.t ->
  run_result
(** The only definition of the stage order: front-end triggers, the
    optimize+validate stage, back-end triggers, the validation verdict,
    the miscompilation rewrites, then the render.

    [optimize] is the optimize+validate stage applied to the module as
    submitted; defaults to {!optimize_validate} on the target.  [render]
    executes the post-miscompile module over the fragment grid; defaults
    to {!Interp.render}.  The harness engine substitutes memoized versions
    of both (and the flat compiled kernel, {!Compile.render_batch}, for
    the render); any substitute must be observably identical to the
    default. *)

val optimize_reference : Module_ir.t -> Module_ir.t option
(** Clean [-O] for preparing optimized copies of reference shaders. *)
