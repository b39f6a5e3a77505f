(** Running a test case on a target: the "compile and execute" box of
    Figure 1.

    The front-end bug predicates are checked on the module as submitted;
    the optimizer pipeline runs (possibly crashing via injected optimizer
    bugs); back-end predicates are checked on the optimized module; the
    optimizer's output is validated (catching the "emits illegal SPIR-V" bug
    class); and, for device targets, the miscompilation rewrites are applied
    before executing on the fragment grid. *)

open Spirv_ir

type run_result =
  | Rendered of Image.t        (** device executed the module *)
  | Compiled_ok                (** tooling target, no execution *)
  | Crashed of string          (** crash signature *)

(** The optimize+validate stage: the target's pipeline (possibly crashing
    via an injected optimizer bug), then validation of its output.  It reads
    only the target's [pipeline] and [opt_flags], so it is a pure function
    of (pipeline, flags, module) — the harness engine memoizes it across
    targets that share a pipeline. *)
type optimized =
  | Opt_crashed of string
  | Optimized of { optimized : Module_ir.t; invalid : string option }

let optimize_validate (t : Target.t) (m : Module_ir.t) : optimized =
  match Optimizer.run ~flags:t.Target.opt_flags t.Target.pipeline m with
  | exception Opt_util.Compiler_crash signature -> Opt_crashed signature
  | optimized ->
      let invalid =
        match Validate.check optimized with
        | Ok () -> None
        | Error (e :: _) ->
            Some ("optimizer emitted invalid module: " ^ Validate.error_to_string e)
        | Error [] -> Some "optimizer emitted invalid module"
      in
      Optimized { optimized; invalid }

(** The one definition of the stage order: front triggers, optimize,
    back triggers, validate, rewrite, render.

    [optimize] is the optimize+validate stage; it defaults to
    {!optimize_validate} on [t].  [render] is the execution kernel applied
    to the post-miscompile module; it defaults to the reference
    interpreter.  The harness engine passes memoized substitutes for both
    — any substitute must be observably identical to the default. *)
let run ?optimize ?(render = fun m input -> Interp.render m input)
    (t : Target.t) (m : Module_ir.t) (input : Input.t) : run_result =
  let optimize = Option.value optimize ~default:(optimize_validate t) in
  let check_phase phase m =
    List.find_map
      (fun id ->
        match Bug.find_crash_bug id with
        | Some spec when spec.Bug.phase = phase && spec.Bug.trigger m ->
            Some spec.Bug.signature
        | _ -> None)
      t.Target.crash_bug_ids
  in
  match check_phase Bug.Before_opt m with
  | Some signature -> Crashed signature
  | None -> (
      match optimize m with
      | Opt_crashed signature -> Crashed signature
      | Optimized { optimized; invalid } -> (
          match check_phase Bug.After_opt optimized with
          | Some signature -> Crashed signature
          | None -> (
              match invalid with
              | Some signature -> Crashed signature
              | None ->
                  if not t.Target.executes then Compiled_ok
                  else begin
                    let corrupted =
                      List.fold_left
                        (fun m id ->
                          match Bug.find_miscompile_bug id with
                          | Some spec -> spec.Bug.rewrite m
                          | None -> m)
                        optimized t.Target.miscompile_bug_ids
                    in
                    match render corrupted input with
                    | Ok img -> Rendered img
                    | Error Interp.Step_limit_exceeded ->
                        Crashed "device lost (timeout)"
                    | Error (Interp.Invalid_module _) ->
                        (* wrong code emitted by a miscompilation bug can
                           fault at execution time; real drivers report this
                           as a device loss, with no more detail *)
                        Crashed "device lost (fault while executing shader)"
                    | Error (Interp.Missing_uniform u) ->
                        Crashed ("device lost (missing binding " ^ u ^ ")")
                  end)))

(** Compile only — used when optimizing references before fuzzing (the
    paper also feeds spirv-opt-optimized copies of each reference). *)
let optimize_reference m =
  match Optimizer.optimize m with Ok m' -> Some m' | Error _ -> None
