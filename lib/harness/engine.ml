(** The execution engine (see the interface for the full story): one
    memoized-layer type and one memory -> disk -> compute path ({!memo})
    shared by backend runs, the backend's optimize+validate and render
    stages, the clean [-O] step, translation validation and the
    compiled-program cache; plus the baseline cache, named counters and
    per-stage wall-clock accounting.  One engine may be shared across
    domains. *)

open Spirv_ir
module Lru = Tbct_store.Lru
module Cas = Tbct_store.Cas
module Run_codec = Tbct_store.Run_codec

let default_memo_capacity = 65536

(* How a layer persists in the CAS: its namespaced key (digested into the
   CAS key) and its exact codec. *)
type ('k, 'v) disk = {
  store_key : 'k -> string;
  encode : 'v -> string;
  decode : string -> 'v option;
}

(* One memoized layer: a bounded LRU, an optional disk namespace, and the
   stage its fresh computes are billed to. *)
type ('k, 'v) table = {
  lru : ('k, 'v) Lru.t;
  stage : string option;
  disk : ('k, 'v) disk option;
  mutable hits : int;  (* served from memory *)
  mutable disk_hits : int;  (* served from the disk store *)
  mutable computed : int;  (* computed afresh *)
}

(* A target's (pipeline, flags): the nine targets share five. *)
type pipeline = Compilers.Optimizer.pass_name list * Compilers.Passes.flags

(* Everything [reset] clears, rebuilt as a whole. *)
type state = {
  runs : (string * string * string, Compilers.Backend.run_result) table;
      (* (target name, module digest, input digest) -> result *)
  backend_opts : (pipeline * string, Compilers.Backend.optimized) table;
      (* ((pipeline, flags), module digest) -> the backend's
         optimize+validate outcome, crashes included *)
  renders : (string * string, (Image.t, Interp.trap) result) table;
      (* (post-rewrite module digest, input digest) -> compiled render *)
  opts : (string, Module_ir.t) table;
      (* module digest -> clean -O optimized module *)
  tvs : (string * string, Compilers.Tv.verdict) table;
      (* (before digest, after digest) -> translation-validation verdict *)
  programs : (string, Compile.t) table;
      (* module digest -> lowered program for the flat execution kernel *)
  baselines : (string * string, Compilers.Backend.run_result) Hashtbl.t;
      (* (target name, reference name) -> result; keyed by name, not by
         content, so it is no memo layer *)
  mutable baseline_hits : int;
  mutable store_writes : int;
  stage_wall : (string, float) Hashtbl.t;
  domain_runs : (int, int) Hashtbl.t;
      (* domain id -> backend executions performed by that domain; shows
         how evenly the pool's workers shared the execute load *)
  named_counters : (string, int) Hashtbl.t;
      (* caller-defined tallies, e.g. per-transformation-type
         proposed/applied counts bumped by campaign drivers *)
}

type t = {
  lock : Mutex.t;
  use_compiled : bool;
      (* false: reference-interpreter mode (the differential oracle) *)
  memo_capacity : int;
  store : Cas.t option;
  mutable s : state;
}

type stats = {
  runs_executed : int;
  cache_hits : int;
  baseline_hits : int;
  opt_runs : int;
  opt_hits : int;
  store_hits : int;
  store_writes : int;
  tv_checks : int;
  tv_hits : int;
  compiles : int;
  compile_hits : int;
  memo_entries : int;
  memo_capacity : int;
  memo_evictions : int;
  runs_saved : int;
  hit_rate : float;
  execute_wall : float;
  stages : (string * float) list;
  per_domain_runs : (int * int) list;
  counters : (string * int) list;
  backend_opt_runs : int;
  backend_opt_hits : int;
  renders : int;
  render_hits : int;
}

let execute_stage = "execute"

let table ?stage ?disk capacity =
  { lru = Lru.create ~capacity; stage; disk; hits = 0; disk_hits = 0;
    computed = 0 }

(* The layers and their disk namespaces; the key strings are the on-disk
   format, so stores written by earlier builds stay warm. *)
let fresh_state capacity =
  {
    runs =
      table capacity ~stage:execute_stage
        ~disk:
          { store_key = (fun (t, m, i) -> Printf.sprintf "run:%s:%s:%s" t m i);
            encode = Run_codec.encode_run; decode = Run_codec.decode_run };
    opts =
      table capacity ~stage:"optimize"
        ~disk:
          { store_key = (fun d -> "opt:" ^ d);
            encode = Run_codec.encode_module;
            decode = Run_codec.decode_module };
    tvs =
      table capacity ~stage:"tv"
        ~disk:
          { store_key = (fun (d1, d2) -> Printf.sprintf "tv:%s:%s" d1 d2);
            encode = Run_codec.encode_verdict;
            decode = Run_codec.decode_verdict };
    backend_opts = table capacity;
    renders = table capacity;
    programs = table capacity;
    baselines = Hashtbl.create 64;
    baseline_hits = 0;
    store_writes = 0;
    stage_wall = Hashtbl.create 8;
    domain_runs = Hashtbl.create 8;
    named_counters = Hashtbl.create 64;
  }

let create ?store ?(memo_capacity = default_memo_capacity) ?(compiled = true)
    () =
  {
    lock = Mutex.create ();
    use_compiled = compiled;
    memo_capacity;
    store;
    s = fresh_state memo_capacity;
  }

let cas e = e.store
let locked e f = Mutex.protect e.lock f

let tally tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let bump_counter e name n = locked e (fun () -> tally e.s.named_counters name n)

let add_stage_locked e stage dt =
  Hashtbl.replace e.s.stage_wall stage
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt e.s.stage_wall stage))

(* The one memo path: memory, then the disk store (a corrupt object decodes
   to [None], a miss), then [compute] with the mutex released.  Two domains
   missing on the same key may both compute, but every layer is a
   deterministic function of its key, so the duplicate insertion is
   harmless.  A fresh compute is billed to the table's stage; only [Ok]
   results are cached, in memory and written through to disk. *)
let memo e tbl key compute =
  let cached =
    locked e (fun () ->
        let v = Lru.find tbl.lru key in
        if Option.is_some v then tbl.hits <- tbl.hits + 1;
        v)
  in
  match cached with
  | Some v -> Ok v
  | None -> (
      let disk =
        match (e.store, tbl.disk) with
        | Some cas, Some d -> Some (cas, d, Cas.key_of_string (d.store_key key))
        | _ -> None
      in
      let read (cas, d, k) = Option.bind (Cas.get cas ~key:k) d.decode in
      match Option.bind disk read with
      | Some v ->
          locked e (fun () ->
              Lru.set tbl.lru key v;
              tbl.disk_hits <- tbl.disk_hits + 1);
          Ok v
      | None ->
          let t0 = Unix.gettimeofday () in
          let r = compute () in
          let dt = Unix.gettimeofday () -. t0 in
          locked e (fun () ->
              tbl.computed <- tbl.computed + 1;
              Option.iter (fun stage -> add_stage_locked e stage dt) tbl.stage;
              Result.iter (Lru.set tbl.lru key) r);
          (match (r, disk) with
          | Ok v, Some (cas, d, k) ->
              Cas.put cas ~key:k (d.encode v);
              locked e (fun () -> e.s.store_writes <- e.s.store_writes + 1)
          | _ -> ());
          r)

(* [memo] for layers whose compute cannot fail *)
let memo_total e tbl key compute =
  Result.get_ok (memo e tbl key (fun () -> Ok (compute ())))

(* Lowered programs are immutable and freely shareable across domains. *)
let compiled_program e digest m =
  memo_total e e.s.programs digest (fun () -> Compile.lower m)

(* The render hook handed to [Backend.run]: it receives the post-miscompile
   module, which differs from the module the engine was asked about, so it
   is digested on its own; that digest keys both the render and (on a
   render miss) the lowered program. *)
let compiled_render e m input =
  let d = Digest.of_module m in
  memo_total e e.s.renders (d, Digest.of_input input) (fun () ->
      Compile.render_batch (compiled_program e d m) input)

(* The optimize+validate hook: keyed by the target's (pipeline, flags), not
   its name, so targets sharing a pipeline share the work. *)
let backend_optimize e (t : Compilers.Target.t) m =
  let pipeline = (t.Compilers.Target.pipeline, t.Compilers.Target.opt_flags) in
  memo_total e e.s.backend_opts (pipeline, Digest.of_module m) (fun () ->
      Compilers.Backend.optimize_validate t m)

(* Renders stay unmemoized in reference mode, so the interpreter remains an
   independent oracle for the compiled kernel. *)
let run e (t : Compilers.Target.t) (m : Module_ir.t) (input : Input.t) :
    Compilers.Backend.run_result =
  let key = (t.Compilers.Target.name, Digest.of_module m, Digest.of_input input) in
  memo_total e e.s.runs key (fun () ->
      let optimize = backend_optimize e t in
      let r =
        if e.use_compiled then
          Compilers.Backend.run ~optimize ~render:(compiled_render e) t m input
        else Compilers.Backend.run ~optimize t m input
      in
      let did = (Domain.self () :> int) in
      locked e (fun () -> tally e.s.domain_runs did 1);
      r)

let baseline e (t : Compilers.Target.t) ~ref_name (m : Module_ir.t)
    (input : Input.t) : Compilers.Backend.run_result =
  let key = (t.Compilers.Target.name, ref_name) in
  let cached =
    locked e (fun () ->
        let r = Hashtbl.find_opt e.s.baselines key in
        if Option.is_some r then e.s.baseline_hits <- e.s.baseline_hits + 1;
        r)
  in
  match cached with
  | Some r -> r
  | None ->
      let r = run e t m input in
      locked e (fun () -> Hashtbl.replace e.s.baselines key r);
      r

let optimize e (m : Module_ir.t) : (Module_ir.t, string) result =
  memo e e.s.opts (Digest.of_module m) (fun () ->
      Compilers.Optimizer.optimize m)

let tv_check e ~(before : Module_ir.t) ~(after : Module_ir.t) :
    Compilers.Tv.verdict =
  let d1 = Digest.of_module before in
  let d2 = Digest.of_module after in
  let v =
    if String.equal d1 d2 then begin
      (* a pass that changed nothing proved itself: a check served as a hit *)
      locked e (fun () -> e.s.tvs.hits <- e.s.tvs.hits + 1);
      Compilers.Tv.Equivalent
    end
    else
      memo_total e e.s.tvs (d1, d2) (fun () ->
          let v, proofs = Compilers.Tv.check_pass_counted before after in
          (* fresh computes only: a memoized verdict re-proves nothing *)
          if proofs > 0 then bump_counter e "mem-proofs" proofs;
          v)
  in
  (* bucket abstentions by their structured Symval reason (the payload's
     label prefix) *)
  (match Compilers.Tv.abstain_label v with
  | Some label -> bump_counter e ("tv-abstain:" ^ label) 1
  | None -> ());
  v

let timed e ~stage f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      locked e (fun () -> add_stage_locked e stage dt))
    f

let sorted_bindings cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

(* Every counter is projected from the tables: a TV check is a hit (memory,
   disk or equal digests) or a fresh compute. *)
let stats e : stats =
  locked e (fun () ->
      let s = e.s in
      let served tbl = tbl.hits + tbl.disk_hits in
      let entries tbl = Lru.length tbl.lru in
      let evictions tbl = Lru.evictions tbl.lru in
      let runs_saved = s.runs.hits + s.baseline_hits + s.runs.disk_hits in
      let looked_up = runs_saved + s.runs.computed in
      {
        runs_executed = s.runs.computed;
        cache_hits = s.runs.hits;
        baseline_hits = s.baseline_hits;
        opt_runs = s.opts.computed;
        opt_hits = served s.opts;
        store_hits = s.runs.disk_hits;
        store_writes = s.store_writes;
        tv_checks = served s.tvs + s.tvs.computed;
        tv_hits = served s.tvs;
        compiles = s.programs.computed;
        compile_hits = s.programs.hits;
        memo_entries =
          entries s.runs + entries s.backend_opts + entries s.renders
          + entries s.opts + entries s.tvs + entries s.programs;
        memo_capacity = e.memo_capacity;
        memo_evictions =
          evictions s.runs + evictions s.backend_opts + evictions s.renders
          + evictions s.opts + evictions s.tvs + evictions s.programs;
        runs_saved;
        hit_rate =
          (if looked_up = 0 then 0.0
           else float_of_int runs_saved /. float_of_int looked_up);
        execute_wall =
          Option.value ~default:0.0 (Hashtbl.find_opt s.stage_wall execute_stage);
        stages = sorted_bindings String.compare s.stage_wall;
        per_domain_runs = sorted_bindings compare s.domain_runs;
        counters = sorted_bindings String.compare s.named_counters;
        backend_opt_runs = s.backend_opts.computed;
        backend_opt_hits = s.backend_opts.hits;
        renders = s.renders.computed;
        render_hits = s.renders.hits;
      })

let reset e = locked e (fun () -> e.s <- fresh_state e.memo_capacity)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "engine: %d runs executed, %d saved by caching (%d memo + %d baseline + \
     %d store, %.1f%% hit rate)"
    s.runs_executed s.runs_saved s.cache_hits s.baseline_hits s.store_hits
    (100.0 *. s.hit_rate);
  Format.fprintf fmt
    "@\noptimize: %d executed, %d memo hits; memo tables: %d entries (cap \
     %d), %d evictions; store: %d hits, %d writes"
    s.opt_runs s.opt_hits s.memo_entries s.memo_capacity s.memo_evictions
    s.store_hits s.store_writes;
  if s.tv_checks > 0 then
    Format.fprintf fmt "@\ntv: %d checks, %d memoized (%.1f%% hit rate)"
      s.tv_checks s.tv_hits
      (100.0 *. float_of_int s.tv_hits /. float_of_int s.tv_checks);
  if s.backend_opt_runs + s.backend_opt_hits + s.renders + s.render_hits > 0
  then
    Format.fprintf fmt
      "@\nbackend stages: optimize+validate %d computed, %d memo hits; render \
       %d computed, %d memo hits"
      s.backend_opt_runs s.backend_opt_hits s.renders s.render_hits;
  if s.compiles > 0 || s.compile_hits > 0 then
    Format.fprintf fmt "@\ncompile: %d modules lowered, %d program-cache hits"
      s.compiles s.compile_hits;
  if s.stages <> [] then begin
    Format.fprintf fmt "@\nstage wall-clock:";
    List.iter (fun (k, v) -> Format.fprintf fmt "@\n  %-10s %8.3fs" k v) s.stages
  end;
  (match s.per_domain_runs with
  | [] | [ _ ] -> ()  (* single-domain runs need no breakdown *)
  | per_domain ->
      Format.fprintf fmt "@\nruns per domain:";
      List.iter
        (fun (d, n) -> Format.fprintf fmt " d%d:%d" d n)
        per_domain);
  if s.counters <> [] then begin
    Format.fprintf fmt "@\ncounters:";
    List.iter (fun (k, v) -> Format.fprintf fmt "@\n  %-40s %8d" k v) s.counters
  end

let stats_to_string s = Format.asprintf "%a" pp_stats s
