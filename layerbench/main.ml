(* The layered benchmark: four workloads (campaign, tv, reduce, serve) timed
   end to end with tracing off, and a separate traced run that times each
   layer from outside by driving the same public functions itself.  See
   README.md for the workloads, metrics and the layer-to-metric map.

   Usage (from the repository root, through run.sh which builds first):
     run.sh --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     run.sh --workload all --seed N --seconds S [--out FILE]
     run.sh --compare OLD.jsonl NEW.jsonl

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

open Harness
module E = Experiments
module J = Tbct_service.Json
module Target = Compilers.Target
module Backend = Compilers.Backend
module Optimizer = Compilers.Optimizer
module Trace = Layerbench.Trace
module Quant = Layerbench.Quant
module Verdict = Layerbench.Verdict

let now = Unix.gettimeofday

(* one domain everywhere, the serve pool included.  On the shared
   two-vCPU VM this was measured on, sustained two-domain work ran at
   60-100 seeds/s with bursts of 150 after single-domain phases, which made
   every workload that used a second domain unsteady *)
let workers = 1
let bench_dir = "layerbench"
let work_dir = Filename.concat bench_dir "_work"
let out_dir = Filename.concat bench_dir "_out"

type workload = Campaign | Tv | Reduce | Serve

let workloads = [ ("campaign", Campaign); ("tv", Tv); ("reduce", Reduce); ("serve", Serve) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* ------------------------------------------------------------------ *)
(* Window sizes, in passes over the 46 spirv references (twice the 23 glsl
   references). *)

let passes_per_window = function Campaign -> 10 | Tv -> 3 | Reduce -> 15 | Serve -> 2

(* how many campaign seeds that fuzz the same reference form a group, of
   which the seed leaves one out of the window.  Reduction costs are heavy
   tailed, and a few campaign seeds whose variants are costly to reduce
   decide a window's throughput: with one seed of every two left out, reduce
   throughput moved by a third from window to window.  Its windows keep 15
   of every 16 seeds instead. *)
let group_size = function Campaign | Tv | Serve -> 2 | Reduce -> 16

(* fresh seeds per scheduler slice: below the daemon's default of 8, so
   one round of the serve mix has more than 100 slices even when a slice
   runs a seed past its quantum *)
let serve_quantum = 3
(* at most this many hits per (target, signature) are reduced *)
let reduce_cap = 10
let serve_specs =
  [
    (Pipeline.Spirv_fuzz_tool, "");
    (Pipeline.Spirv_fuzz_simple, "");
    (Pipeline.Glsl_fuzz_tool, "");
    (Pipeline.Spirv_fuzz_tool, "control_flow=4");
  ]

(* ------------------------------------------------------------------ *)
(* Small system helpers *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let rec file_bytes ~suffix p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + file_bytes ~suffix (Filename.concat p f))
        0 (Sys.readdir p)
  | st -> if Filename.check_suffix p suffix then st.Unix.st_size else 0

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let proc_field path key =
  match read_lines path with
  | exception Sys_error _ -> 0
  | lines ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ k; v ] when String.equal k key ->
              int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim v)))
          | _ -> None)
        lines
      |> Option.value ~default:0

let peak_rss_mb () = float_of_int (proc_field "/proc/self/status" "VmHWM") /. 1024.0

(* bytes through read(2)/write(2): the store's traffic whether or not the
   page cache absorbs it *)
let io_bytes () = (proc_field "/proc/self/io" "rchar", proc_field "/proc/self/io" "wchar")

let stage (s : Engine.stats) name = Option.value ~default:0.0 (List.assoc_opt name s.Engine.stages)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Set-up: everything a run needs before its timed rounds *)

type ctx = {
  w : workload;
  window : int array;  (** the campaign seeds that run, ascending *)
  total : int;  (** the window is drawn from seeds [0, total) *)
  pool : Pool.t option;
  hits_spirv : E.hit list;  (** reduce: the hits the reductions start from *)
  hits_glsl : E.hit list;
}

(* The seed draws the window.  Campaign seeds [s], [s + period], ... that
   fuzz the same reference form groups of [group]; the seed leaves one
   seed of every group out.  Each reference is then fuzzed equally often,
   and every window spans the same seed range, so the serve journals replay
   the same number of records whatever the seed. *)
let draw_window ~period ~passes ~group seed =
  let rng = Random.State.make [| seed |] in
  List.init (passes / (group - 1) * period) (fun i ->
      let block = i / period and j = i mod period in
      let left_out = Random.State.int rng group in
      List.filter_map
        (fun k -> if k = left_out then None else Some ((group * period * block) + (k * period) + j))
        (List.init group Fun.id))
  |> List.concat |> List.sort compare |> Array.of_list

let position ctx =
  let pos = Array.make ctx.total (-1) in
  Array.iteri (fun i s -> pos.(s) <- i) ctx.window;
  pos

(* ------------------------------------------------------------------ *)
(* Machine speed.  On a shared machine the same deterministic work runs at
   a speed that swings by +-20% from second to second, and by up to 2x over
   minutes, when other tenants are busy.  A probe, about a millisecond of
   fixed compute-bound work, runs before the first timed item of a round (a
   seed, a reduction or a slice) and after every item.  Each item's time is
   scaled by [probe_ref] over the mean of the two probes around it, so it
   reads as it would on a machine where the probe takes [probe_ref]
   seconds.  The probe uses only the standard library (MD5 and binary
   search over preallocated data; it allocates a few words), so no change
   to the system can move it. *)
let probe_ref = 0.001

let probe_bytes = lazy (Bytes.init 2048 (fun i -> Char.chr (i * 7919 land 255)))
let probe_sorted = lazy (Array.init 4096 (fun i -> i * 3))

let probe () =
  let b = Lazy.force probe_bytes and a = Lazy.force probe_sorted in
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 40 do
    acc := !acc + Hashtbl.hash (Digest.subbytes b (i land 7) 2000)
  done;
  for i = 1 to 12_000 do
    let key = i * 7919 land 16383 in
    let lo = ref 0 and hi = ref (Array.length a - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Array.unsafe_get a mid < key then lo := mid + 1 else hi := mid
    done;
    acc := !acc + !lo
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* the probes of one round: the latest, all of them, and the time they
   took after the first, which the round's wall time leaves out *)
type meter = { mutable last : float; mutable probes : float list; mutable spent : float }

let meter () =
  let p = probe () in
  { last = p; probes = [ p ]; spent = 0.0 }

(* an item's time scaled to the probes around it; the probe after one
   item is the probe before the next *)
let calibrated m dt =
  let p = probe () in
  m.probes <- p :: m.probes;
  m.spent <- m.spent +. p;
  let c = dt *. probe_ref /. ((m.last +. p) /. 2.0) in
  m.last <- p;
  c

let spent = function Some m -> m.spent | None -> 0.0
let round_probe = function Some m -> Quant.median m.probes | None -> probe_ref

(* a set-up's time, as measured and scaled by the median of three probes
   on either side of it *)
let calibrated_span f =
  let probe3 () = Quant.median [ probe (); probe (); probe () ] in
  let p0 = probe3 () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, (dt, dt *. probe_ref *. 2.0 /. (p0 +. probe3 ())))

(* the campaign over the window, applied through the public [?skip] hook;
   per-seed latency from [?skip] (a seed's start) to [?on_seed] (its end),
   so it holds at any worker count.  Each seed's time comes as measured
   and, with a [meter], calibrated. *)
let campaign_window ?pool ?targets ?(weights = []) ?meter ~engine ~tv ctx tool =
  let pos = position ctx in
  let n = Array.length ctx.window in
  let starts = Array.make n 0.0 and lat = Array.make n (0.0, 0.0) in
  let skip s =
    if pos.(s) < 0 then Some []
    else begin
      starts.(pos.(s)) <- now ();
      None
    end
  in
  let on_seed s _ =
    let dt = now () -. starts.(pos.(s)) in
    lat.(pos.(s)) <- (dt, match meter with Some m -> calibrated m dt | None -> dt)
  in
  let hits =
    E.run_campaign
      ~scale:{ E.default_scale with E.seeds = ctx.total }
      ?pool ?targets ~engine ~tv ~weights ~skip ~on_seed tool
  in
  (hits, Array.to_list lat)

let setup w seed =
  Pipeline.warmup ();
  let period = List.length (E.references_for Pipeline.Spirv_fuzz_tool) in
  ignore (E.references_for Pipeline.Glsl_fuzz_tool);
  let passes = passes_per_window w in
  let group = group_size w in
  let window = draw_window ~period ~passes ~group seed in
  let ctx = { w; window; total = passes / (group - 1) * group * period; pool = None; hits_spirv = []; hits_glsl = [] } in
  match w with
  | Campaign | Tv -> ctx
  | Serve ->
      mkdir_p work_dir;
      { ctx with pool = Some (Pool.create ~workers ()) }
  | Reduce ->
      (* a target's hits do not depend on the other targets, so each
         campaign runs only the targets its hits are reduced on *)
      Pool.with_pool ~workers (fun pool ->
          let hits targets tool =
            fst (campaign_window ~pool ~targets ~engine:(Engine.create ()) ~tv:false ctx tool)
          in
          let hits_spirv = hits Target.dedup_study Pipeline.Spirv_fuzz_tool in
          let hits_glsl = hits Target.reduction_study Pipeline.Glsl_fuzz_tool in
          { ctx with hits_spirv; hits_glsl })

let teardown ctx = Option.iter Pool.shutdown ctx.pool

(* ------------------------------------------------------------------ *)
(* One timed round of a workload, and its outputs *)

type round = {
  wall : float;  (** timed seconds, probes left out *)
  full : float;  (** the whole round, set-up of the round included, probes left out *)
  lat : float list;  (** per seed, reduction or slice, in seconds, calibrated *)
  raw : float list;  (** the same, as measured *)
  probe : float;  (** the round's median probe time *)
  items : (string * string) list;  (** output fingerprints, by item *)
  processed : int;  (** seeds or reductions the throughput counts *)
  found : int;
  extra : (string * float) list;
}

let hit_items ctx hits =
  let tbl = Hashtbl.create (Array.length ctx.window) in
  List.iter
    (fun (h : E.hit) ->
      Hashtbl.replace tbl h.E.hit_seed
        (Persist.hit_line h :: Option.value ~default:[] (Hashtbl.find_opt tbl h.E.hit_seed)))
    hits;
  List.map
    (fun s ->
      ( "seed " ^ string_of_int s,
        String.concat "\n" (List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl s))) ))
    (Array.to_list ctx.window)

let signatures hits =
  List.sort_uniq compare
    (List.map (fun (h : E.hit) -> (h.E.hit_target, h.E.hit_detection.Pipeline.signature)) hits)
  |> List.length

let campaign_round ctx ~tv ~engine =
  let m = meter () in
  let t0 = now () in
  let hits, lat = campaign_window ~meter:m ~engine ~tv ctx Pipeline.Spirv_fuzz_tool in
  let wall = now () -. t0 -. m.spent in
  {
    wall;
    full = wall;
    lat = List.map snd lat;
    raw = List.map fst lat;
    probe = round_probe (Some m);
    items = hit_items ctx hits;
    processed = Array.length ctx.window;
    found = signatures hits;
    extra = [];
  }

(* reduce: which hits the RQ2 study and the Table 4 study reduce *)
let names ts = List.map (fun (t : Target.t) -> t.Target.name) ts

let rq2_hits ctx =
  let eligible hits =
    List.filter (fun (h : E.hit) -> List.mem h.E.hit_target (names Target.reduction_study)) hits
    |> E.cap_hits ~per_signature:reduce_cap
  in
  eligible ctx.hits_spirv @ eligible ctx.hits_glsl

let crash_hits ctx =
  List.filter
    (fun (h : E.hit) ->
      List.mem h.E.hit_target (names Target.dedup_study)
      && not (Signature.is_miscompilation h.E.hit_detection.Pipeline.signature))
    ctx.hits_spirv
  |> E.cap_hits ~per_signature:reduce_cap

let outcome_line = function
  | None -> "none"
  | Some (o : E.reduction_outcome) ->
      Printf.sprintf "%s %s %S delta=%d kept=%d initial=%d"
        (Pipeline.tool_name o.E.red_tool) o.E.red_target o.E.red_signature o.E.red_delta
        o.E.red_kept o.E.red_initial

let tests_line tests =
  String.concat "\n"
    (List.map
       (fun (target, (d : E.dedup_test)) ->
         Printf.sprintf "%s %s [%s] %s" target d.E.dd_bug_id (String.concat "," d.E.dd_types)
           (Spirv_ir.Digest.of_module d.E.dd_module))
       tests)

let table4_line (rows, (total : E.table4_row)) =
  String.concat "\n"
    (List.map
       (fun (r : E.table4_row) ->
         Printf.sprintf "%s tests=%d sigs=%d reports=%d distinct=%d dups=%d" r.E.t4_target
           r.E.t4_tests r.E.t4_sigs r.E.t4_reports r.E.t4_distinct r.E.t4_dups)
       (rows @ [ total ]))

let reduce_outputs ~rq2 ~tests ~t4 =
  List.mapi (fun i o -> (Printf.sprintf "rq2 %d" i, outcome_line o)) rq2
  @ List.mapi (fun i t -> (Printf.sprintf "dedup %d" i, tests_line t)) tests
  @ [ ("table4", table4_line t4) ]

let reduce_quality ~rq2 ~t4 =
  let deltas =
    List.filter_map (Option.map (fun (o : E.reduction_outcome) -> float_of_int o.E.red_delta)) rq2
  in
  let _, (total : E.table4_row) = t4 in
  (Quant.median deltas, total.E.t4_distinct)

let reduce_round ctx ~engine =
  let m = meter () in
  let lat = ref [] in
  let timed f =
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    lat := (dt, calibrated m dt) :: !lat;
    r
  in
  let t0 = now () in
  let rq2 = List.map (fun h -> timed (fun () -> E.reduce_hit engine h)) (rq2_hits ctx) in
  let tests =
    List.map
      (fun h -> timed (fun () -> E.reduced_crash_tests ~engine ~hits:[ h ] ()))
      (crash_hits ctx)
  in
  let t4 =
    E.table4 ~engine ~tests:(List.concat tests)
      ~hits:[| ctx.hits_spirv; []; [] |] ()
  in
  let wall = now () -. t0 -. m.spent in
  let delta_p50, distinct = reduce_quality ~rq2 ~t4 in
  {
    wall;
    full = wall;
    lat = List.rev_map snd !lat;
    raw = List.rev_map fst !lat;
    probe = round_probe (Some m);
    items = reduce_outputs ~rq2 ~tests ~t4;
    processed = List.length rq2 + List.length tests;
    found = distinct;
    extra = [ ("reduced_delta_p50", delta_p50) ];
  }

(* serve: an in-process scheduler on a fresh root under the benchmark's
   own work directory.  [sp] wraps the round's phases in spans when the
   round is traced; a traced round runs no probes. *)
let serve_spec ctx (tool, weights) =
  {
    Tbct_service.Protocol.sub_tool = tool;
    sub_seeds = ctx.total;
    sub_targets = [];
    sub_weights = weights;
    sub_tv = false;
  }

let weights_of s =
  match Spirv_fuzz.Registry.parse_weights s with Ok w -> w | Error e -> failwith e

type serve_obs = {
  sched_stats : Engine.stats list;  (** both schedulers' engines *)
  cas_stats : Tbct_store.Cas.stats list;
  cross_hits : int;
  slices : int;
  step_self : float;  (** step wall not covered by engine stages, per worker *)
  journal_bytes : int;
}

let serve_round ?tr ctx ~round =
  let sp ?repeat name f = match tr with None -> f () | Some tr -> Trace.span ?repeat tr name f in
  let pool = Option.get ctx.pool in
  let root = Filename.concat work_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) round) in
  rm_rf root;
  let timed = ref 0.0 and lat = ref [] and step_self = ref 0.0 in
  let m = match tr with None -> Some (meter ()) | Some _ -> None in
  let time f =
    let t0 = now () in
    let r = f () in
    timed := !timed +. (now () -. t0);
    r
  in
  let full0 = now () in
  let run_jobs sched specs =
    let jobs =
      List.map
        (fun spec ->
          match sp "scheduler.submit" (fun () -> Tbct_service.Scheduler.submit sched (serve_spec ctx spec)) with
          | Ok j -> (j, spec)
          | Error e -> failwith e)
        specs
    in
    (* the window: seeds outside it are journaled as done, empty, before
       the first slice, so every slice's resume skips them *)
    sp "serve.prefill" (fun () ->
        List.iter
          (fun (j, (tool, _)) ->
            match
              Persist.open_campaign
                ~dir:(Filename.concat (Filename.concat root "jobs") (Tbct_service.Scheduler.id j))
                ~tool ~targets:Target.all
                ~scale:{ E.default_scale with E.seeds = ctx.total }
                ()
            with
            | Error e -> failwith e
            | Ok c ->
                let pos = position ctx in
                for s = 0 to ctx.total - 1 do
                  if pos.(s) < 0 then Persist.on_seed c s []
                done;
                Persist.close c)
          jobs);
    let engine = Tbct_service.Scheduler.engine sched in
    time (fun () ->
        while Tbct_service.Scheduler.runnable sched do
          let before = Engine.stats engine in
          let t0 = now () in
          (match sp ~repeat:true "scheduler.step" (fun () -> Tbct_service.Scheduler.step sched) with
          | `Halted j ->
              failwith
                (Option.value ~default:"halted" (Tbct_service.Scheduler.last_error j))
          | `Idle | `Sliced _ | `Finished _ -> ());
          let dt = now () -. t0 in
          lat := (dt, match m with Some m -> calibrated m dt | None -> dt) :: !lat;
          let after = Engine.stats engine in
          let busy =
            List.fold_left (fun acc (k, v) -> acc +. v -. stage before k) 0.0 after.Engine.stages
          in
          step_self := !step_self +. Float.max 0.0 (dt -. (busy /. float_of_int (Pool.workers pool)))
        done;
        List.map
          (fun (j, spec) ->
            match sp "scheduler.hits" (fun () -> Tbct_service.Scheduler.hits sched j) with
            | Ok (hits, completed) -> (spec, hits, completed)
            | Error e -> failwith e)
          jobs)
  in
  let open_sched () = sp "scheduler.create" (fun () ->
        Tbct_service.Scheduler.create ~quantum:serve_quantum ~root ~pool ()) in
  let sched = open_sched () in
  let results = run_jobs sched serve_specs in
  let stats1 = Engine.stats (Tbct_service.Scheduler.engine sched) in
  let cas1 = Option.map Tbct_store.Cas.stats (Engine.cas (Tbct_service.Scheduler.engine sched)) in
  let cross_hits = Tbct_service.Scheduler.cross_job_memo_hits sched in
  let slices =
    List.fold_left (fun acc j -> acc + Tbct_service.Scheduler.slices j) 0 (Tbct_service.Scheduler.jobs sched)
  in
  time (fun () -> sp "scheduler.close" (fun () -> Tbct_service.Scheduler.close sched));
  (* a restarted daemon: fresh engine, same store; job 1 once more *)
  let sched2 = time open_sched in
  let repeat = run_jobs sched2 [ List.hd serve_specs ] in
  let stats2 = Engine.stats (Tbct_service.Scheduler.engine sched2) in
  let cas2 = Option.map Tbct_store.Cas.stats (Engine.cas (Tbct_service.Scheduler.engine sched2)) in
  let slices2 =
    List.fold_left (fun acc j -> acc + Tbct_service.Scheduler.slices j) 0 (Tbct_service.Scheduler.jobs sched2)
  in
  time (fun () -> sp "scheduler.close" (fun () -> Tbct_service.Scheduler.close sched2));
  let journal_bytes =
    sp "serve.cleanup" (fun () ->
        let bytes = file_bytes ~suffix:".log" root in
        rm_rf root;
        bytes)
  in
  let full = now () -. full0 -. spent m in
  let job_line (_, hits, completed) =
    (if completed then "" else "INCOMPLETE\n")
    ^ String.concat "\n" (List.map Persist.hit_line hits)
  in
  let items =
    List.mapi (fun i r -> (Printf.sprintf "job %d" (i + 1), job_line r)) results
    @ List.map (fun r -> ("repeat of job 1", job_line r)) repeat
  in
  let all_hits = List.concat_map (fun (_, hits, _) -> hits) results in
  let round =
    {
      wall = !timed -. spent m;
      full;
      lat = List.rev_map snd !lat;
      raw = List.rev_map fst !lat;
      probe = round_probe m;
      items;
      processed = Array.length ctx.window * (List.length results + List.length repeat);
      found = signatures all_hits;
      extra = [];
    }
  in
  ( round,
    {
      sched_stats = [ stats1; stats2 ];
      cas_stats = List.filter_map Fun.id [ cas1; cas2 ];
      cross_hits;
      slices = slices + slices2;
      step_self = !step_self;
      journal_bytes;
    } )

let run_round ctx ~round =
  match ctx.w with
  | Campaign -> campaign_round ctx ~tv:false ~engine:(Engine.create ())
  | Tv -> campaign_round ctx ~tv:true ~engine:(Engine.create ())
  | Reduce -> reduce_round ctx ~engine:(Engine.create ())
  | Serve -> fst (serve_round ctx ~round)

(* ------------------------------------------------------------------ *)
(* Reference outputs: the same window on the reference interpreter *)

let reference_items ctx =
  let engine () = Engine.create ~compiled:false () in
  let pool = match ctx.pool with Some p -> p | None -> Pool.create ~workers () in
  let batch ?(weights = []) ~tv tool =
    fst (campaign_window ~pool ~weights ~engine:(engine ()) ~tv ctx tool)
  in
  let items =
    match ctx.w with
    | Campaign -> hit_items ctx (batch ~tv:false Pipeline.Spirv_fuzz_tool)
    | Tv -> hit_items ctx (batch ~tv:true Pipeline.Spirv_fuzz_tool)
    | Reduce ->
        let engine = engine () in
        let rq2 = E.reduce_hits ~pool engine (rq2_hits ctx) in
        let tests =
          List.map
            (fun h -> E.reduced_crash_tests ~engine ~pool ~hits:[ h ] ())
            (crash_hits ctx)
        in
        let t4 =
          E.table4 ~engine ~tests:(List.concat tests)
            ~hits:[| ctx.hits_spirv; []; [] |] ()
        in
        reduce_outputs ~rq2 ~tests ~t4
    | Serve ->
        (* the batch campaign of each job's spec; the restarted repeat
           must equal job 1 *)
        let jobs =
          List.mapi
            (fun i (tool, w) ->
              ( Printf.sprintf "job %d" (i + 1),
                String.concat "\n"
                  (List.map Persist.hit_line (batch ~weights:(weights_of w) ~tv:false tool)) ))
            serve_specs
        in
        jobs @ [ ("repeat of job 1", List.assoc "job 1" jobs) ]
  in
  if ctx.pool = None then Pool.shutdown pool;
  items

(* items whose fingerprint is missing from, or differs from, the reference *)
let count_failed ~reference items =
  List.length
    (List.filter
       (fun (k, fp) ->
         match List.assoc_opt k reference with
         | Some fp' -> not (String.equal fp fp')
         | None -> true)
       items)

(* ------------------------------------------------------------------ *)
(* Traced copies of the workloads.  They call the same public functions
   the untraced rounds reach, record a span around each call, bill the
   engine's own stage clocks as clock spans, and must reproduce the
   untraced outputs exactly. *)

type recorder = {
  tr : Trace.t;
  engine : Engine.t;
  mutable executed :
    (Target.t * Spirv_ir.Module_ir.t * Spirv_ir.Input.t * Backend.run_result) list;
  mutable probes : int;
  mutable probes_executed : int;
}

(* an engine stage clock, and the count that moves whenever the stage did
   work: a stage that ran for less than the clock's resolution still
   leaves its clock span, so the span tree does not depend on timing *)
let execute = ("execute", "engine.execute", fun (s : Engine.stats) -> s.Engine.runs_executed)
let optimize = ("optimize", "engine.optimize.work", fun (s : Engine.stats) -> s.Engine.opt_runs)
let symval = ("tv", "tv.symval", fun (s : Engine.stats) -> s.Engine.tv_checks - s.Engine.tv_hits)

let engine_call rc name ~clocks f =
  Trace.span rc.tr name (fun () ->
      let before = Engine.stats rc.engine in
      let r = f () in
      let after = Engine.stats rc.engine in
      let worked count = count after > count before in
      List.iter
        (fun (st, clock, count) ->
          if worked count then Trace.clock rc.tr clock (stage after st -. stage before st))
        clocks;
      (r, List.exists (fun (_, _, count) -> worked count) [ execute; optimize ]))

let exec_clock = [ execute ]
let engine_clocks = [ execute; optimize; symval ]

let traced_engine_run rc t m input =
  let r, executed = engine_call rc "engine.run" ~clocks:exec_clock (fun () -> Engine.run rc.engine t m input) in
  if executed then rc.executed <- (t, m, input, r) :: rc.executed;
  r

let traced_baseline rc t ~ref_name m input =
  let r, executed =
    engine_call rc "engine.baseline" ~clocks:exec_clock (fun () ->
        Engine.baseline rc.engine t ~ref_name m input)
  in
  if executed then rc.executed <- (t, m, input, r) :: rc.executed;
  r

let traced_optimize rc m =
  fst
    (engine_call rc "engine.optimize" ~clocks:[ optimize ] (fun () ->
         Engine.optimize rc.engine m))

let traced_tv_signature rc (t : Target.t) m =
  match
    Trace.span rc.tr "tv.run_tv" (fun () ->
        Optimizer.run_tv ~flags:t.Target.opt_flags
          ~check:(fun before after ->
            fst
              (engine_call rc "engine.tv_check" ~clocks:[ symval ] (fun () ->
                   Engine.tv_check rc.engine ~before ~after)))
          t.Target.pipeline m)
  with
  | Error _ -> None
  | Ok report ->
      Option.map
        (fun p -> Signature.miscompile ~target:t ~pass:(Some p))
        report.Optimizer.tv_guilty

let compare_runs ~original ~variant : Pipeline.detection option =
  match (original, variant) with
  | _, Backend.Crashed signature -> Some { Pipeline.signature; via_opt = false }
  | Backend.Rendered a, Backend.Rendered b ->
      if Spirv_ir.Image.equal a b then None
      else Some { Pipeline.signature = Signature.miscompilation; via_opt = false }
  | (Backend.Crashed _ | Backend.Compiled_ok), Backend.Rendered _ -> None
  | _, Backend.Compiled_ok -> None

(* Pipeline.run_variant, call for call *)
let traced_variant rc ~tv (t : Target.t) ~ref_name ~original ~variant_input ~variant input =
  let refine (d : Pipeline.detection) m =
    if tv && Signature.is_miscompilation d.Pipeline.signature then
      match traced_tv_signature rc t m with
      | Some s -> { d with Pipeline.signature = s }
      | None -> { d with Pipeline.signature = Signature.miscompile ~target:t ~pass:None }
    else d
  in
  let orig_run = traced_baseline rc t ~ref_name original input in
  let var_run = traced_engine_run rc t variant variant_input in
  match compare_runs ~original:orig_run ~variant:var_run with
  | Some d -> Some (refine d variant)
  | None -> (
      match if tv then traced_tv_signature rc t variant else None with
      | Some signature -> Some { Pipeline.signature; via_opt = false }
      | None -> (
          match traced_optimize rc variant with
          | Error _ -> None
          | Ok optimized -> (
              let var_run' = traced_engine_run rc t optimized variant_input in
              match compare_runs ~original:orig_run ~variant:var_run' with
              | Some d -> Some { (refine d optimized) with Pipeline.via_opt = true }
              | None -> (
                  match if tv then traced_tv_signature rc t optimized else None with
                  | Some signature -> Some { Pipeline.signature; via_opt = true }
                  | None -> None))))

(* Experiments.run_campaign's per-seed body, sequentially over the window *)
let traced_campaign rc ctx ~tv =
  let tool = Pipeline.Spirv_fuzz_tool in
  let refs = Array.of_list (E.references_for tool) in
  List.concat_map
    (fun seed ->
      Trace.span rc.tr "seed" (fun () ->
          let ref_name, ref_source, ref_module = refs.(seed mod Array.length refs) in
          let g =
            Trace.span rc.tr "generate" (fun () ->
                Engine.timed rc.engine ~stage:"generate" (fun () ->
                    Pipeline.generate tool ~ref_source ~ref_module ~seed
                      ~input:Corpus.default_input))
          in
          List.iter
            (fun (type_id, proposed, applied) ->
              if proposed > 0 then Engine.bump_counter rc.engine ("proposed/" ^ type_id) proposed;
              if applied > 0 then Engine.bump_counter rc.engine ("applied/" ^ type_id) applied)
            g.Pipeline.gen_counters;
          List.filter_map
            (fun (t : Target.t) ->
              Trace.span rc.tr "pipeline.variant" (fun () ->
                  traced_variant rc ~tv t ~ref_name ~original:ref_module
                    ~variant_input:g.Pipeline.gen_input ~variant:g.Pipeline.gen_variant
                    Corpus.default_input)
              |> Option.map (fun d ->
                     {
                       E.hit_tool = tool;
                       hit_seed = seed;
                       hit_ref = ref_name;
                       hit_target = t.Target.name;
                       hit_detection = d;
                     }))
            Target.all))
    (Array.to_list ctx.window)

(* Compilers.Backend.run, stage by stage, on each triple the traced
   campaign executed; the replayed result must equal the engine's *)
let pass_label p = String.lowercase_ascii (Optimizer.show_pass_name p)

let all_passes =
  Optimizer.
    [ Const_fold; Copy_prop; Dce; Simplify_cfg; Phi_simplify; Cse; Inline; Store_forward; Dse; Hoist_invariant ]

let replay tr (t, m, input, expected) =
  let span name f = Trace.span tr name f in
  let check_phase phase m =
    List.find_map
      (fun id ->
        match Compilers.Bug.find_crash_bug id with
        | Some spec when spec.Compilers.Bug.phase = phase && spec.Compilers.Bug.trigger m ->
            Some spec.Compilers.Bug.signature
        | _ -> None)
      t.Target.crash_bug_ids
  in
  let render corrupted =
    span "backend.render" (fun () ->
        let p = span "compile.lower" (fun () -> Spirv_ir.Compile.lower corrupted) in
        span "compile.render_batch" (fun () -> Spirv_ir.Compile.render_batch p input))
  in
  let result, rendered =
    match span "backend.triggers" (fun () -> check_phase Compilers.Bug.Before_opt m) with
    | Some s -> (Backend.Crashed s, None)
    | None -> (
        match
          span "backend.optimize" (fun () ->
              List.fold_left
                (fun m p ->
                  span ("backend.optimize.pass." ^ pass_label p) (fun () ->
                      Optimizer.run_pass t.Target.opt_flags m p))
                m t.Target.pipeline)
        with
        | exception Compilers.Opt_util.Compiler_crash s -> (Backend.Crashed s, None)
        | optimized -> (
            match span "backend.triggers" (fun () -> check_phase Compilers.Bug.After_opt optimized) with
            | Some s -> (Backend.Crashed s, None)
            | None -> (
                match span "backend.validate" (fun () -> Spirv_ir.Validate.check optimized) with
                | Error (e :: _) ->
                    ( Backend.Crashed
                        ("optimizer emitted invalid module: " ^ Spirv_ir.Validate.error_to_string e),
                      None )
                | Error [] -> (Backend.Crashed "optimizer emitted invalid module", None)
                | Ok () ->
                    if not t.Target.executes then (Backend.Compiled_ok, None)
                    else
                      let corrupted =
                        span "backend.rewrite" (fun () ->
                            List.fold_left
                              (fun m id ->
                                match Compilers.Bug.find_miscompile_bug id with
                                | Some spec -> spec.Compilers.Bug.rewrite m
                                | None -> m)
                              optimized t.Target.miscompile_bug_ids)
                      in
                      let r =
                        match render corrupted with
                        | Ok img -> Backend.Rendered img
                        | Error Spirv_ir.Interp.Step_limit_exceeded -> Backend.Crashed "device lost (timeout)"
                        | Error (Spirv_ir.Interp.Invalid_module _) ->
                            Backend.Crashed "device lost (fault while executing shader)"
                        | Error (Spirv_ir.Interp.Missing_uniform u) ->
                            Backend.Crashed ("device lost (missing binding " ^ u ^ ")")
                      in
                      (r, Some corrupted))))
  in
  (* distinctness keys: what a stage-level memo would key on *)
  let keys =
    span "replay.digest" (fun () ->
        let opt_key =
          Marshal.to_string (t.Target.pipeline, t.Target.opt_flags) []
          ^ Spirv_ir.Digest.of_module m
        in
        let render_key =
          Option.map
            (fun c -> Spirv_ir.Digest.of_module c ^ Spirv_ir.Digest.of_input input)
            rendered
        in
        (opt_key, render_key))
  in
  ( String.equal (Tbct_store.Run_codec.encode_run result) (Tbct_store.Run_codec.encode_run expected),
    keys )

(* Experiments.reduce_hit / reduced_crash_tests, with the
   interestingness test wrapped so every ddmin probe is a span *)
let traced_reduction rc (h : E.hit) =
  match Target.find h.E.hit_target with
  | None -> None
  | Some t ->
      Trace.span rc.tr "reduce.hit" (fun () ->
          let refs = E.references_for h.E.hit_tool in
          let ref_name, ref_source, ref_module =
            match List.find_opt (fun (n, _, _) -> String.equal n h.E.hit_ref) refs with
            | Some r -> r
            | None -> List.hd refs
          in
          let generated =
            Trace.span rc.tr "generate" (fun () ->
                Engine.timed rc.engine ~stage:"generate" (fun () ->
                    Pipeline.generate h.E.hit_tool ~ref_source ~ref_module ~seed:h.E.hit_seed
                      ~input:Corpus.default_input))
          in
          let interesting =
            Pipeline.interestingness rc.engine t ~ref_name ~original:ref_module
              ~detection:h.E.hit_detection Corpus.default_input
          in
          let probe m input =
            rc.probes <- rc.probes + 1;
            let r, executed =
              engine_call rc "reduce.probe" ~clocks:engine_clocks (fun () -> interesting m input)
            in
            if executed then rc.probes_executed <- rc.probes_executed + 1;
            r
          in
          if not (probe generated.Pipeline.gen_variant generated.Pipeline.gen_input) then None
          else
            Some
              ( ref_module,
                generated,
                Trace.span rc.tr "reduce.search" (fun () ->
                    generated.Pipeline.gen_reduce ~is_interesting:probe) ))

let traced_reduce_hit rc (h : E.hit) =
  Option.map
    (fun (ref_module, (g : Pipeline.generated), reduced) ->
      let size =
        match reduced with
        | `Spirv (_, c) -> Spirv_ir.Module_ir.instruction_count c.Spirv_fuzz.Context.m
        | `Glsl p -> Spirv_ir.Module_ir.instruction_count (Glsl_like.Lower.lower p)
      in
      {
        E.red_tool = h.E.hit_tool;
        red_target = h.E.hit_target;
        red_signature = h.E.hit_detection.Pipeline.signature;
        red_delta = abs (size - Spirv_ir.Module_ir.instruction_count ref_module);
        red_kept =
          (match reduced with
          | `Spirv (kept, _) -> List.length kept
          | `Glsl p -> List.length (Glsl_like.Ast.program_markers p));
        red_initial = g.Pipeline.gen_transformation_count;
      })
    (traced_reduction rc h)

let traced_crash_test rc (h : E.hit) =
  match traced_reduction rc h with
  | Some (_, _, `Spirv (kept, c)) ->
      [
        ( h.E.hit_target,
          {
            E.dd_bug_id = Signature.bug_id_of_signature h.E.hit_detection.Pipeline.signature;
            dd_types = List.map Spirv_fuzz.Transformation.type_id kept;
            dd_module = c.Spirv_fuzz.Context.m;
          } );
      ]
  | Some (_, _, `Glsl _) | None -> []

(* ------------------------------------------------------------------ *)
(* Per-layer metrics: every name in BENCHMARK.json's per_layer list, in
   this order; a layer a workload bypasses reads 0 *)

let per_layer =
  [
    ("generate.s", "s"); ("generate.applied_ratio", "ratio");
    ("engine.lookups", "count"); ("engine.executed", "count"); ("engine.memo_ratio", "ratio");
    ("engine.run.self_s", "s"); ("engine.execute_s", "s"); ("engine.compile.lowered", "count");
    ("engine.compile.hit_ratio", "ratio"); ("engine.optimize.executed", "count");
    ("engine.optimize.hit_ratio", "ratio"); ("engine.evictions", "count");
    ("engine.unattributed_s", "s");
    ("backend.replayed", "count"); ("backend.triggers_s", "s"); ("backend.optimize_s", "s");
    ("backend.validate_s", "s"); ("backend.rewrite_s", "s"); ("backend.render_s", "s");
  ]
  @ List.map (fun p -> ("backend.optimize.pass." ^ pass_label p ^ "_s", "s")) all_passes
  @ [
      ("backend.render.distinct_ratio", "ratio"); ("backend.optimize.distinct_ratio", "ratio");
      ("tv.checks", "count"); ("tv.memo_ratio", "ratio"); ("tv.symval_s", "s");
      ("tv.check.self_s", "s"); ("tv.passes_s", "s"); ("tv.abstains", "count");
      ("reduce.probes", "count"); ("reduce.probes_per_reduction", "ratio");
      ("reduce.probe_executed_ratio", "ratio"); ("reduce.probe_s", "s"); ("reduce.search_s", "s");
      ("dedup.s", "s");
      ("pool.tasks", "count"); ("pool.steal_ratio", "ratio"); ("pool.imbalance", "ratio");
      ("scheduler.slices", "count"); ("scheduler.cross_memo_hits", "count");
      ("scheduler.step.self_s", "s"); ("scheduler.hits_s", "s");
      ("cas.puts", "count"); ("cas.gets", "count"); ("cas.hit_ratio", "ratio"); ("cas.bytes", "bytes");
      ("journal.bytes", "bytes"); ("io.read_bytes", "bytes"); ("io.write_bytes", "bytes");
      ("gc.minor_mwords", "Mwords"); ("gc.promoted_mwords", "Mwords"); ("gc.major_collections", "count");
      ("trace.wall_s", "s"); ("trace.untraced_wall_s", "s"); ("trace.overhead_s", "s");
      ("trace.spans", "count");
    ]

let sum_stats (ss : Engine.stats list) f = List.fold_left (fun acc s -> acc + f s) 0 ss
let sum_stage ss name = List.fold_left (fun acc s -> acc +. stage s name) 0.0 ss

let engine_layer (ss : Engine.stats list) =
  let sum = sum_stats ss in
  let saved = sum (fun s -> s.Engine.runs_saved) and executed = sum (fun s -> s.Engine.runs_executed) in
  let counter prefix =
    sum (fun s ->
        List.fold_left
          (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
          0 s.Engine.counters)
  in
  let compiles = sum (fun s -> s.Engine.compiles) and compile_hits = sum (fun s -> s.Engine.compile_hits) in
  let opt_runs = sum (fun s -> s.Engine.opt_runs) and opt_hits = sum (fun s -> s.Engine.opt_hits) in
  let tv_checks = sum (fun s -> s.Engine.tv_checks) in
  [
    ("generate.s", sum_stage ss "generate");
    ("generate.applied_ratio", ratio (counter "applied/") (counter "proposed/"));
    ("engine.lookups", float_of_int (saved + executed));
    ("engine.executed", float_of_int executed);
    ("engine.memo_ratio", ratio saved (saved + executed));
    ("engine.execute_s", sum_stage ss "execute");
    ("engine.compile.lowered", float_of_int compiles);
    ("engine.compile.hit_ratio", ratio compile_hits (compiles + compile_hits));
    ("engine.optimize.executed", float_of_int opt_runs);
    ("engine.optimize.hit_ratio", ratio opt_hits (opt_runs + opt_hits));
    ("engine.evictions", float_of_int (sum (fun s -> s.Engine.memo_evictions)));
    ("tv.checks", float_of_int tv_checks);
    ("tv.memo_ratio", ratio (sum (fun s -> s.Engine.tv_hits)) tv_checks);
    ("tv.symval_s", sum_stage ss "tv");
    ("tv.abstains", float_of_int (counter "tv-abstain:"));
  ]

(* ------------------------------------------------------------------ *)
(* Runs *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  units : (string * string) list;
  lines : string list;  (** human-readable report *)
}

let time_setup_children w seed ~k =
  List.init k (fun _ ->
      snd
        (calibrated_span (fun () ->
             let pid =
               Unix.create_process Sys.executable_name
                 [| Sys.executable_name; "--setup-only"; "--workload"; workload_name w; "--seed"; string_of_int seed |]
                 Unix.stdin Unix.stdout Unix.stderr
             in
             match Unix.waitpid [] pid with
             | _, Unix.WEXITED 0 -> ()
             | _ -> failwith "set-up child failed")))

let end_to_end_units =
  [
    ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms"); ("peak_rss_mb", "MB");
  ]

(* the issue-level names of the generic metrics, per workload *)
let named w =
  match w with
  | Campaign | Tv -> ("seeds_per_s", "seed_ms", "signatures")
  | Reduce -> ("reductions_per_s", "reduce_ms", "dedup_distinct")
  | Serve -> ("seeds_per_s", "slice_ms", "signatures")

(* set-up samples: this process's own set-up, and more in child processes
   that set up the same workload and exit *)
let untraced_run ctx ~seed ~seconds ~setup =
  let w = ctx.w in
  let setups =
    setup :: time_setup_children w seed ~k:(match w with Reduce -> 1 | Campaign | Tv | Serve -> 8)
  in
  let t_start = now () in
  (* rounds repeat the same window until the time is up; a round that
     raises ends the timed part and counts all its items as failed *)
  (* every run has two rounds, so every item has a best of two samples; a
     further round starts only if it should end within the time, judging
     by the round before it *)
  let rec loop acc i last =
    if List.compare_length_with acc 2 < 0 || now () -. t_start +. last <= seconds then begin
      Gc.full_major ();
      let t0 = now () in
      match run_round ctx ~round:i with
      | r -> loop (r :: acc) (i + 1) (now () -. t0)
      | exception e ->
          prerr_endline ("round failed: " ^ Printexc.to_string e);
          (acc, true)
    end
    else (acc, false)
  in
  let rounds, raised = loop [] 0 0.0 in
  if rounds = [] then failwith "no round completed";
  let rounds = List.rev rounds in
  let rss = peak_rss_mb () in
  let reference = reference_items ctx in
  let lost = if raised then List.length reference else 0 in
  let failed = lost + List.fold_left (fun acc r -> acc + count_failed ~reference r.items) 0 rounds in
  let attempted = lost + List.fold_left (fun acc r -> acc + List.length r.items) 0 rounds in
  (* every round repeats the same inputs, so each item (seed, reduction,
     slice) has one sample per round: timings take each item's best
     sample, and throughput divides by the sum of those plus the best
     round's time outside the items, which filters out the interference
     of other tenants of a shared machine.  The time outside the items is
     calibrated by the round's median probe. *)
  let first = List.hd rounds in
  let sum = List.fold_left ( +. ) 0.0 in
  let best_wall lats scale =
    let lat = Quant.best_of (List.map lats rounds) in
    let outside =
      List.fold_left (fun acc r -> Float.min acc ((r.wall -. sum r.raw) *. scale r)) infinity rounds
    in
    (lat, sum lat +. Float.max 0.0 outside)
  in
  let lat, cal_wall = best_wall (fun r -> r.lat) (fun r -> probe_ref /. r.probe) in
  let raw_lat, raw_wall = best_wall (fun r -> r.raw) (fun _ -> 1.0) in
  let nlat = List.length lat in
  let mean_wall = sum (List.map (fun r -> r.wall) rounds) /. float_of_int (List.length rounds) in
  let probes = Quant.median (List.map (fun r -> r.probe) rounds) in
  (* each timing calibrated, and as measured *)
  let timings lat best setups =
    [
      ("setup_s", Quant.median setups);
      ("throughput_per_s", float_of_int first.processed /. best);
      ("latency_p50_ms", 1000.0 *. Quant.percentile lat 50.0);
      ("latency_p90_ms", 1000.0 *. Quant.percentile lat 90.0);
    ]
  in
  (* [found] is printed but is no JSON metric: it measures the window,
     not the system, and moved by 35% from one tv window to the next *)
  let metrics = timings lat cal_wall (List.map snd setups) @ [ ("peak_rss_mb", rss) ] in
  let raws = timings raw_lat raw_wall (List.map fst setups) in
  let value k = List.assoc k metrics and raw k = List.assoc k raws in
  let rate, lat_name, found_name = named w in
  let tail =
    match Quant.tail_percentile nlat with
    | Some p -> Printf.sprintf "p%g (%d beyond)" p (Quant.beyond nlat p)
    | None -> "none"
  in
  let line name v unit = Printf.sprintf "%-10s %-22s %14.4f %s" (workload_name w) name v unit in
  let timed name k unit =
    Printf.sprintf "%-10s %-22s %14.4f %-5s (as measured %.4f)" (workload_name w) name (value k) unit (raw k)
  in
  let lines =
    [
      Printf.sprintf "%s: %d seeds drawn from [0, %d), %d round(s) of %s s, %d samples, highest percentile with >=10 beyond: %s"
        (workload_name w) (Array.length ctx.window) ctx.total (List.length rounds)
        (String.concat "/" (List.map (fun r -> Printf.sprintf "%.3f" r.wall) rounds))
        nlat tail;
      Printf.sprintf "%s: median probe %.6f s; times calibrated to a %.3f s probe" (workload_name w)
        probes probe_ref;
      timed "setup_s" "setup_s" "s";
      timed rate "throughput_per_s" "1/s";
      line (rate ^ "_mean_round") (float_of_int first.processed /. mean_wall) "1/s";
      timed (lat_name ^ "_p50") "latency_p50_ms" "ms";
      timed (lat_name ^ "_p90") "latency_p90_ms" "ms";
      line found_name (float_of_int first.found) "count";
    ]
    @ List.map (fun (k, v) -> line k v "instructions") first.extra
    @ [
        line "peak_rss_mb" rss "MB";
        line "failed_frac" (ratio failed attempted) "share";
        Printf.sprintf "%-10s %-22s %s" (workload_name w) "fingerprint"
          (if failed = 0 then "matches the reference interpreter" else "DIFFERS from the reference interpreter");
      ]
  in
  { correct = failed = 0; attempted; failed; metrics; units = end_to_end_units; lines }

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let trace_workload ctx ~seed =
  let w = ctx.w in
  (* the untraced reference point for the tracing overhead: the better of
     two untraced rounds against the better of the two traced passes *)
  let untraced_rounds =
    List.init 2 (fun round ->
        Gc.full_major ();
        run_round ctx ~round)
  in
  let untraced_wall = List.fold_left (fun acc r -> Float.min acc r.full) infinity untraced_rounds in
  let pass run =
    Gc.full_major ();
    let tr = Trace.create ~run in
    let rc = { tr; engine = Engine.create (); executed = []; probes = 0; probes_executed = 0 } in
    let round = run + 1 in
    let gc0 = Gc.quick_stat () and io0 = io_bytes () in
    let items, layer =
      match w with
      | Campaign | Tv ->
          let tv = w = Tv in
          let hits = Trace.span tr (workload_name w) (fun () -> traced_campaign rc ctx ~tv) in
          (hit_items ctx hits, engine_layer [ Engine.stats rc.engine ])
      | Reduce ->
          let rq2, tests, t4 =
            Trace.span tr "reduce" (fun () ->
                let rq2 = List.map (traced_reduce_hit rc) (rq2_hits ctx) in
                Trace.span tr "dedup" (fun () ->
                    let tests = List.map (traced_crash_test rc) (crash_hits ctx) in
                    let t4 =
                      Trace.span tr "dedup.table4" (fun () ->
                          E.table4 ~engine:rc.engine ~tests:(List.concat tests)
                            ~hits:[| ctx.hits_spirv; []; [] |] ())
                    in
                    (rq2, tests, t4)))
          in
          ( reduce_outputs ~rq2 ~tests ~t4,
            engine_layer [ Engine.stats rc.engine ]
            @ [
                ("reduce.probes", float_of_int rc.probes);
                ("reduce.probes_per_reduction", ratio rc.probes (List.length rq2 + List.length tests));
                ("reduce.probe_executed_ratio", ratio rc.probes_executed rc.probes);
              ] )
      | Serve ->
          let pool = Option.get ctx.pool in
          let ps0 = Pool.stats pool in
          let round, obs = Trace.span tr "serve" (fun () -> serve_round ~tr ctx ~round) in
          let ps1 = Pool.stats pool in
          let tasks = Array.mapi (fun i s -> s.Pool.ws_tasks - ps0.(i).Pool.ws_tasks) ps1 in
          let steals = Array.mapi (fun i s -> s.Pool.ws_steals - ps0.(i).Pool.ws_steals) ps1 in
          let total = Array.fold_left ( + ) 0 tasks in
          let mean = float_of_int total /. float_of_int (Array.length tasks) in
          let cas f = List.fold_left (fun acc s -> acc + f s) 0 obs.cas_stats in
          ( round.items,
            engine_layer obs.sched_stats
            @ [
                  ("pool.tasks", float_of_int total);
                  ("pool.steal_ratio", ratio (Array.fold_left ( + ) 0 steals) total);
                  ( "pool.imbalance",
                    if mean = 0.0 then 0.0
                    else (float_of_int (Array.fold_left max 0 tasks) /. mean) -. 1.0 );
                  ("scheduler.slices", float_of_int obs.slices);
                  ("scheduler.cross_memo_hits", float_of_int obs.cross_hits);
                  ("scheduler.step.self_s", obs.step_self);
                  ("cas.puts", float_of_int (cas (fun s -> s.Tbct_store.Cas.puts)));
                  ("cas.gets", float_of_int (cas (fun s -> s.Tbct_store.Cas.gets)));
                  ( "cas.hit_ratio",
                    ratio (cas (fun s -> s.Tbct_store.Cas.hits)) (cas (fun s -> s.Tbct_store.Cas.gets)) );
                  ( "cas.bytes",
                    float_of_int
                      (match List.rev obs.cas_stats with s :: _ -> s.Tbct_store.Cas.bytes | [] -> 0) );
                  ("journal.bytes", float_of_int obs.journal_bytes);
              ] )
    in
    let gc1 = Gc.quick_stat () and io1 = io_bytes () in
    let sys =
      [
        ("io.read_bytes", float_of_int (fst io1 - fst io0));
        ("io.write_bytes", float_of_int (snd io1 - snd io0));
        ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
        ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
        ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ]
    in
    (rc, items, layer @ sys)
  in
  let rc1, items1, layer1 = pass 1 in
  let rc2, items2, _ = pass 2 in
  let spans1 = Trace.spans rc1.tr and spans2 = Trace.spans rc2.tr in
  let root1 = List.find (fun (s : Trace.span) -> s.Trace.parent = -1) spans1 in
  let root2 = List.find (fun (s : Trace.span) -> s.Trace.parent = -1) spans2 in
  let tree1 = Trace.canonical spans1 and tree2 = Trace.canonical spans2 in
  let tree_same = String.equal tree1 tree2 in
  if not tree_same then
    List.iter
      (fun (i, t) ->
        write_file (Filename.concat out_dir (Printf.sprintf "tree-%s-seed%d-pass%d.txt" (workload_name w) seed i)) t)
      [ (1, tree1); (2, tree2) ];
  (* the backend replay: its own root span, after the traced pass *)
  let replay_ok, replay_layer =
    match w with
    | Campaign | Tv ->
        let executed = List.rev rc1.executed in
        let results =
          Trace.span rc1.tr "replay" (fun () -> List.map (replay rc1.tr) executed)
        in
        let distinct keys = List.length (List.sort_uniq compare keys) in
        let opt_keys = List.map (fun (_, (k, _)) -> k) results in
        let render_keys = List.filter_map (fun (_, (_, k)) -> k) results in
        ( List.for_all fst results,
          [
            ("backend.replayed", float_of_int (List.length executed));
            ("backend.render.distinct_ratio", ratio (distinct render_keys) (List.length render_keys));
            ("backend.optimize.distinct_ratio", ratio (distinct opt_keys) (List.length opt_keys));
          ] )
    | Reduce | Serve -> (true, [])
  in
  let all_spans = Trace.spans rc1.tr in
  let pass_spans = Trace.subtree all_spans ~root:root1.Trace.id in
  let named = Trace.by_name all_spans in
  let total name = List.fold_left (fun acc (n, t, _) -> if String.equal n name then acc +. t else acc) 0.0 named in
  let self name = List.fold_left (fun acc (n, _, s) -> if String.equal n name then acc +. s else acc) 0.0 named in
  let wall1 = root1.Trace.t1 -. root1.Trace.t0 and wall2 = root2.Trace.t1 -. root2.Trace.t0 in
  let unattributed = List.assoc root1.Trace.id (Trace.self_times pass_spans) in
  let span_layer =
    [
      ("engine.run.self_s", self "engine.run" +. self "engine.baseline" +. self "reduce.probe");
      ("engine.unattributed_s", unattributed);
      ("backend.triggers_s", total "backend.triggers");
      ("backend.optimize_s", total "backend.optimize");
      ("backend.validate_s", total "backend.validate");
      ("backend.rewrite_s", total "backend.rewrite");
      ("backend.render_s", total "backend.render");
    ]
    @ List.map
        (fun p ->
          ("backend.optimize.pass." ^ pass_label p ^ "_s", total ("backend.optimize.pass." ^ pass_label p)))
        all_passes
    @ [
        ("tv.check.self_s", self "engine.tv_check");
        ("tv.passes_s", self "tv.run_tv");
        ("reduce.probe_s", total "reduce.probe");
        ("reduce.search_s", self "reduce.search");
        ("dedup.s", total "dedup.table4");
        ("scheduler.hits_s", total "scheduler.hits");
        ("trace.wall_s", wall1);
        ("trace.untraced_wall_s", untraced_wall);
        ("trace.overhead_s", Float.min wall1 wall2 -. untraced_wall);
        ("trace.spans", float_of_int (List.length all_spans));
      ]
  in
  let reference = reference_items ctx in
  let failed =
    List.fold_left (fun acc items -> acc + count_failed ~reference items) 0
      (items1 :: items2 :: List.map (fun r -> r.items) untraced_rounds)
    + (if tree_same then 0 else 1)
    + if replay_ok then 0 else 1
  in
  let attempted = (4 * List.length reference) + 2 in
  let values = layer1 @ replay_layer @ span_layer in
  let metrics = List.map (fun (k, _) -> (k, Option.value ~default:0.0 (List.assoc_opt k values))) per_layer in
  (* the first pass's spans and the replay, written once *)
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" (workload_name w) seed) in
  write_file path (Trace.to_jsonl all_spans);
  let by_self =
    Trace.by_name pass_spans
    |> List.filter (fun (n, _, s) -> s > 0.0 && not (String.equal n root1.Trace.name))
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
  in
  let attributed = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 by_self in
  let lines =
    [
      Printf.sprintf "%s: traced wall %.4f s = %s + %.4f (unattributed); sum %.4f" (workload_name w) wall1
        (String.concat " + " (List.map (fun (n, _, s) -> Printf.sprintf "%.4f (%s)" s n) by_self))
        unattributed (attributed +. unattributed);
      Printf.sprintf "%s: tracing overhead %.4f s (traced %.4f / %.4f s, untraced %s s); span tree %s across two traced passes; backend replay %s; spans in %s"
        (workload_name w) (Float.min wall1 wall2 -. untraced_wall) wall1 wall2
        (String.concat " / " (List.map (fun r -> Printf.sprintf "%.4f" r.full) untraced_rounds))
        (if tree_same then "identical" else "DIFFERS")
        (if replay_ok then "equal to the engine's results" else "DIFFERS from the engine's results")
        path;
    ]
    @ List.map (fun (k, v) -> Printf.sprintf "%-10s %-40s %16.6f %s" (workload_name w) k v (List.assoc k per_layer)) metrics
  in
  { correct = failed = 0; attempted; failed; metrics; units = per_layer; lines }

let result_line o =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool o.correct);
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ("metrics", Verdict.metrics_json ~units:o.units o.metrics);
       ])

let append_result path w seed o =
  let r =
    {
      Verdict.workload = workload_name w;
      seed;
      correct = o.correct;
      attempted = o.attempted;
      failed = o.failed;
      metrics = o.metrics;
    }
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
      Out_channel.output_string oc (J.to_string (Verdict.result_to_json r ~units:o.units) ^ "\n"))

let run_one w ~seed ~seconds ~trace ~out =
  let ctx, setup_times = calibrated_span (fun () -> setup w seed) in
  let o =
    Fun.protect ~finally:(fun () -> teardown ctx) (fun () ->
        if trace then trace_workload ctx ~seed else untraced_run ctx ~seed ~seconds ~setup:setup_times)
  in
  (try rm_rf work_dir with Unix.Unix_error _ | Sys_error _ -> ());
  List.iter print_endline o.lines;
  Option.iter (fun path -> append_result path w seed o) out;
  print_endline (result_line o);
  if o.correct then 0 else 1

(* every workload, each in its own process so peak memory stays per
   workload; the last line merges their results *)
let run_all ~seed ~seconds ~trace ~out =
  let results =
    List.map
      (fun (name, _) ->
        let args =
          [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
            "--trace"; (if trace then "1" else "0") ]
          @ match out with Some p -> [ "--out"; p ] | None -> []
        in
        let rd, wr = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin wr Unix.stderr
        in
        Unix.close wr;
        let text = In_channel.input_all (Unix.in_channel_of_descr rd) in
        Unix.close rd;
        ignore (Unix.waitpid [] pid);
        let lines = String.split_on_char '\n' (String.trim text) in
        List.iter print_endline (List.filteri (fun i _ -> i < List.length lines - 1) lines);
        (name, J.of_string (List.nth lines (List.length lines - 1))))
      workloads
  in
  let get j k f = Option.bind (J.member k j) f in
  let ok = List.for_all (fun (_, r) -> match r with Ok j -> get j "correct" J.to_bool = Some true | Error _ -> false) results in
  let sum k = List.fold_left (fun acc (_, r) -> match r with Ok j -> acc + Option.value ~default:0 (get j k J.to_int) | Error _ -> acc) 0 results in
  let metrics =
    List.concat_map
      (fun (name, r) ->
        match r with
        | Ok j -> (match J.member "metrics" j with Some (J.Obj kvs) -> List.map (fun (k, v) -> (name ^ "." ^ k, v)) kvs | _ -> [])
        | Error _ -> [])
      results
  in
  let failed = sum "failed" + List.length (List.filter (fun (_, r) -> Result.is_error r) results) in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool ok); ("attempted", J.Int (max 1 (sum "attempted"))); ("failed", J.Int failed);
            ("metrics", J.Obj metrics) ]));
  if ok then 0 else 1

let read_results path =
  List.filter_map
    (fun l -> match J.of_string l with Ok j -> Verdict.result_of_json j | Error _ -> None)
    (read_lines path)

let compare_mode old_path new_path =
  let specs =
    match J.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> Verdict.specs_of_benchmark j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let rows = Verdict.compare specs ~old_:(read_results old_path) ~new_:(read_results new_path) in
  Printf.printf "%-10s %-18s %12s %12s %8s %8s %9s %s\n" "workload" "metric" "old median" "new median"
    "old IQR%" "new IQR%" "wins" "verdict";
  List.iter
    (fun (r : Verdict.row) ->
      Printf.printf "%-10s %-18s %12.4f %12.4f %8.1f %8.1f %4d/%-4d %s\n" r.Verdict.r_workload r.Verdict.r_metric
        r.Verdict.old_median r.Verdict.new_median (100.0 *. r.Verdict.old_spread) (100.0 *. r.Verdict.new_spread)
        r.Verdict.wins r.Verdict.pairs (Verdict.verdict_to_string r.Verdict.verdict))
    rows;
  if List.exists (fun (r : Verdict.row) -> r.Verdict.verdict = Verdict.Regression) rows then 1 else 0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref None and setup_only = ref false and compare = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  campaign, tv, reduce, serve or all");
      ("--seed", Arg.Set_int seed, "N  picks the seed window");
      ("--seconds", Arg.Set_int seconds, "S  how long the timed rounds run");
      ("--trace", Arg.Set_int trace, "0|1  1: the traced run and per-layer metrics");
      ("--out", Arg.String (fun p -> out := Some p), "FILE  append this run's result to FILE");
      ("--setup-only", Arg.Set setup_only, " set the workload up and exit (times setup_s)");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun p -> compare := [ p ]); Arg.String (fun p -> compare := !compare @ [ p ]) ],
        "OLD NEW  judge two result files" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "layerbench";
  let code =
    match (!compare, List.assoc_opt !workload workloads) with
    | [ a; b ], _ -> compare_mode a b
    | _, Some w when !setup_only ->
        teardown (setup w !seed);
        0
    | _, Some w -> run_one w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1) ~out:!out
    | _, None when String.equal !workload "all" ->
        run_all ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
    | _ ->
        prerr_endline "layerbench: --workload campaign|tv|reduce|serve|all, or --compare OLD NEW";
        2
  in
  exit code
