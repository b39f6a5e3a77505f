(* Tests for the execution engine: content digests, the content-addressed
   run cache, and domain-parallel campaigns.

   The load-bearing properties are (a) memoization is invisible — cached
   and uncached campaigns produce identical hit lists — and (b) the
   domain-parallel campaign merge is bit-identical to the sequential
   order. *)

let scale = { Harness.Experiments.default_scale with Harness.Experiments.seeds = 30 }
let tool = Harness.Pipeline.Spirv_fuzz_tool

(* the sequential, fresh-engine baseline every other campaign is compared to *)
let baseline_hits = lazy (Harness.Experiments.run_campaign ~scale tool)

let check_same_hits msg expected actual =
  Alcotest.(check int) (msg ^ ": count") (List.length expected) (List.length actual);
  Alcotest.(check bool) (msg ^ ": identical hits in identical order") true
    (expected = actual)

(* ------------------------------------------------------------------ *)
(* Digests *)

let test_digest_asm_roundtrip () =
  List.iter
    (fun (name, m) ->
      let d = Spirv_ir.Digest.of_module m in
      match Spirv_ir.Asm.of_string_result (Spirv_ir.Disasm.to_string m) with
      | Error e -> Alcotest.failf "%s does not re-assemble: %s" name e
      | Ok m' ->
          Alcotest.(check string)
            (name ^ ": digest stable across disasm/asm round trip") d
            (Spirv_ir.Digest.of_module m'))
    (Lazy.force Corpus.lowered_references)

let test_digest_distinguishes_modules () =
  let refs = Lazy.force Corpus.lowered_references in
  let digests = List.map (fun (_, m) -> Spirv_ir.Digest.of_module m) refs in
  Alcotest.(check int) "corpus references all digest differently"
    (List.length refs)
    (List.length (List.sort_uniq String.compare digests))

let test_digest_input () =
  let i1 = Spirv_ir.Input.make ~width:8 ~height:8 [] in
  let i2 = Spirv_ir.Input.make ~width:8 ~height:8 [] in
  let i3 = Spirv_ir.Input.make ~width:4 ~height:8 [] in
  Alcotest.(check string) "equal inputs digest equally"
    (Spirv_ir.Digest.of_input i1) (Spirv_ir.Digest.of_input i2);
  Alcotest.(check bool) "different grids digest differently" false
    (String.equal (Spirv_ir.Digest.of_input i1) (Spirv_ir.Digest.of_input i3))

(* ------------------------------------------------------------------ *)
(* Engine cache semantics *)

let test_engine_memoizes () =
  let engine = Harness.Engine.create () in
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let t = Compilers.Target.swiftshader in
  let r1 = Harness.Engine.run engine t m Corpus.default_input in
  let r2 = Harness.Engine.run engine t m Corpus.default_input in
  Alcotest.(check bool) "memoized result identical" true (r1 = r2);
  let s = Harness.Engine.stats engine in
  Alcotest.(check int) "one execution" 1 s.Harness.Engine.runs_executed;
  Alcotest.(check int) "one memo hit" 1 s.Harness.Engine.cache_hits;
  Harness.Engine.reset engine;
  let s' = Harness.Engine.stats engine in
  Alcotest.(check int) "reset clears counters" 0 s'.Harness.Engine.runs_executed

let test_cached_campaign_identical () =
  let expected = Lazy.force baseline_hits in
  let engine = Harness.Engine.create () in
  let cold = Harness.Experiments.run_campaign ~scale ~engine tool in
  check_same_hits "cold shared-engine campaign" expected cold;
  let after_cold = Harness.Engine.stats engine in
  Alcotest.(check bool) "campaign saves runs via the baseline cache" true
    (after_cold.Harness.Engine.runs_saved > 0);
  (* rerun on the warm engine: served from cache, still identical *)
  let warm = Harness.Experiments.run_campaign ~scale ~engine tool in
  check_same_hits "warm-cache campaign" expected warm;
  let after_warm = Harness.Engine.stats engine in
  Alcotest.(check bool) "warm rerun hits the content-addressed memo" true
    (after_warm.Harness.Engine.cache_hits > after_cold.Harness.Engine.cache_hits);
  Alcotest.(check int) "warm rerun executes nothing new"
    after_cold.Harness.Engine.runs_executed
    after_warm.Harness.Engine.runs_executed

let test_reduction_hits_cache () =
  match
    List.find_opt
      (fun (h : Harness.Experiments.hit) ->
        not
          (Harness.Signature.is_miscompilation
             h.Harness.Experiments.hit_detection.Harness.Pipeline.signature))
      (Lazy.force baseline_hits)
  with
  | None -> Alcotest.fail "no crash hit in the campaign"
  | Some h -> (
      let engine = Harness.Engine.create () in
      match Harness.Experiments.reduce_hit engine h with
      | None -> Alcotest.fail "hit did not reproduce"
      | Some _ ->
          let s = Harness.Engine.stats engine in
          Alcotest.(check bool)
            "ddmin's replayed prefixes hit the content-addressed cache" true
            (s.Harness.Engine.cache_hits > 0);
          Alcotest.(check bool) "baseline cache used during reduction" true
            (s.Harness.Engine.baseline_hits > 0))

(* ------------------------------------------------------------------ *)
(* Domain-parallel campaigns *)

let test_parallel_campaign domains () =
  let expected = Lazy.force baseline_hits in
  let par = Harness.Experiments.run_campaign ~scale ~domains tool in
  check_same_hits (Printf.sprintf "%d-domain campaign" domains) expected par

let test_parallel_shared_engine () =
  (* domains share one mutex-guarded engine and the merge stays canonical *)
  let expected = Lazy.force baseline_hits in
  let engine = Harness.Engine.create () in
  let par = Harness.Experiments.run_campaign ~scale ~domains:3 ~engine tool in
  check_same_hits "3-domain shared-engine campaign" expected par;
  let s = Harness.Engine.stats engine in
  Alcotest.(check bool) "parallel campaign executed runs" true
    (s.Harness.Engine.runs_executed > 0);
  (* per-domain accounting: the breakdown partitions runs_executed, and a
     3-worker pool really did spread executions over several domains *)
  Alcotest.(check int) "per-domain runs sum to runs_executed"
    s.Harness.Engine.runs_executed
    (List.fold_left (fun acc (_, n) -> acc + n) 0
       s.Harness.Engine.per_domain_runs);
  Alcotest.(check bool) "more than one domain executed runs" true
    (List.length s.Harness.Engine.per_domain_runs > 1)

let test_domains_exceed_seeds () =
  (* regression: --domains beyond the seed count used to spawn domains
     with empty ranges; the pool clamp must keep the hit list identical *)
  let small = { scale with Harness.Experiments.seeds = 5 } in
  let expected = Harness.Experiments.run_campaign ~scale:small tool in
  let par = Harness.Experiments.run_campaign ~scale:small ~domains:16 tool in
  check_same_hits "16 domains over 5 seeds" expected par

let test_caller_pool_both_phases () =
  (* one caller-owned pool serving campaign then reduction, as the CLI
     does; both phases must match their sequential runs *)
  let expected = Lazy.force baseline_hits in
  let seq_engine = Harness.Engine.create () in
  let eligible =
    Harness.Experiments.cap_hits
      ~per_signature:scale.Harness.Experiments.max_reductions_per_signature
      expected
  in
  let seq_outcomes = Harness.Experiments.reduce_hits seq_engine eligible in
  Harness.Pool.with_pool ~workers:4 (fun pool ->
      let engine = Harness.Engine.create () in
      let hits = Harness.Experiments.run_campaign ~scale ~pool ~engine tool in
      check_same_hits "campaign through a caller-owned pool" expected hits;
      let outcomes = Harness.Experiments.reduce_hits ~pool engine eligible in
      Alcotest.(check bool)
        "parallel reduction outcomes identical to sequential" true
        (outcomes = seq_outcomes));
  Alcotest.(check bool) "reduction outcomes non-trivial" true
    (List.exists Option.is_some seq_outcomes)

let test_parallel_reduce_hits workers () =
  let hits = Lazy.force baseline_hits in
  let eligible =
    Harness.Experiments.cap_hits
      ~per_signature:scale.Harness.Experiments.max_reductions_per_signature
      hits
  in
  let seq = Harness.Experiments.reduce_hits (Harness.Engine.create ()) eligible in
  Harness.Pool.with_pool ~workers (fun pool ->
      let par =
        Harness.Experiments.reduce_hits ~pool (Harness.Engine.create ()) eligible
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d-worker reduce_hits identical to sequential" workers)
        true (par = seq))

exception Hook_failure

let test_raising_on_seed_propagates () =
  (* a raising on_seed hook must surface from the parallel campaign (the
     pool drains, then re-raises) rather than deadlocking or vanishing *)
  match
    Harness.Experiments.run_campaign ~scale ~domains:3
      ~on_seed:(fun seed _ -> if seed = 7 then raise Hook_failure)
      tool
  with
  | _ -> Alcotest.fail "raising on_seed did not propagate"
  | exception Hook_failure -> ()

(* ------------------------------------------------------------------ *)
(* Digest once per module value *)

let fresh_hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)
let fresh_module_digest m = fresh_hex (Spirv_ir.Disasm.to_string m)
let fresh_input_digest i = fresh_hex (Spirv_ir.Input.to_string i)

(* a structurally equal, physically distinct copy *)
let copy (v : 'a) : 'a = Marshal.from_string (Marshal.to_string v []) 0

(* a generated module plus a fuzzed variant of it, and their inputs *)
let digest_sample seed =
  let m = Spirv_ir.Generator.generate (Tbct.Rng.make seed) in
  let ctx = Spirv_fuzz.Context.make m Spirv_ir.Generator.default_input in
  let v = (Spirv_fuzz.Fuzzer.run ~seed ctx).final in
  [ (m, Spirv_ir.Generator.default_input);
    (v.Spirv_fuzz.Context.m, v.Spirv_fuzz.Context.input) ]

let test_digest_cache_sound =
  QCheck.Test.make ~count:40 ~name:"cached digests equal fresh digests"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let sample = digest_sample seed in
      let agrees (m, i) =
        String.equal (Spirv_ir.Digest.of_module m) (fresh_module_digest m)
        && String.equal (Spirv_ir.Digest.of_input i) (fresh_input_digest i)
      in
      (* first sight, the cached second sight, and equal-but-distinct copies *)
      List.for_all agrees sample
      && List.for_all agrees sample
      && List.for_all (fun (m, i) -> agrees (copy m, copy i)) sample
      &&
      (* reached again after more than the cache's capacity of others *)
      let others =
        List.concat_map digest_sample (List.init 6 (fun k -> seed + 1 + k))
      in
      List.iter
        (fun (m, i) ->
          ignore (Spirv_ir.Digest.of_module m);
          ignore (Spirv_ir.Digest.of_input i))
        others;
      List.for_all agrees sample)

let test_digest_cache_domains () =
  let sample =
    List.concat_map digest_sample (List.init 12 (fun k -> 7 * k))
    @ List.map
        (fun (_, m) -> (m, Corpus.default_input))
        (Lazy.force Corpus.lowered_references)
  in
  let digests () =
    List.map
      (fun (m, i) -> (Spirv_ir.Digest.of_module m, Spirv_ir.Digest.of_input i))
      sample
  in
  let sequential = digests () in
  Alcotest.(check (list (pair string string))) "sequential = fresh"
    (List.map (fun (m, i) -> (fresh_module_digest m, fresh_input_digest i)) sample)
    sequential;
  let workers =
    List.init 4 (fun _ -> Domain.spawn (fun () -> List.init 3 (fun _ -> digests ())))
  in
  List.iter
    (fun d ->
      List.iter
        (Alcotest.(check (list (pair string string)))
           "a domain's digests = sequential" sequential)
        (Domain.join d))
    workers

(* ------------------------------------------------------------------ *)
(* The staged backend memo: optimize+validate and render tables *)

let same_run (a : Compilers.Backend.run_result) b =
  (* the exact run codec compares images bit for bit, NaN payloads too *)
  String.equal (Tbct_store.Run_codec.encode_run a)
    (Tbct_store.Run_codec.encode_run b)

(* corpus references on the default input, plus fuzzed variants on theirs *)
let differential_cases =
  lazy
    (let refs = Lazy.force Corpus.lowered_references in
     let variants =
       List.init 30 (fun k ->
           let name, m = List.nth refs (k * 7 mod List.length refs) in
           let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
           let v = (Spirv_fuzz.Fuzzer.run ~seed:(100 + k) ctx).final in
           ( Printf.sprintf "%s/seed%d" name (100 + k),
             v.Spirv_fuzz.Context.m,
             v.Spirv_fuzz.Context.input ))
     in
     List.map (fun (name, m) -> (name, m, Corpus.default_input)) refs @ variants)

let test_staged_memo_differential compiled () =
  let cases = Lazy.force differential_cases in
  let expected =
    List.map
      (fun (_, m, i) ->
        List.map (fun t -> Compilers.Backend.run t m i) Compilers.Target.all)
      cases
  in
  let check_pass what engine targets =
    List.iter2
      (fun (name, m, i) runs ->
        List.iter2
          (fun (t : Compilers.Target.t) want ->
            if not (same_run want (Harness.Engine.run engine t m i)) then
              Alcotest.failf "%s: %s on %s differs from Backend.run" what name
                t.Compilers.Target.name)
          targets runs)
      cases
  in
  let forward = Compilers.Target.all in
  let engine = Harness.Engine.create ~compiled () in
  check_pass "cold" engine forward expected;
  check_pass "warm" engine forward expected;
  let reversed = List.rev forward in
  check_pass "reversed targets" (Harness.Engine.create ~compiled ()) reversed
    (List.map List.rev expected);
  let s = Harness.Engine.stats engine in
  Alcotest.(check bool) "the optimize+validate memo was shared" true
    (s.Harness.Engine.backend_opt_hits > 0);
  if compiled then
    Alcotest.(check bool) "renders were memoized" true
      (s.Harness.Engine.render_hits > 0)
  else
    Alcotest.(check int) "reference mode memoizes no render" 0
      (s.Harness.Engine.renders + s.Harness.Engine.render_hits)

let test_staged_memo_counts () =
  let targets = Compilers.Target.all in
  let pipelines =
    List.sort_uniq compare
      (List.map
         (fun (t : Compilers.Target.t) ->
           (t.Compilers.Target.pipeline, t.Compilers.Target.opt_flags))
         targets)
  in
  Alcotest.(check int) "nine targets, five (pipeline, flags) pairs" 5
    (List.length pipelines);
  (* a corpus reference: no front-end trigger fires, so every target
     reaches the optimize+validate stage *)
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let input = Corpus.default_input in
  let engine = Harness.Engine.create () in
  let run_all input =
    List.iter
      (fun t ->
        if not (same_run (Compilers.Backend.run t m input)
                  (Harness.Engine.run engine t m input))
        then Alcotest.failf "%s differs from Backend.run" t.Compilers.Target.name)
      targets
  in
  run_all input;
  let s1 = Harness.Engine.stats engine in
  Alcotest.(check int) "one optimize+validate per (pipeline, flags)"
    (List.length pipelines) s1.Harness.Engine.backend_opt_runs;
  Alcotest.(check int) "every target reached the stage" (List.length targets)
    (s1.Harness.Engine.backend_opt_runs + s1.Harness.Engine.backend_opt_hits);
  let input2 = { input with Spirv_ir.Input.width = input.Spirv_ir.Input.width + 1 } in
  run_all input2;
  let s2 = Harness.Engine.stats engine in
  Alcotest.(check int) "a second input re-optimizes nothing"
    s1.Harness.Engine.backend_opt_runs s2.Harness.Engine.backend_opt_runs;
  Alcotest.(check int) "a second input executes every target again"
    (2 * s1.Harness.Engine.runs_executed) s2.Harness.Engine.runs_executed

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "digest",
        [
          Alcotest.test_case "stable across disasm/asm round trip" `Quick
            test_digest_asm_roundtrip;
          Alcotest.test_case "distinguishes corpus modules" `Quick
            test_digest_distinguishes_modules;
          Alcotest.test_case "input digests" `Quick test_digest_input;
          QCheck_alcotest.to_alcotest test_digest_cache_sound;
          Alcotest.test_case "digest cache across four domains" `Quick
            test_digest_cache_domains;
        ] );
      ( "staged",
        [
          Alcotest.test_case "compiled engine = Backend.run" `Quick
            (test_staged_memo_differential true);
          Alcotest.test_case "reference engine = Backend.run" `Quick
            (test_staged_memo_differential false);
          Alcotest.test_case "one optimize+validate per pipeline" `Quick
            test_staged_memo_counts;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memoizes backend runs" `Quick test_engine_memoizes;
          Alcotest.test_case "cached campaign identical to uncached" `Slow
            test_cached_campaign_identical;
          Alcotest.test_case "reduction hits the cache" `Slow
            test_reduction_hits_cache;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "2 domains = sequential" `Slow
            (test_parallel_campaign 2);
          Alcotest.test_case "3 domains = sequential" `Slow
            (test_parallel_campaign 3);
          Alcotest.test_case "4 domains = sequential" `Slow
            (test_parallel_campaign 4);
          Alcotest.test_case "8 domains = sequential" `Slow
            (test_parallel_campaign 8);
          Alcotest.test_case "shared engine across domains" `Slow
            test_parallel_shared_engine;
          Alcotest.test_case "domains > seeds (clamped)" `Slow
            test_domains_exceed_seeds;
          Alcotest.test_case "one pool, both phases" `Slow
            test_caller_pool_both_phases;
          Alcotest.test_case "2-worker reduction = sequential" `Slow
            (test_parallel_reduce_hits 2);
          Alcotest.test_case "4-worker reduction = sequential" `Slow
            (test_parallel_reduce_hits 4);
          Alcotest.test_case "raising on_seed propagates" `Slow
            test_raising_on_seed_propagates;
        ] );
    ]
