(* Tests for the campaign service: the JSON wire codec, the request
   protocol, the persistent job store, and the fleet scheduler that
   multiplexes campaigns over one shared engine.

   The load-bearing properties: (a) both codecs round-trip exactly, so
   nothing is lost between client and daemon; (b) two concurrent jobs
   interleave progress fairly and the second earns cross-job memo hits
   from the first's executions; (c) a scheduler abandoned mid-campaign
   (the in-process stand-in for kill -9 — the journals are in the same
   state) is resumed by a fresh scheduler to a hit list bit-identical to
   an uninterrupted batch run. *)

module Json = Tbct_service.Json
module Protocol = Tbct_service.Protocol
module Scheduler = Tbct_service.Scheduler
module Jobs = Tbct_store.Jobs

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tbct-test-service-%d-%d" (Unix.getpid ()) !counter)
    in
    let rec rm path =
      match (Unix.lstat path).Unix.st_kind with
      | Unix.S_DIR ->
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
      | _ -> Sys.remove path
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    in
    rm dir;
    dir

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let json_gen =
  let open QCheck.Gen in
  (* any byte may appear in strings: control bytes get \u-escaped, high
     bytes pass through raw *)
  let str = string_size ~gen:char (0 -- 12) in
  sized (fun n ->
      fix
        (fun self n ->
          let base =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) int;
                (* non-finite floats deliberately excluded: they encode as
                   null (documented lossy case) *)
                map
                  (fun f -> Json.Float (if Float.is_finite f then f else 0.0))
                  float;
                map (fun s -> Json.Str s) str;
              ]
          in
          if n <= 0 then base
          else
            oneof
              [
                base;
                map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2)));
                map
                  (fun l -> Json.Obj l)
                  (list_size (0 -- 4) (pair str (self (n / 2))));
              ])
        n)

let test_json_roundtrip =
  QCheck.Test.make ~name:"json codec round-trips exactly" ~count:500
    (QCheck.make json_gen) (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let test_json_single_line =
  QCheck.Test.make ~name:"json encoding never contains a raw newline"
    ~count:500 (QCheck.make json_gen) (fun v ->
      not (String.contains (Json.to_string v) '\n'))

let test_json_edges () =
  Alcotest.(check string)
    "escapes" "{\"a\\nb\":\"q\\\"\\\\\\t\"}"
    (Json.to_string (Json.Obj [ ("a\nb", Json.Str "q\"\\\t") ]));
  Alcotest.(check bool)
    "control bytes escape" true
    (Json.to_string (Json.Str "\x01") = "\"\\u0001\"");
  Alcotest.(check bool)
    "nan encodes as null" true
    (Json.to_string (Json.Float Float.nan) = "null");
  (match Json.of_string "  {\"x\" : [1, 2.5, true, null, \"\\u0041\"]} " with
  | Ok
      (Json.Obj
        [
          ( "x",
            Json.List
              [ Json.Int 1; Json.Float 2.5; Json.Bool true; Json.Null;
                Json.Str "A" ] );
        ]) -> ()
  | Ok v -> Alcotest.failf "unexpected parse: %s" (Json.to_string v)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.of_string "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.of_string "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted"

(* ------------------------------------------------------------------ *)
(* Protocol codec *)

let request_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (0 -- 10) in
  let spec =
    map
      (fun (tool, seeds, targets, weights, tv) ->
        {
          Protocol.sub_tool = tool;
          sub_seeds = seeds;
          sub_targets = targets;
          sub_weights = weights;
          sub_tv = tv;
        })
      (tup5
         (oneofl
            [
              Harness.Pipeline.Spirv_fuzz_tool;
              Harness.Pipeline.Spirv_fuzz_simple;
              Harness.Pipeline.Glsl_fuzz_tool;
            ])
         (1 -- 10_000)
         (list_size (0 -- 3) str)
         str bool)
  in
  oneof
    [
      return Protocol.Ping;
      map (fun s -> Protocol.Submit s) spec;
      map
        (fun id -> Protocol.Status (if id = "" then None else Some id))
        str;
      return Protocol.Jobs;
      map (fun id -> Protocol.Attach id) str;
      map (fun id -> Protocol.Hits id) str;
      map (fun id -> Protocol.Cancel id) str;
      return Protocol.Drain;
      return Protocol.Shutdown;
    ]

(* Status (Some "") encodes identically to Status None; the generator
   above never produces it, and real job ids are never empty *)
let test_protocol_roundtrip =
  QCheck.Test.make ~name:"protocol codec round-trips exactly" ~count:500
    (QCheck.make request_gen) (fun req ->
      match Protocol.parse_request (Protocol.encode_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let test_protocol_errors () =
  (match Protocol.parse_request "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match Protocol.parse_request "{\"cmd\":\"launch-missiles\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown command accepted");
  (match Protocol.parse_request "{\"cmd\":\"submit\",\"seeds\":0}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero seeds accepted");
  match Protocol.parse_request "{\"cmd\":\"attach\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "attach without job accepted"

(* ------------------------------------------------------------------ *)
(* Line framing *)

let check_lines msg expected (lines, over_cap) =
  Alcotest.(check (list string)) msg expected lines;
  Alcotest.(check bool) (msg ^ ": under the cap") false over_cap

let test_frame_split_line () =
  let pending = Buffer.create 16 in
  check_lines "first half completes nothing" []
    (Protocol.frame pending "{\"cmd\":");
  check_lines "byte by byte" [] (Protocol.frame pending "\"");
  check_lines "second half completes the line" [ "{\"cmd\":\"ping\"}" ]
    (Protocol.frame pending "ping\"}\n");
  Alcotest.(check string) "nothing pending" "" (Buffer.contents pending)

let test_frame_many_lines () =
  let pending = Buffer.create 16 in
  check_lines "every complete line, in order" [ "a"; "b"; ""; "c" ]
    (Protocol.frame pending "a\nb\n\nc\nd");
  Alcotest.(check string) "tail pending" "d" (Buffer.contents pending);
  check_lines "tail joins the next chunk" [ "de"; "f" ]
    (Protocol.frame pending "e\nf\n")

let test_frame_over_cap () =
  let pending = Buffer.create 16 in
  let at_cap = String.make Protocol.max_line_bytes 'x' in
  check_lines "a pending line at the cap is kept" []
    (Protocol.frame pending at_cap);
  let lines, over_cap = Protocol.frame pending "x" in
  Alcotest.(check (list string)) "no line completed" [] lines;
  Alcotest.(check bool) "one byte more is over the cap" true over_cap;
  (* only the unterminated tail counts: a long complete line is a line *)
  let pending = Buffer.create 16 in
  let long = at_cap ^ "x" in
  check_lines "complete long line" [ long ] (Protocol.frame pending (long ^ "\n"))

(* A live daemon answers an over-cap client with an error and drops it,
   while another client's requests keep being served. *)
let test_server_drops_over_cap_client () =
  let root = fresh_dir () in
  let socket = Filename.concat root "s" in
  Tbct_store.Fsio.ensure_dir root;
  let daemon =
    Domain.spawn (fun () ->
        Tbct_service.Server.run ~tick:0.02 ~root ~socket ~domains:1 ())
  in
  let rec connect tries =
    match Tbct_service.Client.connect ~path:socket with
    | Ok c -> c
    | Error e when tries = 0 -> Alcotest.fail e
    | Error _ ->
        Unix.sleepf 0.02;
        connect (tries - 1)
  in
  let polite = connect 250 in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let hog = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect hog (Unix.ADDR_UNIX socket);
  (* a daemon that never answers fails the test instead of hanging it *)
  Unix.setsockopt_float hog Unix.SO_RCVTIMEO 10.0;
  let line = Bytes.make (2 * Protocol.max_line_bytes) 'x' in
  let rec write off =
    if off < Bytes.length line then
      match Unix.write hog line off (Bytes.length line - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error _ -> ()  (* the daemon hung up *)
  in
  write 0;
  let reply = Buffer.create 64 in
  let chunk = Bytes.create 4096 in
  let rec read () =
    match Unix.read hog chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes reply chunk 0 n;
        read ()
    | exception Unix.Unix_error _ -> ()
  in
  read ();
  Unix.close hog;
  (match Json.of_string (String.trim (Buffer.contents reply)) with
  | Ok v ->
      Alcotest.(check (option bool)) "over-cap client gets an error reply"
        (Some false) (Json.mem_bool "ok" v)
  | Error e -> Alcotest.failf "no error reply before the hang-up: %s" e);
  (match Tbct_service.Client.request polite Protocol.Ping with
  | Ok v ->
      Alcotest.(check (option bool)) "other client still served" (Some true)
        (Json.mem_bool "ok" v)
  | Error e -> Alcotest.failf "ping failed: %s" e);
  ignore (Tbct_service.Client.request polite Protocol.Shutdown);
  Tbct_service.Client.close polite;
  match Domain.join daemon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "daemon failed: %s" e

(* ------------------------------------------------------------------ *)
(* Job store *)

let record id seeds : Jobs.record =
  {
    Jobs.id;
    tool = "spirv-fuzz";
    seeds;
    targets = [ "SwiftShader"; "Mesa" ];
    weights = "control_flow=2";
    tv = false;
  }

let test_jobs_store_roundtrip () =
  let dir = fresh_dir () in
  let t = Jobs.open_ ~dir () in
  Alcotest.(check string) "first id" "job-1" (Jobs.fresh_id t);
  Jobs.add t (record "job-1" 10);
  Jobs.add t (record "job-2" 20);
  Jobs.set_state t ~id:"job-1" Jobs.Running;
  Jobs.set_state t ~id:"job-1" Jobs.Done;
  Jobs.set_state t ~id:"job-2" Jobs.Cancelled;
  (match Jobs.add t (record "job-1" 5) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate id accepted");
  Jobs.close t;
  (* a fresh daemon replays the same queue *)
  let t2 = Jobs.open_ ~dir () in
  (match Jobs.entries t2 with
  | [ (r1, Jobs.Done); (r2, Jobs.Cancelled) ] ->
      Alcotest.(check string) "order" "job-1" r1.Jobs.id;
      Alcotest.(check string) "order" "job-2" r2.Jobs.id;
      Alcotest.(check (list string)) "targets survive"
        [ "SwiftShader"; "Mesa" ] r1.Jobs.targets;
      Alcotest.(check string) "weights survive" "control_flow=2"
        r1.Jobs.weights
  | _ -> Alcotest.fail "replay mismatch");
  (* ids stay monotonic across restarts: no dead job's id is reused *)
  Alcotest.(check string) "monotonic id" "job-3" (Jobs.fresh_id t2);
  Jobs.close t2

let test_jobs_store_torn_tail () =
  let dir = fresh_dir () in
  let t = Jobs.open_ ~dir () in
  Jobs.add t (record "job-1" 10);
  Jobs.set_state t ~id:"job-1" Jobs.Running;
  Jobs.close t;
  (* chop bytes off the tail: the last record is torn, like kill -9
     mid-append *)
  let path = Filename.concat dir "jobs.log" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let all = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub all 0 (n - 3));
  close_out oc;
  let t2 = Jobs.open_ ~dir () in
  (match Jobs.entries t2 with
  | [ (r, Jobs.Queued) ] ->
      (* the torn state record is dropped; the job survives as Queued *)
      Alcotest.(check string) "job survives" "job-1" r.Jobs.id
  | _ -> Alcotest.fail "torn-tail replay mismatch");
  (* and the truncated journal accepts new appends cleanly *)
  Jobs.set_state t2 ~id:"job-1" Jobs.Done;
  Jobs.close t2;
  let t3 = Jobs.open_ ~dir () in
  (match Jobs.find t3 ~id:"job-1" with
  | Some (_, Jobs.Done) -> ()
  | _ -> Alcotest.fail "post-truncation append lost");
  Jobs.close t3

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let submit_spec ?(seeds = 8) () =
  {
    Protocol.sub_tool = Harness.Pipeline.Spirv_fuzz_tool;
    sub_seeds = seeds;
    sub_targets = [ "SwiftShader" ];
    sub_weights = "";
    sub_tv = false;
  }

let hit_lines hits = List.map Harness.Persist.hit_line hits

(* the reference: an uninterrupted plain campaign at the same parameters *)
let plain_campaign ~seeds =
  let scale =
    { Harness.Experiments.default_scale with Harness.Experiments.seeds }
  in
  Harness.Experiments.run_campaign ~scale
    ~targets:[ Compilers.Target.swiftshader ]
    ~engine:(Harness.Engine.create ())
    Harness.Pipeline.Spirv_fuzz_tool

let test_scheduler_fairness_and_sharing () =
  let root = fresh_dir () in
  Harness.Pool.with_pool ~workers:1 @@ fun pool ->
  let events = ref [] in
  let sched =
    Scheduler.create ~quantum:2 ~on_event:(fun e -> events := e :: !events)
      ~root ~pool ()
  in
  let j1 = Result.get_ok (Scheduler.submit sched (submit_spec ())) in
  let j2 = Result.get_ok (Scheduler.submit sched (submit_spec ())) in
  (* drive to completion, recording which job each slice advanced *)
  let trace = ref [] in
  let rec drive guard =
    if guard = 0 then Alcotest.fail "scheduler did not converge";
    match Scheduler.step sched with
    | `Idle -> ()
    | `Sliced j | `Finished j ->
        trace := Scheduler.id j :: !trace;
        drive (guard - 1)
    | `Halted j ->
        Alcotest.failf "job halted: %s"
          (Option.value ~default:"?" (Scheduler.last_error j))
  in
  drive 100;
  let trace = List.rev !trace in
  Alcotest.(check bool) "both jobs done" true
    (Scheduler.state j1 = Jobs.Done && Scheduler.state j2 = Jobs.Done);
  (* fairness: while both jobs were live, slices strictly alternated *)
  let both_live =
    (* both appear after this prefix position — trim the tail where only
       one job remained *)
    let last_of id =
      List.fold_left
        (fun (i, found) x -> (i + 1, if x = id then i else found))
        (0, -1) trace
      |> snd
    in
    let cutoff = min (last_of (Scheduler.id j1)) (last_of (Scheduler.id j2)) in
    List.filteri (fun i _ -> i <= cutoff) trace
  in
  Alcotest.(check bool) "interleaved progress" true
    (List.length both_live >= 4);
  List.iteri
    (fun i id ->
      if i > 0 && List.nth both_live (i - 1) = id then
        Alcotest.failf "round-robin violated at slice %d (%s twice)" i id)
    both_live;
  (* shared engine: the second job's identical seeds are served from the
     first job's executions *)
  Alcotest.(check bool) "cross-job memo hits" true
    (Scheduler.cross_job_memo_hits sched > 0);
  Alcotest.(check bool) "one job executed, one shared" true
    (Scheduler.runs_executed j1 + Scheduler.runs_executed j2 > 0);
  (* both hit lists are bit-identical to the uninterrupted batch run *)
  let reference = hit_lines (plain_campaign ~seeds:8) in
  List.iter
    (fun j ->
      match Scheduler.hits sched j with
      | Ok (hits, true) ->
          Alcotest.(check (list string)) "job hits = batch hits" reference
            (hit_lines hits)
      | Ok (_, false) -> Alcotest.fail "finished job reported incomplete"
      | Error e -> Alcotest.failf "hits failed: %s" e)
    [ j1; j2 ];
  (* the event stream saw every lifecycle stage *)
  let count p = List.length (List.filter p !events) in
  Alcotest.(check int) "2 submits" 2
    (count (function Scheduler.Submitted _ -> true | _ -> false));
  Alcotest.(check int) "2 finishes" 2
    (count (function Scheduler.Finished _ -> true | _ -> false));
  Alcotest.(check int) "16 seed events" 16
    (count (function Scheduler.Seed_done _ -> true | _ -> false));
  Scheduler.close sched

let test_scheduler_cancel_mid_campaign () =
  let root = fresh_dir () in
  Harness.Pool.with_pool ~workers:1 @@ fun pool ->
  let sched = Scheduler.create ~quantum:2 ~root ~pool () in
  let j = Result.get_ok (Scheduler.submit sched (submit_spec ~seeds:50 ())) in
  (match Scheduler.step sched with
  | `Sliced _ -> ()
  | _ -> Alcotest.fail "expected a slice");
  let done_before = Scheduler.seeds_done j in
  Alcotest.(check bool) "partial progress" true
    (done_before > 0 && done_before < 50);
  (match Scheduler.cancel sched ~id:(Scheduler.id j) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cancel failed: %s" e);
  Alcotest.(check bool) "cancelled" true (Scheduler.state j = Jobs.Cancelled);
  Alcotest.(check bool) "no longer runnable" true
    (not (Scheduler.runnable sched));
  (match Scheduler.step sched with
  | `Idle -> ()
  | _ -> Alcotest.fail "cancelled job still scheduled");
  (* double-cancel and unknown ids are errors, not crashes *)
  (match Scheduler.cancel sched ~id:(Scheduler.id j) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double cancel accepted");
  (match Scheduler.cancel sched ~id:"job-999" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown id accepted");
  Scheduler.close sched;
  (* cancellation is durable: a restarted daemon agrees *)
  let sched2 = Scheduler.create ~root ~pool () in
  (match Scheduler.job sched2 ~id:(Scheduler.id j) with
  | Some j' ->
      Alcotest.(check bool) "cancel persisted" true
        (Scheduler.state j' = Jobs.Cancelled)
  | None -> Alcotest.fail "job lost across restart");
  Scheduler.close sched2

let test_scheduler_crash_resume_bit_identical () =
  let root = fresh_dir () in
  let seeds = 16 in
  Harness.Pool.with_pool ~workers:1 @@ fun pool ->
  (* first daemon: a few slices, then the process "dies" — the scheduler
     is simply abandoned, exactly the journal state kill -9 leaves *)
  let sched = Scheduler.create ~quantum:3 ~root ~pool () in
  let j = Result.get_ok (Scheduler.submit sched (submit_spec ~seeds ())) in
  (match Scheduler.step sched with
  | `Sliced _ -> ()
  | _ -> Alcotest.fail "expected a slice");
  (match Scheduler.step sched with
  | `Sliced _ -> ()
  | _ -> Alcotest.fail "expected a second slice");
  Alcotest.(check bool) "mid-campaign" true
    (Scheduler.seeds_done j > 0 && Scheduler.seeds_done j < seeds);
  (* second daemon on the same store: the job is still Running and
     resumes from its journal *)
  let sched2 = Scheduler.create ~quantum:3 ~root ~pool () in
  let j2 =
    match Scheduler.job sched2 ~id:(Scheduler.id j) with
    | Some j2 -> j2
    | None -> Alcotest.fail "interrupted job not restored"
  in
  Alcotest.(check bool) "restored as running" true
    (Scheduler.state j2 = Jobs.Running);
  let rec drive guard =
    if guard = 0 then Alcotest.fail "resume did not converge";
    match Scheduler.step sched2 with
    | `Finished _ -> ()
    | `Sliced _ -> drive (guard - 1)
    | `Idle -> Alcotest.fail "went idle before finishing"
    | `Halted j ->
        Alcotest.failf "job halted: %s"
          (Option.value ~default:"?" (Scheduler.last_error j))
  in
  drive 50;
  (match Scheduler.hits sched2 j2 with
  | Ok (hits, true) ->
      Alcotest.(check (list string)) "resumed = uninterrupted"
        (hit_lines (plain_campaign ~seeds))
        (hit_lines hits)
  | Ok (_, false) -> Alcotest.fail "resumed job incomplete"
  | Error e -> Alcotest.failf "hits failed: %s" e);
  Scheduler.close sched2

let test_scheduler_interrupt_checkpoints () =
  let root = fresh_dir () in
  Harness.Pool.with_pool ~workers:1 @@ fun pool ->
  let sched = Scheduler.create ~quantum:4 ~root ~pool () in
  let j = Result.get_ok (Scheduler.submit sched (submit_spec ~seeds:40 ())) in
  (match Scheduler.step sched with
  | `Sliced _ -> ()
  | _ -> Alcotest.fail "expected a slice");
  (* graceful shutdown: the flag stops the next slice's fresh seeds, and
     submissions are refused *)
  Scheduler.interrupt sched;
  (match Scheduler.submit sched (submit_spec ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submit accepted during shutdown");
  let before = Scheduler.seeds_done j in
  (match Scheduler.step sched with
  | `Sliced _ -> ()
  | _ -> Alcotest.fail "expected a checkpoint slice");
  Alcotest.(check int) "no fresh seeds after interrupt" before
    (Scheduler.seeds_done j);
  Alcotest.(check bool) "still running (resumable)" true
    (Scheduler.state j = Jobs.Running);
  Scheduler.close sched

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "service"
    [
      ( "json",
        qcheck [ test_json_roundtrip; test_json_single_line ]
        @ [ Alcotest.test_case "edge cases" `Quick test_json_edges ] );
      ( "protocol",
        qcheck [ test_protocol_roundtrip ]
        @ [ Alcotest.test_case "bad requests" `Quick test_protocol_errors ] );
      ( "framing",
        [
          Alcotest.test_case "line split across chunks" `Quick
            test_frame_split_line;
          Alcotest.test_case "many lines in one chunk" `Quick
            test_frame_many_lines;
          Alcotest.test_case "over-cap line" `Quick test_frame_over_cap;
          Alcotest.test_case "daemon drops an over-cap client" `Quick
            test_server_drops_over_cap_client;
        ] );
      ( "jobs-store",
        [
          Alcotest.test_case "round trip + monotonic ids" `Quick
            test_jobs_store_roundtrip;
          Alcotest.test_case "torn tail recovery" `Quick
            test_jobs_store_torn_tail;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "fairness + cross-job sharing" `Slow
            test_scheduler_fairness_and_sharing;
          Alcotest.test_case "cancel mid-campaign" `Slow
            test_scheduler_cancel_mid_campaign;
          Alcotest.test_case "crash + resume bit-identical" `Slow
            test_scheduler_crash_resume_bit_identical;
          Alcotest.test_case "interrupt checkpoints" `Slow
            test_scheduler_interrupt_checkpoints;
        ] );
    ]
