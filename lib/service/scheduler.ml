(** Fair round-robin campaign multiplexer (see the interface). *)

module Jobs = Tbct_store.Jobs
module Bugbank = Tbct_store.Bugbank
module Persist = Harness.Persist
module Experiments = Harness.Experiments

type job = {
  jid : string;
  jspec : Jobs.record;
  mutable jstate : Jobs.state;
  mutable jseeds_done : int;
  mutable jhits_found : int;
  mutable jnew_sigs : int;
  mutable jruns : int;
  mutable jmemo_hits : int;
  mutable jcross_hits : int;
  mutable jslices : int;
  (* accumulated tv-abstain:<reason> buckets, attributed per slice (slices
     are serialized, so an engine-counter delta belongs to this job) *)
  jabstains : (string, int) Hashtbl.t;
  mutable jerror : string option;
}

type event =
  | Submitted of job
  | Started of job
  | Seed_done of job * int * int
  | Hit_found of job * Harness.Experiments.hit * bool
  | Finished of job
  | Halted of job

type t = {
  root : string;
  store : Jobs.t;
  engine : Harness.Engine.t;
  pool : Harness.Pool.t;
  bank : Bugbank.t;
  (* guards the bank and the live per-job counters the worker-domain
     on_seed hook mutates *)
  mutex : Mutex.t;
  quantum : int;
  fsync : bool;
  on_event : event -> unit;
  table : (string, job) Hashtbl.t;
  mutable order : string list;  (* submission order *)
  mutable rr : int;
  stop_flag : bool Atomic.t;
}

let id j = j.jid
let spec j = j.jspec
let state j = j.jstate
let seeds_done j = j.jseeds_done
let hits_found j = j.jhits_found
let new_signatures j = j.jnew_sigs
let runs_executed j = j.jruns
let memo_hits j = j.jmemo_hits
let cross_memo_hits j = j.jcross_hits
let slices j = j.jslices

let tv_abstains j =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) j.jabstains [])

let last_error j = j.jerror

let jobs_dir t = Filename.concat t.root "jobs"
let job_dir t id = Filename.concat (jobs_dir t) id

let fresh_job ?(counters = []) (r : Jobs.record) st =
  let jabstains = Hashtbl.create 4 in
  List.iter (fun (k, v) -> Hashtbl.replace jabstains k v) counters;
  {
    jid = r.Jobs.id;
    jspec = r;
    jstate = st;
    jseeds_done = (if st = Jobs.Done then r.Jobs.seeds else 0);
    jhits_found = 0;
    jnew_sigs = 0;
    jruns = 0;
    jmemo_hits = 0;
    jcross_hits = 0;
    jslices = 0;
    jabstains;
    jerror = None;
  }

let create ?(fsync = false) ?(quantum = 8) ?(on_event = fun _ -> ()) ~root
    ~pool () =
  let store = Jobs.open_ ~fsync ~dir:(Filename.concat root "jobs") () in
  let cas = Persist.open_cas ~fsync ~dir:root () in
  let engine = Harness.Engine.create ~store:cas () in
  let bank = Bugbank.load ~dir:(Filename.concat root "jobs") in
  let t =
    {
      root;
      store;
      engine;
      pool;
      bank;
      mutex = Mutex.create ();
      quantum = max 1 quantum;
      fsync;
      on_event;
      table = Hashtbl.create 16;
      order = [];
      rr = 0;
      stop_flag = Atomic.make false;
    }
  in
  (* restore the queue a previous daemon left behind: Running jobs were
     interrupted mid-campaign and resume from their journals *)
  List.iter
    (fun ((r : Jobs.record), st) ->
      let counters = Jobs.counters store ~id:r.Jobs.id in
      Hashtbl.replace t.table r.Jobs.id (fresh_job ~counters r st);
      t.order <- t.order @ [ r.Jobs.id ])
    (Jobs.entries store);
  t

let engine t = t.engine
let job t ~id = Hashtbl.find_opt t.table id
let jobs t = List.filter_map (fun id -> Hashtbl.find_opt t.table id) t.order

let runnable_ids t =
  List.filter
    (fun id ->
      match Hashtbl.find_opt t.table id with
      | Some j -> j.jstate = Jobs.Queued || j.jstate = Jobs.Running
      | None -> false)
    t.order

let runnable t = runnable_ids t <> []
let interrupt t = Atomic.set t.stop_flag true
let interrupted t = Atomic.get t.stop_flag

let cross_job_memo_hits t =
  List.fold_left (fun acc j -> acc + j.jcross_hits) 0 (jobs t)

(* ---------- submission ---------- *)

let resolve_targets names =
  match names with
  | [] -> Ok Compilers.Target.all
  | names ->
      List.fold_left
        (fun acc name ->
          Result.bind acc (fun ts ->
              match Compilers.Target.find name with
              | Some target -> Ok (ts @ [ target ])
              | None -> Error (Printf.sprintf "unknown target %S" name)))
        (Ok []) names

let submit t (s : Protocol.submit_spec) =
  if Atomic.get t.stop_flag then Error "daemon is shutting down"
  else
    match resolve_targets s.Protocol.sub_targets with
    | Error _ as e -> e
    | Ok _ -> (
        match Spirv_fuzz.Registry.parse_weights s.Protocol.sub_weights with
        | Error msg -> Error (Printf.sprintf "bad weights: %s" msg)
        | Ok _ ->
            let record : Jobs.record =
              {
                Jobs.id = Jobs.fresh_id t.store;
                tool = Harness.Pipeline.tool_name s.Protocol.sub_tool;
                seeds = s.Protocol.sub_seeds;
                targets = s.Protocol.sub_targets;
                weights = s.Protocol.sub_weights;
                tv = s.Protocol.sub_tv;
              }
            in
            Jobs.add t.store record;
            let j = fresh_job record Jobs.Queued in
            Hashtbl.replace t.table j.jid j;
            t.order <- t.order @ [ j.jid ];
            t.on_event (Submitted j);
            Ok j)

let cancel t ~id =
  match Hashtbl.find_opt t.table id with
  | None -> Error (Printf.sprintf "no such job %S" id)
  | Some j -> (
      match j.jstate with
      | Jobs.Done -> Error (Printf.sprintf "job %s already finished" id)
      | Jobs.Cancelled -> Error (Printf.sprintf "job %s already cancelled" id)
      | Jobs.Queued | Jobs.Running ->
          Jobs.set_state t.store ~id Jobs.Cancelled;
          j.jstate <- Jobs.Cancelled;
          t.on_event (Halted j);
          Ok ())

(* ---------- slicing ---------- *)

(* Decode a job's persisted parameters back into harness types.  Failures
   here (a hand-edited jobs.log, a target renamed between versions) halt
   the job rather than the daemon. *)
let decode_spec (r : Jobs.record) =
  match Harness.Pipeline.tool_of_name r.Jobs.tool with
  | None -> Error (Printf.sprintf "unknown tool %S" r.Jobs.tool)
  | Some tool -> (
      match resolve_targets r.Jobs.targets with
      | Error _ as e -> e
      | Ok targets -> (
          match Spirv_fuzz.Registry.parse_weights r.Jobs.weights with
          | Error msg -> Error (Printf.sprintf "bad weights: %s" msg)
          | Ok weights -> Ok (tool, targets, weights)))

let scale_of (r : Jobs.record) =
  { Experiments.default_scale with Experiments.seeds = r.Jobs.seeds }

let memo_total (s : Harness.Engine.stats) =
  s.Harness.Engine.cache_hits + s.Harness.Engine.store_hits
  + s.Harness.Engine.opt_hits + s.Harness.Engine.tv_hits
  + s.Harness.Engine.tv_pipeline_hits

let abstain_prefix = "tv-abstain:"

let abstain_counters (s : Harness.Engine.stats) =
  List.filter
    (fun (k, _) ->
      String.length k > String.length abstain_prefix
      && String.sub k 0 (String.length abstain_prefix) = abstain_prefix)
    s.Harness.Engine.counters

let record_hit t j (h : Experiments.hit) =
  let signature = h.Experiments.hit_detection.Harness.Pipeline.signature in
  let bug_id = Harness.Signature.bug_id_of_signature signature in
  Mutex.protect t.mutex (fun () ->
      let verdict =
        Bugbank.record t.bank ~target:h.Experiments.hit_target ~bug_id
          ~types:[ signature ]
      in
      j.jhits_found <- j.jhits_found + 1;
      let is_new = verdict = `New in
      if is_new then j.jnew_sigs <- j.jnew_sigs + 1;
      is_new)

let halt t j msg =
  Jobs.set_state t.store ~id:j.jid Jobs.Cancelled;
  j.jstate <- Jobs.Cancelled;
  j.jerror <- Some msg;
  t.on_event (Halted j);
  `Halted j

let slice t j =
  match decode_spec j.jspec with
  | Error msg -> halt t j msg
  | Ok (tool, targets, weights) -> (
      if j.jstate = Jobs.Queued then begin
        Jobs.set_state t.store ~id:j.jid Jobs.Running;
        j.jstate <- Jobs.Running;
        t.on_event (Started j)
      end;
      (* did any OTHER job execute runs before this slice?  If so, memo
         hits earned during it count as cross-job sharing *)
      let other_ran =
        List.exists (fun o -> o.jid <> j.jid && o.jruns > 0) (jobs t)
      in
      let before = Harness.Engine.stats t.engine in
      let executed = Atomic.make 0 in
      let stop () =
        Atomic.get executed >= t.quantum || Atomic.get t.stop_flag
      in
      let on_seed seed hits =
        Atomic.incr executed;
        let events =
          List.map (fun h -> Hit_found (j, h, record_hit t j h)) hits
        in
        Mutex.protect t.mutex (fun () ->
            j.jseeds_done <- j.jseeds_done + 1);
        List.iter t.on_event events;
        t.on_event (Seed_done (j, seed, List.length hits))
      in
      let outcome =
        try
          Persist.run_campaign ~scale:(scale_of j.jspec) ~targets ~pool:t.pool
            ~engine:t.engine ~tv:j.jspec.Jobs.tv ~weights ~resume:true
            ~fsync:t.fsync ~stop ~on_seed ~dir:(job_dir t j.jid) tool
        with e -> Error (Printexc.to_string e)
      in
      match outcome with
      | Error msg -> halt t j msg
      | Ok o ->
          let after = Harness.Engine.stats t.engine in
          let memo_delta = memo_total after - memo_total before in
          j.jruns <-
            j.jruns
            + (after.Harness.Engine.runs_executed
             - before.Harness.Engine.runs_executed);
          j.jmemo_hits <- j.jmemo_hits + memo_delta;
          if other_ran then j.jcross_hits <- j.jcross_hits + memo_delta;
          (* slice-local growth of each tv-abstain bucket belongs to this
             job; persist the accumulated snapshot with the slice *)
          let before_abstains = abstain_counters before in
          List.iter
            (fun (k, v) ->
              let prior =
                Option.value ~default:0 (List.assoc_opt k before_abstains)
              in
              if v > prior then
                Hashtbl.replace j.jabstains k
                  (v - prior
                  + Option.value ~default:0 (Hashtbl.find_opt j.jabstains k)))
            (abstain_counters after);
          Jobs.set_counters t.store ~id:j.jid (tv_abstains j);
          j.jslices <- j.jslices + 1;
          (* exact, replacing the live per-seed increments: the journal
             knows precisely how many seeds are recorded *)
          j.jseeds_done <- o.Persist.seeds_skipped + o.Persist.seeds_run;
          if o.Persist.completed then begin
            Jobs.set_state t.store ~id:j.jid Jobs.Done;
            j.jstate <- Jobs.Done;
            Mutex.protect t.mutex (fun () -> Bugbank.save ~fsync:t.fsync t.bank);
            t.on_event (Finished j);
            `Finished j
          end
          else begin
            (* checkpoint the bank alongside the journal's slice boundary *)
            Mutex.protect t.mutex (fun () -> Bugbank.save ~fsync:t.fsync t.bank);
            `Sliced j
          end)

let step t =
  match runnable_ids t with
  | [] -> `Idle
  | ids ->
      let n = List.length ids in
      let j =
        Hashtbl.find t.table (List.nth ids (t.rr mod n))
      in
      t.rr <- t.rr + 1;
      slice t j

(* ---------- hit retrieval ---------- *)

let hits t j =
  match decode_spec j.jspec with
  | Error _ as e -> e
  | Ok (tool, targets, weights) -> (
      (* resume-replay with an always-true stop hook: journaled seeds are
         spliced in, nothing executes.  ~domains:1 keeps the shared pool
         out of it (a 1-worker pool runs inline, no domain spawned). *)
      match
        Persist.run_campaign ~scale:(scale_of j.jspec) ~targets ~domains:1
          ~engine:t.engine ~tv:j.jspec.Jobs.tv ~weights ~resume:true
          ~stop:(fun () -> true) ~dir:(job_dir t j.jid) tool
      with
      | Error _ as e -> e
      | Ok o -> Ok (o.Persist.hits, o.Persist.completed))

let close t =
  Mutex.protect t.mutex (fun () -> Bugbank.save ~fsync:t.fsync t.bank);
  Jobs.close t.store
