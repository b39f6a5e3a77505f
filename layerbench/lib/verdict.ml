module J = Tbct_service.Json

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let metrics_json ~units metrics =
  J.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           J.Obj
             [
               ("value", J.Float v);
               ("unit", J.Str (Option.value ~default:"" (List.assoc_opt k units)));
             ] ))
       metrics)

let result_to_json r ~units =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.Int r.seed);
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics", metrics_json ~units r.metrics);
    ]

let number = function
  | J.Float f -> Some f
  | J.Int n -> Some (float_of_int n)
  | _ -> None

let result_of_json j =
  let ( let* ) = Option.bind in
  let* workload = J.mem_str "workload" j in
  let* seed = J.mem_int "seed" j in
  let* correct = J.mem_bool "correct" j in
  let* attempted = J.mem_int "attempted" j in
  let* failed = J.mem_int "failed" j in
  let* metrics =
    match J.member "metrics" j with Some (J.Obj kvs) -> Some kvs | _ -> None
  in
  let metrics =
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (J.member "value" v) number))
      metrics
  in
  Some { workload; seed; correct; attempted; failed; metrics }

type spec = { name : string; unit_ : string; higher_better : bool; bound : float }

let specs_of_benchmark j =
  match Option.bind (J.member "end_to_end" j) J.to_list with
  | None -> []
  | Some entries ->
      List.filter_map
        (fun e ->
          match
            ( J.mem_str "name" e,
              J.mem_str "unit" e,
              J.mem_str "better" e,
              Option.bind (J.member "bound" e) number )
          with
          | Some name, Some unit_, Some better, Some bound ->
              Some { name; unit_; higher_better = String.equal better "higher"; bound }
          | _ -> None)
        entries

type verdict = Gain | Better_every_run | Within_bound | Regression | Unresolved

let verdict_to_string = function
  | Gain -> "gain"
  | Better_every_run -> "better-every-run"
  | Within_bound -> "within-bound"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

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

(* same-seed runs pair first; leftovers pair in the order they were run *)
let pair_up old_runs new_runs =
  let same, old_rest =
    List.fold_left
      (fun (same, rest) (seed, v) ->
        match List.assoc_opt seed new_runs with
        | Some _ when not (List.mem_assoc seed same) -> ((seed, v) :: same, rest)
        | _ -> (same, (seed, v) :: rest))
      ([], []) old_runs
  in
  let matched = List.map (fun (seed, v) -> (v, List.assoc seed new_runs)) same in
  let new_rest = List.filter (fun (seed, _) -> not (List.mem_assoc seed same)) new_runs in
  let rec zip a b =
    match (a, b) with
    | (_, x) :: a, (_, y) :: b -> (x, y) :: zip a b
    | _ -> []
  in
  matched @ zip (List.rev old_rest) new_rest

let judge spec ~old_runs ~new_runs =
  let better a b = if spec.higher_better then a > b else a < b in
  let olds = List.map snd old_runs and news = List.map snd new_runs in
  let pairs = pair_up old_runs new_runs in
  let wins = List.length (List.filter (fun (o, n) -> better n o) pairs) in
  let losses = List.length (List.filter (fun (o, n) -> better o n) pairs) in
  let old_median = Quant.median olds and new_median = Quant.median news in
  let old_spread = Quant.spread olds and new_spread = Quant.spread news in
  let q1, _, q3 = Quant.quartiles olds in
  let worse_share =
    (if spec.higher_better then old_median -. new_median
     else new_median -. old_median)
    /. Float.abs old_median
  in
  let every_run_better =
    olds <> [] && news <> []
    && List.for_all (fun n -> List.for_all (fun o -> better n o) olds) news
  in
  let verdict =
    if Float.max old_spread new_spread > spec.bound then
      if every_run_better then Better_every_run else Unresolved
    else if
      List.length pairs >= 10
      && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
      && better new_median old_median
      && Float.abs (new_median -. old_median) > q3 -. q1
    then Gain
    else if worse_share > spec.bound then Regression
    else Within_bound
  in
  {
    r_workload = "";
    r_metric = spec.name;
    old_median;
    new_median;
    old_spread;
    new_spread;
    wins;
    losses;
    pairs = List.length pairs;
    verdict;
  }

let compare specs ~old_ ~new_ =
  let workloads =
    List.sort_uniq String.compare (List.map (fun r -> r.workload) old_)
    |> List.filter (fun w -> List.exists (fun r -> String.equal r.workload w) new_)
  in
  List.concat_map
    (fun w ->
      let runs side name =
        List.filter_map
          (fun r ->
            if String.equal r.workload w then
              Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.metrics)
            else None)
          side
      in
      List.filter_map
        (fun spec ->
          match (runs old_ spec.name, runs new_ spec.name) with
          | [], _ | _, [] -> None
          | old_runs, new_runs ->
              Some { (judge spec ~old_runs ~new_runs) with r_workload = w })
        specs)
    workloads
