module J = Tbct_service.Json

type span = {
  id : int;
  parent : int;
  name : string;
  run : int;
  t0 : float;
  t1 : float;
  repeat : bool;
  clock : bool;
}

type t = {
  run_id : int;
  mutable next : int;
  mutable stack : int list;
  mutable closed : span list;
}

let create ~run = { run_id = run; next = 0; stack = []; closed = [] }

let fresh tr =
  let id = tr.next in
  tr.next <- id + 1;
  (id, match tr.stack with p :: _ -> p | [] -> -1)

let span ?(repeat = false) tr name f =
  let id, parent = fresh tr in
  tr.stack <- id :: tr.stack;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      tr.stack <- List.tl tr.stack;
      tr.closed <-
        { id; parent; name; run = tr.run_id; t0; t1; repeat; clock = false }
        :: tr.closed)
    f

let clock tr name dt =
  let id, parent = fresh tr in
  let t1 = Unix.gettimeofday () in
  tr.closed <-
    { id; parent; name; run = tr.run_id; t0 = t1 -. Float.max 0.0 dt; t1;
      repeat = false; clock = true }
    :: tr.closed

let spans tr = List.sort (fun a b -> compare a.id b.id) tr.closed

let children_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.parent
        (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    (List.rev spans);
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

(* length of the union of the children's intervals, clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let kids = children_of spans in
  List.map
    (fun s ->
      let inner = List.map (fun c -> (c.t0, c.t1)) (kids s.id) in
      (s.id, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 inner))
    spans

let by_name spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 32 in
  List.iter2
    (fun s (_, st) ->
      let total, self =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (total +. (s.t1 -. s.t0), self +. st))
    spans self;
  Hashtbl.fold (fun k (t, s) acc -> (k, t, s) :: acc) tbl []
  |> List.sort compare

let subtree spans ~root =
  let kids = children_of spans in
  let rec walk acc s = List.fold_left walk (s :: acc) (kids s.id) in
  match List.find_opt (fun s -> s.id = root) spans with
  | None -> []
  | Some r -> List.sort (fun a b -> compare a.id b.id) (walk [] r)

let canonical spans =
  let kids = children_of spans in
  let rec node s =
    match kids s.id with
    | [] -> s.name
    | cs -> s.name ^ "(" ^ String.concat "," (collapse (List.map (fun c -> (c, node c)) cs)) ^ ")"
  and collapse = function
    | (a, sa) :: (b, sb) :: rest when a.repeat && b.repeat && String.equal sa sb ->
        collapse ((a, sa) :: rest)
    | (a, sa) :: rest -> (if a.repeat then sa ^ "+" else sa) :: collapse rest
    | [] -> []
  in
  String.concat "\n" (List.map node (kids (-1)))

let to_jsonl spans =
  let self = self_times spans in
  let b = Buffer.create 4096 in
  List.iter2
    (fun s (_, st) ->
      Buffer.add_string b
        (J.to_string
           (J.Obj
              [
                ("run", J.Int s.run);
                ("id", J.Int s.id);
                ("parent", J.Int s.parent);
                ("name", J.Str s.name);
                ("start", J.Float s.t0);
                ("end", J.Float s.t1);
                ("self", J.Float st);
                ("clock", J.Bool s.clock);
              ]));
      Buffer.add_char b '\n')
    spans self;
  Buffer.contents b
