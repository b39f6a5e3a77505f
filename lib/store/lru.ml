(** A capacity-bounded LRU map: Hashtbl for lookup, intrusive doubly-linked
    list for recency order.  All operations are O(1); eviction removes the
    least-recently-used binding and bumps a counter.

    This is the eviction policy behind the engine's in-memory memo tables,
    so a long-running service does not grow without limit.  Not
    thread-safe: the engine serializes access under its own mutex. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (** towards MRU *)
  mutable next : ('k, 'v) node option;  (** towards LRU *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (** most recently used *)
  mutable tail : ('k, 'v) node option;  (** least recently used *)
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    evictions = 0;
  }

let length t = Hashtbl.length t.table
let evictions t = t.evictions

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.evictions <- t.evictions + 1

let set t k v =
  (match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      unlink t node;
      push_front t node
  | None ->
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k node;
      push_front t node);
  while Hashtbl.length t.table > t.capacity do
    evict_lru t
  done
