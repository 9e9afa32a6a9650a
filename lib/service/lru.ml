(* Doubly-linked recency list over a hash table. [head] is the
   most-recently-used end, [tail] the eviction end. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards MRU *)
  mutable next : ('k, 'v) node option;  (* towards LRU *)
}

type ('k, 'v) t = {
  capacity : int;
  on_evict : 'k -> 'v -> unit;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable length : int;
}

let create ?(on_evict = fun _ _ -> ()) ~capacity () =
  if capacity < 0 then invalid_arg "Lru.create: capacity must be >= 0";
  {
    capacity;
    on_evict;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    length = 0;
  }

let length t = t.length

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.length <- t.length - 1

(* the entry just put sits at the head, so it is evicted only at
   capacity 0 *)
let rec enforce_capacity t =
  match t.tail with
  | Some victim when t.length > t.capacity ->
      drop t victim;
      t.on_evict victim.key victim.value;
      enforce_capacity t
  | _ -> ()

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
      touch t n;
      Some n.value

let put t k v =
  (match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      touch t n
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k n;
      push_front t n;
      t.length <- t.length + 1);
  enforce_capacity t

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> false
  | Some n ->
      drop t n;
      true

let keys_mru t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head
