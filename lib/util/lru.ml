(* Hashtable plus a doubly-linked recency list; head = most recent. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable pinned : bool;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable unpinned : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create";
  { capacity; table = Hashtbl.create 64; head = None; tail = None; unpinned = 0 }

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

let promote t n =
  unlink t n;
  push_front t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
    promote t n;
    Some n.value

let peek t k =
  match Hashtbl.find_opt t.table k with None -> None | Some n -> Some n.value

let remove_node t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  if not n.pinned then t.unpinned <- t.unpinned - 1

let evict t =
  (* Walk from least-recently-used, skipping pinned entries. *)
  let rec oldest = function
    | None -> None
    | Some n -> if n.pinned then oldest n.prev else Some n
  in
  let rec go acc =
    if t.unpinned <= t.capacity then acc
    else
      match oldest t.tail with
      | None -> acc
      | Some n ->
        remove_node t n;
        go ((n.key, n.value) :: acc)
  in
  go []

let add t k v =
  (match Hashtbl.find_opt t.table k with
  | Some n ->
    n.value <- v;
    promote t n
  | None ->
    let n = { key = k; value = v; pinned = false; prev = None; next = None } in
    Hashtbl.replace t.table k n;
    push_front t n;
    t.unpinned <- t.unpinned + 1);
  evict t

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some n -> remove_node t n

let mem t k = Hashtbl.mem t.table k

let pin t k =
  match Hashtbl.find_opt t.table k with
  | None -> invalid_arg "Lru.pin: absent key"
  | Some n ->
    if not n.pinned then begin
      n.pinned <- true;
      t.unpinned <- t.unpinned - 1
    end

let unpin t k =
  match Hashtbl.find_opt t.table k with
  | None -> invalid_arg "Lru.unpin: absent key"
  | Some n ->
    if n.pinned then begin
      n.pinned <- false;
      t.unpinned <- t.unpinned + 1;
      evict t
    end
    else []

let pinned t k =
  match Hashtbl.find_opt t.table k with None -> false | Some n -> n.pinned

let iter t f = Hashtbl.iter (fun k n -> f k n.value) t.table
let size t = Hashtbl.length t.table

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.unpinned <- 0
