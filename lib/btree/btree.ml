open Cedar_util

module type STORE = sig
  type t

  val page_bytes : t -> int
  val read : t -> int -> string
  val write : t -> int -> string -> unit
  val alloc : t -> int
  val free : t -> int -> unit
  val ensure_free : t -> int -> unit
  val on_drop : t -> (int -> unit) -> unit
  val get_root : t -> int option
  val set_root : t -> int option -> unit
end

type stats = { depth : int; pages : int; entries : int; used_bytes : int }

exception Corrupt of string

module Make (S : STORE) = struct
  type node =
    | Leaf of (string * string) array
    | Internal of { keys : string array; children : int array }

  (* A decoded node together with the page string it was decoded from. *)
  type memo_entry = { page : string; node : node }

  type t = { store : S.t; page_bytes : int; memo : (int, memo_entry) Hashtbl.t }

  let attach store =
    let memo = Hashtbl.create 64 in
    S.on_drop store (Hashtbl.remove memo);
    { store; page_bytes = S.page_bytes store; memo }

  let cached_nodes t = Hashtbl.length t.memo

  (* ---------------------------------------------------------------- *)
  (* Node codec                                                        *)

  let leaf_kind = 1
  let internal_kind = 2
  let node_overhead = 3 (* kind byte + u16 count *)
  let leaf_entry_bytes k v = 4 + String.length k + String.length v
  let internal_key_bytes k = 2 + String.length k

  let encoded_bytes = function
    | Leaf entries ->
      Array.fold_left
        (fun acc (k, v) -> acc + leaf_entry_bytes k v)
        node_overhead entries
    | Internal { keys; children } ->
      Array.fold_left (fun acc k -> acc + internal_key_bytes k) node_overhead keys
      + (4 * Array.length children)

  let encode t node =
    let w = Bytebuf.Writer.create ~initial:t.page_bytes () in
    (match node with
    | Leaf entries ->
      Bytebuf.Writer.u8 w leaf_kind;
      Bytebuf.Writer.u16 w (Array.length entries);
      Array.iter
        (fun (k, v) ->
          Bytebuf.Writer.string w k;
          Bytebuf.Writer.string w v)
        entries
    | Internal { keys; children } ->
      assert (Array.length children = Array.length keys + 1);
      Bytebuf.Writer.u8 w internal_kind;
      Bytebuf.Writer.u16 w (Array.length keys);
      Array.iter (Bytebuf.Writer.string w) keys;
      Array.iter (Bytebuf.Writer.u32 w) children);
    (* The buffer is fresh and never touched again, so it can become the
       page's immutable string without a copy. *)
    Bytes.unsafe_to_string (Bytebuf.Writer.to_sector w ~size:t.page_bytes)

  let decode page =
    let r = Bytebuf.Reader.of_bytes (Bytes.unsafe_of_string page) in
    match Bytebuf.Reader.u8 r with
    | k when k = leaf_kind ->
      let n = Bytebuf.Reader.u16 r in
      Leaf
        (Array.init n (fun _ ->
             let k = Bytebuf.Reader.string r in
             let v = Bytebuf.Reader.string r in
             (k, v)))
    | k when k = internal_kind ->
      let n = Bytebuf.Reader.u16 r in
      let keys = Array.init n (fun _ -> Bytebuf.Reader.string r) in
      let children = Array.init (n + 1) (fun _ -> Bytebuf.Reader.u32 r) in
      Internal { keys; children }
    | k -> raise (Corrupt (Printf.sprintf "unknown node kind %d" k))

  (* Every read goes to the store, so its cache sees the same touches and
     misses as without the memo; the memoised node is reused only when
     the store hands back the very string it was decoded from. *)
  let read_node t id =
    let page = S.read t.store id in
    match Hashtbl.find t.memo id with
    | e when e.page == page -> e.node
    | _ | (exception Not_found) -> (
      match decode page with
      | node ->
        Hashtbl.replace t.memo id { page; node };
        node
      | exception Bytebuf.Decode_error msg ->
        raise (Corrupt (Printf.sprintf "page %d: %s" id msg)))

  let write_node t id node =
    let page = encode t node in
    S.write t.store id page;
    Hashtbl.replace t.memo id { page; node }

  (* ---------------------------------------------------------------- *)
  (* Search helpers                                                    *)

  (* Number of separator keys <= [key]; the index of the child subtree in
     which [key] itself belongs. *)
  let child_index keys key =
    let rec go lo hi =
      (* invariant: keys.(lo-1) <= key < keys.(hi) (with sentinels) *)
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if String.compare keys.(mid) key <= 0 then go (mid + 1) hi
        else go lo mid
    in
    go 0 (Array.length keys)

  (* Position of [key] in a sorted entry array: [Found i] or [Insert_at i]. *)
  let leaf_position entries key =
    let rec go lo hi =
      if lo >= hi then `Insert_at lo
      else
        let mid = (lo + hi) / 2 in
        let c = String.compare (fst entries.(mid)) key in
        if c = 0 then `Found mid else if c < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length entries)

  let array_insert a i x =
    let n = Array.length a in
    Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

  let array_remove a i =
    let n = Array.length a in
    Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

  (* ---------------------------------------------------------------- *)
  (* Insert                                                            *)

  let max_entry_bytes t = (t.page_bytes - node_overhead) / 4

  (* Split a leaf entry array at the byte midpoint. *)
  let split_leaf entries =
    let total = Array.fold_left (fun acc (k, v) -> acc + leaf_entry_bytes k v) 0 entries in
    let n = Array.length entries in
    let rec cut i acc =
      if i >= n - 1 then n - 1
      else
        let acc = acc + leaf_entry_bytes (fst entries.(i)) (snd entries.(i)) in
        if acc * 2 >= total then i + 1 else cut (i + 1) acc
    in
    let at = max 1 (cut 0 0) in
    (Array.sub entries 0 at, Array.sub entries at (n - at))

  (* A node with one more entry: the node itself while it still fits its
     page, else its two halves and the separator between them. *)
  type grown = Fits of node | Split of node * node * string

  let grow_leaf t entries key value =
    let entries =
      match leaf_position entries key with
      | `Found i ->
        let a = Array.copy entries in
        a.(i) <- (key, value);
        a
      | `Insert_at i -> array_insert entries i (key, value)
    in
    let node = Leaf entries in
    if encoded_bytes node <= t.page_bytes then Fits node
    else
      let left, right = split_leaf entries in
      Split (Leaf left, Leaf right, fst right.(0))

  (* Child [i] split into itself and [rid], with [sep] between them. *)
  let grow_internal t keys children i sep rid =
    let keys = array_insert keys i sep in
    let children = array_insert children (i + 1) rid in
    let node = Internal { keys; children } in
    if encoded_bytes node <= t.page_bytes then Fits node
    else begin
      (* Promote the middle key; it is kept in neither half. *)
      let mid = Array.length keys / 2 in
      let left =
        Internal { keys = Array.sub keys 0 mid; children = Array.sub children 0 (mid + 1) }
      in
      let nright = Array.length keys - mid - 1 in
      let right =
        Internal
          {
            keys = Array.sub keys (mid + 1) nright;
            children = Array.sub children (mid + 1) (nright + 1);
          }
      in
      Split (left, right, keys.(mid))
    end

  let rec insert_rec t id key value =
    match read_node t id with
    | Leaf entries -> place t id (grow_leaf t entries key value)
    | Internal { keys; children } -> (
      let i = child_index keys key in
      match insert_rec t children.(i) key value with
      | `Ok -> `Ok
      | `Split (sep, rid) -> place t id (grow_internal t keys children i sep rid))

  and place t id = function
    | Fits node ->
      write_node t id node;
      `Ok
    | Split (left, right, sep) ->
      let rid = S.alloc t.store in
      write_node t id left;
      write_node t rid right;
      `Split (sep, rid)

  (* The pages an insert will allocate: one per node that splits on the
     way up, plus a new root if the root splits. Reads, never writes. A
     split child's page id only adds a fixed four bytes to its parent,
     so any id stands in for the one [S.alloc] would return. *)
  let pages_needed t key value =
    let up = function Fits _ -> (0, None) | Split (_, _, sep) -> (1, Some sep) in
    let rec go id =
      match read_node t id with
      | Leaf entries -> up (grow_leaf t entries key value)
      | Internal { keys; children } -> (
        let i = child_index keys key in
        match go children.(i) with
        | n, None -> (n, None)
        | n, Some sep ->
          let m, sep' = up (grow_internal t keys children i sep 0) in
          (n + m, sep'))
    in
    match S.get_root t.store with
    | None -> 1
    | Some root -> (
      match go root with n, None -> n | n, Some _ -> n + 1)

  let insert t ~key ~value =
    if leaf_entry_bytes key value > max_entry_bytes t then
      invalid_arg
        (Printf.sprintf "Btree.insert: entry of %d bytes exceeds max %d"
           (leaf_entry_bytes key value) (max_entry_bytes t));
    (* Refuse before the first write: a split whose parent cannot get a
       page would orphan the half already written, with its keys. *)
    S.ensure_free t.store (pages_needed t key value);
    match S.get_root t.store with
    | None ->
      let id = S.alloc t.store in
      write_node t id (Leaf [| (key, value) |]);
      S.set_root t.store (Some id)
    | Some root -> (
      match insert_rec t root key value with
      | `Ok -> ()
      | `Split (sep, rid) ->
        let nid = S.alloc t.store in
        write_node t nid (Internal { keys = [| sep |]; children = [| root; rid |] });
        S.set_root t.store (Some nid))

  (* ---------------------------------------------------------------- *)
  (* Find                                                              *)

  let rec find_rec t id key =
    match read_node t id with
    | Leaf entries -> (
      match leaf_position entries key with
      | `Found i -> Some (snd entries.(i))
      | `Insert_at _ -> None)
    | Internal { keys; children } -> find_rec t children.(child_index keys key) key

  let find t key =
    match S.get_root t.store with None -> None | Some root -> find_rec t root key

  (* ---------------------------------------------------------------- *)
  (* Delete                                                            *)

  let min_fill t = t.page_bytes / 4

  let underfull t node = encoded_bytes node < min_fill t

  (* Rebalance or merge children [i] and [i+1] of the internal node in
     page [id]. Returns the updated parent node. *)
  let fix_pair t ~keys ~children i =
    let li = children.(i) and ri = children.(i + 1) in
    match (read_node t li, read_node t ri) with
    | Leaf le, Leaf re ->
      let all = Array.append le re in
      let merged = Leaf all in
      if encoded_bytes merged <= t.page_bytes then begin
        write_node t li merged;
        S.free t.store ri;
        Internal { keys = array_remove keys i; children = array_remove children (i + 1) }
      end
      else begin
        let l, r = split_leaf all in
        write_node t li (Leaf l);
        write_node t ri (Leaf r);
        let keys = Array.copy keys in
        keys.(i) <- fst r.(0);
        Internal { keys; children }
      end
    | Internal l, Internal r ->
      let all_keys = Array.concat [ l.keys; [| keys.(i) |]; r.keys ] in
      let all_children = Array.append l.children r.children in
      let merged = Internal { keys = all_keys; children = all_children } in
      if encoded_bytes merged <= t.page_bytes then begin
        write_node t li merged;
        S.free t.store ri;
        Internal { keys = array_remove keys i; children = array_remove children (i + 1) }
      end
      else begin
        let mid = Array.length all_keys / 2 in
        let sep = all_keys.(mid) in
        write_node t li
          (Internal
             { keys = Array.sub all_keys 0 mid; children = Array.sub all_children 0 (mid + 1) });
        let nr = Array.length all_keys - mid - 1 in
        write_node t ri
          (Internal
             {
               keys = Array.sub all_keys (mid + 1) nr;
               children = Array.sub all_children (mid + 1) (nr + 1);
             });
        let keys = Array.copy keys in
        keys.(i) <- sep;
        Internal { keys; children }
      end
    | Leaf _, Internal _ | Internal _, Leaf _ ->
      raise (Corrupt "sibling nodes of different kinds")

  let rec delete_rec t id key =
    match read_node t id with
    | Leaf entries -> (
      match leaf_position entries key with
      | `Insert_at _ -> false
      | `Found i ->
        write_node t id (Leaf (array_remove entries i));
        true)
    | Internal { keys; children } ->
      let i = child_index keys key in
      let found = delete_rec t children.(i) key in
      if found && underfull t (read_node t children.(i)) && Array.length children > 1
      then begin
        let pair = if i = Array.length children - 1 then i - 1 else i in
        let node' = fix_pair t ~keys ~children pair in
        write_node t id node'
      end;
      found

  let delete t key =
    match S.get_root t.store with
    | None -> false
    | Some root ->
      let found = delete_rec t root key in
      (if found then
         match read_node t root with
         | Leaf [||] ->
           S.free t.store root;
           S.set_root t.store None
         | Internal { keys = [||]; children = [| only |] } ->
           S.free t.store root;
           S.set_root t.store (Some only)
         | Leaf _ | Internal _ -> ());
      found

  (* ---------------------------------------------------------------- *)
  (* Iteration                                                         *)

  let in_lo lo k = match lo with None -> true | Some l -> String.compare k l >= 0
  let in_hi hi k = match hi with None -> true | Some h -> String.compare k h < 0

  let rec iter_rec t ?lo ?hi id f =
    match read_node t id with
    | Leaf entries ->
      Array.iter (fun (k, v) -> if in_lo lo k && in_hi hi k then f k v) entries
    | Internal { keys; children } ->
      let n = Array.length keys in
      for j = 0 to n do
        (* Subtree j spans [keys.(j-1), keys.(j)). *)
        let subtree_min_below_hi =
          j = 0 || match hi with None -> true | Some h -> String.compare keys.(j - 1) h < 0
        in
        let subtree_max_above_lo =
          j = n || match lo with None -> true | Some l -> String.compare keys.(j) l > 0
        in
        if subtree_min_below_hi && subtree_max_above_lo then
          iter_rec t ?lo ?hi children.(j) f
      done

  let iter_range ?lo ?hi t f =
    match S.get_root t.store with
    | None -> ()
    | Some root -> iter_rec t ?lo ?hi root f

  let fold_range ?lo ?hi t ~init ~f =
    let acc = ref init in
    iter_range ?lo ?hi t (fun k v -> acc := f !acc k v);
    !acc

  let iter t f = iter_range t f

  let min_key t =
    let rec go id =
      match read_node t id with
      | Leaf [||] -> None
      | Leaf entries -> Some (fst entries.(0))
      | Internal { children; _ } -> go children.(0)
    in
    match S.get_root t.store with None -> None | Some r -> go r

  let max_key t =
    let rec go id =
      match read_node t id with
      | Leaf [||] -> None
      | Leaf entries -> Some (fst entries.(Array.length entries - 1))
      | Internal { children; _ } -> go children.(Array.length children - 1)
    in
    match S.get_root t.store with None -> None | Some r -> go r

  let rec max_binding t id =
    match read_node t id with
    | Leaf [||] -> None
    | Leaf entries -> Some entries.(Array.length entries - 1)
    | Internal { children; _ } -> max_binding t children.(Array.length children - 1)

  let find_last_below t key =
    let rec go id =
      match read_node t id with
      | Leaf entries -> (
        match leaf_position entries key with
        | `Found i | `Insert_at i -> if i = 0 then None else Some entries.(i - 1))
      | Internal { keys; children } ->
        let i = child_index keys key in
        let rec try_from j =
          if j < 0 then None
          else
            match if j = i then go children.(j) else max_binding t children.(j) with
            | Some kv -> Some kv
            | None -> try_from (j - 1)
        in
        try_from i
    in
    match S.get_root t.store with None -> None | Some r -> go r

  let is_empty t =
    match S.get_root t.store with
    | None -> true
    | Some r -> ( match read_node t r with Leaf [||] -> true | _ -> false)

  (* ---------------------------------------------------------------- *)
  (* Stats and validation                                              *)

  let stats t =
    let pages = ref 0 and entries = ref 0 and used = ref 0 and depth = ref 0 in
    let rec go d id =
      incr pages;
      if d > !depth then depth := d;
      match read_node t id with
      | Leaf e ->
        entries := !entries + Array.length e;
        used := !used + encoded_bytes (Leaf e)
      | Internal { keys; children } ->
        used := !used + encoded_bytes (Internal { keys; children });
        Array.iter (go (d + 1)) children
    in
    (match S.get_root t.store with None -> () | Some r -> go 1 r);
    { depth = !depth; pages = !pages; entries = !entries; used_bytes = !used }

  let page_ids t =
    let rec go acc id =
      match read_node t id with
      | Leaf _ -> id :: acc
      | Internal { children; _ } -> Array.fold_left go (id :: acc) children
    in
    match S.get_root t.store with None -> [] | Some r -> go [] r

  let check t =
    let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
    let exception Bad of string in
    let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
    let leaf_depths = ref [] in
    let check_sorted what keys =
      for i = 1 to Array.length keys - 1 do
        if String.compare keys.(i - 1) keys.(i) >= 0 then
          bad "%s keys not strictly sorted at %d" what i
      done
    in
    let rec go d lo hi id =
      let node = read_node t id in
      if encoded_bytes node > t.page_bytes then
        bad "page %d oversize: %d > %d" id (encoded_bytes node) t.page_bytes;
      match node with
      | Leaf entries ->
        check_sorted "leaf" (Array.map fst entries);
        Array.iter
          (fun (k, _) ->
            if not (in_lo lo k) then bad "leaf key %S below bound" k;
            if not (in_hi hi k) then bad "leaf key %S above bound" k)
          entries;
        leaf_depths := d :: !leaf_depths
      | Internal { keys; children } ->
        if Array.length children <> Array.length keys + 1 then
          bad "page %d child/key count mismatch" id;
        if Array.length keys = 0 then bad "internal page %d with no keys" id;
        check_sorted "internal" keys;
        Array.iter
          (fun k ->
            if not (in_lo lo k) then bad "separator %S below bound" k;
            if not (in_hi hi k) then bad "separator %S above bound" k)
          keys;
        Array.iteri
          (fun j child ->
            let lo' = if j = 0 then lo else Some keys.(j - 1) in
            let hi' = if j = Array.length keys then hi else Some keys.(j) in
            go (d + 1) lo' hi' child)
          children
    in
    match S.get_root t.store with
    | None -> Ok ()
    | Some root -> (
      match go 1 None None root with
      | () -> (
        match List.sort_uniq compare !leaf_depths with
        | [] | [ _ ] -> Ok ()
        | ds -> fail "leaves at %d distinct depths" (List.length ds))
      | exception Bad msg -> Error msg
      | exception Corrupt msg -> Error ("corrupt: " ^ msg))
end
