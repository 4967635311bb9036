open Cedar_btree

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* In-memory page store used to exercise the B-tree in isolation. *)
module Mem_store = struct
  type t = {
    page_bytes : int;
    pages : (int, string) Hashtbl.t;
    mutable next : int;
    mutable root : int option;
    mutable writes : int;
    free_list : (int, unit) Hashtbl.t;
    mutable on_drop : (int -> unit) list;
  }

  let make ?(page_bytes = 512) () =
    {
      page_bytes;
      pages = Hashtbl.create 64;
      next = 0;
      root = None;
      writes = 0;
      free_list = Hashtbl.create 8;
      on_drop = [];
    }

  let page_bytes t = t.page_bytes

  let read t id =
    match Hashtbl.find_opt t.pages id with
    | Some b -> b
    | None -> failwith (Printf.sprintf "read of unallocated page %d" id)

  let write t id b =
    t.writes <- t.writes + 1;
    Hashtbl.replace t.pages id b

  let alloc t =
    let id = t.next in
    t.next <- id + 1;
    id

  let free t id =
    if Hashtbl.mem t.free_list id then failwith "double free";
    Hashtbl.replace t.free_list id ();
    Hashtbl.remove t.pages id;
    List.iter (fun f -> f id) t.on_drop

  let ensure_free _ _ = ()
  let on_drop t f = t.on_drop <- f :: t.on_drop

  let get_root t = t.root
  let set_root t r = t.root <- r
  let live_pages t = Hashtbl.length t.pages
end

module T = Btree.Make (Mem_store)

let expect_ok t =
  match T.check t with Ok () -> () | Error m -> Alcotest.fail ("invariant: " ^ m)

let key_of i = Printf.sprintf "key-%06d" i
let value_of i = Printf.sprintf "value-%d-%s" i (String.make (i mod 40) 'v')

let build _n order =
  let s = Mem_store.make () in
  let t = T.attach s in
  List.iter (fun i -> T.insert t ~key:(key_of i) ~value:(value_of i)) order;
  (s, t)

let test_empty () =
  let s = Mem_store.make () in
  let t = T.attach s in
  check bool "empty" true (T.is_empty t);
  check (Alcotest.option Alcotest.string) "find" None (T.find t "x");
  check bool "delete absent" false (T.delete t "x");
  expect_ok t

let test_single () =
  let s = Mem_store.make () in
  let t = T.attach s in
  T.insert t ~key:"a" ~value:"1";
  check (Alcotest.option Alcotest.string) "found" (Some "1") (T.find t "a");
  check bool "not empty" false (T.is_empty t);
  T.insert t ~key:"a" ~value:"2";
  check (Alcotest.option Alcotest.string) "replaced" (Some "2") (T.find t "a");
  check int "one entry" 1 (T.stats t).entries;
  expect_ok t

let test_many_sequential () =
  let n = 2000 in
  let _, t = build n (List.init n (fun i -> i)) in
  expect_ok t;
  check int "entries" n (T.stats t).entries;
  check bool "deep enough to have split" true ((T.stats t).depth >= 2);
  for i = 0 to n - 1 do
    match T.find t (key_of i) with
    | Some v -> check Alcotest.string "value" (value_of i) v
    | None -> Alcotest.fail (key_of i ^ " lost")
  done

let test_many_reverse_and_shuffled () =
  let n = 1500 in
  let rev = List.init n (fun i -> n - 1 - i) in
  let _, t = build n rev in
  expect_ok t;
  check int "entries" n (T.stats t).entries;
  let shuffled = List.init n (fun i -> i * 7919 mod n) |> List.sort_uniq compare in
  let _, t2 = build (List.length shuffled) shuffled in
  expect_ok t2

let test_iteration_order () =
  let n = 500 in
  let order = List.init n (fun i -> (i * 263) mod n) |> List.sort_uniq compare in
  let _, t = build n order in
  let keys = ref [] in
  T.iter t (fun k _ -> keys := k :: !keys);
  let keys = List.rev !keys in
  check int "count" (List.length order) (List.length keys);
  check bool "sorted" true (keys = List.sort compare keys)

let test_range () =
  let n = 100 in
  let _, t = build n (List.init n (fun i -> i)) in
  let got = T.fold_range ~lo:(key_of 10) ~hi:(key_of 20) t ~init:0 ~f:(fun a _ _ -> a + 1) in
  check int "half-open range" 10 got;
  let got = T.fold_range ~lo:(key_of 95) t ~init:0 ~f:(fun a _ _ -> a + 1) in
  check int "open hi" 5 got;
  let got = T.fold_range ~hi:(key_of 5) t ~init:0 ~f:(fun a _ _ -> a + 1) in
  check int "open lo" 5 got

let test_min_max_last_below () =
  let _, t = build 50 (List.init 50 (fun i -> i)) in
  check (Alcotest.option Alcotest.string) "min" (Some (key_of 0)) (T.min_key t);
  check (Alcotest.option Alcotest.string) "max" (Some (key_of 49)) (T.max_key t);
  (match T.find_last_below t (key_of 30) with
  | Some (k, _) -> check Alcotest.string "predecessor" (key_of 29) k
  | None -> Alcotest.fail "expected predecessor");
  (match T.find_last_below t (key_of 0) with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing below the minimum");
  match T.find_last_below t "zzz" with
  | Some (k, _) -> check Alcotest.string "below sentinel" (key_of 49) k
  | None -> Alcotest.fail "expected max"

let test_delete_all () =
  let n = 1200 in
  let s, t = build n (List.init n (fun i -> i)) in
  (* Delete in an order unrelated to insertion. *)
  let order = List.init n (fun i -> (i * 769) mod n) |> List.sort_uniq compare in
  List.iteri
    (fun step i ->
      check bool "deleted" true (T.delete t (key_of i));
      if step mod 100 = 0 then expect_ok t)
    order;
  expect_ok t;
  check bool "empty at end" true (T.is_empty t);
  check int "entries zero" 0 (T.stats t).entries;
  (* All pages but possibly the root freed: no leak. *)
  check bool "pages reclaimed" true (Mem_store.live_pages s <= 1)

let test_delete_interleaved () =
  let s = Mem_store.make () in
  let t = T.attach s in
  for i = 0 to 999 do
    T.insert t ~key:(key_of i) ~value:(value_of i);
    if i mod 3 = 0 then ignore (T.delete t (key_of (i / 2)))
  done;
  expect_ok t;
  (* Reference check against a Map. *)
  let module M = Map.Make (String) in
  let reference = ref M.empty in
  for i = 0 to 999 do
    reference := M.add (key_of i) (value_of i) !reference;
    if i mod 3 = 0 then reference := M.remove (key_of (i / 2)) !reference
  done;
  M.iter
    (fun k v ->
      match T.find t k with
      | Some v' -> check Alcotest.string "match ref" v v'
      | None -> Alcotest.fail (k ^ " missing"))
    !reference;
  check int "same size" (M.cardinal !reference) (T.stats t).entries

let test_oversized_entry_rejected () =
  let s = Mem_store.make ~page_bytes:256 () in
  let t = T.attach s in
  match T.insert t ~key:"k" ~value:(String.make 300 'x') with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_corrupt_page_detected () =
  let s = Mem_store.make () in
  let t = T.attach s in
  T.insert t ~key:"a" ~value:"1";
  (match Mem_store.get_root s with
  | Some root -> Hashtbl.replace s.Mem_store.pages root (String.make 512 '\xff')
  | None -> Alcotest.fail "no root");
  match T.find t "a" with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Btree.Corrupt _ -> ()

let test_mixed_value_sizes () =
  (* entries from tiny to near the max size share pages; splits must
     balance by bytes, not counts *)
  let s = Mem_store.make () in
  let t = T.attach s in
  let n = 400 in
  for i = 0 to n - 1 do
    let vlen = 1 + (i * 37 mod (T.attach s |> fun _ -> 100)) in
    T.insert t ~key:(key_of i) ~value:(String.make vlen 'v')
  done;
  expect_ok t;
  check int "entries" n (T.stats t).entries;
  for i = 0 to n - 1 do
    match T.find t (key_of i) with
    | Some v -> check int ("len " ^ string_of_int i) (1 + (i * 37 mod 100)) (String.length v)
    | None -> Alcotest.fail (key_of i ^ " lost")
  done

let test_reinsert_after_empty () =
  let s = Mem_store.make () in
  let t = T.attach s in
  for round = 0 to 3 do
    for i = 0 to 199 do
      T.insert t ~key:(key_of i) ~value:(value_of (i + round))
    done;
    for i = 0 to 199 do
      ignore (T.delete t (key_of i))
    done;
    check bool (Printf.sprintf "round %d empty" round) true (T.is_empty t)
  done;
  expect_ok t

let prop_range_matches_filter =
  QCheck.Test.make ~name:"range queries match filtering the full iteration" ~count:80
    QCheck.(triple (small_list (int_bound 200)) (int_bound 220) (int_bound 220))
    (fun (keys, a, b) ->
      let lo = key_of (min a b) and hi = key_of (max a b) in
      let s = Mem_store.make () in
      let t = T.attach s in
      List.iter (fun i -> T.insert t ~key:(key_of i) ~value:(value_of i)) keys;
      let ranged = T.fold_range ~lo ~hi t ~init:[] ~f:(fun acc k _ -> k :: acc) in
      let all = T.fold_range t ~init:[] ~f:(fun acc k _ -> k :: acc) in
      let filtered = List.filter (fun k -> String.compare lo k <= 0 && String.compare k hi < 0) all in
      ranged = filtered)

(* Property: a random op sequence leaves the tree equivalent to a Map and
   structurally valid. *)
let prop_btree_vs_map =
  let open QCheck in
  Test.make ~name:"btree equivalent to Map under random ops" ~count:60
    (list (pair (int_bound 300) (option (int_bound 50))))
    (fun ops ->
      let module M = Map.Make (String) in
      let s = Mem_store.make () in
      let t = T.attach s in
      let reference = ref M.empty in
      List.iter
        (fun (k, v) ->
          let key = key_of k in
          match v with
          | Some v ->
            T.insert t ~key ~value:(value_of v);
            reference := M.add key (value_of v) !reference
          | None ->
            let in_map = M.mem key !reference in
            let in_tree = T.delete t key in
            if in_map <> in_tree then QCheck.Test.fail_report "delete disagreed";
            reference := M.remove key !reference)
        ops;
      (match T.check t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report ("invariant: " ^ m));
      M.for_all (fun k v -> T.find t k = Some v) !reference
      && (T.stats t).entries = M.cardinal !reference)

let suite =
  [
    ("empty tree", `Quick, test_empty);
    ("single entry", `Quick, test_single);
    ("many sequential inserts", `Quick, test_many_sequential);
    ("reverse and shuffled inserts", `Quick, test_many_reverse_and_shuffled);
    ("iteration order", `Quick, test_iteration_order);
    ("range queries", `Quick, test_range);
    ("min/max/find_last_below", `Quick, test_min_max_last_below);
    ("delete all", `Quick, test_delete_all);
    ("delete interleaved", `Quick, test_delete_interleaved);
    ("oversized entry rejected", `Quick, test_oversized_entry_rejected);
    ("corrupt page detected", `Quick, test_corrupt_page_detected);
    ("mixed value sizes", `Quick, test_mixed_value_sizes);
    ("reinsert after emptying", `Quick, test_reinsert_after_empty);
    QCheck_alcotest.to_alcotest prop_range_matches_filter;
    QCheck_alcotest.to_alcotest prop_btree_vs_map;
  ]
