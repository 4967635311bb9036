(* Unit tests for FSD's supporting modules: Params, Layout, Vam, Alloc,
   Leader, Boot_page, Fnt_store. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let geom = Geometry.small_test
let params () = Params.for_geometry geom
let layout () = Layout.compute geom (params ())

let mk_device () = Device.create ~clock:(Simclock.create ()) geom

(* ------------------------------------------------------------------ *)
(* Params                                                              *)

let test_params_default_valid () =
  check bool "t300 default" true
    (Params.validate Geometry.trident_t300 Params.default = Ok ());
  check bool "small scaled" true (Params.validate geom (params ()) = Ok ());
  check bool "tiny scaled" true
    (Params.validate Geometry.tiny_test (Params.for_geometry Geometry.tiny_test) = Ok ())

let test_params_rejects_tiny_log () =
  let p = { (params ()) with Params.log_sectors = 10 } in
  check bool "log too small" true (Result.is_error (Params.validate geom p))

let test_params_rejects_huge_metadata () =
  let p = { (params ()) with Params.fnt_pages = 100_000 } in
  check bool "metadata too big" true (Result.is_error (Params.validate geom p))

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)

let test_layout_regions_disjoint () =
  let l = layout () in
  let total = Geometry.total_sectors geom in
  (* Every sector belongs to exactly one region. *)
  let tag s =
    let in_range lo len = s >= lo && s < lo + len in
    let tags =
      [
        ("boot", s <= 2);
        ("blackbox", in_range l.Layout.blackbox_start l.Layout.blackbox_sectors);
        ("vam", in_range l.Layout.vam_start l.Layout.vam_sectors);
        ("small", s >= l.Layout.small_lo && s < l.Layout.small_hi);
        ("fntA", in_range l.Layout.fnt_a_start l.Layout.fnt_sectors);
        ("log", in_range l.Layout.log_start l.Layout.log_sectors);
        ("fntB", in_range l.Layout.fnt_b_start l.Layout.fnt_sectors);
        ("big", s >= l.Layout.big_lo && s < l.Layout.big_hi);
      ]
    in
    List.filter_map (fun (n, b) -> if b then Some n else None) tags
  in
  for s = 0 to total - 1 do
    match tag s with
    | [ _ ] -> ()
    | ts ->
      Alcotest.fail
        (Printf.sprintf "sector %d in %d regions (%s)" s (List.length ts)
           (String.concat "," ts))
  done

let test_layout_fnt_copies_disjoint_and_far () =
  let l = layout () in
  let p = l.Layout.params in
  for page = 0 to p.Params.fnt_pages - 1 do
    let a = Layout.fnt_sector_a l ~page and b = Layout.fnt_sector_b l ~page in
    if abs (a - b) <= l.Layout.log_sectors then
      Alcotest.fail "copies too close: the log must separate them"
  done

let test_layout_data_sector_predicate () =
  let l = layout () in
  check bool "small area is data" true (Layout.is_data_sector l l.Layout.small_lo);
  check bool "big area is data" true (Layout.is_data_sector l (l.Layout.big_hi - 1));
  check bool "log is not" false (Layout.is_data_sector l l.Layout.log_start);
  check bool "fnt is not" false (Layout.is_data_sector l l.Layout.fnt_a_start);
  check bool "boot is not" false (Layout.is_data_sector l 0)

(* ------------------------------------------------------------------ *)
(* Vam                                                                 *)

let test_vam_alloc_release () =
  let v = Vam.create_all_free (layout ()) in
  let l = layout () in
  let free0 = Vam.free_count v in
  check int "all data sectors free" (Layout.data_sectors l) free0;
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:5;
  check int "five gone" (free0 - 5) (Vam.free_count v);
  (match Vam.allocate_run v ~pos:l.Layout.small_lo ~len:1 with
  | () -> Alcotest.fail "double allocation must fail"
  | exception Invalid_argument _ -> ());
  Vam.release_run v ~pos:l.Layout.small_lo ~len:5;
  check int "restored" free0 (Vam.free_count v);
  match Vam.release_run v ~pos:l.Layout.small_lo ~len:1 with
  | () -> Alcotest.fail "double free must fail"
  | exception Invalid_argument _ -> ()

let test_vam_shadow_commit () =
  let v = Vam.create_all_free (layout ()) in
  let l = layout () in
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:8;
  let free1 = Vam.free_count v in
  Vam.shadow_release_run v ~pos:l.Layout.small_lo ~len:8;
  check int "not yet free" free1 (Vam.free_count v);
  check int "shadowed" 8 (Vam.shadow_count v);
  Vam.commit_shadow v;
  check int "free after commit" (free1 + 8) (Vam.free_count v);
  check int "shadow drained" 0 (Vam.shadow_count v)

let rejects what f =
  match f () with
  | () -> Alcotest.fail (what ^ " must be rejected")
  | exception Invalid_argument _ -> ()

let test_vam_shadow_rejects () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let lo = l.Layout.small_lo in
  rejects "metadata sector" (fun () ->
      Vam.shadow_release_run v ~pos:l.Layout.vam_start ~len:1);
  rejects "free sector" (fun () -> Vam.shadow_release_run v ~pos:lo ~len:1);
  Vam.allocate_run v ~pos:lo ~len:8;
  rejects "run reaching a free sector" (fun () ->
      Vam.shadow_release_run v ~pos:(lo + 4) ~len:8);
  Vam.shadow_release_run v ~pos:lo ~len:4;
  rejects "same run twice" (fun () -> Vam.shadow_release_run v ~pos:lo ~len:4);
  rejects "overlapping pending run" (fun () ->
      Vam.shadow_release_run v ~pos:(lo + 2) ~len:4);
  check int "rejects leave nothing pending" 4 (Vam.shadow_count v);
  Vam.shadow_release_run v ~pos:(lo + 4) ~len:4;
  Vam.commit_shadow v;
  check int "all eight freed" (Layout.data_sectors l) (Vam.free_count v);
  rejects "committed run again" (fun () -> Vam.shadow_release_run v ~pos:lo ~len:1)

(* Guard against O(volume) work per force or per sample: on a full-size
   T-300 map, 1000 rounds of what a force and a monitor sample do with
   the VAM must take well under a second (walking the 588,430-bit map on
   each commit would take seconds). *)
let test_vam_per_force_cost_not_volume () =
  let l = Layout.compute Geometry.trident_t300 Params.default in
  let v = Vam.create_all_free l in
  let s = l.Layout.small_lo in
  let t0 = Sys.time () in
  for _ = 1 to 1000 do
    Vam.commit_shadow v;
    Vam.allocate_run v ~pos:s ~len:1;
    Vam.shadow_release_run v ~pos:s ~len:1;
    Vam.commit_shadow v;
    List.iter
      (fun c -> ignore (Vam.chunk_image v c : bytes))
      (Vam.drain_dirty_chunks v);
    ignore (Vam.free_count v + Vam.shadow_count v : int)
  done;
  let elapsed = Sys.time () -. t0 in
  check int "state restored" (Layout.data_sectors l) (Vam.free_count v);
  if elapsed >= 0.5 then
    Alcotest.failf "1000 VAM force rounds took %.3f s of CPU (limit 0.5 s)" elapsed

let test_vam_save_load_roundtrip () =
  let device = mk_device () in
  let l = layout () in
  let v = Vam.create_all_free l in
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:13;
  Vam.save v device;
  (match Vam.load l device with
  | Some (v', Vam.Snapshot, _) ->
    check int "same free count" (Vam.free_count v) (Vam.free_count v')
  | Some (_, Vam.Log_based, _) -> Alcotest.fail "default mode must be Snapshot"
  | None -> Alcotest.fail "clean save must load");
  Vam.invalidate_saved l device;
  match Vam.load l device with
  | None -> ()
  | Some _ -> Alcotest.fail "invalidated save must not load"

let test_vam_load_rejects_damage () =
  let device = mk_device () in
  let l = layout () in
  Vam.save (Vam.create_all_free l) device;
  Device.damage device (l.Layout.vam_start + 1);
  match Vam.load l device with
  | None -> ()
  | Some _ -> Alcotest.fail "damaged body must not load"

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)

let test_alloc_small_in_small_area () =
  let l = layout () in
  let a = Alloc.create (Vam.create_all_free l) in
  match Alloc.allocate a ~sectors:4 ~small:true with
  | Ok [ r ] ->
    check bool "in small area" true
      (r.Run_table.start >= l.Layout.small_lo && r.Run_table.start < l.Layout.small_hi)
  | Ok _ -> Alcotest.fail "expected one run"
  | Error _ -> Alcotest.fail "allocation failed"

let test_alloc_big_from_top () =
  let l = layout () in
  let a = Alloc.create (Vam.create_all_free l) in
  match Alloc.allocate a ~sectors:64 ~small:false with
  | Ok [ r ] ->
    check bool "in big area" true (r.Run_table.start >= l.Layout.big_lo);
    check int "flush against the top" l.Layout.big_hi (r.Run_table.start + r.Run_table.len)
  | Ok _ -> Alcotest.fail "expected one run"
  | Error _ -> Alcotest.fail "allocation failed"

let test_alloc_spills_to_other_area () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let a = Alloc.create v in
  (* exhaust the small area *)
  let small_len = l.Layout.small_hi - l.Layout.small_lo in
  Vam.allocate_run v ~pos:l.Layout.small_lo ~len:small_len;
  match Alloc.allocate a ~sectors:4 ~small:true with
  | Ok [ r ] -> check bool "spilled to big" true (r.Run_table.start >= l.Layout.big_lo)
  | Ok _ | Error _ -> Alcotest.fail "expected a spill allocation"

let test_alloc_volume_full () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let a = Alloc.create v in
  let rec drain () =
    match Alloc.allocate a ~sectors:64 ~small:true with
    | Ok _ -> drain ()
    | Error `Volume_full -> ()
    | Error `Too_fragmented -> Alcotest.fail "unexpected fragmentation"
  in
  drain ();
  check bool "under 64 left" true (Vam.free_count v < 64)

let test_alloc_fragments_when_needed () =
  let l = layout () in
  let v = Vam.create_all_free l in
  let a = Alloc.create v in
  (* Perforate the small area so no run of 8 exists there, and consume
     the big area entirely. *)
  let s = ref l.Layout.small_lo in
  while !s + 4 <= l.Layout.small_hi do
    Vam.allocate_run v ~pos:!s ~len:4;
    s := !s + 8
  done;
  Vam.allocate_run v ~pos:l.Layout.big_lo ~len:(l.Layout.big_hi - l.Layout.big_lo);
  match Alloc.allocate a ~sectors:12 ~small:true with
  | Ok runs ->
    check bool "multiple runs" true (List.length runs > 1);
    check int "right total" 12
      (List.fold_left (fun acc r -> acc + r.Run_table.len) 0 runs)
  | Error _ -> Alcotest.fail "fragmented allocation should succeed"

(* ------------------------------------------------------------------ *)
(* Leader                                                              *)

let sample_entry =
  Entry.local ~uid:31337L ~keep:2 ~byte_size:4_000 ~created:777
    ~runs:(Run_table.of_runs [ { Run_table.start = 5_000; len = 8 } ])
    ~anchor:4_999

let test_leader_roundtrip () =
  let l = Leader.of_entry ~name:"dir/sample" ~version:3 sample_entry in
  let b = Leader.encode l ~sector_bytes:512 in
  check int "one sector" 512 (Bytes.length b);
  match Leader.decode b with
  | Some l' ->
    check bool "matches entry" true
      (Leader.matches l' ~name:"dir/sample" ~version:3 sample_entry);
    check bool "same" true (l = l');
    check bool "entry rebuilt" true
      (Entry.equal (Leader.to_entry l' ~anchor:4_999) sample_entry)
  | None -> Alcotest.fail "decode failed"

let test_leader_mismatch_detected () =
  let l = Leader.of_entry ~name:"dir/sample" ~version:3 sample_entry in
  let other = { sample_entry with Entry.uid = 99L } in
  check bool "uid mismatch" false
    (Leader.matches l ~name:"dir/sample" ~version:3 other);
  check bool "name mismatch" false
    (Leader.matches l ~name:"dir/other" ~version:3 sample_entry);
  check bool "version mismatch" false
    (Leader.matches l ~name:"dir/sample" ~version:4 sample_entry);
  let grown =
    { sample_entry with
      Entry.runs = Run_table.of_runs [ { Run_table.start = 5_000; len = 9 } ]
    }
  in
  check bool "run-table change detected" false
    (Leader.matches l ~name:"dir/sample" ~version:3 grown)

let test_leader_garbage_rejected () =
  check bool "zeros" true (Leader.decode (Bytes.make 512 '\000') = None);
  let b =
    Leader.encode
      (Leader.of_entry ~name:"dir/sample" ~version:3 sample_entry)
      ~sector_bytes:512
  in
  Bytes.set b 9 'X';
  check bool "bitflip" true (Leader.decode b = None)

(* ------------------------------------------------------------------ *)
(* Boot page                                                           *)

let test_boot_page_roundtrip () =
  let device = mk_device () in
  let bp =
    {
      Boot_page.boot_count = 7;
      clean_shutdown = true;
      fnt_page_sectors = 2;
      fnt_pages = 80;
      log_sectors = 642;
      log_vam = true;
      track_tolerant_log = false;
      shard_id = 3;
    }
  in
  Boot_page.write device ~sector_bytes:512 bp;
  (match Boot_page.read device with
  | Some bp' -> check bool "roundtrip" true (bp = bp')
  | None -> Alcotest.fail "read failed");
  (* the replica carries it through primary damage *)
  Device.damage device 0;
  match Boot_page.read device with
  | Some bp' -> check bool "replica" true (bp = bp')
  | None -> Alcotest.fail "replica failed"

(* ------------------------------------------------------------------ *)
(* Fnt_store                                                           *)

let mk_store () =
  let device = mk_device () in
  let l = layout () in
  let s = Fnt_store.create_fresh device l in
  Fnt_store.flush_anchor s;
  (device, l, s)

let page_payload s c = String.make (Fnt_store.page_bytes s) c

let test_store_write_is_cached_not_on_disk () =
  let device, _, s = mk_store () in
  let before = (Device.stats device).Iostats.writes in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'z');
  check int "no disk writes yet" before (Device.stats device).Iostats.writes;
  check bool "page dirty" true (List.mem page (Fnt_store.dirty_pages s));
  check bool "to log" true (List.mem page (Fnt_store.pages_to_log s))

let test_store_flush_writes_both_copies () =
  let device, l, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'q');
  Fnt_store.mark_logged s [ page ] ~third:1;
  check int "one page flushed" 1 (Fnt_store.flush_third s 1) ;
  (* fresh store reads it back from either copy *)
  let s2 = Fnt_store.attach device l in
  check bool "content back" true
    (String.equal (page_payload s 'q') (Fnt_store.read s2 page))

let test_store_repairs_bad_copy () =
  let device, l, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'r');
  Fnt_store.mark_logged s [ page ] ~third:0;
  ignore (Fnt_store.flush_third s 0 : int);
  Device.damage device (Layout.fnt_sector_a l ~page);
  let s2 = Fnt_store.attach device l in
  check bool "read heals" true (String.equal (page_payload s 'r') (Fnt_store.read s2 page));
  check bool "repair counted" true (Fnt_store.repairs s2 > 0);
  check bool "copy A healed" false (Device.is_damaged device (Layout.fnt_sector_a l ~page))

let test_store_both_copies_bad_raises () =
  let device, l, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'x');
  ignore (Fnt_store.flush_all_dirty s : int);
  Device.damage device (Layout.fnt_sector_a l ~page);
  Device.damage device (Layout.fnt_sector_b l ~page);
  let s2 = Fnt_store.attach device l in
  match Fnt_store.read s2 page with
  | _ -> Alcotest.fail "expected Corrupt_metadata"
  | exception Fs_error.Fs_error (Fs_error.Corrupt_metadata _) -> ()

let test_store_modified_tracking () =
  let _, _, s = mk_store () in
  let page = Fnt_store.alloc s in
  Fnt_store.write s page (page_payload s 'a');
  Fnt_store.mark_logged s [ page ] ~third:2;
  check bool "logged page not re-logged" false (List.mem page (Fnt_store.pages_to_log s));
  check bool "still dirty" true (List.mem page (Fnt_store.dirty_pages s));
  Fnt_store.write s page (page_payload s 'b');
  check bool "modified again -> re-log" true (List.mem page (Fnt_store.pages_to_log s))

let test_store_uid_and_anchor_persist () =
  let device, l, s = mk_store () in
  let u1 = Fnt_store.fresh_uid s in
  let u2 = Fnt_store.fresh_uid s in
  check bool "uids distinct" true (u1 <> u2);
  Fnt_store.set_root s (Some 17);
  ignore (Fnt_store.flush_all_dirty s : int);
  let s2 = Fnt_store.attach device l in
  check (Alcotest.option int) "root persisted" (Some 17) (Fnt_store.get_root s2);
  check bool "uid counter persisted" true
    (Int64.compare (Fnt_store.next_uid_peek s2) u2 > 0)

let test_store_free_page_reusable () =
  let _, _, s = mk_store () in
  let p1 = Fnt_store.alloc s in
  Fnt_store.write s p1 (page_payload s 'f');
  Fnt_store.free s p1;
  check bool "freed page not dirty" false (List.mem p1 (Fnt_store.dirty_pages s));
  let p2 = Fnt_store.alloc s in
  check int "slot reused" p1 p2

(* ------------------------------------------------------------------ *)
(* The name-table B-tree over Fnt_store                               *)

module B = Cedar_btree.Btree.Make (Fnt_store)

(* A fresh store on the small test disk with the given name-table shape. *)
let mk_tree_store ~page_sectors ~pages ~cache =
  let p =
    { (params ()) with
      Params.fnt_page_sectors = page_sectors; fnt_pages = pages; cache_pages = cache }
  in
  let s = Fnt_store.create_fresh (mk_device ()) (Layout.compute geom p) in
  (s, B.attach s)

let tree_key i = Printf.sprintf "dir/file-%05d" (i * 7919 mod 10007)
let tree_value i = String.make (8 + (i * 13 mod 48)) (Char.chr (97 + (i mod 26)))

(* A split needs one page per splitting level plus a new root. When the
   name table cannot supply them, the insert must be refused before any
   page is written: otherwise the half already written is orphaned and
   its keys vanish while the tree still checks out. *)
let test_tree_exhaustion_keeps_keys () =
  for limit = 2 to 40 do
    let s, t = mk_tree_store ~page_sectors:1 ~pages:limit ~cache:64 in
    let inserted = ref [] and refusals = ref 0 in
    for i = 0 to 400 do
      let map_before = Fnt_store.allocated_pages s in
      match B.insert t ~key:(tree_key i) ~value:(tree_value i) with
      | () -> inserted := i :: !inserted
      | exception Fs_error.Fs_error Fs_error.Name_table_full ->
        incr refusals;
        check (Alcotest.list int)
          (Printf.sprintf "limit %d: allocation map unchanged" limit)
          map_before (Fnt_store.allocated_pages s);
        (match B.check t with
        | Ok () -> ()
        | Error m -> Alcotest.failf "limit %d: check: %s" limit m);
        List.iter
          (fun j ->
            if B.find t (tree_key j) <> Some (tree_value j) then
              Alcotest.failf "limit %d: key %s lost after a refused insert" limit
                (tree_key j))
          !inserted
    done;
    check bool (Printf.sprintf "limit %d: the table filled up" limit) true (!refusals > 0);
    check (Alcotest.list int)
      (Printf.sprintf "limit %d: every allocated page is in the tree" limit)
      (Fnt_store.allocated_pages s)
      (List.sort compare (B.page_ids t));
    check int
      (Printf.sprintf "limit %d: free count" limit)
      (limit - 1 - List.length (Fnt_store.allocated_pages s))
      (Fnt_store.free_pages s)
  done

(* Refusal is exact: an insert is refused only when it needs more pages
   than are free. What it needs is measured by replaying the acked
   inserts on a roomy table, which builds the same tree, then applying
   the refused one there. *)
let test_tree_exhaustion_is_exact () =
  List.iter
    (fun limit ->
      let s, t = mk_tree_store ~page_sectors:1 ~pages:limit ~cache:64 in
      let acked = ref [] in
      for i = 0 to 200 do
        let free = Fnt_store.free_pages s in
        match B.insert t ~key:(tree_key i) ~value:(tree_value i) with
        | () -> acked := i :: !acked
        | exception Fs_error.Fs_error Fs_error.Name_table_full ->
          let s', t' = mk_tree_store ~page_sectors:1 ~pages:400 ~cache:64 in
          List.iter (fun j -> B.insert t' ~key:(tree_key j) ~value:(tree_value j)) (List.rev !acked);
          let before = Fnt_store.free_pages s' in
          B.insert t' ~key:(tree_key i) ~value:(tree_value i);
          let needed = before - Fnt_store.free_pages s' in
          if needed <= free then
            Alcotest.failf "limit %d: insert %d refused, needing %d pages with %d free"
              limit i needed free
      done)
    [ 3; 12 ]

(* Warm lookups reuse decoded nodes: no page copy and no re-decode, so a
   find allocates a few words, not a node's worth per level. Copying and
   decoding every level on every find allocated 659,346 words here; the
   memo brings it to 47,004. The bound sits between the two, at least 3x
   the one and at most a third of the other. *)
let test_tree_warm_find_allocation () =
  let s, t = mk_tree_store ~page_sectors:1 ~pages:400 ~cache:512 in
  let n = 1500 in
  for i = 0 to n - 1 do
    B.insert t ~key:(tree_key i) ~value:(tree_value i)
  done;
  check int "three levels" 3 (B.stats t).Cedar_btree.Btree.depth;
  ignore (Fnt_store.flush_all_dirty s : int);
  for i = 0 to n - 1 do
    ignore (B.find t (tree_key i) : string option)
  done;
  let keys = Array.init 1000 (fun i -> tree_key (i * 37 mod n)) in
  let before = Gc.minor_words () in
  Array.iter (fun k -> ignore (B.find t k : string option)) keys;
  let words = Gc.minor_words () -. before in
  if words > 150_000. then
    Alcotest.failf "1000 warm finds allocated %.0f words (limit 150000)" words

(* The memo follows the store's cache: scanning a tree bigger than the
   cache leaves no more decoded nodes than cached pages. *)
let test_tree_memo_bounded_by_cache () =
  let s, t = mk_tree_store ~page_sectors:1 ~pages:200 ~cache:8 in
  for i = 0 to 599 do
    B.insert t ~key:(tree_key i) ~value:(tree_value i)
  done;
  ignore (Fnt_store.flush_all_dirty s : int);
  let pages = (B.stats t).Cedar_btree.Btree.pages in
  check bool "tree larger than the cache" true (pages > 8);
  let seen = ref 0 in
  B.iter t (fun _ _ -> incr seen);
  check int "scan saw every entry" 600 !seen;
  check bool "memo in use" true (B.cached_nodes t > 0);
  if B.cached_nodes t > Fnt_store.cached_pages s then
    Alcotest.failf "memo holds %d nodes, cache %d pages" (B.cached_nodes t)
      (Fnt_store.cached_pages s);
  Fnt_store.drop_clean_cache s;
  check int "dropping the cache empties the memo" 0 (B.cached_nodes t)

let suite =
  [
    ("params: defaults valid", `Quick, test_params_default_valid);
    ("params: tiny log rejected", `Quick, test_params_rejects_tiny_log);
    ("params: huge metadata rejected", `Quick, test_params_rejects_huge_metadata);
    ("layout: regions partition the disk", `Quick, test_layout_regions_disjoint);
    ("layout: FNT copies separated by the log", `Quick, test_layout_fnt_copies_disjoint_and_far);
    ("layout: data-sector predicate", `Quick, test_layout_data_sector_predicate);
    ("vam: alloc/release", `Quick, test_vam_alloc_release);
    ("vam: shadow commit", `Quick, test_vam_shadow_commit);
    ("vam: shadow release rejects", `Quick, test_vam_shadow_rejects);
    ("vam: per-force cost is not O(volume)", `Quick,
     test_vam_per_force_cost_not_volume);
    ("vam: save/load roundtrip", `Quick, test_vam_save_load_roundtrip);
    ("vam: damaged save rejected", `Quick, test_vam_load_rejects_damage);
    ("alloc: small files low", `Quick, test_alloc_small_in_small_area);
    ("alloc: big files from the top", `Quick, test_alloc_big_from_top);
    ("alloc: areas are only hints", `Quick, test_alloc_spills_to_other_area);
    ("alloc: volume full", `Quick, test_alloc_volume_full);
    ("alloc: fragments when needed", `Quick, test_alloc_fragments_when_needed);
    ("leader: roundtrip + matches", `Quick, test_leader_roundtrip);
    ("leader: mismatch detected", `Quick, test_leader_mismatch_detected);
    ("leader: garbage rejected", `Quick, test_leader_garbage_rejected);
    ("boot page: roundtrip + replica", `Quick, test_boot_page_roundtrip);
    ("store: writes cached, not on disk", `Quick, test_store_write_is_cached_not_on_disk);
    ("store: flush writes both copies", `Quick, test_store_flush_writes_both_copies);
    ("store: bad copy repaired on read", `Quick, test_store_repairs_bad_copy);
    ("store: both copies bad raises", `Quick, test_store_both_copies_bad_raises);
    ("store: modified-since-log tracking", `Quick, test_store_modified_tracking);
    ("store: uid/anchor persist", `Quick, test_store_uid_and_anchor_persist);
    ("store: freed page reusable", `Quick, test_store_free_page_reusable);
    ("tree: exhaustion keeps every acked key", `Quick, test_tree_exhaustion_keeps_keys);
    ("tree: exhaustion refusal is exact", `Quick, test_tree_exhaustion_is_exact);
    ("tree: warm finds allocate little", `Quick, test_tree_warm_find_allocation);
    ("tree: memo bounded by the cache", `Quick, test_tree_memo_bounded_by_cache);
  ]
