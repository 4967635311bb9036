(* The scavenger of last resort and the online scrub demon.

   The scavenger's contract: with both copies of FNT pages destroyed,
   every file with a surviving leader and data pages comes back readable
   byte-identical, [Fsd.check] passes, and the next boot replays nothing.
   The scrubber's contract: a lone bad copy of an FNT page or a leader is
   repaired in place during idle ticks, before any client read needs it. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd

(* One "fsd.*" counter from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let geom = Geometry.tiny_test
let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let fresh () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Fsd.format device (Params.for_geometry geom);
  (device, fst (Fsd.boot device))

(* Destroy both home copies of every name-table page. *)
let destroy_fnt device layout =
  let ps = layout.Layout.params.Params.fnt_page_sectors in
  for page = 0 to layout.Layout.params.Params.fnt_pages - 1 do
    let a = Layout.fnt_sector_a layout ~page in
    let b = Layout.fnt_sector_b layout ~page in
    for k = 0 to ps - 1 do
      Device.damage device (a + k);
      Device.damage device (b + k)
    done
  done

let find_uid fs name =
  Fsd.fold_entries fs ~init:None ~f:(fun acc ~name:n ~version:_ e ->
      if String.equal n name then Some e.Entry.uid else acc)

(* ------------------------------------------------------------------ *)

let test_total_fnt_loss () =
  let device, fs = fresh () in
  let files =
    List.init 8 (fun i -> (Printf.sprintf "dir/f%d" i, content (150 * (i + 1)) i))
  in
  List.iter (fun (name, data) -> ignore (Fsd.create fs ~name data)) files;
  Fsd.shutdown fs;
  let layout = Fsd.layout fs in
  (* Empty the log first: the leaders must carry the rebuild alone. *)
  Log.format device layout;
  destroy_fnt device layout;
  (match Fsd.try_boot device with
  | `Needs_scavenge _ -> ()
  | `Ok _ -> Alcotest.fail "boot succeeded on a destroyed name table");
  let r = Scavenge.run device in
  check int "entries rebuilt from leaders" (List.length files) r.Scavenge.entries_rebuilt;
  check int "no surviving fnt entries" 0 r.Scavenge.entries_kept;
  check bool "page pairs reported lost" true (r.Scavenge.fnt_pages_lost > 0);
  check int "no conflicts" 0 r.Scavenge.conflicts;
  let fs2, report = Fsd.boot device in
  check int "nothing to replay after scavenge" 0 report.Fsd.replayed_records;
  List.iter
    (fun (name, data) ->
      check bool ("byte-identical: " ^ name) true
        (Bytes.equal data (Fsd.read_all fs2 ~name)))
    files;
  check bool "structural check ok" true (Fsd.check fs2 = Ok ());
  Fsd.shutdown fs2

let test_partial_fnt_loss () =
  let device, fs = fresh () in
  let files =
    List.init 10 (fun i -> (Printf.sprintf "p/f%02d" i, content (120 * (i + 1)) i))
  in
  List.iter (fun (name, data) -> ignore (Fsd.create fs ~name data)) files;
  Fsd.shutdown fs;
  let layout = Fsd.layout fs in
  (* Kill both copies of one in-use page; the rest of the table survives. *)
  let store = Fnt_store.attach device layout in
  let victim = ref (-1) in
  for page = 0 to layout.Layout.params.Params.fnt_pages - 1 do
    if Fnt_store.page_in_use store page then victim := page
  done;
  check bool "found an in-use page" true (!victim >= 0);
  let ps = layout.Layout.params.Params.fnt_page_sectors in
  for k = 0 to ps - 1 do
    Device.damage device (Layout.fnt_sector_a layout ~page:!victim + k);
    Device.damage device (Layout.fnt_sector_b layout ~page:!victim + k)
  done;
  (* Force boot to walk the table (VAM reconstruction) so the damage is
     discovered at boot rather than first use. *)
  Vam.invalidate_saved layout device;
  (match Fsd.try_boot device with
  | `Needs_scavenge _ -> ()
  | `Ok _ -> Alcotest.fail "boot succeeded over a lost page pair");
  let r = Scavenge.run device in
  check int "every file accounted for" (List.length files)
    (r.Scavenge.entries_kept + r.Scavenge.entries_rebuilt);
  let fs2, report = Fsd.boot device in
  check int "nothing to replay after scavenge" 0 report.Fsd.replayed_records;
  List.iter
    (fun (name, data) ->
      check bool ("byte-identical: " ^ name) true
        (Bytes.equal data (Fsd.read_all fs2 ~name)))
    files;
  check bool "structural check ok" true (Fsd.check fs2 = Ok ());
  Fsd.shutdown fs2

(* A leader of a deleted file must not resurrect it when the surviving
   name table is complete (it proves the deletion). *)
let test_stale_leader_not_resurrected () =
  let device, fs = fresh () in
  ignore (Fsd.create fs ~name:"old" (content 400 1));
  ignore (Fsd.create fs ~name:"live" (content 500 2));
  Fsd.delete fs ~name:"old";
  Fsd.shutdown fs;
  let r = Scavenge.run device in
  check bool "stale leader dropped" true (r.Scavenge.stale_leaders >= 1);
  check int "nothing rebuilt" 0 r.Scavenge.entries_rebuilt;
  check int "live entry kept" 1 r.Scavenge.entries_kept;
  let fs2, _ = Fsd.boot device in
  check bool "deleted file stays deleted" false (Fsd.exists fs2 ~name:"old");
  check bool "live file intact" true
    (Bytes.equal (content 500 2) (Fsd.read_all fs2 ~name:"live"));
  check bool "structural check ok" true (Fsd.check fs2 = Ok ());
  Fsd.shutdown fs2

(* Two leaders claiming the same name!version: the newer uid wins and the
   loser's sectors are quarantined, not handed back to the allocator. *)
let test_conflicting_leaders_newer_uid_wins () =
  let device, fs = fresh () in
  ignore (Fsd.create fs ~name:"dup" (content 500 3));
  let uid = match find_uid fs "dup" with Some u -> u | None -> assert false in
  Fsd.shutdown fs;
  let layout = Fsd.layout fs in
  (* Forge a stale leader for the same key with an older uid, placed in a
     free region — exactly what a deleted-and-recreated file leaves
     behind when its old pages were never reused. *)
  let rec find_free s =
    if Fsd.sector_is_free fs s && Fsd.sector_is_free fs (s + 1) then s
    else find_free (s + 1)
  in
  let s = find_free layout.Layout.big_lo in
  let forged =
    Entry.local ~uid:(Int64.sub uid 1L) ~keep:0 ~byte_size:512 ~created:0
      ~runs:(Run_table.of_runs [ { Run_table.start = s + 1; len = 1 } ])
      ~anchor:s
  in
  Device.write device s
    (Leader.encode
       (Leader.of_entry ~name:"dup" ~version:1 forged)
       ~sector_bytes:geom.Geometry.sector_bytes);
  Log.format device layout;
  destroy_fnt device layout;
  let r = Scavenge.run device in
  check int "one winner" 1 r.Scavenge.entries_rebuilt;
  check bool "conflict counted" true (r.Scavenge.conflicts >= 1);
  check int "loser's sectors quarantined" 2 r.Scavenge.quarantined_sectors;
  let fs2, _ = Fsd.boot device in
  check bool "newest version's bytes" true
    (Bytes.equal (content 500 3) (Fsd.read_all fs2 ~name:"dup"));
  check bool "structural check ok" true (Fsd.check fs2 = Ok ());
  (* Quarantined sectors stay out of the free pool. *)
  check bool "forged leader sector not free" false (Fsd.sector_is_free fs2 s);
  check bool "forged data sector not free" false (Fsd.sector_is_free fs2 (s + 1));
  Fsd.shutdown fs2

(* New uids after a scavenge must stay above every recovered uid. *)
let test_uid_floor_after_scavenge () =
  let device, fs = fresh () in
  for i = 0 to 5 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "u/f%d" i) (content 200 i))
  done;
  Fsd.shutdown fs;
  let layout = Fsd.layout fs in
  Log.format device layout;
  destroy_fnt device layout;
  ignore (Scavenge.run device : Scavenge.report);
  let fs2, _ = Fsd.boot device in
  let max_recovered =
    Fsd.fold_entries fs2 ~init:0L ~f:(fun m ~name:_ ~version:_ e ->
        if Int64.compare e.Entry.uid m > 0 then e.Entry.uid else m)
  in
  ignore (Fsd.create fs2 ~name:"u/new" (content 100 9));
  let new_uid = match find_uid fs2 "u/new" with Some u -> u | None -> assert false in
  check bool "fresh uid above every recovered uid" true
    (Int64.compare new_uid max_recovered > 0);
  Fsd.shutdown fs2

(* Scavenging a healthy volume is semantically a no-op. *)
let test_scavenge_healthy_volume () =
  let device, fs = fresh () in
  let files = List.init 5 (fun i -> (Printf.sprintf "h/f%d" i, content (250 * (i + 1)) i)) in
  List.iter (fun (name, data) -> ignore (Fsd.create fs ~name data)) files;
  Fsd.shutdown fs;
  let r = Scavenge.run device in
  check int "all entries kept" (List.length files) r.Scavenge.entries_kept;
  check int "nothing rebuilt" 0 r.Scavenge.entries_rebuilt;
  check int "no conflicts" 0 r.Scavenge.conflicts;
  check int "no pages lost" 0 r.Scavenge.fnt_pages_lost;
  let fs2, report = Fsd.boot device in
  check int "nothing to replay" 0 report.Fsd.replayed_records;
  List.iter
    (fun (name, data) ->
      check bool ("byte-identical: " ^ name) true
        (Bytes.equal data (Fsd.read_all fs2 ~name)))
    files;
  check bool "structural check ok" true (Fsd.check fs2 = Ok ());
  Fsd.shutdown fs2

let test_scavenge_empty_volume () =
  let device, fs = fresh () in
  Fsd.shutdown fs;
  let layout = Fsd.layout fs in
  destroy_fnt device layout;
  let r = Scavenge.run device in
  check int "no entries" 0 (r.Scavenge.entries_kept + r.Scavenge.entries_rebuilt);
  let fs2, _ = Fsd.boot device in
  check int "volume is empty" 0 (List.length (Fsd.list fs2 ~prefix:""));
  check bool "structural check ok" true (Fsd.check fs2 = Ok ());
  Fsd.shutdown fs2

(* ------------------------------------------------------------------ *)
(* The online scrub demon. *)

let scrub_interval = (Params.for_geometry geom).Params.scrub_interval_us

(* Enough passes to cover every FNT page pair and every leader. *)
let run_scrub_to_completion fs =
  for _ = 1 to 12 do
    Fsd.tick fs ~us:(scrub_interval + 1)
  done

let test_scrub_repairs_fnt_copy_before_read () =
  let device, fs = fresh () in
  for i = 0 to 7 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "s/f%d" i) (content (180 * (i + 1)) i))
  done;
  Fsd.force fs;
  Fsd.drop_caches fs;
  let layout = Fsd.layout fs in
  (* Silently corrupt one live copy-A sector. *)
  let rng = Rng.create 99 in
  let corrupted = ref false in
  (try
     for s = layout.Layout.fnt_a_start to
         layout.Layout.fnt_a_start + layout.Layout.fnt_sectors - 1 do
       if (not !corrupted) && Device.written_ever device s then begin
         Device.corrupt device s ~rng;
         corrupted := true;
         raise Exit
       end
     done
   with Exit -> ());
  check bool "corrupted a live sector" true !corrupted;
  run_scrub_to_completion fs;
  check bool "scrubber repaired the bad copy" true
    (fsd_count fs "scrub_fnt_repairs" >= 1);
  (* The client now reads from clean twins: no read-path repair fires. *)
  Fsd.drop_caches fs;
  let repairs_before_reads = Fsd.fnt_repairs fs in
  for i = 0 to 7 do
    let name = Printf.sprintf "s/f%d" i in
    check bool ("byte-identical: " ^ name) true
      (Bytes.equal (content (180 * (i + 1)) i) (Fsd.read_all fs ~name))
  done;
  check int "no repair needed on the read path" repairs_before_reads
    (Fsd.fnt_repairs fs);
  check bool "structural check ok" true (Fsd.check fs = Ok ());
  Fsd.shutdown fs

let test_scrub_rewrites_corrupt_leader () =
  let device, fs = fresh () in
  ignore (Fsd.create fs ~name:"lead/a" (content 700 4));
  ignore (Fsd.create fs ~name:"lead/b" (content 300 5));
  Fsd.force fs;
  let anchor =
    Fsd.fold_entries fs ~init:(-1) ~f:(fun acc ~name ~version:_ e ->
        if String.equal name "lead/a" then e.Entry.anchor else acc)
  in
  check bool "found the leader sector" true (anchor >= 0);
  Device.corrupt device anchor ~rng:(Rng.create 7);
  run_scrub_to_completion fs;
  check bool "scrubber rewrote the leader" true
    (fsd_count fs "scrub_leader_repairs" >= 1);
  (* check re-reads every leader from disk and cross-checks the table. *)
  check bool "leader/table mutual check ok" true (Fsd.check fs = Ok ());
  check bool "data untouched" true
    (Bytes.equal (content 700 4) (Fsd.read_all fs ~name:"lead/a"));
  Fsd.shutdown fs

(* A repair must surface through BOTH channels: the metrics registry
   (fsd.scrub_fnt_repairs) and a Scrub_repair trace event. *)
let test_scrub_repair_emits_metric_and_trace () =
  let device, fs = fresh () in
  for i = 0 to 7 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "t/f%d" i) (content (150 * (i + 1)) i))
  done;
  Fsd.force fs;
  Fsd.drop_caches fs;
  let layout = Fsd.layout fs in
  let rng = Rng.create 42 in
  let corrupted = ref false in
  (try
     for s = layout.Layout.fnt_a_start to
         layout.Layout.fnt_a_start + layout.Layout.fnt_sectors - 1 do
       if (not !corrupted) && Device.written_ever device s then begin
         Device.corrupt device s ~rng;
         corrupted := true;
         raise Exit
       end
     done
   with Exit -> ());
  check bool "corrupted a live sector" true !corrupted;
  let tr = Device.trace device in
  Cedar_obs.Trace.enable tr;
  run_scrub_to_completion fs;
  Cedar_obs.Trace.disable tr;
  let repairs = fsd_count fs "scrub_fnt_repairs" in
  check bool "counter incremented" true (repairs >= 1);
  check bool "counters_json agrees with the registry" true
    (match Fsd.counters_json fs with
    | Cedar_obs.Jsonb.Obj kv ->
      List.assoc "scrub_fnt_repairs" kv = Cedar_obs.Jsonb.Int repairs
    | _ -> false);
  let repair_events =
    List.filter
      (fun e ->
        match e.Cedar_obs.Trace.event with
        | Cedar_obs.Trace.Scrub_repair { target = "fnt-page"; _ } -> true
        | _ -> false)
      (Cedar_obs.Trace.to_list tr)
  in
  check int "one trace event per repair" repairs
    (List.length repair_events);
  Fsd.shutdown fs

let test_scrub_counts_passes () =
  let _device, fs = fresh () in
  ignore (Fsd.create fs ~name:"tickfile" (content 100 1));
  Fsd.force fs;
  let before = fsd_count fs "scrub_passes" in
  Fsd.tick fs ~us:(scrub_interval + 1);
  Fsd.tick fs ~us:(scrub_interval + 1);
  check int "two passes" (before + 2) (fsd_count fs "scrub_passes");
  check bool "clean volume needs no repairs" true
    (fsd_count fs "scrub_fnt_repairs" = 0
    && fsd_count fs "scrub_leader_repairs" = 0);
  Fsd.shutdown fs

let suite =
  [
    ("total FNT loss: rebuild from leaders", `Quick, test_total_fnt_loss);
    ("partial FNT loss: merge table and leaders", `Quick, test_partial_fnt_loss);
    ("stale leader not resurrected", `Quick, test_stale_leader_not_resurrected);
    ("conflicting leaders: newer uid wins", `Quick, test_conflicting_leaders_newer_uid_wins);
    ("uid floor survives scavenge", `Quick, test_uid_floor_after_scavenge);
    ("scavenge on a healthy volume", `Quick, test_scavenge_healthy_volume);
    ("scavenge on an empty volume", `Quick, test_scavenge_empty_volume);
    ("scrub repairs FNT copy before any read", `Quick, test_scrub_repairs_fnt_copy_before_read);
    ("scrub rewrites a corrupt leader", `Quick, test_scrub_rewrites_corrupt_leader);
    ("scrub repair: counter + trace event", `Quick, test_scrub_repair_emits_metric_and_trace);
    ("scrub pass counter", `Quick, test_scrub_counts_passes);
  ]
