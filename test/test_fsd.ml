(* File-system-level tests for FSD: lifecycle, versions, group commit,
   crash recovery, robustness. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_fsd

(* One "fsd.*" counter from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh_volume ?(geom = Geometry.small_test) () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params = Params.for_geometry geom in
  Fsd.format device params;
  device

let boot_fs device = fst (Fsd.boot device)

let fresh_fs ?geom () =
  let device = fresh_volume ?geom () in
  (device, boot_fs device)

let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let expect_error expected f =
  match f () with
  | _ -> Alcotest.fail "expected Fs_error"
  | exception Fs_error.Fs_error e ->
    if not (expected e) then
      Alcotest.fail ("unexpected error: " ^ Fs_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Basic lifecycle                                                     *)

let test_create_read_roundtrip () =
  let _, fs = fresh_fs () in
  let data = content 1800 7 in
  let info = Fsd.create fs ~name:"hello.mesa" data in
  check int "version 1" 1 info.Fs_ops.version;
  check int "byte size" 1800 info.Fs_ops.byte_size;
  check bool "roundtrip" true (Bytes.equal data (Fsd.read_all fs ~name:"hello.mesa"));
  check bool "exists" true (Fsd.exists fs ~name:"hello.mesa");
  check bool "absent" false (Fsd.exists fs ~name:"other.mesa")

let test_empty_file () =
  let _, fs = fresh_fs () in
  let info = Fsd.create fs ~name:"empty" (Bytes.create 0) in
  check int "zero bytes" 0 info.Fs_ops.byte_size;
  check int "read empty" 0 (Bytes.length (Fsd.read_all fs ~name:"empty"))

let test_read_page () =
  let _, fs = fresh_fs () in
  let data = content (3 * 512) 1 in
  ignore (Fsd.create fs ~name:"three" data);
  let p1 = Fsd.read_page fs ~name:"three" ~page:1 in
  check bool "page 1 content" true (Bytes.equal p1 (Bytes.sub data 512 512));
  expect_error
    (function Fs_error.Bad_page _ -> true | _ -> false)
    (fun () -> Fsd.read_page fs ~name:"three" ~page:3)

let test_missing_file_errors () =
  let _, fs = fresh_fs () in
  expect_error
    (function Fs_error.No_such_file _ -> true | _ -> false)
    (fun () -> Fsd.read_all fs ~name:"ghost");
  expect_error
    (function Fs_error.Bad_name _ -> true | _ -> false)
    (fun () -> Fsd.create fs ~name:"bad!name" (Bytes.create 1))

let test_versions_and_keep () =
  let _, fs = fresh_fs () in
  for v = 1 to 5 do
    let info = Fsd.create fs ~name:"prog" ~keep:3 (content 100 v) in
    check int "version increments" v info.Fs_ops.version
  done;
  (* keep=3: only versions 3,4,5 remain. *)
  check (Alcotest.list int) "kept versions" [ 3; 4; 5 ] (Fsd.versions fs ~name:"prog");
  (* reading gets the newest *)
  check bool "newest content" true
    (Bytes.equal (content 100 5) (Fsd.read_all fs ~name:"prog"))

let test_delete () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"a" ~keep:0 (content 10 0));
  ignore (Fsd.create fs ~name:"a" ~keep:0 (content 10 1));
  Fsd.delete fs ~name:"a";
  check (Alcotest.list int) "older version remains" [ 1 ] (Fsd.versions fs ~name:"a");
  Fsd.delete fs ~name:"a";
  check bool "gone" false (Fsd.exists fs ~name:"a");
  expect_error
    (function Fs_error.No_such_file _ -> true | _ -> false)
    (fun () -> Fsd.delete fs ~name:"a")

let test_list () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"src/a.mesa" (content 10 0));
  ignore (Fsd.create fs ~name:"src/b.mesa" (content 20 0));
  ignore (Fsd.create fs ~name:"src/b.mesa" (content 30 0));
  ignore (Fsd.create fs ~name:"doc/readme" (content 40 0));
  let names l = List.map (fun i -> (i.Fs_ops.name, i.Fs_ops.version)) l in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "prefix list newest versions"
    [ ("src/a.mesa", 1); ("src/b.mesa", 2) ]
    (names (Fsd.list fs ~prefix:"src/"));
  check int "all files" 3 (List.length (Fsd.list fs ~prefix:""))

let test_extend_contract () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"grow" (content 512 3));
  Fsd.extend fs ~name:"grow" ~pages:3;
  let info = Fsd.open_stat fs ~name:"grow" in
  check int "grown" (4 * 512) info.Fs_ops.byte_size;
  Fsd.write_page fs ~name:"grow" ~page:3 (content 512 9);
  check bool "page 3 written" true
    (Bytes.equal (content 512 9) (Fsd.read_page fs ~name:"grow" ~page:3));
  let free_before = Fsd.free_sectors fs in
  Fsd.contract fs ~name:"grow" ~pages:1;
  Fsd.force fs;
  check bool "pages freed at commit" true (Fsd.free_sectors fs > free_before);
  check int "shrunk" 512 (Fsd.open_stat fs ~name:"grow").Fs_ops.byte_size;
  expect_error
    (function Fs_error.Bad_page _ -> true | _ -> false)
    (fun () -> Fsd.read_page fs ~name:"grow" ~page:1)

let test_empty_then_extend () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create_empty fs ~name:"sparse" ~pages:0 ());
  Fsd.extend fs ~name:"sparse" ~pages:2;
  Fsd.write_page fs ~name:"sparse" ~page:0 (content 512 1);
  Fsd.write_page fs ~name:"sparse" ~page:1 (content 512 2);
  (* the leader is not adjacent to pages allocated later; reads must
     still verify it (separately) and succeed *)
  check bool "page 0" true (Bytes.equal (content 512 1) (Fsd.read_page fs ~name:"sparse" ~page:0));
  check bool "page 1" true (Bytes.equal (content 512 2) (Fsd.read_page fs ~name:"sparse" ~page:1));
  Fsd.force fs;
  let fs2, _ = Fsd.boot device in
  check bool "persisted" true
    (Bytes.equal (content 512 2) (Fsd.read_page fs2 ~name:"sparse" ~page:1));
  check bool "check" true (Fsd.check fs2 = Ok ())

let test_contract_to_zero_then_extend () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"yo-yo" (content 2048 3));
  Fsd.contract fs ~name:"yo-yo" ~pages:0;
  check int "empty now" 0 (Fsd.open_stat fs ~name:"yo-yo").Fs_ops.byte_size;
  Fsd.extend fs ~name:"yo-yo" ~pages:1;
  Fsd.write_page fs ~name:"yo-yo" ~page:0 (content 512 4);
  check bool "regrown" true (Bytes.equal (content 512 4) (Fsd.read_page fs ~name:"yo-yo" ~page:0));
  check bool "check" true (Fsd.check fs = Ok ())

let test_set_keep_trims () =
  let _, fs = fresh_fs () in
  for v = 1 to 6 do
    ignore (Fsd.create fs ~name:"trim" ~keep:0 (content 100 v))
  done;
  check int "six versions" 6 (List.length (Fsd.versions fs ~name:"trim"));
  Fsd.set_keep fs ~name:"trim" ~keep:2;
  check (Alcotest.list int) "trimmed to two" [ 5; 6 ] (Fsd.versions fs ~name:"trim")

let test_symlink () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"real" (content 77 1));
  Fsd.create_symlink fs ~name:"link" ~target:"real";
  check (Alcotest.option Alcotest.string) "readlink" (Some "real")
    (Fsd.readlink fs ~name:"link");
  check bool "read through link" true
    (Bytes.equal (content 77 1) (Fsd.read_all fs ~name:"link"));
  (* Symlink loop detection *)
  Fsd.create_symlink fs ~name:"loop1" ~target:"loop2";
  Fsd.create_symlink fs ~name:"loop2" ~target:"loop1";
  expect_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Fsd.read_all fs ~name:"loop1")

let test_rename () =
  let device, fs = fresh_fs () in
  let data = content 1200 4 in
  ignore (Fsd.create fs ~name:"old-name" data);
  Fsd.rename fs ~from_:"old-name" ~to_:"new-name";
  check bool "gone from old" false (Fsd.exists fs ~name:"old-name");
  check bool "at new" true (Bytes.equal data (Fsd.read_all fs ~name:"new-name"));
  expect_error
    (function Fs_error.Bad_name _ -> true | _ -> false)
    (fun () ->
      ignore (Fsd.create fs ~name:"blocker" (content 10 0));
      Fsd.rename fs ~from_:"new-name" ~to_:"blocker");
  (* the rename is atomic across a crash once committed *)
  Fsd.force fs;
  let fs2, _ = Fsd.boot device in
  check bool "rename survived" true (Bytes.equal data (Fsd.read_all fs2 ~name:"new-name"));
  check bool "old still gone" false (Fsd.exists fs2 ~name:"old-name");
  check bool "check" true (Fsd.check fs2 = Ok ())

let test_rename_no_io () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"here" (content 500 1));
  Fsd.force fs;
  let before = (Device.stats device).Iostats.ios in
  Fsd.rename fs ~from_:"here" ~to_:"there";
  check int "rename does no io" before (Device.stats device).Iostats.ios

let test_copy () =
  let _, fs = fresh_fs () in
  let data = content 2600 8 in
  ignore (Fsd.create fs ~name:"src" data);
  let info = Fsd.copy fs ~from_:"src" ~to_:"dst" in
  check bool "copy content" true (Bytes.equal data (Fsd.read_all fs ~name:"dst"));
  check bool "source intact" true (Bytes.equal data (Fsd.read_all fs ~name:"src"));
  check bool "distinct uids" true
    (info.Fs_ops.uid <> (Fsd.open_stat fs ~name:"src").Fs_ops.uid)

let test_inspect_report () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"ins/a" (content 600 1));
  Fsd.create_symlink fs ~name:"ins/l" ~target:"ins/a";
  ignore (Fsd.import_cached fs ~name:"ins/c" ~server:"ivy" (content 300 2));
  Fsd.force fs;
  let report = Inspect.volume_report fs in
  let has sub =
    let n = String.length sub and m = String.length report in
    let rec go i = i + n <= m && (String.sub report i n = sub || go (i + 1)) in
    go 0
  in
  check bool "mentions entries" true (has "1 local, 1 symlinks, 1 cached");
  check bool "mentions records" true (has "surviving records");
  check bool "mentions free sectors" true (has "free sectors")

let test_cached_last_used () =
  let _, fs = fresh_fs () in
  ignore (Fsd.import_cached fs ~name:"rem/cache.bcd" ~server:"ivy" (content 200 4));
  let t0 = Option.get (Fsd.last_used fs ~name:"rem/cache.bcd") in
  Fsd.tick fs ~us:10_000;
  Fsd.touch_cached fs ~name:"rem/cache.bcd";
  let t1 = Option.get (Fsd.last_used fs ~name:"rem/cache.bcd") in
  check bool "last used advanced" true (t1 > t0);
  check bool "content intact" true
    (Bytes.equal (content 200 4) (Fsd.read_all fs ~name:"rem/cache.bcd"))

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let test_clean_shutdown_reboot () =
  let device, fs = fresh_fs () in
  let data = content 3000 5 in
  ignore (Fsd.create fs ~name:"persist.df" data);
  Fsd.shutdown fs;
  let fs2, report = Fsd.boot device in
  check bool "vam loaded from clean save" true (report.Fsd.vam_source = Fsd.Vam_loaded);
  check bool "content after reboot" true
    (Bytes.equal data (Fsd.read_all fs2 ~name:"persist.df"));
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_ops_after_shutdown_rejected () =
  let _, fs = fresh_fs () in
  Fsd.shutdown fs;
  expect_error
    (function Fs_error.Not_booted -> true | _ -> false)
    (fun () -> Fsd.create fs ~name:"x" (Bytes.create 1))

let test_crash_committed_survives () =
  let device, fs = fresh_fs () in
  let data = content 900 6 in
  ignore (Fsd.create fs ~name:"committed" data);
  Fsd.force fs;
  (* Crash: drop the instance without shutdown. *)
  let fs2, report = Fsd.boot device in
  check bool "vam reconstructed" true (report.Fsd.vam_source = Fsd.Vam_reconstructed);
  check bool "replayed something" true (report.Fsd.replayed_records >= 1);
  check bool "committed file present" true
    (Bytes.equal data (Fsd.read_all fs2 ~name:"committed"));
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_crash_uncommitted_lost_cleanly () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"survivor" (content 100 1));
  Fsd.force fs;
  let free_committed = Fsd.free_sectors fs in
  (* This create is never committed. *)
  ignore (Fsd.create fs ~name:"phantom" (content 100 2));
  let fs2, _ = Fsd.boot device in
  check bool "survivor present" true (Fsd.exists fs2 ~name:"survivor");
  check bool "phantom gone" false (Fsd.exists fs2 ~name:"phantom");
  (* Its pages were reclaimed by the VAM rebuild. *)
  check int "space reclaimed" free_committed (Fsd.free_sectors fs2);
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_crash_uncommitted_delete_keeps_file () =
  let device, fs = fresh_fs () in
  let data = content 700 3 in
  ignore (Fsd.create fs ~name:"keepme" data);
  Fsd.force fs;
  Fsd.delete fs ~name:"keepme";
  (* crash before the delete commits *)
  let fs2, _ = Fsd.boot device in
  check bool "file still there" true
    (Bytes.equal data (Fsd.read_all fs2 ~name:"keepme"))

let test_crash_committed_delete_stays_deleted () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"doomed" (content 700 3));
  Fsd.force fs;
  let free_before_delete = Fsd.free_sectors fs in
  Fsd.delete fs ~name:"doomed";
  Fsd.force fs;
  let fs2, _ = Fsd.boot device in
  check bool "stays deleted" false (Fsd.exists fs2 ~name:"doomed");
  check bool "space reclaimed after reboot" true
    (Fsd.free_sectors fs2 > free_before_delete)

let test_group_commit_interval () =
  let _, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"f1" (content 10 0));
  let before = fsd_count fs "forces" in
  (* Half a second of idle time fires the commit demon. *)
  Fsd.tick fs ~us:600_000;
  check int "force fired" (before + 1) (fsd_count fs "forces");
  (* Idle ticks with nothing pending count as empty forces. *)
  Fsd.tick fs ~us:600_000;
  check bool "empty force" true (fsd_count fs "empty_forces" >= 1)

let test_torn_group_commit () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"safe" (content 300 1));
  Fsd.force fs;
  ignore (Fsd.create fs ~name:"halfway" (content 300 2));
  (* Crash in the middle of the log record of this force. *)
  Device.plan_write_crash device ~after_sectors:4 ~damage_tail:2;
  (match Fsd.force fs with
  | () -> Alcotest.fail "expected crash during force"
  | exception Device.Crash_during_write _ -> ());
  let fs2, _ = Fsd.boot device in
  check bool "earlier commit survived" true (Fsd.exists fs2 ~name:"safe");
  check bool "torn commit discarded" false (Fsd.exists fs2 ~name:"halfway");
  check bool "check passes" true (Fsd.check fs2 = Ok ())

let test_repeated_crashes () =
  let device, fs = fresh_fs () in
  let fs = ref fs in
  for round = 1 to 6 do
    let name = Printf.sprintf "round-%d" round in
    ignore (Fsd.create !fs ~name (content 256 round));
    Fsd.force !fs;
    (* crash and reboot *)
    let fs2, _ = Fsd.boot device in
    fs := fs2;
    for earlier = 1 to round do
      let name = Printf.sprintf "round-%d" earlier in
      check bool (name ^ " survived") true
        (Bytes.equal (content 256 earlier) (Fsd.read_all !fs ~name))
    done
  done;
  check bool "final check" true (Fsd.check !fs = Ok ())

(* ------------------------------------------------------------------ *)
(* Robustness against sector damage                                    *)

let test_fnt_copy_damage_repaired () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"important" (content 2000 8));
  Fsd.shutdown fs;
  (* Cycle once more so the log holds no records that would heal the
     damage during replay; we want the read path to do the repairing. *)
  let fs1 = boot_fs device in
  Fsd.shutdown fs1;
  let layout = Fsd.layout fs1 in
  for s = layout.Layout.fnt_a_start to layout.Layout.fnt_a_start + 40 do
    Device.damage device s
  done;
  let fs2, report = Fsd.boot device in
  check int "nothing replayed" 0 report.Fsd.replayed_records;
  check bool "file readable from copy B" true
    (Bytes.equal (content 2000 8) (Fsd.read_all fs2 ~name:"important"));
  check bool "repairs recorded" true (Fsd.fnt_repairs fs2 > 0)

let test_boot_page_replica () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"x" (content 10 0));
  Fsd.shutdown fs;
  Device.damage device 0;
  let fs2, _ = Fsd.boot device in
  check bool "booted from replica" true (Fsd.exists fs2 ~name:"x")

let test_data_damage_isolated_to_file () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"victim" (content 1024 1));
  let other = content 1024 2 in
  ignore (Fsd.create fs ~name:"bystander" other);
  let info = Fsd.open_stat fs ~name:"victim" in
  ignore info;
  (* Find the victim's data sector by reading page 0's sector via layout:
     damage both its pages. *)
  Fsd.force fs;
  (* locate via read then damage: simplest is to damage through the
     device observer; instead use the entry's run table via check: read
     page 0, then damage the sector it came from. *)
  let seen = ref (-1) in
  Device.set_observer device
    (Some (fun ~rw ~sector ~count:_ -> if rw = `R && !seen < 0 then seen := sector));
  ignore (Fsd.read_page fs ~name:"victim" ~page:0);
  Device.set_observer device None;
  check bool "observed a read" true (!seen >= 0);
  (* the observed read may have started at the leader (piggyback) *)
  Device.damage device !seen;
  Device.damage device (!seen + 1);
  expect_error
    (function Fs_error.Damaged_data _ -> true | _ -> false)
    (fun () ->
      Fsd.drop_caches fs;
      (* force re-read from disk: new boot clears the verified set *)
      ignore (Fsd.read_page fs ~name:"victim" ~page:0);
      ignore (Fsd.read_all fs ~name:"victim"));
  (* The bystander and the volume structure are unaffected. *)
  check bool "bystander fine" true (Bytes.equal other (Fsd.read_all fs ~name:"bystander"))

let test_leader_detects_wild_write () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"target" (content 512 1));
  Fsd.shutdown fs;
  let fs2, _ = Fsd.boot device in
  (* Simulate a wild write smashing the leader: the leader is the start
     of the first data-area read (the piggyback transfer). *)
  let layout = Fsd.layout fs2 in
  let seen = ref [] in
  Device.set_observer device
    (Some
       (fun ~rw:_ ~sector ~count ->
         if Layout.is_data_sector layout sector then seen := (sector, count) :: !seen));
  ignore (Fsd.read_all fs2 ~name:"target");
  Device.set_observer device None;
  let leader_sector =
    match List.rev !seen with
    | (sector, count) :: _ when count >= 2 -> sector
    | _ -> Alcotest.fail "expected a piggybacked leader+data read"
  in
  let rng = Rng.create 99 in
  Device.corrupt device leader_sector ~rng;
  let fs3, _ = Fsd.boot device in
  expect_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Fsd.read_all fs3 ~name:"target")

(* ------------------------------------------------------------------ *)
(* I/O behaviour (the paper's headline properties)                     *)

let count_ios device f =
  let before = Iostats.copy (Device.stats device) in
  let r = f () in
  let after = Iostats.copy (Device.stats device) in
  (r, (Iostats.diff ~after ~before).Iostats.ios)

let test_create_is_one_synchronous_io () =
  let device, fs = fresh_fs () in
  (* Warm up so the FNT root etc. are cached. *)
  ignore (Fsd.create fs ~name:"warm" (content 100 0));
  Fsd.force fs;
  let _, ios =
    count_ios device (fun () -> Fsd.create fs ~name:"one-io" (content 900 1))
  in
  (* One combined leader+data write; no other I/O before the commit. *)
  check int "exactly one io" 1 ios

let test_open_does_no_io () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"cached-open" (content 100 0));
  Fsd.force fs;
  let _, ios = count_ios device (fun () -> Fsd.open_stat fs ~name:"cached-open") in
  check int "open without io" 0 ios

let test_delete_does_no_io () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"quick-delete" (content 100 0));
  Fsd.force fs;
  let _, ios = count_ios device (fun () -> Fsd.delete fs ~name:"quick-delete") in
  check int "delete without io" 0 ios

let test_list_does_no_io_when_cached () =
  let device, fs = fresh_fs () in
  for i = 1 to 20 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "dir/f%02d" i) (content 64 i))
  done;
  Fsd.force fs;
  ignore (Fsd.list fs ~prefix:"dir/");
  let l, ios = count_ios device (fun () -> Fsd.list fs ~prefix:"dir/") in
  check int "20 files listed" 20 (List.length l);
  check int "no io" 0 ios

let test_group_commit_batches_many_creates () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"warm" (content 10 0));
  Fsd.force fs;
  let records_before = (Fsd.log_stats fs).Log.records in
  let _, ios =
    count_ios device (fun () ->
        for i = 1 to 10 do
          ignore (Fsd.create fs ~name:(Printf.sprintf "batch%02d" i) (content 400 i))
        done;
        Fsd.force fs)
  in
  let records = (Fsd.log_stats fs).Log.records - records_before in
  (* 10 creates: 10 data writes + about one log record. *)
  check bool "about 11 ios for 10 creates" true (ios <= 13);
  check bool "one or two records" true (records <= 2)

let test_empty_create_leader_goes_through_log () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create_empty fs ~name:"lazy" ~pages:0 ());
  let leaders_before = fsd_count fs "leader_home_writes" in
  Fsd.force fs;
  (* The leader image is in the log; reading verifies from memory. *)
  ignore (Fsd.open_stat fs ~name:"lazy");
  (* Fill the log until the third holding the leader is re-entered; the
     logging code must then write the leader home. *)
  let fs_filler = fs in
  let i = ref 0 in
  while fsd_count fs "leader_home_writes" = leaders_before && !i < 3000 do
    incr i;
    ignore (Fsd.create fs_filler ~name:(Printf.sprintf "fill%04d" !i) (content 32 !i));
    Fsd.tick fs ~us:60_000
  done;
  check bool "leader written by logging code" true
    (fsd_count fs "leader_home_writes" > leaders_before);
  (* And it must be valid on disk after a crash. *)
  Fsd.force fs;
  let fs2, _ = Fsd.boot device in
  check bool "lazy file valid" true (Fsd.exists fs2 ~name:"lazy");
  check bool "full check" true (Fsd.check fs2 = Ok ())

let test_vam_reconstruction_equals_tracked () =
  let device, fs = fresh_fs () in
  for i = 1 to 30 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "f%03d" i) (content ((i * 97) mod 2000) i))
  done;
  for i = 1 to 30 do
    if i mod 3 = 0 then Fsd.delete fs ~name:(Printf.sprintf "f%03d" i)
  done;
  Fsd.force fs;
  let tracked = Fsd.free_sectors fs in
  (* Crash (no clean shutdown): boot must reconstruct the same VAM. *)
  let fs2, report = Fsd.boot device in
  check bool "reconstructed" true (report.Fsd.vam_source = Fsd.Vam_reconstructed);
  check int "same free count" tracked (Fsd.free_sectors fs2)

let test_save_vam_idle_then_mutate () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"before-save" (content 100 0));
  Fsd.save_vam fs;
  (* A mutation after the idle save must spoil it. *)
  ignore (Fsd.create fs ~name:"after-save" (content 100 1));
  Fsd.force fs;
  let _, report = Fsd.boot device in
  check bool "saved VAM not trusted after mutation" true
    (report.Fsd.vam_source = Fsd.Vam_reconstructed)

let test_save_vam_idle_no_mutation_trusted () =
  let device, fs = fresh_fs () in
  ignore (Fsd.create fs ~name:"quiet" (content 100 0));
  Fsd.save_vam fs;
  (* Reads do not spoil the saved map. *)
  ignore (Fsd.read_all fs ~name:"quiet");
  let fs2, report = Fsd.boot device in
  ignore fs2;
  check bool "saved VAM trusted when nothing changed" true
    (report.Fsd.vam_source = Fsd.Vam_loaded)

(* Property: version semantics (create bumps, keep trims, delete peels
   the newest) against a list model. *)
let prop_version_semantics =
  QCheck.Test.make ~name:"version lists match a reference model" ~count:30
    QCheck.(pair (int_bound 1_000) (small_list (pair (int_bound 3) (int_range 0 4))))
    (fun (seed, ops) ->
      let _, fs = fresh_fs () in
      let rng = Rng.create (seed + 11) in
      (* model: ascending version list; a new version is newest+1 (so the
         numbering restarts after a full deletion), and keep=k trims
         versions at or below newest-k *)
      let versions = ref [] in
      let newest () = List.fold_left max 0 !versions in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 | 1 ->
            let keep = k in
            let v = newest () + 1 in
            ignore (Fsd.create fs ~name:"vfile" ~keep (content (Rng.int rng 600) v));
            versions := !versions @ [ v ];
            if keep > 0 then versions := List.filter (fun x -> x > v - keep) !versions
          | 2 ->
            if !versions <> [] then begin
              Fsd.delete fs ~name:"vfile";
              let n = newest () in
              versions := List.filter (fun x -> x <> n) !versions
            end
          | _ -> ignore (Fsd.exists fs ~name:"vfile"))
        ops;
      Fsd.versions fs ~name:"vfile" = !versions)

(* Property: random operation sequence with random crash points; after
   recovery the file system matches the model of committed operations.

   The model must be commit-AWARE, not commit-driven: the FSD runs its
   own group-commit demon (time-based once the commit interval elapses,
   bulk-triggered when enough pages accumulate), so mutations become
   durable between the script's explicit op-4 forces. Each pending model
   entry therefore carries the `Fsd.mutation_seq` it corresponds to, and
   after every step entries covered by `Fsd.durable_seq` migrate to the
   committed map. An earlier version of this property applied pending
   entries only on explicit forces and flaked whenever a hidden commit
   fired before a crash (seed 40; see test_crash_hidden_commit_model
   below for the minimised script). *)
let crash_consistency_run seed script =
  let geom = Geometry.tiny_test in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params = Params.for_geometry geom in
  Fsd.format device params;
  let fs = ref (fst (Fsd.boot device)) in
  let rng = Rng.create (seed + 1) in
  (* model: name -> content of committed state; pending: not-yet-durable
     entries tagged with the mutation_seq that makes them durable *)
  let committed : (string, bytes) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref [] in
  let hidden_commits = ref 0 in
  let sync_durable ~explicit =
    let d = Fsd.durable_seq !fs in
    let durable, still = List.partition (fun (s, _, _) -> s <= d) !pending in
    List.iter
      (fun (_, name, data) ->
        match data with
        | Some d -> Hashtbl.replace committed name d
        | None -> Hashtbl.remove committed name)
      (List.rev durable);
    pending := still;
    if (not explicit) && durable <> [] then incr hidden_commits
  in
  let names = [| "a"; "b"; "c"; "d"; "e" |] in
  (try
     List.iter
       (fun (op, which) ->
         let name = names.(which mod Array.length names) in
         (match op with
         | 0 | 1 | 2 ->
           let data = content (Rng.int rng 1500) (Rng.int rng 100) in
           ignore (Fsd.create !fs ~name ~keep:1 data);
           pending := (Fsd.mutation_seq !fs, name, Some data) :: !pending
         | 3 ->
           if Fsd.exists !fs ~name then begin
             (* keep=1: deleting removes the only version *)
             Fsd.delete !fs ~name;
             pending := (Fsd.mutation_seq !fs, name, None) :: !pending
           end
         | 4 -> Fsd.force !fs
         | 5 ->
           (* crash now: not-yet-durable ops lost *)
           pending := [];
           fs := fst (Fsd.boot device)
         | _ -> Fsd.tick !fs ~us:40_000);
         sync_durable ~explicit:(op = 4))
       script
   with Fs_error.Fs_error Fs_error.Volume_full -> ());
  (* Final force + recovery. *)
  Fsd.force !fs;
  sync_durable ~explicit:true;
  let fs2, _ = Fsd.boot device in
  let ok_contents =
    Hashtbl.fold
      (fun name data acc ->
        acc && Bytes.equal data (Fsd.read_all fs2 ~name))
      committed true
  in
  (ok_contents && Fsd.check fs2 = Ok (), !hidden_commits)

let prop_crash_consistency =
  QCheck.Test.make ~name:"crash consistency: committed ops survive, FS stays valid"
    ~count:25
    QCheck.(pair small_int (small_list (pair (int_bound 6) (int_bound 4))))
    (fun (seed, script) -> fst (crash_consistency_run seed script))

(* Regression: the minimised seed-40 flake from ROADMAP.md (delta-debugged
   43 -> 20 steps). The ticks push the clock past the commit interval, so
   the FSD's own time demon commits the second "d" create mid-script; the
   crash at the end then exposed the old model's stale idea of "d". The
   run must pass under the commit-aware model AND actually exercise a
   hidden (non-explicit-force) commit — otherwise the script no longer
   reproduces the scenario it pins. *)
let test_crash_hidden_commit_model () =
  let script =
    [ (2, 3); (4, 4); (6, 1); (6, 0); (6, 0); (2, 4); (6, 3); (6, 4);
      (1, 2); (2, 3); (3, 1); (6, 1); (2, 2); (0, 2); (3, 2); (0, 2);
      (0, 2); (2, 0); (1, 0); (5, 0) ]
  in
  let ok, hidden = crash_consistency_run 40 script in
  check bool "minimised seed-40 script passes with commit-aware model" true ok;
  check bool "script still triggers a hidden commit" true (hidden > 0)

(* A full name table refuses a create with a typed error before touching
   the tree: every acked file survives, and every allocated name-table page
   stays reachable (the check names any orphaned split half). The table
   sizes straddle the first root split, where a split leaf's parent is the
   one left without a page. *)
let test_name_table_full () =
  let name i = Printf.sprintf "dir/a-rather-long-file-name-%04d" (i * 7919 mod 10007) in
  List.iter
    (fun pages ->
      let device = Device.create ~clock:(Simclock.create ()) Geometry.small_test in
      Fsd.format device
        { (Params.for_geometry Geometry.small_test) with
          Params.fnt_page_sectors = 1; fnt_pages = pages };
      let fs = boot_fs device in
      let acked = ref [] and refused = ref 0 in
      for i = 0 to 250 do
        match Fsd.create fs ~name:(name i) (content 10 i) with
        | _ -> acked := name i :: !acked
        | exception Fs_error.Fs_error Fs_error.Name_table_full -> incr refused
      done;
      let label what = Printf.sprintf "%d pages: %s" pages what in
      check bool (label "some creates refused") true (!refused > 0);
      check (Alcotest.result Alcotest.unit Alcotest.string) (label "check") (Ok ())
        (Fsd.check fs);
      Fsd.shutdown fs;
      let fs = boot_fs device in
      List.iter (fun n -> check bool (label ("kept " ^ n)) true (Fsd.exists fs ~name:n)) !acked)
    [ 4; 14; 15; 16; 17; 18 ]

let suite =
  [
    ("create/read roundtrip", `Quick, test_create_read_roundtrip);
    ("name table full", `Quick, test_name_table_full);
    ("empty file", `Quick, test_empty_file);
    ("read page", `Quick, test_read_page);
    ("missing file errors", `Quick, test_missing_file_errors);
    ("versions and keep", `Quick, test_versions_and_keep);
    ("delete", `Quick, test_delete);
    ("list", `Quick, test_list);
    ("extend/contract", `Quick, test_extend_contract);
    ("empty create then extend", `Quick, test_empty_then_extend);
    ("contract to zero then extend", `Quick, test_contract_to_zero_then_extend);
    ("set_keep trims versions", `Quick, test_set_keep_trims);
    ("symlink", `Quick, test_symlink);
    ("cached last-used", `Quick, test_cached_last_used);
    ("rename", `Quick, test_rename);
    ("rename does no io", `Quick, test_rename_no_io);
    ("copy", `Quick, test_copy);
    ("inspect report", `Quick, test_inspect_report);
    ("clean shutdown + reboot", `Quick, test_clean_shutdown_reboot);
    ("ops after shutdown rejected", `Quick, test_ops_after_shutdown_rejected);
    ("crash: committed survives", `Quick, test_crash_committed_survives);
    ("crash: uncommitted lost cleanly", `Quick, test_crash_uncommitted_lost_cleanly);
    ("crash: uncommitted delete keeps file", `Quick, test_crash_uncommitted_delete_keeps_file);
    ("crash: committed delete stays deleted", `Quick, test_crash_committed_delete_stays_deleted);
    ("crash: hidden commit vs model (seed-40 regression)", `Quick, test_crash_hidden_commit_model);
    ("group commit interval", `Quick, test_group_commit_interval);
    ("torn group commit", `Quick, test_torn_group_commit);
    ("repeated crashes", `Quick, test_repeated_crashes);
    ("FNT copy damage repaired", `Quick, test_fnt_copy_damage_repaired);
    ("boot page replica", `Quick, test_boot_page_replica);
    ("data damage isolated", `Quick, test_data_damage_isolated_to_file);
    ("leader detects wild write", `Quick, test_leader_detects_wild_write);
    ("create = one synchronous io", `Quick, test_create_is_one_synchronous_io);
    ("open does no io", `Quick, test_open_does_no_io);
    ("delete does no io", `Quick, test_delete_does_no_io);
    ("list does no io when cached", `Quick, test_list_does_no_io_when_cached);
    ("group commit batches creates", `Quick, test_group_commit_batches_many_creates);
    ("empty create leader via log", `Quick, test_empty_create_leader_goes_through_log);
    ("vam reconstruction equals tracked", `Quick, test_vam_reconstruction_equals_tracked);
    ("idle vam save spoiled by mutation", `Quick, test_save_vam_idle_then_mutate);
    ("idle vam save trusted when quiet", `Quick, test_save_vam_idle_no_mutation_trusted);
    QCheck_alcotest.to_alcotest prop_version_semantics;
    QCheck_alcotest.to_alcotest prop_crash_consistency;
  ]
