(* Systematic fault sweeps: instead of sampling crash points, enumerate
   them. For a fixed workload we crash after every possible number of
   written sectors and require recovery to be all-or-nothing each time;
   and we damage every sector of a log record (singly and in adjacent
   pairs) and require the copies to carry it. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd

(* One "fsd.*" counter from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let geom = Geometry.tiny_test

let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

let fresh () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let p = Params.for_geometry geom in
  Fsd.format device p;
  (device, fst (Fsd.boot device))

(* ------------------------------------------------------------------ *)
(* Crash after exactly N written sectors, for every N the workload can
   produce. The committed prefix must survive; the file system must be
   structurally sound; and no state may be "half" visible. *)

let crash_sweep_workload fs =
  ignore (Fsd.create fs ~name:"a" (content 700 1));
  Fsd.force fs;
  ignore (Fsd.create fs ~name:"b" (content 1400 2));
  Fsd.force fs;
  Fsd.delete fs ~name:"a";
  Fsd.force fs;
  ignore (Fsd.create fs ~name:"c" (content 300 3));
  Fsd.force fs

let sectors_in_workload () =
  let device, fs = fresh () in
  let before = (Device.stats device).Iostats.sectors_written in
  crash_sweep_workload fs;
  (Device.stats device).Iostats.sectors_written - before

let test_crash_after_every_sector () =
  let total = sectors_in_workload () in
  check bool "workload writes something" true (total > 10);
  for cut = 0 to total - 1 do
    let device, fs = fresh () in
    Device.plan_write_crash device ~after_sectors:cut ~damage_tail:((cut mod 2) + 1);
    (match crash_sweep_workload fs with
    | () -> Alcotest.failf "cut %d: expected a crash" cut
    | exception Device.Crash_during_write _ -> ());
    let fs2, _ = Fsd.boot device in
    (match Fsd.check fs2 with
    | Ok () -> ()
    | Error m -> Alcotest.failf "cut %d: recovered volume corrupt: %s" cut m);
    (* Whatever survived must be internally consistent: any visible file
       must read back exactly its creation contents. *)
    let expect = [ ("a", content 700 1); ("b", content 1400 2); ("c", content 300 3) ] in
    List.iter
      (fun (name, data) ->
        if Fsd.exists fs2 ~name then
          if not (Bytes.equal data (Fsd.read_all fs2 ~name)) then
            Alcotest.failf "cut %d: %s readable but wrong" cut name)
      expect;
    (* Commit ordering: c committed implies the delete of a committed,
       which implies b committed, which implies a was committed first. *)
    let a = Fsd.exists fs2 ~name:"a" and b = Fsd.exists fs2 ~name:"b" in
    let c = Fsd.exists fs2 ~name:"c" in
    if c && a then Alcotest.failf "cut %d: c present but a not deleted" cut;
    if c && not b then Alcotest.failf "cut %d: c present without b" cut
  done

(* The same sweep with the VAM-logging extension switched on. *)
let test_crash_sweep_with_vam_logging () =
  let p = { (Params.for_geometry geom) with Params.log_vam = true } in
  let fresh () =
    let clock = Simclock.create () in
    let device = Device.create ~clock geom in
    Fsd.format device p;
    (device, fst (Fsd.boot ~params:p device))
  in
  let total =
    let device, fs = fresh () in
    let before = (Device.stats device).Iostats.sectors_written in
    crash_sweep_workload fs;
    ignore device;
    (Device.stats (Fsd.device fs)).Iostats.sectors_written - before
  in
  for cut = 0 to total - 1 do
    let device, fs = fresh () in
    Device.plan_write_crash device ~after_sectors:cut ~damage_tail:1;
    (match crash_sweep_workload fs with
    | () -> Alcotest.failf "cut %d: expected a crash" cut
    | exception Device.Crash_during_write _ -> ());
    let fs2, report = Fsd.boot ~params:p device in
    (match Fsd.check fs2 with
    | Ok () -> ()
    | Error m -> Alcotest.failf "cut %d: corrupt: %s" cut m);
    (* the replayed/reconstructed map must agree with a from-scratch
       reconstruction *)
    let free_now = Fsd.free_sectors fs2 in
    let p_off = { p with Params.log_vam = false } in
    let fs3, _ = Fsd.boot ~params:p_off device in
    if free_now <> Fsd.free_sectors fs3 then
      Alcotest.failf "cut %d: replayed map (%d free) != rebuilt map (%d free, src %s)"
        cut free_now (Fsd.free_sectors fs3)
        (match report.Fsd.vam_source with
        | Fsd.Vam_replayed -> "replayed"
        | Fsd.Vam_reconstructed -> "rebuilt"
        | Fsd.Vam_loaded -> "loaded")
  done

(* ------------------------------------------------------------------ *)
(* Damage every sector of a committed log record — singly and in
   adjacent pairs — and require full recovery from the copies. *)

let test_record_survives_any_single_or_double_damage () =
  let layout =
    Layout.compute geom (Params.for_geometry geom)
  in
  let body = layout.Layout.log_start + 3 in
  let mk () =
    let clock = Simclock.create () in
    let device = Device.create ~clock geom in
    Log.format device layout;
    let log =
      Log.attach device layout ~boot_count:1 ~next_record_no:1_000_000L ~write_off:0
        ~on_enter_third:(fun _ -> ())
    in
    (device, log)
  in
  let n = 2 * layout.Layout.params.Params.fnt_page_sectors in
  let units =
    [
      { Log.kind = Log.Fnt_page 3; image = Bytes.make (n / 2 * 512) 'a' };
      { Log.kind = Log.Fnt_page 5; image = Bytes.make (n / 2 * 512) 'b' };
      { Log.kind = Log.Leader_page 700; image = Bytes.make 512 'c' };
    ]
  in
  let size = Log.record_total_sectors layout units in
  for first = 0 to size - 1 do
    for span = 1 to 2 do
      if first + span <= size then begin
        let device, log = mk () in
        ignore (Log.append log units : int);
        for k = 0 to span - 1 do
          Device.damage device (body + first + k)
        done;
        let r = Log.recover device layout in
        if r.Log.replayed_records <> 1 then
          Alcotest.failf "damage at +%d span %d: record lost" first span;
        List.iter
          (fun (kind, fill) ->
            match
              List.find_map
                (fun (k, img, _) -> if k = kind then Some img else None)
                r.Log.images
            with
            | Some img ->
              if Bytes.get img 0 <> fill then
                Alcotest.failf "damage at +%d span %d: wrong image" first span
            | None -> Alcotest.failf "damage at +%d span %d: image missing" first span)
          [ (Log.Fnt_page 3, 'a'); (Log.Fnt_page 5, 'b'); (Log.Leader_page 700, 'c') ]
      end
    done
  done

(* Damage any one sector of either FNT home copy: every file stays
   readable and the check passes (after repair). *)
let test_fnt_damage_sweep () =
  let device, fs = fresh () in
  for i = 0 to 9 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "d/f%d" i) (content (200 * (i + 1)) i))
  done;
  Fsd.shutdown fs;
  let fs1 = fst (Fsd.boot device) in
  Fsd.shutdown fs1;
  let layout = Fsd.layout fs1 in
  (* find the live FNT sectors by scanning which have ever been written *)
  let live = ref [] in
  for s = layout.Layout.fnt_a_start to layout.Layout.fnt_a_start + layout.Layout.fnt_sectors - 1 do
    if Device.written_ever device s then live := s :: !live
  done;
  check bool "some live fnt sectors" true (List.length !live > 2);
  List.iter
    (fun s ->
      Device.damage device s;
      let fs2, _ = Fsd.boot device in
      for i = 0 to 9 do
        let name = Printf.sprintf "d/f%d" i in
        if not (Bytes.equal (content (200 * (i + 1)) i) (Fsd.read_all fs2 ~name)) then
          Alcotest.failf "sector %d damaged: %s unreadable" s name
      done;
      Fsd.shutdown fs2)
    !live

(* ------------------------------------------------------------------ *)
(* Silent corruption (readable garbage) in FNT copy A must be caught by
   the page checksum and served from copy B. *)

let test_fnt_silent_corruption_sweep () =
  let device, fs = fresh () in
  ignore (Fsd.create fs ~name:"guard" (content 900 5));
  Fsd.shutdown fs;
  let layout = Fsd.layout fs in
  let rng = Rng.create 1234 in
  for s = layout.Layout.fnt_a_start to layout.Layout.fnt_a_start + 7 do
    if Device.written_ever device s then Device.corrupt device s ~rng
  done;
  let fs2, _ = Fsd.boot device in
  check bool "file readable despite silent corruption" true
    (Bytes.equal (content 900 5) (Fsd.read_all fs2 ~name:"guard"));
  check bool "check ok" true (Fsd.check fs2 = Ok ())

(* ------------------------------------------------------------------ *)
(* Silently corrupt every live metadata sector — both FNT home copies
   and every leader — one at a time. The twin reads and the scrub demon
   must detect and repair each without any user-visible data change. *)

let test_metadata_silent_corruption_sweep () =
  let device, fs = fresh () in
  let files =
    List.init 6 (fun i -> (Printf.sprintf "m/f%d" i, content (220 * (i + 1)) i))
  in
  List.iter (fun (name, data) -> ignore (Fsd.create fs ~name data)) files;
  Fsd.force fs;
  let leaders =
    Fsd.fold_entries fs ~init:[] ~f:(fun acc ~name:_ ~version:_ e ->
        if e.Cedar_fsbase.Entry.anchor >= 0 then e.Cedar_fsbase.Entry.anchor :: acc
        else acc)
  in
  Fsd.shutdown fs;
  let layout = Fsd.layout fs in
  let fnt_targets = ref [] in
  (* Only pages the table still uses: corruption in a freed page is
     correctly ignored by everyone. *)
  let store = Fnt_store.attach device layout in
  let ps = layout.Layout.params.Params.fnt_page_sectors in
  for page = 0 to layout.Layout.params.Params.fnt_pages - 1 do
    if Fnt_store.page_in_use store page then
      for k = 0 to ps - 1 do
        let a = Layout.fnt_sector_a layout ~page + k in
        let b = Layout.fnt_sector_b layout ~page + k in
        if Device.written_ever device a then fnt_targets := a :: !fnt_targets;
        if Device.written_ever device b then fnt_targets := b :: !fnt_targets
      done
  done;
  check bool "live FNT sectors found" true (List.length !fnt_targets > 4);
  check bool "leader sectors found" true (List.length leaders >= 6);
  let tmp = Filename.temp_file "cedar_sweep" ".img" in
  let oc = open_out_bin tmp in
  Device.dump device oc;
  close_out oc;
  let interval = (Params.for_geometry geom).Params.scrub_interval_us in
  let rng = Rng.create 4242 in
  List.iter
    (fun s ->
      let ic = open_in_bin tmp in
      let d = Device.load ~clock:(Simclock.create ()) ic in
      close_in ic;
      Device.corrupt d s ~rng;
      let fs2, _ = Fsd.boot d in
      (* idle: let the scrub demon cover the whole volume *)
      for _ = 1 to 12 do
        Fsd.tick fs2 ~us:(interval + 1)
      done;
      let repaired =
        Fsd.fnt_repairs fs2 + fsd_count fs2 "scrub_fnt_repairs"
        + fsd_count fs2 "scrub_leader_repairs"
      in
      if repaired < 1 then
        Alcotest.failf "sector %d: corruption never detected/repaired" s;
      List.iter
        (fun (name, data) ->
          if not (Bytes.equal data (Fsd.read_all fs2 ~name)) then
            Alcotest.failf "sector %d corrupted: %s changed" s name)
        files;
      (match Fsd.check fs2 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "sector %d: check failed after repair: %s" s m);
      Fsd.shutdown fs2)
    (!fnt_targets @ leaders);
  Sys.remove tmp

let suite =
  [
    ("crash after every written sector", `Slow, test_crash_after_every_sector);
    ("crash sweep with VAM logging", `Slow, test_crash_sweep_with_vam_logging);
    ( "log record survives any 1-2 sector damage",
      `Slow,
      test_record_survives_any_single_or_double_damage );
    ("FNT single-sector damage sweep", `Slow, test_fnt_damage_sweep);
    ("FNT silent corruption caught", `Quick, test_fnt_silent_corruption_sweep);
    ( "every metadata sector: silent corruption repaired",
      `Slow,
      test_metadata_silent_corruption_sweep );
    ("sector count sanity", `Quick, fun () -> check int "nonzero" 1 (min 1 (sectors_in_workload ())));
  ]
