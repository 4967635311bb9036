(* Reproduction harness: one function per table/figure of the paper.
   Each prints the measured rows next to the paper's published values.
   Absolute times depend on the simulated Trident-era geometry; the
   claims under test are the shapes (who wins, by roughly what factor). *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_workload
module Fsd = Cedar_fsd.Fsd
module Fparams = Cedar_fsd.Params
module Flayout = Cedar_fsd.Layout
module Flog = Cedar_fsd.Log
module Cfs = Cedar_cfs.Cfs
module Ufs = Cedar_unixfs.Ufs
module Uparams = Cedar_unixfs.Ufs_params

let pf = Printf.printf

(* ------------------------------------------------------------------ *)
(* Table 1: disk data structures (structural comparison)               *)

let table1 () =
  Setup.hr "Table 1. Disk data structures for local files (CFS vs FSD)";
  pf
    {|CFS   File name table entry : text name, version, keep, uid,
                               header page 0 disk address
      Header (2 sectors)     : run table, byte size, keep, create time,
                               version, text name
      Labels (every sector)  : uid, page number, page type (header/free/data)

FSD   File name table entry : text name, version, keep, uid, run table,
                               byte size, create time
      Leader (1 sector)      : uid, preamble of run table,
                               checksum of run table
      (no labels; the name table is written twice, updates are logged)
|};
  pf "Both name tables are B-trees; FSD's pages carry checksums and are\n";
  pf "written at two locations with independent failure modes.\n"

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers                                          *)

let payload i n = Bytes.init n (fun j -> Char.chr ((i + j) mod 251))

(* Between measured operations the arm is sent somewhere else on the
   volume (uncounted), so every operation pays a realistic initial seek —
   as in the paper's scripts, which all begin with one. *)
let disturb (ops : Fs_ops.t) i =
  let total = Geometry.total_sectors (Device.geometry ops.Fs_ops.device) in
  let corner = [| total / 9; total * 8 / 9; total / 4; total * 3 / 4 |] in
  ignore (Device.read ops.Fs_ops.device corner.(i mod 4))

let avg_ms ops n f =
  let total = ref 0 in
  for i = 0 to n - 1 do
    disturb ops i;
    let t0 = Simclock.now ops.Fs_ops.clock in
    f i;
    total := !total + (Simclock.now ops.Fs_ops.clock - t0)
  done;
  float_of_int !total /. 1000.0 /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Table 2: wall-clock times, CFS vs FSD                               *)

type t2 = {
  small_create : float;
  large_create : float;
  open_ : float;
  open_read : float;
  small_delete : float;
  large_delete : float;
  read_page : float;
  recovery_s : float;
}

let large_pages = 1000

let measure_fsd_t2 () =
  let device, fs = Setup.fsd_volume () in
  let ops = Fsd.ops fs in
  let n = 20 in
  let small_create =
    avg_ms ops n (fun i ->
        ignore (ops.Fs_ops.create ~name:(Printf.sprintf "dir/s%03d" i) ~data:(payload i 900)))
  in
  let large_create =
    avg_ms ops 3 (fun i ->
        ignore
          (ops.Fs_ops.create
             ~name:(Printf.sprintf "dir/L%03d" i)
             ~data:(payload i (large_pages * 512))))
  in
  Fsd.force fs;
  let open_ =
    avg_ms ops n (fun i -> ignore (ops.Fs_ops.open_stat ~name:(Printf.sprintf "dir/s%03d" i)))
  in
  (* open + first data access on files never read before (fresh boot
     clears the verified set -> leader piggyback path) *)
  for i = 0 to n - 1 do
    ignore (ops.Fs_ops.create ~name:(Printf.sprintf "dir/r%03d" i) ~data:(payload i 900))
  done;
  Fsd.shutdown fs;
  let fs, _ = Fsd.boot device in
  let ops = Fsd.ops fs in
  (* "Open + Read" is one combined operation: resolve the name and read
     the first page (FSD verifies the leader by piggybacking). *)
  let open_read =
    avg_ms ops n (fun i ->
        ignore (ops.Fs_ops.read_page ~name:(Printf.sprintf "dir/r%03d" i) ~page:0))
  in
  let read_page =
    avg_ms ops n (fun i ->
        ignore (ops.Fs_ops.read_page ~name:(Printf.sprintf "dir/r%03d" i) ~page:0))
  in
  let small_delete =
    avg_ms ops n (fun i -> ops.Fs_ops.delete ~name:(Printf.sprintf "dir/s%03d" i))
  in
  let large_delete =
    avg_ms ops 3 (fun i -> ops.Fs_ops.delete ~name:(Printf.sprintf "dir/L%03d" i))
  in
  (* crash recovery on a moderately full volume *)
  Setup.populate ops ~files:6000 ~seed:11;
  let _fs2, report = Fsd.boot device in
  let recovery_s = Simclock.s_of_us report.Fsd.total_us in
  {
    small_create;
    large_create;
    open_;
    open_read;
    small_delete;
    large_delete;
    read_page;
    recovery_s;
  }

let measure_cfs_t2 () =
  let device, fs = Setup.cfs_volume () in
  let ops = Cfs.ops fs in
  let n = 20 in
  let small_create =
    avg_ms ops n (fun i ->
        ignore (ops.Fs_ops.create ~name:(Printf.sprintf "dir/s%03d" i) ~data:(payload i 900)))
  in
  let large_create =
    avg_ms ops 3 (fun i ->
        ignore
          (ops.Fs_ops.create
             ~name:(Printf.sprintf "dir/L%03d" i)
             ~data:(payload i (large_pages * 512))))
  in
  Cfs.drop_open_cache fs;
  let open_ =
    avg_ms ops n (fun i -> ignore (ops.Fs_ops.open_stat ~name:(Printf.sprintf "dir/s%03d" i)))
  in
  Cfs.drop_open_cache fs;
  let open_read =
    avg_ms ops n (fun i ->
        ignore (ops.Fs_ops.read_page ~name:(Printf.sprintf "dir/s%03d" i) ~page:0))
  in
  let read_page =
    avg_ms ops n (fun i ->
        ignore (ops.Fs_ops.read_page ~name:(Printf.sprintf "dir/s%03d" i) ~page:0))
  in
  let small_delete =
    avg_ms ops n (fun i -> ops.Fs_ops.delete ~name:(Printf.sprintf "dir/s%03d" i))
  in
  let large_delete =
    avg_ms ops 3 (fun i -> ops.Fs_ops.delete ~name:(Printf.sprintf "dir/L%03d" i))
  in
  Setup.populate ops ~files:6000 ~seed:11;
  (* crash: no shutdown; CFS must scavenge *)
  let _fs2, report = Cfs.scavenge device in
  let recovery_s = Simclock.s_of_us report.Cfs.duration_us in
  {
    small_create;
    large_create;
    open_;
    open_read;
    small_delete;
    large_delete;
    read_page;
    recovery_s;
  }

let table2 () =
  Setup.hr "Table 2. CFS vs FSD, wall clock (ms; paper values in brackets)";
  let cfs = measure_cfs_t2 () in
  let fsd = measure_fsd_t2 () in
  let row name c f (pc, pff, ps) =
    pf "%-16s %9.1f %9.1f  speedup %5.2fx   [%s %s, %sx]\n" name c f (c /. f) pc
      pff ps
  in
  pf "%-16s %9s %9s\n" "" "CFS" "FSD";
  row "Small create" cfs.small_create fsd.small_create ("264", "70", "3.77");
  row "Large create" cfs.large_create fsd.large_create ("7674", "2730", "2.81");
  row "Open" cfs.open_ fsd.open_ ("51.2", "11.7", "4.38");
  row "Open + Read" cfs.open_read fsd.open_read ("68.5", "35.4", "1.94");
  row "Small delete" cfs.small_delete fsd.small_delete ("214", "15", "14.5");
  row "Large delete" cfs.large_delete fsd.large_delete ("2692", "118", "22.8");
  row "Read page" cfs.read_page fsd.read_page ("41", "41", "1.0");
  pf "%-16s %8.1fs %8.1fs  speedup %5.0fx   [3600+ s, 25 s, 100+x]\n"
    "Crash recovery" cfs.recovery_s fsd.recovery_s (cfs.recovery_s /. fsd.recovery_s)

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: disk I/O counts                                     *)

type bulk_ios = { creates : int; list_warm : int; list : int; reads : int }

(* The paper's list/read rows imply a warm name-table cache (FSD lists
   100 files in 3 I/Os); we report the cold-cache count, with the
   warm-cache count alongside. Cold FSD reads fetch BOTH copies of each
   missed name-table page (§5.1), which the paper's counts do not show. *)
let bulk_on (ops : Fs_ops.t) ~drop_caches =
  let creates = (Bulk.create_many ops ~dir:"bulkdir" ~n:100 ~bytes_each:700).Measure.ios in
  let list_warm = (Bulk.list_dir ops ~dir:"bulkdir" ~expect:100).Measure.ios in
  drop_caches ();
  let list = (Bulk.list_dir ops ~dir:"bulkdir" ~expect:100).Measure.ios in
  drop_caches ();
  let reads = (Bulk.read_many ops ~dir:"bulkdir" ~n:100).Measure.ios in
  { creates; list_warm; list; reads }

let table3 () =
  Setup.hr "Table 3. CFS vs FSD, disk I/Os (paper values in brackets)";
  let _, cfs_fs = Setup.cfs_volume () in
  let cfs = bulk_on (Cfs.ops cfs_fs) ~drop_caches:(fun () -> Cfs.drop_open_cache cfs_fs) in
  let _, fsd_fs = Setup.fsd_volume () in
  let fsd = bulk_on (Fsd.ops fsd_fs) ~drop_caches:(fun () -> Fsd.drop_caches fsd_fs) in
  (* MakeDo on fresh volumes *)
  let makedo ops =
    Makedo.prepare ops Makedo.default;
    (Makedo.build ops Makedo.default).Measure.ios
  in
  let _, cfs2 = Setup.cfs_volume () in
  let cfs_makedo = makedo (Cfs.ops cfs2) in
  let _, fsd2 = Setup.fsd_volume () in
  let fsd_makedo = makedo (Fsd.ops fsd2) in
  let row name c f (pc, pff, pr) =
    pf "%-26s %7d %7d  ratio %5.2f   [%s %s, %s]\n" name c f
      (float_of_int c /. float_of_int (max 1 f))
      pc pff pr
  in
  pf "%-26s %7s %7s\n" "" "CFS" "FSD";
  row "100 small creates" cfs.creates fsd.creates ("874", "149", "5.87");
  row "list 100 files (cold)" cfs.list fsd.list ("146", "3", "48.7");
  row "list 100 files (warm)" cfs.list_warm fsd.list_warm ("-", "-", "-");
  row "read 100 small files" cfs.reads fsd.reads ("262", "101", "2.69");
  row "MakeDo" cfs_makedo fsd_makedo ("1975", "1299", "1.52")

let table4 () =
  Setup.hr "Table 4. FSD vs 4.3 BSD, disk I/Os (paper values in brackets)";
  let _, fsd_fs = Setup.fsd_volume () in
  let fsd = bulk_on (Fsd.ops fsd_fs) ~drop_caches:(fun () -> Fsd.drop_caches fsd_fs) in
  let _, ufs_fs = Setup.ufs_volume Uparams.default in
  let ufs = bulk_on (Ufs.ops ufs_fs) ~drop_caches:(fun () -> Ufs.drop_clean_cache ufs_fs) in
  let row name f u (pff, pu, pr) =
    pf "%-26s %7d %7d  ratio %5.2f   [%s %s, %s]\n" name f u
      (float_of_int u /. float_of_int (max 1 f))
      pff pu pr
  in
  pf "%-26s %7s %7s\n" "" "FSD" "4.3BSD";
  row "100 small creates" fsd.creates ufs.creates ("149", "308", "2.07");
  row "list 100 files (cold)" fsd.list ufs.list ("3", "9", "3");
  row "list 100 files (warm)" fsd.list_warm ufs.list_warm ("-", "-", "-");
  row "read 100 small files" fsd.reads ufs.reads ("101", "106", "1.05");
  pf "(cold FSD misses read both name-table copies; the paper counted warm caches)\n"

(* ------------------------------------------------------------------ *)
(* Table 5: % CPU and % disk bandwidth on sequential transfers         *)

let table5 () =
  Setup.hr "Table 5. FSD vs 4.2 BSD: %CPU / %bandwidth (paper in brackets)";
  let geom = Setup.geom in
  let size = 2 * 1024 * 1024 in
  let data = payload 0 size in
  (* FSD: extent-based transfers; CPU charges are on the clock. *)
  let _, fsd_fs = Setup.fsd_volume () in
  let fops = Fsd.ops fsd_fs in
  let (), wr =
    Measure.run fops (fun () ->
        ignore (fops.Fs_ops.create ~name:"seq/big" ~data);
        fops.Fs_ops.force ())
  in
  let (), rd = Measure.run fops (fun () -> ignore (fops.Fs_ops.read_all ~name:"seq/big")) in
  let fsd_cpu_us pages = pages * Fparams.default.Fparams.cpu_page_us in
  let pages = (size + 511) / 512 in
  let fsd_row label (s : Measure.sample) =
    let bw = Setup.pct (Measure.bandwidth_fraction geom ~bytes_moved:size ~elapsed_us:s.Measure.elapsed_us) in
    let cpu = Setup.pct (float_of_int (fsd_cpu_us pages) /. float_of_int s.Measure.elapsed_us) in
    (label, cpu, bw)
  in
  (* 4.2 BSD: rotational spacing; data-path CPU overlaps the gaps. *)
  let _, ufs_fs = Setup.ufs_volume Uparams.bsd42 in
  let uops = Ufs.ops ufs_fs in
  let cpu0 = Ufs.cpu_overlapped_us ufs_fs in
  let (), uwr =
    Measure.run uops (fun () ->
        ignore (uops.Fs_ops.create ~name:"seq-big" ~data);
        uops.Fs_ops.force ())
  in
  let cpu_wr = Ufs.cpu_overlapped_us ufs_fs - cpu0 in
  let cpu1 = Ufs.cpu_overlapped_us ufs_fs in
  let (), urd = Measure.run uops (fun () -> ignore (uops.Fs_ops.read_all ~name:"seq-big")) in
  let cpu_rd = Ufs.cpu_overlapped_us ufs_fs - cpu1 in
  let ufs_row label (s : Measure.sample) cpu_us =
    let bw = Setup.pct (Measure.bandwidth_fraction geom ~bytes_moved:size ~elapsed_us:s.Measure.elapsed_us) in
    let cpu = min 98.0 (Setup.pct (float_of_int cpu_us /. float_of_int s.Measure.elapsed_us)) in
    (label, cpu, bw)
  in
  let rows =
    [
      (fsd_row "FSD read" rd, "[27 / 79]");
      (fsd_row "FSD write" wr, "[28 / 80]");
      (ufs_row "4.2BSD read" urd cpu_rd, "[54 / 47]");
      (ufs_row "4.2BSD write" uwr cpu_wr, "[95 / 47]");
    ]
  in
  pf "%-14s %6s %11s\n" "" "%CPU" "%bandwidth";
  List.iter
    (fun ((label, cpu, bw), paper) ->
      pf "%-14s %5.0f%% %10.0f%%   %s\n" label cpu bw paper)
    rows

(* ------------------------------------------------------------------ *)
(* R1: crash recovery across all three systems                         *)

let recovery () =
  Setup.hr "R1. Crash recovery on a moderately full volume (paper: CFS 3600+ s, FSD 1-25 s, fsck ~420 s)";
  let files = 6000 in
  (* FSD *)
  let device, fsd_fs = Setup.fsd_volume () in
  Setup.populate (Fsd.ops fsd_fs) ~files ~seed:3;
  let _, report = Fsd.boot device in
  pf "FSD    recover:  %5.1f s  (log replay %.2f s, VAM rebuild %.1f s, %d records)\n"
    (Simclock.s_of_us report.Fsd.total_us)
    (Simclock.s_of_us report.Fsd.log_replay_us)
    (Simclock.s_of_us report.Fsd.vam_us)
    report.Fsd.replayed_records;
  (* CFS *)
  let device, cfs_fs = Setup.cfs_volume () in
  Setup.populate (Cfs.ops cfs_fs) ~files ~seed:3;
  let _, srep = Cfs.scavenge device in
  pf "CFS    scavenge: %5.1f s  (%d files recovered)\n"
    (Simclock.s_of_us srep.Cfs.duration_us)
    srep.Cfs.files_recovered;
  (* 4.3 BSD *)
  let device, ufs_fs = Setup.ufs_volume Uparams.default in
  Setup.populate (Ufs.ops ufs_fs) ~files ~seed:3;
  Ufs.sync ufs_fs;
  let _, frep = Ufs.fsck device in
  pf "4.3BSD fsck:    %6.1f s  (%d inodes, %d dirs)\n"
    (Simclock.s_of_us frep.Ufs.duration_us)
    frep.Ufs.inodes_checked frep.Ufs.dirs_checked

(* ------------------------------------------------------------------ *)
(* R2: what group commit + logging buy (paper: metadata I/O / 2.98,    *)
(* total I/O / 2.34 on bulk operations)                                *)

let classified_ios device (layout : Flayout.t) f =
  let meta = ref 0 and data = ref 0 in
  Device.set_observer device
    (Some
       (fun ~rw:_ ~sector ~count:_ ->
         if Flayout.is_data_sector layout sector then incr data else incr meta));
  f ();
  Device.set_observer device None;
  (!meta, !data)

let bulk_update_workload (ops : Fs_ops.t) =
  (* "Bulk updates are often done to the file name table ... normally
     localized to a subdirectory." *)
  for i = 0 to 149 do
    ignore (ops.Fs_ops.create ~name:(Printf.sprintf "sub/dir/b%04d" i) ~data:(payload i 600))
  done;
  for i = 0 to 149 do
    if i mod 3 = 0 then ops.Fs_ops.delete ~name:(Printf.sprintf "sub/dir/b%04d" i)
  done;
  ignore (ops.Fs_ops.list ~prefix:"sub/dir/");
  ops.Fs_ops.force ()

let group_commit ?(intervals = [ 0; 100_000; 500_000; 2_000_000 ]) () =
  Setup.hr "R2. Group commit ablation (paper: metadata I/Os /2.98, all I/Os /2.34)";
  let run interval_us =
    let clock = Simclock.create () in
    let device = Device.create ~clock Setup.geom in
    let params = { Fparams.default with Fparams.commit_interval_us = interval_us } in
    Fsd.format device params;
    let fs, _ = Fsd.boot ~params device in
    let layout = Fsd.layout fs in
    let meta, data = classified_ios device layout (fun () -> bulk_update_workload (Fsd.ops fs)) in
    (meta, data, Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) "fsd.forces"))
  in
  let results = List.map (fun i -> (i, run i)) intervals in
  let base_meta, base_total =
    match results with
    | (_, (m, d, _)) :: _ -> (float_of_int m, float_of_int (m + d))
    | [] -> (1.0, 1.0)
  in
  pf "%-18s %9s %9s %7s %15s %12s\n" "commit interval" "meta I/O" "data I/O" "forces"
    "meta reduction" "total red.";
  List.iter
    (fun (i, (m, d, forces)) ->
      pf "%15d ms %9d %9d %7d %14.2fx %11.2fx\n" (i / 1000) m d forces
        (base_meta /. float_of_int (max 1 m))
        (base_total /. float_of_int (max 1 (m + d))))
    results;
  pf "(0 ms = a synchronous log force after every operation)\n"

(* ------------------------------------------------------------------ *)
(* R3: log record sizes (paper: 7 sectors min, 33 typical, 83 max)     *)

let log_records () =
  Setup.hr "R3. Log record sizes in sectors (paper: 7 minimum, 33 typical under load, 83 max)";
  let _, fs = Setup.fsd_volume () in
  let ops = Fsd.ops fs in
  (* light load: lone last-used-time style updates *)
  for i = 0 to 9 do
    ignore (Fsd.import_cached fs ~name:(Printf.sprintf "cache/r%02d" i) ~server:"ivy"
              (payload i 800))
  done;
  Fsd.force fs;
  for i = 0 to 9 do
    Fsd.touch_cached fs ~name:(Printf.sprintf "cache/r%02d" i);
    Fsd.force fs
  done;
  (* heavy load: bursts of creates per commit window *)
  Makedo.prepare ops { Makedo.default with Makedo.modules = 40 };
  ignore (Makedo.build ops { Makedo.default with Makedo.modules = 40 });
  let st = Fsd.log_stats fs in
  let sizes = st.Flog.record_sizes in
  pf "records=%d  min=%.0f  p50=%.0f  mean=%.1f  max=%.0f sectors\n" (Stats.n sizes)
    (Stats.min sizes) (Stats.percentile sizes 0.5) (Stats.mean sizes) (Stats.max sizes);
  pf "(minimum possible record: 1 logged sector -> 7 on disk)\n"

(* ------------------------------------------------------------------ *)
(* R4: VAM reconstruction time (paper: ~20 s on a 300 MB volume)       *)

let vam_rebuild () =
  Setup.hr "R4. VAM handling (paper: rebuild ~20 s; saved map loads instantly)";
  let device, fs = Setup.fsd_volume () in
  Setup.populate (Fsd.ops fs) ~files:5000 ~seed:5;
  (* crash: reconstruct *)
  let fs2, r1 = Fsd.boot device in
  pf "after crash:          VAM %s in %.1f s\n"
    (match r1.Fsd.vam_source with
    | Fsd.Vam_reconstructed -> "reconstructed from the name table"
    | Fsd.Vam_replayed -> "replayed from the log"
    | Fsd.Vam_loaded -> "loaded")
    (Simclock.s_of_us r1.Fsd.vam_us);
  Fsd.shutdown fs2;
  let _, r2 = Fsd.boot device in
  pf "after clean shutdown: VAM %s in %.2f s\n"
    (match r2.Fsd.vam_source with
    | Fsd.Vam_loaded -> "loaded from its save area"
    | Fsd.Vam_replayed -> "replayed from the log"
    | Fsd.Vam_reconstructed -> "reconstructed")
    (Simclock.s_of_us r2.Fsd.vam_us)

(* ------------------------------------------------------------------ *)
(* R5: the analytic model vs the simulator (paper: within ~5%)         *)

let model_validation () =
  Setup.hr "R5. Analytic model vs simulator (paper: within ~5% for simple operations)";
  let open Cedar_model in
  let g = Setup.geom in
  let spc = Geometry.sectors_per_cylinder g in
  (* The protocol: between operations the arm rests at the central
     cylinders (the metadata region, where it naturally lives); each
     measured operation then starts with the seek the scripts encode. *)
  let measure ops ~park ~prep n f =
    let total = ref 0 in
    for i = 0 to n - 1 do
      prep i;
      ignore (Device.read ops.Fs_ops.device park);
      let t0 = Simclock.now ops.Fs_ops.clock in
      f i;
      total := !total + (Simclock.now ops.Fs_ops.clock - t0)
    done;
    float_of_int !total /. 1000.0 /. float_of_int n
  in
  (* --- CFS --- *)
  let _, cfs = Setup.cfs_volume () in
  let clayout = Cfs.layout cfs in
  let cpark = clayout.Cedar_cfs.Cfs_layout.fnt_start + 1 in
  let cfs_cfg =
    {
      Ops.default with
      Ops.file_center_cyls =
        (clayout.Cedar_cfs.Cfs_layout.fnt_start
        - (clayout.Cedar_cfs.Cfs_layout.data_lo + 200))
        / spc;
    }
  in
  let cops = Cfs.ops cfs in
  let nop _ = () in
  let cfs_create =
    measure cops ~park:cpark ~prep:nop 10 (fun i ->
        ignore (cops.Fs_ops.create ~name:(Printf.sprintf "m/c%02d" i) ~data:(payload i 400)))
  in
  Cfs.drop_open_cache cfs;
  let cfs_open =
    measure cops ~park:cpark ~prep:nop 10 (fun i ->
        ignore (cops.Fs_ops.open_stat ~name:(Printf.sprintf "m/c%02d" i)))
  in
  let cfs_read =
    measure cops ~park:cpark ~prep:nop 10 (fun i ->
        ignore (cops.Fs_ops.read_page ~name:(Printf.sprintf "m/c%02d" i) ~page:0))
  in
  let cfs_delete =
    measure cops ~park:cpark ~prep:nop 10 (fun i ->
        cops.Fs_ops.delete ~name:(Printf.sprintf "m/c%02d" i))
  in
  let cfs_large =
    measure cops ~park:cpark ~prep:nop 2 (fun i ->
        ignore
          (cops.Fs_ops.create ~name:(Printf.sprintf "m/L%02d" i) ~data:(payload i 512_000)))
  in
  (* --- FSD --- *)
  let _, fsd = Setup.fsd_volume () in
  let flayout = Fsd.layout fsd in
  let fpark = flayout.Flayout.log_start + 1 in
  let fsd_cfg =
    {
      Ops.default with
      Ops.file_center_cyls =
        (flayout.Flayout.log_start - (flayout.Flayout.small_lo + 200)) / spc;
    }
  in
  let fops = Fsd.ops fsd in
  (* keep the commit demon out of the measured region *)
  let quiesce _ = Fsd.force fsd in
  let fsd_create =
    measure fops ~park:fpark ~prep:quiesce 10 (fun i ->
        ignore (fops.Fs_ops.create ~name:(Printf.sprintf "m/f%02d" i) ~data:(payload i 400)))
  in
  Fsd.force fsd;
  let fsd_open =
    measure fops ~park:fpark ~prep:quiesce 10 (fun i ->
        ignore (fops.Fs_ops.open_stat ~name:(Printf.sprintf "m/f%02d" i)))
  in
  (* open+read on never-read files: reboot clears the verified set *)
  Fsd.shutdown fsd;
  let fsd = fst (Fsd.boot (fops.Fs_ops.device)) in
  let fops = Fsd.ops fsd in
  let quiesce _ = Fsd.force fsd in
  (* warm the name-table cache (the scripts model leaf hits) while the
     leaders stay unverified (fresh boot) *)
  ignore (fops.Fs_ops.list ~prefix:"m/");
  let fsd_open_read =
    measure fops ~park:fpark ~prep:quiesce 10 (fun i ->
        ignore (fops.Fs_ops.read_page ~name:(Printf.sprintf "m/f%02d" i) ~page:0))
  in
  let fsd_read =
    measure fops ~park:fpark ~prep:quiesce 10 (fun i ->
        ignore (fops.Fs_ops.read_page ~name:(Printf.sprintf "m/f%02d" i) ~page:0))
  in
  let fsd_delete =
    measure fops ~park:fpark ~prep:quiesce 10 (fun i ->
        fops.Fs_ops.delete ~name:(Printf.sprintf "m/f%02d" i))
  in
  let fsd_large =
    measure fops ~park:fpark ~prep:quiesce 2 (fun i ->
        ignore
          (fops.Fs_ops.create ~name:(Printf.sprintf "m/L%02d" i) ~data:(payload i 512_000)))
  in
  (* a lone force carrying exactly one dirtied leaf page: touch the
     last-used time of a cached file (no uid allocation, no data I/O) *)
  for i = 0 to 4 do
    ignore (Fsd.import_cached fsd ~name:(Printf.sprintf "m/t%02d" i) ~server:"ivy"
              (payload i 400))
  done;
  Fsd.force fsd;
  let force_ms =
    let total = ref 0 in
    for i = 0 to 4 do
      (* put the arm in the file area, dirty one leaf, measure the force *)
      ignore (fops.Fs_ops.read_page ~name:(Printf.sprintf "m/t%02d" i) ~page:0);
      Fsd.touch_cached fsd ~name:(Printf.sprintf "m/t%02d" i);
      let t0 = Simclock.now fops.Fs_ops.clock in
      Fsd.force fsd;
      total := !total + (Simclock.now fops.Fs_ops.clock - t0)
    done;
    float_of_int !total /. 1000.0 /. 5.0
  in
  let rows =
    [
      Validate.row ~name:"cfs_small_create"
        ~predicted_ms:(Script.time_ms g (Ops.cfs_small_create cfs_cfg))
        ~measured_ms:cfs_create;
      Validate.row ~name:"cfs_open"
        ~predicted_ms:(Script.time_ms g (Ops.cfs_open cfs_cfg))
        ~measured_ms:cfs_open;
      Validate.row ~name:"cfs_read_page"
        ~predicted_ms:(Script.time_ms g (Ops.cfs_read_page cfs_cfg))
        ~measured_ms:cfs_read;
      Validate.row ~name:"cfs_small_delete"
        ~predicted_ms:(Script.time_ms g (Ops.cfs_small_delete cfs_cfg))
        ~measured_ms:cfs_delete;
      Validate.row ~name:"cfs_large_create(1000)"
        ~predicted_ms:(Script.time_ms g (Ops.cfs_large_create cfs_cfg ~pages:1000))
        ~measured_ms:cfs_large;
      Validate.row ~name:"fsd_small_create"
        ~predicted_ms:(Script.time_ms g (Ops.fsd_small_create fsd_cfg))
        ~measured_ms:fsd_create;
      Validate.row ~name:"fsd_open"
        ~predicted_ms:(Script.time_ms g (Ops.fsd_open fsd_cfg))
        ~measured_ms:fsd_open;
      Validate.row ~name:"fsd_open_read"
        ~predicted_ms:(Script.time_ms g (Ops.fsd_open_read fsd_cfg))
        ~measured_ms:fsd_open_read;
      Validate.row ~name:"fsd_read_page"
        ~predicted_ms:(Script.time_ms g (Ops.fsd_read_page fsd_cfg))
        ~measured_ms:fsd_read;
      Validate.row ~name:"fsd_small_delete"
        ~predicted_ms:(Script.time_ms g (Ops.fsd_small_delete fsd_cfg))
        ~measured_ms:fsd_delete;
      Validate.row ~name:"fsd_large_create(1000)"
        ~predicted_ms:(Script.time_ms g (Ops.fsd_large_create fsd_cfg ~pages:1000))
        ~measured_ms:fsd_large;
      Validate.row ~name:"fsd_log_force"
        ~predicted_ms:(Script.time_ms g (Ops.fsd_log_force fsd_cfg))
        ~measured_ms:force_ms;
    ]
  in
  Format.printf "%a" Validate.pp_table rows;
  Format.printf "max |error| = %.1f%%@." (Validate.max_abs_error_pct rows);
  Format.print_flush ()

(* ------------------------------------------------------------------ *)
(* R6: log utilization under the thirds algorithm (paper: ~5/6)        *)

let log_utilization () =
  Setup.hr "R6. Log utilization under the thirds algorithm (paper: averages 5/6 in use)";
  let device, fs = Setup.fsd_volume () in
  let layout = Fsd.layout fs in
  let body = 3 * ((layout.Flayout.log_sectors - 3) / 3) in
  let samples = Stats.create () in
  let ops = Fsd.ops fs in
  for round = 0 to 120 do
    for i = 0 to 9 do
      ignore
        (ops.Fs_ops.create
           ~name:(Printf.sprintf "u/r%03d-%d" round i)
           ~data:(payload i 700))
    done;
    ops.Fs_ops.force ();
    let r = Flog.recover device layout in
    let oldest = match r.Flog.surviving with (o, _) :: _ -> o | [] -> r.Flog.next_write_off in
    let live = r.Flog.next_write_off - oldest in
    let live = if live <= 0 then live + body else live in
    if round > 20 then Stats.add samples (float_of_int live /. float_of_int body)
  done;
  pf "mean live fraction = %.2f (5/6 = 0.83); min %.2f max %.2f over %d samples\n"
    (Stats.mean samples) (Stats.min samples) (Stats.max samples) (Stats.n samples);
  pf "(name-table home writes so far: %d pages — normally near zero per commit)\n"
    (Fsd.fnt_home_writes fs)

(* ------------------------------------------------------------------ *)
(* R7: the VAM-logging extension (the alternative the paper priced but  *)
(* did not build: "would greatly decrease worst case crash recovery     *)
(* time from about twenty five seconds to about two seconds")           *)

let vam_logging () =
  Setup.hr
    "R7. VAM-logging extension (paper's prediction: worst-case recovery 25 s -> ~2 s)";
  let run log_vam =
    let clock = Simclock.create () in
    let device = Device.create ~clock Setup.geom in
    let p = { Fparams.default with Fparams.log_vam } in
    Fsd.format device p;
    let fs, _ = Fsd.boot ~params:p device in
    Setup.populate (Fsd.ops fs) ~files:6000 ~seed:21;
    let st = Fsd.log_stats fs in
    let _, report = Fsd.boot ~params:p device in
    (report, st.Flog.total_sectors)
  in
  let off, off_sectors = run false in
  let on, on_sectors = run true in
  pf "%-14s %10s %12s %12s %10s\n" "" "recovery" "log replay" "VAM" "source";
  let row label (r : Fsd.boot_report) =
    pf "%-14s %8.1f s %10.2f s %10.2f s %10s\n" label
      (Simclock.s_of_us r.Fsd.total_us)
      (Simclock.s_of_us r.Fsd.log_replay_us)
      (Simclock.s_of_us r.Fsd.vam_us)
      (match r.Fsd.vam_source with
      | Fsd.Vam_replayed -> "replayed"
      | Fsd.Vam_reconstructed -> "rebuilt"
      | Fsd.Vam_loaded -> "loaded")
  in
  row "paper (off)" off;
  row "extension on" on;
  pf "log traffic for the same workload: %d sectors without, %d with (+%.0f%%)\n"
    off_sectors on_sectors
    (100.0 *. float_of_int (on_sectors - off_sectors) /. float_of_int (max 1 off_sectors))

(* ------------------------------------------------------------------ *)
(* R8: log-size ablation — smaller logs re-enter thirds sooner and      *)
(* write hot name-table pages home more often                           *)

let log_size () =
  Setup.hr "R8. Log-size ablation (smaller log -> more home writes of hot pages)";
  let run log_sectors =
    let clock = Simclock.create () in
    let device = Device.create ~clock Setup.geom in
    (* a smaller record cap keeps the smallest logs structurally valid *)
    let p =
      { Fparams.default with Fparams.log_sectors; max_record_data_sectors = 40 }
    in
    Fsd.format device p;
    let fs, _ = Fsd.boot ~params:p device in
    let ops = Fsd.ops fs in
    for i = 0 to 599 do
      ignore (ops.Fs_ops.create ~name:(Printf.sprintf "hot/f%04d" i) ~data:(payload i 700));
      Fsd.tick fs ~us:80_000
    done;
    ops.Fs_ops.force ();
    (Fsd.fnt_home_writes fs, (Fsd.log_stats fs).Flog.third_entries)
  in
  pf "%-12s %14s %14s\n" "log size" "home writes" "third entries";
  List.iter
    (fun sectors ->
      let home, entries = run sectors in
      pf "%9d s %14d %14d\n" sectors home entries)
    [ 303; 603; 1203; 2403 ]

(* ------------------------------------------------------------------ *)
(* R9: allocator ablation — §5.6's big/small split vs one first-fit pool *)

let fragmentation () =
  Setup.hr "R9. Allocator ablation: big/small areas vs a single pool (fragmentation)";
  (* The paper's regime (5.6): most small files are immutable cached
     copies that stick around, while big files come and go. Without the
     split, each hole a dead big file leaves behind gets a small file
     dropped at its start, chopping the free space up. *)
  let churn use_split =
    let layout = Flayout.compute Setup.geom Fparams.default in
    let vam = Cedar_fsd.Vam.create_all_free layout in
    let alloc = Cedar_fsd.Alloc.create vam in
    (* the old allocator: one pool, first fit from the bottom — freshly
       freed holes near the start get plugged by whatever comes next *)
    let first_fit_alloc sectors =
      let gather_from lo hi remaining chunk =
        let rec go acc remaining chunk =
          if remaining = 0 then Some (List.rev acc)
          else if List.length acc > 24 then None
          else
            let want = min remaining chunk in
            match Cedar_fsd.Vam.find_free_run vam ~from:lo ~upto:hi ~len:want with
            | Some pos ->
              Cedar_fsd.Vam.allocate_run vam ~pos ~len:want;
              go ({ Run_table.start = pos; len = want } :: acc) (remaining - want) chunk
            | None -> if chunk = 1 then None else go acc remaining (max 1 (chunk / 2))
        in
        go [] remaining chunk
      in
      match gather_from layout.Flayout.small_lo layout.Flayout.small_hi sectors sectors with
      | Some runs when List.fold_left (fun a r -> a + r.Run_table.len) 0 runs = sectors ->
        Some runs
      | Some partial ->
        (* continue in the upper region *)
        let got = List.fold_left (fun a r -> a + r.Run_table.len) 0 partial in
        (match gather_from layout.Flayout.big_lo layout.Flayout.big_hi (sectors - got) (sectors - got) with
        | Some rest -> Some (partial @ rest)
        | None ->
          Cedar_fsd.Alloc.free_now alloc partial;
          None)
      | None -> (
        match gather_from layout.Flayout.big_lo layout.Flayout.big_hi sectors sectors with
        | Some runs -> Some runs
        | None -> None)
    in
    let rng = Rng.create 31 in
    let big_live = ref [] in
    let big_n = ref 0 in
    let runs_of_large = Stats.create () in
    let rejected = ref 0 in
    let alloc_file ~bytes =
      let sectors = 1 + ((bytes + 511) / 512) in
      if use_split then begin
        let small = bytes <= Fparams.default.Fparams.small_file_bytes in
        match Cedar_fsd.Alloc.allocate alloc ~sectors ~small with
        | Ok runs -> Some runs
        | Error _ ->
          incr rejected;
          None
      end
      else
        match first_fit_alloc sectors with
        | Some runs -> Some runs
        | None ->
          incr rejected;
          None
    in
    let delete_random_big () =
      if !big_n > 0 then begin
        let i = Rng.int rng !big_n in
        let arr = Array.of_list !big_live in
        Cedar_fsd.Alloc.free_now alloc arr.(i);
        arr.(i) <- arr.(!big_n - 1);
        big_live := Array.to_list (Array.sub arr 0 (!big_n - 1));
        decr big_n
      end
    in
    (* fill to ~70% with the usual mix *)
    let total_data = Flayout.data_sectors layout in
    while Cedar_fsd.Vam.free_count vam > total_data * 30 / 100 do
      let bytes = Sizes.sample rng in
      match alloc_file ~bytes with
      | Some runs when bytes > Fparams.default.Fparams.small_file_bytes ->
        big_live := runs :: !big_live;
        incr big_n
      | Some _ | None -> ()
    done;
    (* steady state: a big file dies; a small (permanent) and a big file
       are born *)
    for _ = 1 to 3_000 do
      delete_random_big ();
      ignore (alloc_file ~bytes:(1 + Rng.int rng 3_500));
      let big_bytes = Rng.int_in rng ~lo:12_000 ~hi:80_000 in
      match alloc_file ~bytes:big_bytes with
      | Some runs ->
        Stats.add runs_of_large (float_of_int (List.length runs));
        big_live := runs :: !big_live;
        incr big_n
      | None -> ()
    done;
    let probe =
      (* largest contiguous free extent left on the volume *)
      let layout = Cedar_fsd.Vam.layout vam in
      let best = ref 0 in
      let scan lo hi =
        let len = ref 0 in
        for s = lo to hi - 1 do
          if Cedar_fsd.Vam.is_free vam s then begin
            incr len;
            if !len > !best then best := !len
          end
          else len := 0
        done
      in
      scan layout.Flayout.small_lo layout.Flayout.small_hi;
      scan layout.Flayout.big_lo layout.Flayout.big_hi;
      Printf.sprintf "largest free extent %d sectors" !best
    in
    (Stats.mean runs_of_large, Stats.max runs_of_large, !rejected, probe)
  in
  let s_mean, s_max, s_rej, s_probe = churn true in
  let p_mean, p_max, p_rej, p_probe = churn false in
  pf "%-26s %13s %12s %9s   %s\n" "" "big: mean" "max extents" "rejected" "";
  pf "%-26s %13.2f %12.0f %9d   %s\n" "big/small split (paper)" s_mean s_max s_rej s_probe;
  pf "%-26s %13.2f %12.0f %9d   %s\n" "single first-fit pool" p_mean p_max p_rej p_probe

let all () =
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  recovery ();
  group_commit ();
  log_records ();
  vam_rebuild ();
  model_validation ();
  log_utilization ();
  vam_logging ();
  log_size ();
  fragmentation ()
