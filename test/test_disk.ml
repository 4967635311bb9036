open Cedar_util
open Cedar_disk

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk ?(geom = Geometry.small_test) () =
  let clock = Simclock.create () in
  (clock, Device.create ~clock geom)

let sector_of_string geom s =
  let b = Bytes.make geom.Geometry.sector_bytes '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)

let test_geometry_chs_roundtrip () =
  let g = Geometry.small_test in
  for s = 0 to Geometry.total_sectors g - 1 do
    let chs = Geometry.to_chs g s in
    check int "roundtrip" s (Geometry.of_chs g chs)
  done

let test_geometry_seek_curve () =
  let g = Geometry.trident_t300 in
  check int "zero distance" 0 (Geometry.seek_us g 0);
  check int "single cylinder" g.Geometry.min_seek_us (Geometry.seek_us g 1);
  let full = Geometry.seek_us g (g.Geometry.cylinders - 1) in
  check bool "full stroke ~max" true (abs (full - g.Geometry.max_seek_us) < 100);
  check bool "monotone" true
    (Geometry.seek_us g 10 < Geometry.seek_us g 100
    && Geometry.seek_us g 100 < Geometry.seek_us g 700)

let test_geometry_timing_constants () =
  let g = Geometry.trident_t300 in
  check int "rotation 16.6ms" 16_666 (Geometry.rotation_us g);
  check bool "capacity ~300MB" true
    (abs (Geometry.capacity_bytes g - 300_000_000) < 10_000_000)

(* ------------------------------------------------------------------ *)
(* Device data path                                                    *)

let test_device_read_write () =
  let _, d = mk () in
  let g = Device.geometry d in
  let payload = sector_of_string g "hello sector" in
  Device.write d 17 payload;
  check Alcotest.string "read back" (Bytes.to_string payload)
    (Bytes.to_string (Device.read d 17));
  (* Unwritten sectors read as zeroes. *)
  check int "zero fill" 0 (Char.code (Bytes.get (Device.read d 18) 0))

let test_device_run_io () =
  let _, d = mk () in
  let g = Device.geometry d in
  let sb = g.Geometry.sector_bytes in
  let data = Bytes.create (3 * sb) in
  for i = 0 to (3 * sb) - 1 do
    Bytes.set data i (Char.chr (i mod 256))
  done;
  Device.write_run d ~sector:10 data;
  let back = Device.read_run d ~sector:10 ~count:3 in
  check bool "run roundtrip" true (Bytes.equal data back);
  (* A run is one I/O. *)
  let st = Device.stats d in
  check int "two ios total" 2 st.Iostats.ios;
  check int "three sectors each way" 3 st.Iostats.sectors_read

let test_device_timing_advances_clock () =
  let clock, d = mk () in
  let g = Device.geometry d in
  ignore (Device.read d 0);
  let t1 = Simclock.now clock in
  check bool "time moved" true (t1 > 0);
  (* Re-reading the same sector costs about a full revolution. *)
  ignore (Device.read d 0);
  let dt = Simclock.now clock - t1 in
  let rot = Geometry.rotation_us g in
  check bool "lost revolution" true (abs (dt - rot) <= Geometry.sector_time_us g)

let test_device_sequential_cheaper_than_random () =
  let clock, d = mk () in
  let t0 = Simclock.now clock in
  ignore (Device.read_run d ~sector:0 ~count:16);
  let seq = Simclock.now clock - t0 in
  let t0 = Simclock.now clock in
  for i = 0 to 15 do
    ignore (Device.read d (i * 577 mod Geometry.total_sectors (Device.geometry d)))
  done;
  let rand = Simclock.now clock - t0 in
  check bool "sequential much cheaper" true (seq * 4 < rand)

let test_device_damage () =
  let _, d = mk () in
  let g = Device.geometry d in
  Device.damage d 5;
  check bool "is damaged" true (Device.is_damaged d 5);
  (match Device.read d 5 with
  | _ -> Alcotest.fail "expected Error"
  | exception Device.Error { sector = 5; kind = Device.Damaged } -> ());
  (* Rewriting repairs the medium. *)
  Device.write d 5 (sector_of_string g "fixed");
  check bool "healed" false (Device.is_damaged d 5);
  check Alcotest.string "content" "fixed"
    (String.sub (Bytes.to_string (Device.read d 5)) 0 5)

let test_device_write_crash () =
  let _, d = mk () in
  let g = Device.geometry d in
  let sb = g.Geometry.sector_bytes in
  Device.plan_write_crash d ~after_sectors:2 ~damage_tail:1;
  let data = Bytes.make (5 * sb) 'x' in
  (match Device.write_run d ~sector:20 data with
  | () -> Alcotest.fail "expected crash"
  | exception Device.Crash_during_write { sector } -> check int "crash point" 22 sector);
  (* First two sectors written, the third damaged, the rest untouched. *)
  check bool "sector 20 written" true (Device.written_ever d 20);
  check bool "sector 21 written" true (Device.written_ever d 21);
  check bool "sector 22 damaged" true (Device.is_damaged d 22);
  check bool "sector 23 untouched" false (Device.written_ever d 23);
  check bool "sector 24 untouched" false (Device.written_ever d 24)

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)

let test_labels () =
  let _, d = mk () in
  let g = Device.geometry d in
  let l = { Label.uid = 99L; page = 3; kind = Label.Data } in
  Device.write_labels d ~sector:7 [ l ];
  check bool "label read" true (Label.equal l (Device.read_label d 7));
  check bool "default free" true (Label.equal Label.free (Device.read_label d 8));
  (* Verified ops succeed with the right label... *)
  Device.verified_write d 7 ~expect:l (sector_of_string g "data!");
  let b = Device.verified_read d 7 ~expect:l in
  check Alcotest.string "verified read" "data!" (String.sub (Bytes.to_string b) 0 5);
  (* ...and fail on a mismatch (the wild-write detector). *)
  let wrong = { l with Label.page = 4 } in
  match Device.verified_read d 7 ~expect:wrong with
  | _ -> Alcotest.fail "expected label mismatch"
  | exception Device.Error { kind = Device.Label_mismatch _; sector = 7 } -> ()

let test_label_codec_roundtrip () =
  let l = { Label.uid = 0x0123456789abcdefL; page = 77; kind = Label.Fnt } in
  check bool "roundtrip" true (Label.equal l (Label.decode (Label.encode l)))

let test_scan_labels () =
  let _, d = mk () in
  Device.write_labels d ~sector:3 [ { Label.uid = 1L; page = 0; kind = Label.Header } ];
  Device.damage d 5;
  let seen = ref [] in
  Device.scan_labels d ~from:0 ~count:10 (fun s l -> seen := (s, l) :: !seen);
  let seen = List.rev !seen in
  check int "all sectors visited" 10 (List.length seen);
  (match List.assoc 3 seen with
  | Some l -> check bool "labelled" true (l.Label.uid = 1L)
  | None -> Alcotest.fail "sector 3 readable");
  (match List.assoc 5 seen with
  | None -> ()
  | Some _ -> Alcotest.fail "damaged sector must scan as None");
  (* Scanning is batched by track, not per-sector I/Os. *)
  check bool "few ios" true ((Device.stats d).Iostats.ios <= 3)

let test_dump_load_roundtrip () =
  let _, d = mk () in
  let g = Device.geometry d in
  Device.write d 4 (sector_of_string g "persisted");
  Device.write_labels d ~sector:4 [ { Label.uid = 5L; page = 1; kind = Label.Data } ];
  Device.damage d 9;
  let file = Filename.temp_file "cedar" ".img" in
  let oc = open_out_bin file in
  Device.dump d oc;
  close_out oc;
  let ic = open_in_bin file in
  let d' = Device.load ~clock:(Simclock.create ()) ic in
  close_in ic;
  Sys.remove file;
  check Alcotest.string "data survived" "persisted"
    (String.sub (Bytes.to_string (Device.read d' 4)) 0 9);
  check bool "label survived" true
    (Label.equal (Device.read_label d' 4) { Label.uid = 5L; page = 1; kind = Label.Data });
  check bool "damage survived" true (Device.is_damaged d' 9)

let test_observer () =
  let _, d = mk () in
  let g = Device.geometry d in
  let events = ref [] in
  Device.set_observer d (Some (fun ~rw ~sector ~count -> events := (rw, sector, count) :: !events));
  Device.write d 3 (sector_of_string g "x");
  ignore (Device.read d 3);
  Device.set_observer d None;
  ignore (Device.read d 3);
  check int "two observed events" 2 (List.length !events)

let test_timing_invariants () =
  let clock, d = mk () in
  let g = Device.geometry d in
  let rng = Rng.create 17 in
  for _ = 1 to 200 do
    let s = Rng.int rng (Geometry.total_sectors g) in
    if Rng.bool rng then ignore (Device.read d s)
    else Device.write d s (Bytes.make g.Geometry.sector_bytes 'x')
  done;
  let st = Device.stats d in
  check bool "busy time <= elapsed" true (st.Iostats.busy_us <= Simclock.now clock);
  check bool "busy = seek+rot+xfer" true
    (st.Iostats.busy_us = st.Iostats.seek_us + st.Iostats.rotation_us + st.Iostats.transfer_us);
  check int "ios = reads + writes" st.Iostats.ios (st.Iostats.reads + st.Iostats.writes)

let test_same_cylinder_no_seek () =
  let _, d = mk () in
  let g = Device.geometry d in
  ignore (Device.read d 0);
  let seeks0 = (Device.stats d).Iostats.seeks in
  (* stay within cylinder 0 *)
  for s = 1 to Geometry.sectors_per_cylinder g - 1 do
    ignore (Device.read d s)
  done;
  check int "no arm movement within a cylinder" seeks0 (Device.stats d).Iostats.seeks

(* ------------------------------------------------------------------ *)
(* Request queue: scheduling policies                                  *)

(* Hand-computed elevator service order. Head starts at cylinder 0,
   sweeping up; requests arrive for cylinders 10, 2, 5 (in that order).
   The elevator sweeps 0 -> 2 -> 5 -> 10 while FIFO pays 10 -> 2 -> 5,
   so the totals are exact, known seek sums. *)
let test_elevator_hand_computed () =
  let g = Geometry.small_test in
  let per_cyl = Geometry.sectors_per_cylinder g in
  let run policy =
    let _, d = mk () in
    Device.set_queue d ~policy ~depth:4;
    List.iter (fun c -> ignore (Device.read d (c * per_cyl))) [ 10; 2; 5 ];
    ignore (Device.busy_until d : int);
    (Device.stats d).Iostats.seek_us
  in
  let sk = Geometry.seek_us g in
  check int "elevator: 0->2->5->10" (sk 2 + sk 3 + sk 5) (run Device.Elevator);
  check int "sstf picks the same sweep here" (sk 2 + sk 3 + sk 5)
    (run Device.Sstf);
  check int "fifo: 0->10->2->5" (sk 10 + sk 8 + sk 3) (run Device.Fifo);
  check bool "elevator strictly beats fifo" true
    (sk 2 + sk 3 + sk 5 < sk 10 + sk 8 + sk 3)

(* SSTF aging: a request at the far edge of the disk must not starve
   behind a stream of near-cylinder requests. With the aging bound it is
   serviced within [sstf_age_limit] passes, i.e. well before the tail of
   the stream; without it, nearest-first would service it dead last. *)
let test_sstf_starvation_bound () =
  let g = Geometry.small_test in
  let per_cyl = Geometry.sectors_per_cylinder g in
  let _, d = mk () in
  Device.set_queue d ~policy:Device.Sstf ~depth:4;
  (* Request 1: the far edge. Then 40 requests hugging cylinder 0. *)
  ignore (Device.read d ((g.Geometry.cylinders - 1) * per_cyl));
  for i = 1 to 40 do
    ignore (Device.read d (i mod per_cyl))
  done;
  ignore (Device.busy_until d : int);
  (* Service completion times are monotone in service order, so "done
     before request 20" means the far request was picked within ~12
     services (queue depth 4 + aging bound 8) of arriving. *)
  check bool "far request services within the aging bound" true
    (Device.request_done_at d 1 < Device.request_done_at d 20);
  check bool "far request is not serviced last" true
    (Device.request_done_at d 1 < Device.request_done_at d 41)

(* The timing pins for the one request path, as a table over ways of
   driving the same 200 seeded commands. A FIFO queue of depth 1 is
   byte-identical to no queue at all — same clock, same stats, same
   completion horizon. A deferred device times every command exactly
   as the synchronous one does but leaves the shared clock alone: its
   horizon ends where the synchronous clock did. And a device switched
   back to synchronous after deferred work starts its next command at
   the clock, not at the stale horizon (the path a power cut takes
   before a synchronous reboot). *)
let test_fifo_depth1_identical_to_sync () =
  let commands d =
    let g = Device.geometry d in
    let rng = Rng.create 99 in
    for _ = 1 to 200 do
      let s = Rng.int rng (Geometry.total_sectors g) in
      if Rng.bool rng then ignore (Device.read d s)
      else Device.write d s (Bytes.make g.Geometry.sector_bytes 'q')
    done
  in
  let run setup =
    let clock, d = mk () in
    setup d;
    commands d;
    (clock, d, Simclock.now clock, Device.busy_until d, Iostats.copy (Device.stats d))
  in
  let _, _, now_s, busy_s, st_s = run (fun _ -> ()) in
  check int "synchronous: busy_until is the clock" now_s busy_s;
  let same_stats st =
    let d = Iostats.diff ~after:st ~before:st_s in
    d.Iostats.ios = 0 && d.Iostats.busy_us = 0 && d.Iostats.seek_us = 0
    && d.Iostats.rotation_us = 0 && d.Iostats.transfer_us = 0
    && d.Iostats.seeks = 0
  in
  List.iter
    (fun (label, setup, want_now) ->
      let _, _, now, busy, st = run setup in
      check int (label ^ ": clock") want_now now;
      check int (label ^ ": busy_until") busy_s busy;
      check bool (label ^ ": iostats identical") true (same_stats st))
    [
      ("fifo depth 1", (fun d -> Device.set_queue d ~policy:Device.Fifo ~depth:1), now_s);
      ("deferred", (fun d -> Device.set_deferred d true), 0);
    ];
  (* Deferred work leaves the horizon at [busy_s], far ahead of the
     untouched clock; back in synchronous mode the next command starts
     at the clock, so it ends one command's duration later. *)
  let clock, d, _, _, st = run (fun d -> Device.set_deferred d true) in
  Device.set_deferred d false;
  ignore (Device.read d 0);
  let took = (Device.stats d).Iostats.busy_us - st.Iostats.busy_us in
  check int "resync: the command started at the clock" took (Simclock.now clock);
  check bool "resync: the stale horizon was not waited for" true
    (Simclock.now clock < busy_s);
  check int "resync: busy_until is the clock" (Simclock.now clock)
    (Device.busy_until d)

(* A full queue blocks the host: the depth cap forces a service to free
   a slot, so occupancy never exceeds the configured depth. *)
let test_queue_depth_cap () =
  let g = Geometry.small_test in
  let per_cyl = Geometry.sectors_per_cylinder g in
  let _, d = mk () in
  Device.set_queue d ~policy:Device.Elevator ~depth:3;
  for i = 0 to 9 do
    ignore (Device.read d (i * 7 mod (per_cyl * 4)));
    check bool "occupancy bounded by depth" true (Device.queue_length d <= 3)
  done;
  ignore (Device.busy_until d : int);
  check int "drained" 0 (Device.queue_length d);
  check int "every command charged" 10 (Device.stats d).Iostats.reads

let suite =
  [
    ("geometry chs roundtrip", `Quick, test_geometry_chs_roundtrip);
    ("geometry seek curve", `Quick, test_geometry_seek_curve);
    ("geometry timing constants", `Quick, test_geometry_timing_constants);
    ("device read/write", `Quick, test_device_read_write);
    ("device run io", `Quick, test_device_run_io);
    ("device timing advances clock", `Quick, test_device_timing_advances_clock);
    ("device sequential vs random", `Quick, test_device_sequential_cheaper_than_random);
    ("device damage", `Quick, test_device_damage);
    ("device write crash", `Quick, test_device_write_crash);
    ("labels verify", `Quick, test_labels);
    ("label codec", `Quick, test_label_codec_roundtrip);
    ("scan labels", `Quick, test_scan_labels);
    ("dump/load", `Quick, test_dump_load_roundtrip);
    ("observer", `Quick, test_observer);
    ("timing invariants", `Quick, test_timing_invariants);
    ("same cylinder needs no seek", `Quick, test_same_cylinder_no_seek);
    ("elevator hand-computed seeks", `Quick, test_elevator_hand_computed);
    ("sstf starvation bound", `Quick, test_sstf_starvation_bound);
    ("fifo depth-1 = synchronous", `Quick, test_fifo_depth1_identical_to_sync);
    ("queue depth cap", `Quick, test_queue_depth_cap);
  ]
