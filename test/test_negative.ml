(* Negative-path tests: every module must reject API misuse loudly
   (Invalid_argument) and malformed input predictably (Decode_error /
   option / result) — never by silent corruption. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase

let check = Alcotest.check
let bool = Alcotest.bool

let inv f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Bytebuf                                                              *)

let test_writer_bounds () =
  let w = Bytebuf.Writer.create () in
  inv (fun () -> Bytebuf.Writer.u8 w 256);
  inv (fun () -> Bytebuf.Writer.u8 w (-1));
  inv (fun () -> Bytebuf.Writer.u16 w 65536);
  inv (fun () -> Bytebuf.Writer.u32 w (-5));
  inv (fun () -> Bytebuf.Writer.fixed_string w ~width:3 "toolong");
  inv (fun () -> Bytebuf.Writer.fixed_string w ~width:8 "nul\000here");
  Bytebuf.Writer.raw w (Bytes.make 600 'x');
  inv (fun () -> Bytebuf.Writer.to_sector w ~size:512)

let test_reader_bounds () =
  inv (fun () -> Bytebuf.Reader.of_bytes ~pos:5 (Bytes.create 3));
  let r = Bytebuf.Reader.of_bytes (Bytes.create 2) in
  match Bytebuf.Reader.u32 r with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Bytebuf.Decode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Bitmap / Lru / Rng / Simclock                                        *)

let test_bitmap_bounds () =
  let b = Bitmap.create 10 in
  inv (fun () -> Bitmap.get b 10);
  inv (fun () -> Bitmap.set b (-1));
  inv (fun () -> Bitmap.find_run_set b ~from:0 ~upto:10 ~len:0);
  inv (fun () -> Bitmap.of_bytes ~bits:100 (Bytes.create 2));
  inv (fun () -> Bitmap.blit_bytes b ~off:1 (Bytes.create 8) ~dst_off:0 ~len:2);
  inv (fun () -> Bitmap.overwrite_bytes b ~off:1 (Bytes.create 2))

let test_lru_misuse () =
  inv (fun () -> Lru.create ~capacity:0);
  let c = Lru.create ~capacity:2 in
  inv (fun () -> Lru.pin c 42);
  inv (fun () -> Lru.unpin c 42)

let test_rng_misuse () =
  let r = Rng.create 1 in
  inv (fun () -> Rng.int r 0);
  inv (fun () -> Rng.int_in r ~lo:5 ~hi:4);
  inv (fun () -> Rng.choose r [||])

let test_simclock_misuse () =
  let c = Simclock.create () in
  inv (fun () -> Simclock.advance c (-1))

(* ------------------------------------------------------------------ *)
(* Run_table / Fname                                                    *)

let test_run_table_misuse () =
  inv (fun () -> Run_table.of_runs [ { Run_table.start = -1; len = 2 } ]);
  inv (fun () -> Run_table.of_runs [ { Run_table.start = 3; len = 0 } ]);
  let t = Run_table.of_runs [ { Run_table.start = 10; len = 2 } ] in
  inv (fun () -> Run_table.sector_of_page t 2);
  inv (fun () -> Run_table.sector_of_page t (-1));
  inv (fun () -> Run_table.truncate t ~pages:3);
  inv (fun () -> Run_table.contiguous_prefix t ~page:2)

let test_fname_misuse () =
  inv (fun () -> Fname.key ~name:"ok" ~version:0);
  inv (fun () -> Fname.key ~name:"ok" ~version:1_000_000);
  inv (fun () -> Fname.key ~name:"bad!bang" ~version:1);
  inv (fun () -> Fname.key ~name:"" ~version:1)

(* ------------------------------------------------------------------ *)
(* Device                                                               *)

let test_device_misuse () =
  let d = Device.create ~clock:(Simclock.create ()) Geometry.tiny_test in
  let total = Geometry.total_sectors Geometry.tiny_test in
  inv (fun () -> Device.read d total);
  inv (fun () -> Device.read d (-1));
  inv (fun () -> Device.write d 0 (Bytes.create 100));
  inv (fun () -> Device.read_run d ~sector:0 ~count:0);
  inv (fun () -> Device.read_run d ~sector:(total - 2) ~count:5);
  inv (fun () -> Device.write_run d ~sector:0 (Bytes.create 700));
  inv (fun () -> Device.write_labels d ~sector:0 []);
  inv (fun () -> Device.plan_write_crash d ~after_sectors:(-1) ~damage_tail:1);
  inv (fun () -> Device.plan_write_crash d ~after_sectors:0 ~damage_tail:5)

(* ------------------------------------------------------------------ *)
(* FSD public API                                                       *)

let fsd () =
  let device = Device.create ~clock:(Simclock.create ()) Geometry.tiny_test in
  Cedar_fsd.Fsd.format device (Cedar_fsd.Params.for_geometry Geometry.tiny_test);
  fst (Cedar_fsd.Fsd.boot device)

let expect_fs_error pred f =
  match f () with
  | _ -> Alcotest.fail "expected Fs_error"
  | exception Fs_error.Fs_error e ->
    if not (pred e) then Alcotest.fail ("wrong error: " ^ Fs_error.to_string e)

let test_fsd_api_misuse () =
  let open Cedar_fsd in
  let fs = fsd () in
  ignore (Fsd.create fs ~name:"x" (Bytes.make 100 'a'));
  inv (fun () -> Fsd.extend fs ~name:"x" ~pages:0);
  inv (fun () -> Fsd.contract fs ~name:"x" ~pages:(-1));
  inv (fun () -> Fsd.set_keep fs ~name:"x" ~keep:(-1));
  inv (fun () -> Fsd.create_empty fs ~name:"y" ~pages:(-1) ());
  expect_fs_error
    (function Fs_error.Bad_page _ -> true | _ -> false)
    (fun () -> Fsd.contract fs ~name:"x" ~pages:99);
  expect_fs_error
    (function Fs_error.Corrupt_metadata _ -> true | _ -> false)
    (fun () -> Fsd.touch_cached fs ~name:"x");
  expect_fs_error
    (function Fs_error.No_such_file _ -> true | _ -> false)
    (fun () -> Fsd.rename fs ~from_:"ghost" ~to_:"elsewhere");
  (* a name too big for the name table *)
  expect_fs_error
    (function Fs_error.Bad_name _ -> true | _ -> false)
    (fun () -> Fsd.create fs ~name:(String.make 200 'n') (Bytes.create 1))

let test_fsd_volume_full () =
  let open Cedar_fsd in
  let fs = fsd () in
  expect_fs_error
    (function Fs_error.Volume_full -> true | _ -> false)
    (fun () ->
      for i = 0 to 10_000 do
        ignore (Fsd.create fs ~name:(Printf.sprintf "fill%05d" i) (Bytes.make 20_000 'f'))
      done)

(* ------------------------------------------------------------------ *)
(* Log                                                                  *)

let test_log_misuse () =
  let open Cedar_fsd in
  let geom = Geometry.tiny_test in
  let layout = Layout.compute geom (Params.for_geometry geom) in
  let device = Device.create ~clock:(Simclock.create ()) geom in
  Log.format device layout;
  let log =
    Log.attach device layout ~boot_count:1 ~next_record_no:1L ~write_off:0
      ~on_enter_third:(fun _ -> ())
  in
  inv (fun () -> Log.append log []);
  inv (fun () ->
      Log.append log [ { Log.kind = Log.Leader_page 9; image = Bytes.create 100 } ])

let suite =
  [
    ("bytebuf writer bounds", `Quick, test_writer_bounds);
    ("bytebuf reader bounds", `Quick, test_reader_bounds);
    ("bitmap bounds", `Quick, test_bitmap_bounds);
    ("lru misuse", `Quick, test_lru_misuse);
    ("rng misuse", `Quick, test_rng_misuse);
    ("simclock misuse", `Quick, test_simclock_misuse);
    ("run table misuse", `Quick, test_run_table_misuse);
    ("fname misuse", `Quick, test_fname_misuse);
    ("device misuse", `Quick, test_device_misuse);
    ("fsd api misuse", `Quick, test_fsd_api_misuse);
    ("fsd volume full", `Quick, test_fsd_volume_full);
    ("log misuse", `Quick, test_log_misuse);
  ]
