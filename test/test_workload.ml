(* Tests for the workload library: the size distribution's 50%/8% shape,
   MakeDo running identically across all three file systems, bulk
   helpers, the fake file server, and the measurement plumbing. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase
open Cedar_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fsd_ops () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_fsd.Fsd.format device (Cedar_fsd.Params.for_geometry Geometry.small_test);
  Cedar_fsd.Fsd.ops (fst (Cedar_fsd.Fsd.boot device))

let cfs_ops () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_cfs.Cfs.format device (Cedar_cfs.Cfs_layout.params_for_geometry Geometry.small_test);
  match Cedar_cfs.Cfs.boot device with
  | `Ok fs -> Cedar_cfs.Cfs.ops fs
  | `Needs_scavenge -> Alcotest.fail "cfs boot"

let ufs_ops () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_unixfs.Ufs.mkfs device (Cedar_unixfs.Ufs_params.for_geometry Geometry.small_test);
  match Cedar_unixfs.Ufs.mount device with
  | `Ok fs -> Cedar_unixfs.Ufs.ops fs
  | `Needs_fsck -> Alcotest.fail "ufs mount"

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)

let test_size_distribution_shape () =
  (* §5.6: "50% of files are less than 4,000 bytes but use only 8% of
     the sectors." *)
  let small_files, small_bytes = Sizes.check_distribution (Rng.create 5) ~samples:20_000 in
  check bool
    (Printf.sprintf "about half the files are small (%.2f)" small_files)
    true
    (small_files > 0.45 && small_files < 0.55);
  check bool
    (Printf.sprintf "small files hold ~8%% of bytes (%.3f)" small_bytes)
    true
    (small_bytes > 0.05 && small_bytes < 0.12)

let test_sizes_positive () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    if Sizes.sample rng < 1 then Alcotest.fail "zero-sized sample"
  done

(* ------------------------------------------------------------------ *)
(* Remote                                                              *)

let test_remote_publish_fetch () =
  let s = Remote.create ~name:"ivy" ~seed:3 in
  Remote.publish s ~path:"a" (Bytes.of_string "data-a");
  check bool "fetch" true (Remote.fetch s ~path:"a" = Some (Bytes.of_string "data-a"));
  check bool "missing" true (Remote.fetch s ~path:"b" = None);
  let data = Remote.publish_random s ~path:"c" (Rng.create 4) in
  check bool "random published" true (Remote.fetch s ~path:"c" = Some data);
  check (Alcotest.list Alcotest.string) "paths sorted" [ "a"; "c" ] (Remote.paths s)

(* ------------------------------------------------------------------ *)
(* Measure                                                             *)

let test_measure_counts () =
  let ops = fsd_ops () in
  let _, s =
    Measure.run ops (fun () ->
        ignore (ops.Fs_ops.create ~name:"m" ~data:(Bytes.make 600 'x')))
  in
  check int "one io" 1 s.Measure.ios;
  check int "one write" 1 s.Measure.writes;
  check bool "time advanced" true (s.Measure.elapsed_us > 0)

let test_bandwidth_fraction () =
  let g = Geometry.trident_t300 in
  (* moving exactly one sector in exactly one sector-time = 100% *)
  let f =
    Measure.bandwidth_fraction g ~bytes_moved:g.Geometry.sector_bytes
      ~elapsed_us:(Geometry.sector_time_us g)
  in
  check bool "full rate ~1.0" true (abs_float (f -. 1.0) < 0.05)

(* ------------------------------------------------------------------ *)
(* Bulk                                                                *)

let test_bulk_roundtrip () =
  let ops = fsd_ops () in
  ignore (Bulk.create_many ops ~dir:"d" ~n:25 ~bytes_each:300);
  ignore (Bulk.list_dir ops ~dir:"d" ~expect:25);
  ignore (Bulk.read_many ops ~dir:"d" ~n:25);
  ignore (Bulk.delete_many ops ~dir:"d" ~n:25);
  check int "all deleted" 0 (List.length (ops.Fs_ops.list ~prefix:"d/"))

(* ------------------------------------------------------------------ *)
(* MakeDo across all three systems                                     *)

let makedo_spec = { Makedo.default with Makedo.modules = 8 }

let expected_names spec =
  List.concat
    [
      List.init spec.Makedo.modules (fun i -> Makedo.source_name i);
      List.init spec.Makedo.modules (fun i -> Makedo.object_name i);
      [ Makedo.df_name ];
    ]
  |> List.sort compare

(* BSD's list is per-directory, so enumerate the build's directories
   rather than using a flat prefix. *)
let run_makedo ops =
  Makedo.prepare ops makedo_spec;
  let s = Makedo.build ops makedo_spec in
  let names =
    List.concat_map
      (fun dir -> List.map (fun i -> i.Fs_ops.name) (ops.Fs_ops.list ~prefix:dir))
      [ "src/"; "bin/"; "build/" ]
    |> List.sort compare
  in
  (s, names)

let test_makedo_same_result_everywhere () =
  let _, fsd_names = run_makedo (fsd_ops ()) in
  let _, cfs_names = run_makedo (cfs_ops ()) in
  let _, ufs_names = run_makedo (ufs_ops ()) in
  let expected = expected_names makedo_spec in
  check (Alcotest.list Alcotest.string) "fsd names" expected fsd_names;
  check (Alcotest.list Alcotest.string) "cfs names" expected cfs_names;
  check (Alcotest.list Alcotest.string) "ufs names" expected ufs_names

let test_makedo_temps_deleted () =
  List.iter
    (fun ops ->
      Makedo.prepare ops makedo_spec;
      ignore (Makedo.build ops makedo_spec);
      check int "no temps left" 0 (List.length (ops.Fs_ops.list ~prefix:"tmp/")))
    [ fsd_ops (); cfs_ops (); ufs_ops () ]

let test_makedo_fsd_beats_cfs_on_ios () =
  let fsd_s, _ = run_makedo (fsd_ops ()) in
  let cfs_s, _ = run_makedo (cfs_ops ()) in
  check bool
    (Printf.sprintf "cfs %d > fsd %d ios" cfs_s.Measure.ios fsd_s.Measure.ios)
    true
    (cfs_s.Measure.ios > fsd_s.Measure.ios)

(* ------------------------------------------------------------------ *)
(* Script substitution: {c} and {v}                                    *)

let string = Alcotest.string

let test_script_substitution () =
  let text = "create {c}/{v}/a.mesa 100\nread {v}/lib.mesa\nlist {c}/" in
  let script =
    match Concurrent.parse_script text with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (* client 5 of 4 volumes lands on shard 1; {v} must expand to a
     top-level directory that routes there. *)
  let vdir = Cedar_fsbase.Fname.shard_dir ~shards:4 (5 mod 4) in
  (match Concurrent.instantiate ~volumes:4 script ~client:5 with
  | [
   Concurrent.Op (Concurrent.Create { name = c; _ });
   Concurrent.Op (Concurrent.Read r);
   Concurrent.Op (Concurrent.List l);
  ] ->
    check string "{c} and {v} both expand" ("c05/" ^ vdir ^ "/a.mesa") c;
    check string "{v} expands alone" (vdir ^ "/lib.mesa") r;
    check string "{c} in list prefix" "c05/" l;
    check int "expanded name routes to client's shard" 1
      (Cedar_fsbase.Fname.shard ~shards:4 r)
  | _ -> Alcotest.fail "unexpected script shape");
  (* Default volumes = 1: {v} is the constant v0 directory. *)
  (match Concurrent.instantiate script ~client:2 with
  | Concurrent.Op (Concurrent.Create { name; _ }) :: _ ->
    check string "single-volume {v}" "c02/v0/a.mesa" name
  | _ -> Alcotest.fail "unexpected script shape")

let test_script_substitution_errors () =
  (match Concurrent.parse_script "create {v}/a.mesa" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "create without a byte count must not parse");
  (match Concurrent.parse_script "rename a b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb must not parse");
  check bool "volumes < 1 rejected" true
    (match Concurrent.instantiate ~volumes:0 [] ~client:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_shard_scripts_pin_clients () =
  let scripts =
    Array.init 5 (fun client ->
        [ Concurrent.Op (Concurrent.Create { name = "x/f"; bytes = 64; fill = client }) ])
  in
  let sharded = Concurrent.shard_scripts scripts ~volumes:3 in
  Array.iteri
    (fun client script ->
      match script with
      | [ Concurrent.Op (Concurrent.Create { name; _ }) ] ->
        check int
          (Printf.sprintf "client %d routes to its volume" client)
          (client mod 3)
          (Cedar_fsbase.Fname.shard ~shards:3 name)
      | _ -> Alcotest.fail "unexpected script shape")
    sharded

let test_content_matches_definition () =
  List.iter
    (fun n ->
      for fill = 0 to 600 do
        let expected = Bytes.init n (fun i -> Char.chr ((i + fill) mod 251)) in
        if not (Bytes.equal expected (Concurrent.content ~fill n)) then
          Alcotest.failf "content ~fill:%d %d differs from its definition" fill n
      done)
    [ 0; 1; 250; 251; 252; 502; 503; 20_000 ];
  List.iter
    (fun (fill, n) ->
      match Concurrent.content ~fill n with
      | _ -> Alcotest.failf "content ~fill:%d %d did not raise" fill n
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (-1, 10); (-251, 2); (-600, 20_000) ]

let suite =
  [
    ("size distribution: 50%/8% shape", `Quick, test_size_distribution_shape);
    ("sizes never zero", `Quick, test_sizes_positive);
    ("remote publish/fetch", `Quick, test_remote_publish_fetch);
    ("measure counts ios and time", `Quick, test_measure_counts);
    ("bandwidth fraction calibration", `Quick, test_bandwidth_fraction);
    ("bulk helpers roundtrip", `Quick, test_bulk_roundtrip);
    ("makedo: same files on all systems", `Quick, test_makedo_same_result_everywhere);
    ("makedo: temps deleted", `Quick, test_makedo_temps_deleted);
    ("makedo: fsd beats cfs on ios", `Quick, test_makedo_fsd_beats_cfs_on_ios);
    ("script substitution: {c} and {v}", `Quick, test_script_substitution);
    ("script substitution: error paths", `Quick, test_script_substitution_errors);
    ("shard_scripts pins clients to volumes", `Quick, test_shard_scripts_pin_clients);
    ("content equals its per-byte definition", `Quick, test_content_matches_definition);
  ]
