(* Cross-system integration tests: the same operation scripts driven
   through the generic Fs_ops interface on FSD, CFS and the BSD baseline
   must agree with an in-memory reference model — and with each other. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase

(* One "fsd.*" counter from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Cedar_obs.Metrics.read (Cedar_fsd.Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type system = { label : string; ops : Fs_ops.t; finish : unit -> unit }

let mk_fsd () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_fsd.Fsd.format device (Cedar_fsd.Params.for_geometry Geometry.small_test);
  let fs, _ = Cedar_fsd.Fsd.boot device in
  { label = "fsd"; ops = Cedar_fsd.Fsd.ops fs; finish = (fun () -> Cedar_fsd.Fsd.shutdown fs) }

let mk_cfs () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_cfs.Cfs.format device (Cedar_cfs.Cfs_layout.params_for_geometry Geometry.small_test);
  match Cedar_cfs.Cfs.boot device with
  | `Ok fs ->
    { label = "cfs"; ops = Cedar_cfs.Cfs.ops fs; finish = (fun () -> Cedar_cfs.Cfs.shutdown fs) }
  | `Needs_scavenge -> Alcotest.fail "cfs boot"

let mk_ufs () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_unixfs.Ufs.mkfs device (Cedar_unixfs.Ufs_params.for_geometry Geometry.small_test);
  match Cedar_unixfs.Ufs.mount device with
  | `Ok fs ->
    { label = "ufs"; ops = Cedar_unixfs.Ufs.ops fs; finish = (fun () -> Cedar_unixfs.Ufs.unmount fs) }
  | `Needs_fsck -> Alcotest.fail "ufs mount"

let all_systems () = [ mk_fsd (); mk_cfs (); mk_ufs () ]

let content n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

(* A deterministic op script interpreted against both the FS and a Map.
   BSD has no versions, so the script only ever overwrites or deletes
   the newest (= only) version — semantics all three share. *)
type op = Create of int * int * int | Delete of int | Read of int | List_all

let names = [| "w/alpha"; "w/beta"; "w/gamma"; "w/delta"; "w/epsilon" |]

let script_of_rng rng n =
  List.init n (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> Create (Rng.int rng 5, Rng.int rng 3000, Rng.int rng 100)
      | 4 | 5 -> Delete (Rng.int rng 5)
      | 6 | 7 | 8 -> Read (Rng.int rng 5)
      | _ -> List_all)

let run_script sys script =
  let module M = Map.Make (String) in
  let reference = ref M.empty in
  let trace = Buffer.create 256 in
  List.iter
    (fun op ->
      match op with
      | Create (ni, size, seed) ->
        let name = names.(ni) in
        let data = content size seed in
        ignore (sys.ops.Fs_ops.create ~name ~data);
        (* CFS/FSD keep old versions; the reference tracks the newest,
           which is what read_all and list report. *)
        reference := M.add name data !reference;
        Buffer.add_string trace (Printf.sprintf "C%d;" ni)
      | Delete ni -> (
        let name = names.(ni) in
        match M.find_opt name !reference with
        | None -> (
          match sys.ops.Fs_ops.delete ~name with
          | () ->
            (* versioned systems may still hold an older version *)
            ()
          | exception Fs_error.Fs_error (Fs_error.No_such_file _) -> ())
        | Some _ ->
          sys.ops.Fs_ops.delete ~name;
          (* the newest version is gone; an older version may resurface
             on the versioned systems, so re-sync the reference *)
          (match sys.ops.Fs_ops.read_all ~name with
          | data -> reference := M.add name data !reference
          | exception Fs_error.Fs_error (Fs_error.No_such_file _) ->
            reference := M.remove name !reference);
          Buffer.add_string trace (Printf.sprintf "D%d;" ni))
      | Read ni -> (
        let name = names.(ni) in
        let got =
          match sys.ops.Fs_ops.read_all ~name with
          | d -> Some d
          | exception Fs_error.Fs_error (Fs_error.No_such_file _) -> None
        in
        match (M.find_opt name !reference, got) with
        | Some expected, Some data ->
          if not (Bytes.equal expected data) then
            Alcotest.fail
              (Printf.sprintf "%s: content mismatch on %s after %s" sys.label name
                 (Buffer.contents trace))
        | None, Some _ ->
          Alcotest.fail (Printf.sprintf "%s: phantom file %s" sys.label name)
        | Some _, None ->
          Alcotest.fail (Printf.sprintf "%s: lost file %s" sys.label name)
        | None, None -> ())
      | List_all ->
        let listed =
          match sys.ops.Fs_ops.list ~prefix:"w/" with
          | l -> l |> List.map (fun i -> i.Fs_ops.name) |> List.sort_uniq compare
          | exception Fs_error.Fs_error (Fs_error.No_such_file _) ->
            [] (* BSD: the directory does not exist until the first create *)
        in
        let expected = M.bindings !reference |> List.map fst |> List.sort compare in
        (* versioned systems may list names whose newest version the
           reference dropped only if we mis-tracked; require equality *)
        if listed <> expected then
          Alcotest.fail
            (Printf.sprintf "%s: list mismatch [%s] vs [%s] after %s" sys.label
               (String.concat "," listed) (String.concat "," expected)
               (Buffer.contents trace)))
    script;
  !reference

let test_script_agreement () =
  let script = script_of_rng (Rng.create 2024) 120 in
  List.iter
    (fun sys ->
      ignore (run_script sys script);
      sys.finish ())
    (all_systems ())

let prop_random_scripts_agree =
  QCheck.Test.make ~name:"random op scripts behave identically on all systems" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let script = script_of_rng (Rng.create (seed + 1)) 60 in
      List.for_all
        (fun sys ->
          ignore (run_script sys script);
          sys.finish ();
          true)
        (all_systems ()))

(* FSD survives a crash mid-script; CFS's scavenger yields the same
   surviving set of (committed) files. *)
let test_fsd_crash_vs_cfs_scavenge_equivalence () =
  let fsd_clock = Simclock.create () in
  let fsd_dev = Device.create ~clock:fsd_clock Geometry.small_test in
  Cedar_fsd.Fsd.format fsd_dev (Cedar_fsd.Params.for_geometry Geometry.small_test);
  let fsd, _ = Cedar_fsd.Fsd.boot fsd_dev in
  let cfs_clock = Simclock.create () in
  let cfs_dev = Device.create ~clock:cfs_clock Geometry.small_test in
  Cedar_cfs.Cfs.format cfs_dev (Cedar_cfs.Cfs_layout.params_for_geometry Geometry.small_test);
  let cfs =
    match Cedar_cfs.Cfs.boot cfs_dev with `Ok fs -> fs | `Needs_scavenge -> assert false
  in
  for i = 0 to 29 do
    let data = content (100 + (i * 37)) i in
    ignore (Cedar_fsd.Fsd.create fsd ~name:(Printf.sprintf "x/f%02d" i) data);
    ignore (Cedar_cfs.Cfs.create cfs ~name:(Printf.sprintf "x/f%02d" i) data)
  done;
  Cedar_fsd.Fsd.force fsd;
  (* crash both *)
  let fsd2, _ = Cedar_fsd.Fsd.boot fsd_dev in
  let cfs2, _ = Cedar_cfs.Cfs.scavenge cfs_dev in
  let names ops =
    ops.Fs_ops.list ~prefix:"x/" |> List.map (fun i -> i.Fs_ops.name) |> List.sort compare
  in
  check (Alcotest.list Alcotest.string) "same survivors"
    (names (Cedar_fsd.Fsd.ops fsd2))
    (names (Cedar_cfs.Cfs.ops cfs2));
  for i = 0 to 29 do
    let name = Printf.sprintf "x/f%02d" i in
    let data = content (100 + (i * 37)) i in
    check bool (name ^ " fsd") true
      (Bytes.equal data (Cedar_fsd.Fsd.read_all fsd2 ~name));
    check bool (name ^ " cfs") true (Bytes.equal data (Cedar_cfs.Cfs.read_all cfs2 ~name))
  done

(* The long game: many sessions of work, clean and dirty shutdowns mixed,
   checking structural invariants at every boot. *)
let test_fsd_many_sessions () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Cedar_fsd.Fsd.format device (Cedar_fsd.Params.for_geometry Geometry.small_test);
  let rng = Rng.create 77 in
  let committed : (string, bytes) Hashtbl.t = Hashtbl.create 64 in
  let session k =
    let fs, _ = Cedar_fsd.Fsd.boot device in
    (* every committed file from previous sessions must be intact *)
    Hashtbl.iter
      (fun name data ->
        if not (Bytes.equal data (Cedar_fsd.Fsd.read_all fs ~name)) then
          Alcotest.fail ("session " ^ string_of_int k ^ ": lost " ^ name))
      committed;
    (match Cedar_fsd.Fsd.check fs with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("session check: " ^ m));
    for i = 0 to 14 do
      let name = Printf.sprintf "s%02d/f%02d" k i in
      let data = content (Rng.int rng 2000) (Rng.int rng 100) in
      ignore (Cedar_fsd.Fsd.create fs ~name ~keep:1 data);
      if Rng.chance rng 0.3 then Cedar_fsd.Fsd.tick fs ~us:200_000;
      if Rng.chance rng 0.2 && Hashtbl.length committed > 4 then begin
        (* delete some old committed file *)
        let victims = Hashtbl.fold (fun n _ acc -> n :: acc) committed [] in
        let victim = List.nth victims (Rng.int rng (List.length victims)) in
        Cedar_fsd.Fsd.delete fs ~name:victim;
        Hashtbl.remove committed victim
      end;
      (* deletions and creates this session commit below *)
      Hashtbl.replace committed name data
    done;
    Cedar_fsd.Fsd.force fs;
    if Rng.chance rng 0.5 then Cedar_fsd.Fsd.shutdown fs (* else: crash *)
  in
  for k = 0 to 11 do
    session k
  done;
  (* final boot and audit *)
  let fs, _ = Cedar_fsd.Fsd.boot device in
  check bool "final check" true (Cedar_fsd.Fsd.check fs = Ok ());
  check int "file population as expected" (Hashtbl.length committed)
    (List.length (Cedar_fsd.Fsd.list fs ~prefix:""))

(* A long soak on one FSD volume: thousands of mixed operations with
   interval commits, periodic crashes and occasional clean shutdowns,
   auditing structure and the committed model as it goes. *)
let test_fsd_soak () =
  let geom = Geometry.small_test in
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  Cedar_fsd.Fsd.format device (Cedar_fsd.Params.for_geometry geom);
  let fs = ref (fst (Cedar_fsd.Fsd.boot device)) in
  let rng = Rng.create 2026 in
  let committed : (string, bytes) Hashtbl.t = Hashtbl.create 256 in
  let pending : (string, bytes option) Hashtbl.t = Hashtbl.create 32 in
  let last_forces = ref 0 in
  let commit_pending () =
    Hashtbl.iter
      (fun name data ->
        match data with
        | Some d -> Hashtbl.replace committed name d
        | None -> Hashtbl.remove committed name)
      pending;
    Hashtbl.reset pending
  in
  (* the commit demon can fire inside any operation; promote the model's
     pending set whenever the force counter moves *)
  let sync_forces () =
    let f = fsd_count !fs "forces" in
    if f > !last_forces then begin
      commit_pending ();
      last_forces := f
    end
  in
  let audit label =
    (match Cedar_fsd.Fsd.check !fs with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: %s" label m);
    Hashtbl.iter
      (fun name data ->
        if not (Hashtbl.mem pending name) then
          match Cedar_fsd.Fsd.read_all !fs ~name with
          | got ->
            if not (Bytes.equal data got) then Alcotest.failf "%s: %s diverged" label name
          | exception Fs_error.Fs_error _ -> Alcotest.failf "%s: %s lost" label name)
      committed
  in
  for step = 1 to 2_500 do
    let name = Printf.sprintf "soak/%02d" (Rng.int rng 40) in
    (try
       (match Rng.int rng 12 with
       | 0 | 1 | 2 | 3 | 4 ->
         let data = content (Rng.int rng 2500) step in
         ignore (Cedar_fsd.Fsd.create !fs ~name ~keep:1 data);
         Hashtbl.replace pending name (Some data)
       | 5 | 6 ->
         if Cedar_fsd.Fsd.exists !fs ~name then begin
           Cedar_fsd.Fsd.delete !fs ~name;
           Hashtbl.replace pending name None
         end
       | 7 -> if Cedar_fsd.Fsd.exists !fs ~name then ignore (Cedar_fsd.Fsd.read_all !fs ~name)
       | 8 -> ignore (Cedar_fsd.Fsd.list !fs ~prefix:"soak/")
       | 9 ->
         Cedar_fsd.Fsd.force !fs;
         commit_pending ()
       | 10 -> Cedar_fsd.Fsd.tick !fs ~us:(Rng.int rng 700_000)
       | _ ->
         if Rng.bool rng then begin
           Cedar_fsd.Fsd.shutdown !fs;
           commit_pending ()
         end
         else begin
           sync_forces ();
           Hashtbl.reset pending (* crash: uncommitted ops lost *)
         end;
         fs := fst (Cedar_fsd.Fsd.boot device);
         last_forces := 0;
         audit (Printf.sprintf "step %d (reboot)" step));
       sync_forces ()
     with Fs_error.Fs_error Fs_error.Volume_full ->
       (* free space and resynchronise the model with the file system *)
       Cedar_fsd.Fsd.force !fs;
       commit_pending ();
       last_forces := fsd_count !fs "forces";
       List.iter
         (fun i ->
           let n = Printf.sprintf "soak/%02d" i in
           if i mod 2 = 0 && Cedar_fsd.Fsd.exists !fs ~name:n then begin
             Cedar_fsd.Fsd.delete !fs ~name:n;
             Hashtbl.remove committed n
           end)
         (List.init 40 Fun.id);
       Cedar_fsd.Fsd.force !fs;
       last_forces := fsd_count !fs "forces")
  done;
  Cedar_fsd.Fsd.force !fs;
  commit_pending ();
  audit "final"

let suite =
  [
    ("deterministic script on all systems", `Quick, test_script_agreement);
    QCheck_alcotest.to_alcotest prop_random_scripts_agree;
    ( "fsd crash and cfs scavenge agree on survivors",
      `Quick,
      test_fsd_crash_vs_cfs_scavenge_equivalence );
    ("fsd across many sessions with crashes", `Quick, test_fsd_many_sessions);
    ("fsd soak (2500 mixed ops)", `Slow, test_fsd_soak);
  ]
