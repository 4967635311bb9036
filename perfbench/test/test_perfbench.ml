(* Tests of the benchmark itself, on shrunken workloads. *)

open Perfbench
module S = Cedar_server.Server
module C = Cedar_workload.Concurrent
module Oracle = Cedar_server.Oracle

let scale = 8
let small name ~seed = Option.get (Workloads.make ~scale ~seed name)

let same_seed_same_metrics () =
  List.iter
    (fun name ->
      let w = small name ~seed:3 in
      let a = Bench.fingerprint w (Bench.round w) in
      let b = Bench.fingerprint w (Bench.round (small name ~seed:3)) in
      Alcotest.(check string) (name ^ ": simulated metrics") a b)
    Workloads.names

let seed_changes_scripts () =
  List.iter
    (fun name ->
      let scripts w = List.map (fun j -> j.Workloads.scripts) w.Workloads.jobs in
      Alcotest.(check bool)
        (name ^ ": scripts differ")
        true
        (scripts (small name ~seed:1) <> scripts (small name ~seed:2)))
    Workloads.names

(* The last acked create whose name no later acked op touches: dropping
   it from the journal must leave the volume holding a version the
   expected state does not. *)
let drop_last_create acked =
  let rev = List.rev acked in
  let rec find later = function
    | [] -> Alcotest.fail "no acked create"
    | ((_, C.Create { name; _ }) as a) :: rest when not (List.mem name later) -> (a, rest)
    | (_, op) :: rest ->
      let later =
        match Oracle.mut_of_op op with Some m -> Oracle.mut_name m :: later | None -> later
      in
      find later rest
  in
  let victim, _ = find [] rev in
  List.filter (fun a -> a != victim) acked

let gate_catches_missing_create () =
  let w = small "makedo" ~seed:1 in
  let job = List.hd w.Workloads.jobs in
  let vset, _clock = Round.setup job in
  let server = S.create_volumes vset job.Workloads.scripts in
  ignore (S.run server : S.report);
  let acked = S.acked server in
  Alcotest.(check (list string)) "journal passes" [] (Round.gate vset job.Workloads.scripts acked);
  Alcotest.(check bool)
    "one create removed fails" true
    (Round.gate vset job.Workloads.scripts (drop_last_create acked) <> [])

let full_round_passes_gate () =
  let w = small "sharded" ~seed:1 in
  List.iter
    (fun r -> Alcotest.(check (list string)) "gate" [] r.Round.gate)
    (Bench.round w)

let shares_sum_to_one () =
  let sampler = Sampler.create () in
  let w = small "sharded" ~seed:1 in
  ignore (Bench.round ~sampler w : Round.t list);
  Alcotest.(check bool) "took samples" true (Sampler.samples sampler > 0);
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. (Sampler.shares sampler) in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1. total

let layer_names () =
  let check f want = Alcotest.(check (option string)) f want (Sampler.layer_of_function f) in
  check "Cedar_fsd__Vam.commit_shadow" (Some "vam");
  check "Cedar_fsd__Fnt_store.read" (Some "fnt_store");
  check "Cedar_fsd__Demons.run_due" (Some "fsd");
  check "Cedar_btree__Btree.find_rec" (Some "btree");
  check "Cedar_disk__Device.mechanics" (Some "device");
  check "Cedar_util__Bitmap.get" None;
  check "Stdlib__Hashtbl.find" None

let () =
  Alcotest.run "perfbench"
    [
      ( "benchmark",
        [
          ("same seed, same simulated metrics", `Quick, same_seed_same_metrics);
          ("another seed, other scripts", `Quick, seed_changes_scripts);
          ("gate rejects a dropped acked create", `Quick, gate_catches_missing_create);
          ("a recovered round passes the gate", `Quick, full_round_passes_gate);
          ("sampler shares sum to 1", `Quick, shares_sum_to_one);
          ("sampler layer names", `Quick, layer_names);
        ] );
    ]
