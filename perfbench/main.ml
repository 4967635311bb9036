(* The repository benchmark.

     main.exe --workload makedo|openloop|sharded --seed N --seconds S --trace 0|1

   Prints a human summary on stderr and, as the last line of stdout,
   one JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones. Exits 1 when the correctness gate fails. See
   README.md next to this file. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME makedo, openloop or sharded");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to keep repeating rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workloads.make ~seed:!seed !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " Workloads.names);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  let r =
    if !trace = 0 then Bench.end_to_end ~seconds:!seconds w
    else Bench.per_layer ~seconds:!seconds w
  in
  List.iter (fun p -> Printf.eprintf "FAIL %s\n" p) r.Bench.problems;
  List.iter
    (fun mt -> Printf.eprintf "  %-36s %16.6f %s\n" mt.Report.name mt.Report.value mt.Report.unit_)
    r.Bench.metrics;
  print_endline (Bench.to_json r);
  exit (if r.Bench.correct then 0 else 1)
