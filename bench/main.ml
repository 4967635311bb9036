(* Benchmark harness entry point.

   dune exec bench/main.exe            -- reproduce every paper table
   dune exec bench/main.exe -- table2  -- one table (table1..table5,
                                          recovery-model, group-commit,
                                          log-records, vam, model, log-util) *)

let usage () =
  prerr_endline
    "usage: main.exe [table1|table2|table3|table4|table5|recovery-model|group-commit|log-records|vam|model|log-util|vam-logging|log-size|fragmentation|obs-json|clients|faultsweep|recovery|wrap|timeline|breakdown|volumes|qdepth|diff|all] [--out PATH]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --out PATH redirects obs-json's output file. *)
  let rec split_out acc = function
    | "--out" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--out" :: [] -> usage ()
    | a :: rest -> split_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let out, targets = split_out [] args in
  print_endline
    "Reimplementing the Cedar File System Using Logging and Group Commit";
  print_endline "(Hagmann, SOSP 1987) -- reproduction harness";
  Printf.printf "simulated disk: %s\n"
    (Format.asprintf "%a" Cedar_disk.Geometry.pp Setup.geom);
  let run = function
    | "table1" -> Bench_tables.table1 ()
    | "table2" -> Bench_tables.table2 ()
    | "table3" -> Bench_tables.table3 ()
    | "table4" -> Bench_tables.table4 ()
    | "table5" -> Bench_tables.table5 ()
    | "recovery-model" -> Bench_tables.recovery ()
    | "group-commit" -> Bench_tables.group_commit ()
    | "log-records" -> Bench_tables.log_records ()
    | "vam" -> Bench_tables.vam_rebuild ()
    | "model" -> Bench_tables.model_validation ()
    | "log-util" -> Bench_tables.log_utilization ()
    | "vam-logging" -> Bench_tables.vam_logging ()
    | "log-size" -> Bench_tables.log_size ()
    | "fragmentation" -> Bench_tables.fragmentation ()
    | "obs-json" -> Obs_json.run ?out ()
    | "clients" -> Bench_clients.run ?out ()
    | "faultsweep" -> Bench_faultsweep.run ?out ()
    | "recovery" -> Bench_recovery.run ?out ()
    | "wrap" -> Bench_wrap.run ?out ()
    | "timeline" -> Bench_timeline.run ?out ()
    | "breakdown" -> Bench_breakdown.run ?out ()
    | "volumes" -> Bench_volumes.run ?out ()
    | "qdepth" -> Bench_qdepth.run ?out ()
    | "diff" -> Bench_diff.run ?out ()
    | "all" -> Bench_tables.all ()
    | _ -> usage ()
  in
  match targets with [] -> Bench_tables.all () | ts -> List.iter run ts
