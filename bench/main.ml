(* Benchmark harness entry point.

   dune exec bench/main.exe            -- reproduce every paper table
   dune exec bench/main.exe -- table2  -- one table (table1..table5,
                                          recovery-model, group-commit,
                                          log-records, vam, model, log-util)
   dune exec bench/main.exe -- clients -- one snapshot bench (any target
                                          of Bench_diff.snapshots)
   dune exec bench/main.exe -- snapshots -- regenerate every BENCH_*.json
   dune exec bench/main.exe -- diff    -- compare each with the committed one

   Targets run in order; if any check a snapshot bench (or diff)
   returned is false, the run exits 1 after the last target. *)

let usage () =
  prerr_endline
    ("usage: main.exe [table1|table2|table3|table4|table5|recovery-model|group-commit|log-records|vam|model|log-util|vam-logging|log-size|fragmentation|"
    ^ String.concat "|"
        (List.map (fun s -> s.Bench_diff.target) Bench_diff.snapshots)
    ^ "|snapshots|diff|all] [--out PATH]");
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --out PATH redirects a snapshot bench's output file, or names the
     report bench diff writes. *)
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
  let failed = ref 0 in
  let check bench checks = failed := !failed + Kit.report bench checks in
  let snapshot ?out (s : Bench_diff.snapshot) =
    check s.target (s.run ~out:(Option.value out ~default:s.file))
  in
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
    | "snapshots" -> List.iter (fun s -> snapshot s) Bench_diff.snapshots
    | "diff" -> check "diff" (Bench_diff.run ?out ())
    | "all" -> Bench_tables.all ()
    | target -> (
      match
        List.find_opt (fun s -> s.Bench_diff.target = target) Bench_diff.snapshots
      with
      | Some s -> snapshot ?out s
      | None -> usage ())
  in
  (match targets with [] -> Bench_tables.all () | ts -> List.iter run ts);
  if !failed > 0 then exit 1
