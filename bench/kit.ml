(* What every snapshot bench shares: writing its BENCH_*.json, and
   reporting the named checks its [run] returns. A bench never exits or
   warns on its own; main.exe exits 1 once all requested targets have
   run if any check was false, and bench diff does the same for the
   snapshots it regenerates. *)

type checks = (string * bool) list

(* Pretty JSON with a trailing newline, so snapshots diff line by line. *)
let write ?(note = "") out json =
  let oc = open_out out in
  output_string oc (Cedar_obs.Jsonb.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s%s\n" out note

let failures (checks : checks) = List.filter (fun (_, ok) -> not ok) checks

(* One [FAIL <bench>: <check>] line per false check; returns how many. *)
let report bench checks =
  let failed = failures checks in
  List.iter (fun (name, _) -> Printf.printf "FAIL %s: %s\n" bench name) failed;
  List.length failed
