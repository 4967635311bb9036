(* Snapshot drift detection (bench diff / make bench-diff).

   Regenerates every committed BENCH_*.json into a scratch directory and
   structurally compares each against the snapshot in the repo root.
   The simulation is deterministic, so most fields must match exactly;
   timing-flavoured fields (latencies, rates, percentiles, busy/fill
   fractions) get a 10% relative tolerance so that a legitimately
   re-timed run — a device-model tweak, a scheduling change — reads as
   "within tolerance" while a behavioural change (counts, violations,
   structure) still trips the diff. A snapshot whose bytes match the
   committed file exactly reads as "identical".

   Returns one check per snapshot for drift plus every check the
   regenerating bench returned, so the run fails (main.exe exits 1) on
   drift or on a false check: either the code change is benign and the
   snapshots are regenerated and committed alongside it, or the build
   says what regressed. *)

module J = Cedar_obs.Jsonb

(* Every committed snapshot: the file, the main.exe target that writes
   it, and the bench itself. [bench snapshots] and [bench diff] both
   walk this table. *)
type snapshot = { file : string; target : string; run : out:string -> Kit.checks }

let snapshots =
  [
    { file = "BENCH_OBS.json"; target = "obs-json"; run = Obs_json.run };
    { file = "BENCH_GROUPCOMMIT.json"; target = "clients"; run = Bench_clients.run };
    { file = "BENCH_FAULTSWEEP.json"; target = "faultsweep"; run = Bench_faultsweep.run };
    { file = "BENCH_RECOVERY.json"; target = "recovery"; run = Bench_recovery.run };
    { file = "BENCH_WRAP.json"; target = "wrap"; run = Bench_wrap.run };
    { file = "BENCH_TIMELINE.json"; target = "timeline"; run = Bench_timeline.run };
    { file = "BENCH_BREAKDOWN.json"; target = "breakdown"; run = Bench_breakdown.run };
    { file = "BENCH_VOLUMES.json"; target = "volumes"; run = Bench_volumes.run };
    { file = "BENCH_QDEPTH.json"; target = "qdepth"; run = Bench_qdepth.run };
  ]

let scratch_dir = "_build/bench-diff"

(* Field names that measure time, rates or occupancy — the ones whose
   exact value is a property of the device model rather than of
   behavioural correctness. Matched against the innermost object key. *)
let tolerant_field name =
  let suffix s =
    let ln = String.length name and ls = String.length s in
    ln >= ls && String.sub name (ln - ls) ls = s
  in
  let contains s =
    let ln = String.length name and ls = String.length s in
    let rec go i = i + ls <= ln && (String.sub name i ls = s || go (i + 1)) in
    go 0
  in
  suffix "_us" || suffix "_ms" || suffix "_s"
  || contains "rate" || contains "mean" || contains "p50" || contains "p90"
  || contains "p95" || contains "p99" || contains "busy" || contains "fill"
  || contains "wait" || contains "duration" || contains "ops_per"
  || contains "achieved" || contains "util" || contains "age"

let rel_tolerance = 0.10

let close a b =
  a = b
  || abs_float (a -. b) <= rel_tolerance *. Stdlib.max (abs_float a) (abs_float b)

(* Walk both trees in step, collecting one line per mismatch. [key] is
   the innermost object field we are under (tolerance is per-field). *)
let rec diff ~path ~key want got acc =
  match (want, got) with
  | J.Obj w, J.Obj g ->
    let acc =
      List.fold_left
        (fun acc (k, wv) ->
          match List.assoc_opt k g with
          | Some gv -> diff ~path:(path ^ "." ^ k) ~key:k wv gv acc
          | None -> Printf.sprintf "%s.%s: missing" path k :: acc)
        acc w
    in
    List.fold_left
      (fun acc (k, _) ->
        if List.mem_assoc k w then acc
        else Printf.sprintf "%s.%s: unexpected" path k :: acc)
      acc g
  | J.Arr w, J.Arr g ->
    if List.length w <> List.length g then
      Printf.sprintf "%s: %d element(s), want %d" path (List.length g)
        (List.length w)
      :: acc
    else
      List.fold_left2
        (fun (i, acc) wv gv ->
          ( i + 1,
            diff ~path:(Printf.sprintf "%s[%d]" path i) ~key wv gv acc ))
        (0, acc) w g
      |> snd
  | J.Int w, J.Int g when w = g -> acc
  | J.Float w, J.Float g when w = g -> acc
  | (J.Int _ | J.Float _), (J.Int _ | J.Float _) when tolerant_field key ->
    let f = function J.Int n -> float_of_int n | J.Float x -> x | _ -> 0.0 in
    if close (f want) (f got) then acc
    else
      Printf.sprintf "%s: %s, want %s (beyond %.0f%%)" path (J.to_string got)
        (J.to_string want)
        (rel_tolerance *. 100.0)
      :: acc
  | _ ->
    if want = got then acc
    else Printf.sprintf "%s: %s, want %s" path (J.to_string got) (J.to_string want) :: acc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse label path =
  match J.of_string (read_file path) with
  | Ok v -> v
  | Error m -> failwith (Printf.sprintf "%s: %s" label m)

let mkdir_p path =
  (* only two levels deep; good enough for the scratch dir *)
  let parent = Filename.dirname path in
  (try Sys.mkdir parent 0o755 with Sys_error _ -> ());
  try Sys.mkdir path 0o755 with Sys_error _ -> ()

type result = {
  snap : snapshot;
  identical : bool;
  drift : string list;
  checks : Kit.checks;
  host_s : float;  (** host seconds the regeneration took *)
}

let diff_one snap =
  let name = snap.file in
  if not (Sys.file_exists name) then
    { snap; identical = false; drift = [ name ^ ": no committed snapshot" ];
      checks = []; host_s = 0. }
  else begin
    let fresh = Filename.concat scratch_dir name in
    let t0 = Unix.gettimeofday () in
    let checks = snap.run ~out:fresh in
    let host_s = Unix.gettimeofday () -. t0 in
    let want = parse name name and got = parse fresh fresh in
    { snap; identical = read_file name = read_file fresh;
      drift = List.rev (diff ~path:name ~key:"" want got []); checks; host_s }
  end

let run ?out () =
  Setup.hr "snapshot drift check (regenerate every BENCH_*.json and compare)";
  mkdir_p scratch_dir;
  let results = List.map diff_one snapshots in
  Setup.hr "bench-diff verdict (host seconds to regenerate each snapshot)";
  List.iter
    (fun r ->
      let failed = List.length (Kit.failures r.checks) in
      Printf.printf "  %-24s %7.1f s  %s%s\n" r.snap.file r.host_s
        (match r.drift with
        | [] -> if r.identical then "identical" else "within tolerance"
        | ds -> Printf.sprintf "%d field(s) drifted" (List.length ds))
        (if failed = 0 then "" else Printf.sprintf ", %d check(s) failed" failed);
      List.iteri (fun i d -> if i < 12 then Printf.printf "    %s\n" d) r.drift;
      if List.length r.drift > 12 then
        Printf.printf "    ... and %d more\n" (List.length r.drift - 12))
    results;
  Printf.printf "  %-24s %7.1f s\n" "total"
    (List.fold_left (fun s r -> s +. r.host_s) 0. results);
  let total = List.fold_left (fun n r -> n + List.length r.drift) 0 results in
  (match out with
  | None -> ()
  | Some path ->
    Kit.write path
      (J.Obj
         [
           ("bench", J.Str "diff");
           ("drifted_fields", J.Int total);
           ( "snapshots",
             J.Obj
               (List.map
                  (fun r ->
                    (r.snap.file, J.Arr (List.map (fun d -> J.Str d) r.drift)))
                  results) );
         ]));
  if total > 0 then
    Printf.printf
      "  DRIFT: %d field(s); regenerate with 'make bench' and commit, or fix \
       the regression\n"
      total
  else if List.for_all (fun r -> r.identical) results then
    print_endline "  all snapshots identical"
  else print_endline "  all snapshots within tolerance";
  List.concat_map
    (fun r ->
      (r.snap.file ^ ": no drift", r.drift = [])
      :: List.map (fun (c, ok) -> (r.snap.file ^ ": " ^ c, ok)) r.checks)
    results
