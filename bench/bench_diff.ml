(* Snapshot drift detection (bench diff / make bench-diff).

   Regenerates every committed BENCH_*.json into a scratch directory and
   structurally compares each against the snapshot in the repo root.
   The simulation is deterministic, so most fields must match exactly;
   timing-flavoured fields (latencies, rates, percentiles, busy/fill
   fractions) get a 10% relative tolerance so that a legitimately
   re-timed run — a device-model tweak, a scheduling change — reads as
   "within tolerance" while a behavioural change (counts, violations,
   structure) still trips the diff.

   Exits non-zero on any drift, which is what wires it into make ci:
   either the code change is benign and the snapshots are regenerated
   and committed alongside it, or the drift is a regression and the
   build says so. *)

module J = Cedar_obs.Jsonb

let snapshots : (string * (string -> unit)) list =
  [
    ("BENCH_OBS.json", fun out -> Obs_json.run ~out ());
    ("BENCH_GROUPCOMMIT.json", fun out -> Bench_clients.run ~out ());
    ("BENCH_FAULTSWEEP.json", fun out -> Bench_faultsweep.run ~out ());
    ("BENCH_RECOVERY.json", fun out -> Bench_recovery.run ~out ());
    ("BENCH_WRAP.json", fun out -> Bench_wrap.run ~out ());
    ("BENCH_TIMELINE.json", fun out -> Bench_timeline.run ~out ());
    ("BENCH_BREAKDOWN.json", fun out -> Bench_breakdown.run ~out ());
    ("BENCH_VOLUMES.json", fun out -> Bench_volumes.run ~out ());
    ("BENCH_QDEPTH.json", fun out -> Bench_qdepth.run ~out ());
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

(* The drift lines for one snapshot, and the host seconds its
   regeneration took (0 when there is nothing to regenerate). *)
let diff_one name regen =
  if not (Sys.file_exists name) then ([ name ^ ": no committed snapshot" ], 0.)
  else begin
    let fresh = Filename.concat scratch_dir name in
    let t0 = Unix.gettimeofday () in
    regen fresh;
    let host_s = Unix.gettimeofday () -. t0 in
    let want = parse name name and got = parse fresh fresh in
    (List.rev (diff ~path:name ~key:"" want got []), host_s)
  end

let run ?out () =
  Setup.hr "snapshot drift check (regenerate every BENCH_*.json and compare)";
  mkdir_p scratch_dir;
  let results =
    List.map
      (fun (name, regen) ->
        let drift, host_s = diff_one name regen in
        (name, drift, host_s))
      snapshots
  in
  Setup.hr "bench-diff verdict (host seconds to regenerate each snapshot)";
  let total =
    List.fold_left (fun n (name, drift, host_s) ->
        (match drift with
        | [] -> Printf.printf "  %-24s %7.1f s  ok\n" name host_s
        | ds ->
          Printf.printf "  %-24s %7.1f s  %d field(s) drifted\n" name host_s
            (List.length ds);
          List.iteri (fun i d -> if i < 12 then Printf.printf "    %s\n" d) ds;
          if List.length ds > 12 then
            Printf.printf "    ... and %d more\n" (List.length ds - 12));
        n + List.length drift)
      0 results
  in
  Printf.printf "  %-24s %7.1f s\n" "total"
    (List.fold_left (fun s (_, _, host_s) -> s +. host_s) 0. results);
  (match out with
  | None -> ()
  | Some path ->
    let obj =
      J.Obj
        [
          ("bench", J.Str "diff");
          ("drifted_fields", J.Int total);
          ( "snapshots",
            J.Obj
              (List.map
                 (fun (name, ds, _) ->
                   (name, J.Arr (List.map (fun d -> J.Str d) ds)))
                 results) );
        ]
    in
    let oc = open_out path in
    output_string oc (J.to_string_pretty obj);
    output_char oc '\n';
    close_out oc);
  if total > 0 then begin
    Printf.printf
      "  DRIFT: %d field(s); regenerate with 'make bench' and commit, or fix \
       the regression\n"
      total;
    exit 1
  end
  else print_endline "  all snapshots within tolerance"
