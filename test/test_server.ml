(* Concurrent multi-client server and group-commit batcher (ISSUE 4):
   determinism, batching amortisation, fairness under a bulk writer,
   backpressure rejects, crash atomicity of acknowledged transactions,
   the Demons.run_due split, and the script-file parser. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module Obs = Cedar_obs

(* One "fsd.*" counter from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh_fs ?(geom = Geometry.small_test) ?params () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params =
    match params with Some p -> p | None -> Params.for_geometry geom
  in
  Fsd.format device params;
  let fs, _ = Fsd.boot device in
  (device, fs)

(* A small hand-rolled script: [creates] files with [think] between
   steps, names "c<NN>/f<i>" so every client writes its own namespace. *)
let create_script ~client ~creates ~bytes ~think =
  List.concat_map
    (fun i ->
      [
        C.Think think;
        C.Op (C.Create { name = Printf.sprintf "c%02d/f%d" client i; bytes; fill = i });
      ])
    (List.init creates (fun i -> i))

let script_names script =
  List.filter_map
    (function C.Op (C.Create { name; _ }) -> Some name | _ -> None)
    script

(* ------------------------------------------------------------------ *)
(* Determinism: the seed contract                                       *)

let run_report () =
  let _, fs = fresh_fs () in
  let spec = { C.default_spec with C.modules = 4; rounds = 1; think_us = 30_000 } in
  let r = S.serve fs (C.makedo_scripts spec ~clients:3) in
  Obs.Jsonb.to_string (S.report_json r)

let test_determinism () =
  let a = run_report () in
  let b = run_report () in
  check bool "same seed, byte-identical reports" true (String.equal a b)

(* ------------------------------------------------------------------ *)
(* Group commit amortisation: more clients per force                    *)

let ops_per_force clients =
  let _, fs = fresh_fs () in
  let spec = { C.default_spec with C.modules = 4; rounds = 1; think_us = 60_000 } in
  let r = S.serve fs (C.makedo_scripts spec ~clients) in
  check int "no rejects" 0 r.S.total_rejected;
  check int "no errors" 0 r.S.total_errors;
  r.S.ops_per_force

let test_batching_amortizes () =
  let one = ops_per_force 1 in
  let eight = ops_per_force 8 in
  check bool
    (Printf.sprintf "8 clients amortise better (1: %.2f, 8: %.2f)" one eight)
    true
    (eight > one *. 2.)

(* Every mutating op must be acknowledged exactly once. *)
let test_all_mutations_acked () =
  let _, fs = fresh_fs () in
  let scripts =
    Array.init 3 (fun client ->
        create_script ~client ~creates:5 ~bytes:700 ~think:40_000)
  in
  let acks = ref 0 in
  let config =
    { S.default_config with S.on_ack = Some (fun ~client:_ ~op:_ -> incr acks) }
  in
  let r = S.serve ~config fs scripts in
  check int "15 mutations acked" 15 r.S.mutations_acked;
  check int "ack hook fired per mutation" 15 !acks;
  check int "every op ran" 15 r.S.total_ops;
  Array.iter
    (fun s -> check bool "session drained" true (Fsd.exists fs ~name:s))
    [| "c00/f4"; "c01/f4"; "c02/f4" |]

(* ------------------------------------------------------------------ *)
(* Fairness: a bulk writer must not starve small sessions               *)

let test_fairness_no_starvation () =
  let _, fs = fresh_fs () in
  (* Client 0 streams creates with almost no think time; clients 1-3 do
     light metadata churn with human-scale pauses. *)
  let scripts =
    Array.init 4 (fun client ->
        if client = 0 then
          C.bulk_writer ~client ~files:30 ~bytes:2_000 ~think_us:2_000 ~seed:9
        else C.churn ~client ~ops:8 ~bytes:400 ~think_us:40_000 ~seed:(10 + client))
  in
  let r = S.serve fs scripts in
  check int "no rejects" 0 r.S.total_rejected;
  check int "no errors" 0 r.S.total_errors;
  let interval = (Fsd.params fs).Params.commit_interval_us in
  List.iter
    (fun s ->
      if s.S.r_client > 0 then begin
        check bool
          (Printf.sprintf "session %d made progress" s.S.r_client)
          true (s.S.r_mutations > 0);
        (* Bounded commit wait: no small session ever waits longer than
           three commit intervals even while the bulk writer floods. *)
        check bool
          (Printf.sprintf "session %d wait bounded (max %d us)" s.S.r_client
             s.S.r_wait_max_us)
          true
          (s.S.r_wait_max_us < 3 * interval)
      end)
    r.S.per_session;
  check bool "p99 commit wait bounded" true
    (r.S.wait_p99_us < float_of_int (3 * interval))

(* ------------------------------------------------------------------ *)
(* Admission control: typed rejects, never a block, never a lost op     *)

(* Regression (ISSUE 5): the depth cap used to be gated on log fill, so
   with a near-empty log the parked queue could grow past [queue_cap].
   The cap must hold unconditionally, and a rejected step must be
   retried rather than silently dropped. *)
let test_queue_cap_unconditional () =
  let _, fs = fresh_fs () in
  let rejects = ref [] in
  let config =
    {
      S.default_config with
      S.queue_cap = 2;
      max_batch = 1000;
      on_reject =
        Some
          (fun ~client e ->
            (match e with
            | S.Queue_full { depth; cap } ->
              check int "cap reported" 2 cap;
              check bool "depth at or over cap" true (depth >= cap)
            | S.Backpressure _ ->
              Alcotest.fail "fill trigger is disabled at threshold 1.0");
            rejects := client :: !rejects);
    }
  in
  let scripts =
    Array.init 4 (fun client ->
        create_script ~client ~creates:4 ~bytes:600 ~think:0)
  in
  let r = S.serve ~config fs scripts in
  check bool "cap rejected some admissions despite empty log" true
    (r.S.total_rejected > 0);
  check int "hook saw every reject" r.S.total_rejected (List.length !rejects);
  check int "rejects are not errors" 0 r.S.total_errors;
  (* Never lost: every mutation is eventually acked or counted dropped. *)
  check int "acked + dropped covers every mutation" 16
    (r.S.mutations_acked + r.S.total_dropped);
  check int "retries eventually drained the queue" 0 r.S.total_dropped

(* Regression (ISSUE 5): log-fill backpressure is a distinct trigger
   with its own typed error, and exhausting the bounded retries turns
   into an accounted drop — not a silent loss. *)
let test_backpressure_typed_reject () =
  let _, fs = fresh_fs () in
  let saw = ref 0 in
  let config =
    {
      S.default_config with
      S.backpressure_fill = 0.0;
      admission_retries = 2;
      on_reject =
        Some
          (fun ~client:_ e ->
            match e with
            | S.Backpressure { depth; threshold; _ } ->
              check int "queue empty at reject time" 0 depth;
              check bool "threshold echoed" true (threshold = 0.0);
              incr saw
            | S.Queue_full _ ->
              Alcotest.fail "queue is nowhere near its cap");
    }
  in
  let scripts = [| create_script ~client:0 ~creates:2 ~bytes:600 ~think:0 |] in
  let r = S.serve ~config fs scripts in
  check int "arrival + 2 retries rejected per step" 6 r.S.total_rejected;
  check int "hook saw every reject" 6 !saw;
  check int "exhausted retries counted as drops" 2 r.S.total_dropped;
  check int "nothing acked" 0 r.S.mutations_acked

(* ------------------------------------------------------------------ *)
(* Crash atomicity: acked present, unacked absent                       *)

let test_crash_atomicity () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  let fs, _ = Fsd.boot device in
  let acked = ref [] in
  let crash_force = 3 in
  (* Sectors written since the fault was armed: it fires on the first
     write after arming, so any write that finds this non-zero reached
     the device after the crash. *)
  let since_arm = ref None and stray_writes = ref 0 in
  Device.set_observer device
    (Some
       (fun ~rw ~sector:_ ~count ->
         match (rw, !since_arm) with
         | `W, Some seen ->
           if seen > 0 then incr stray_writes;
           since_arm := Some (seen + count)
         | _ -> ()));
  let config =
    {
      S.default_config with
      S.on_force =
        Some
          (fun n ->
            if n = crash_force then begin
              since_arm := Some 0;
              Device.plan_write_crash device ~after_sectors:0 ~damage_tail:0
            end);
      on_ack =
        Some (fun ~client:_ ~op -> acked := C.op_name op :: !acked);
    }
  in
  let scripts =
    Array.init 2 (fun client ->
        create_script ~client ~creates:8 ~bytes:900 ~think:180_000)
  in
  let server = S.create ~config fs scripts in
  let r = S.run server in
  check (Alcotest.list int) "the crash quarantined the volume" [ 0 ]
    (S.crashed_volumes server);
  check bool "the report marks the volume crashed" true
    (List.hd r.S.per_volume).S.vr_crashed;
  check int "no sector write after the fault fired" 0 !stray_writes;
  Device.set_observer device None;
  Device.cancel_write_crash device;
  check bool "some transactions were acked before the crash" true
    (List.length !acked > 0);
  (* Reboot: log replay must land exactly the acknowledged transactions. *)
  let fs2, _ = Fsd.boot device in
  List.iter
    (fun name ->
      check bool ("acked survives the crash: " ^ name) true
        (Fsd.exists fs2 ~name))
    !acked;
  let all_names =
    Array.to_list scripts |> List.concat_map script_names
  in
  let unacked = List.filter (fun n -> not (List.mem n !acked)) all_names in
  check bool "some transactions were still unacknowledged" true
    (List.length unacked > 0);
  List.iter
    (fun name ->
      check bool ("unacked never visible after recovery: " ^ name) false
        (Fsd.exists fs2 ~name))
    unacked

(* ------------------------------------------------------------------ *)
(* Demons.run_due is exactly the demon half of Fsd.tick                 *)

let test_demons_split_equivalence () =
  let drive advance =
    let _, fs = fresh_fs () in
    ignore (Fsd.create fs ~name:"d/one" (Bytes.create 700));
    advance fs 700_000;
    (fsd_count fs "forces", Fsd.durable_seq fs, Fsd.mutation_seq fs)
  in
  let via_tick = drive (fun fs us -> Fsd.tick fs ~us) in
  let via_demons =
    drive (fun fs us ->
        Simclock.advance (Device.clock (Fsd.device fs)) us;
        Demons.run_due fs)
  in
  check bool "advance + Demons.run_due ≡ tick" true (via_tick = via_demons)

(* ------------------------------------------------------------------ *)
(* Params validation                                                    *)

let test_params_blackbox_cadence_validated () =
  let geom = Geometry.small_test in
  let p = Params.for_geometry geom in
  (match Params.validate geom { p with Params.blackbox_every_n_forces = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cadence 0 must be rejected");
  match Params.validate geom { p with Params.blackbox_every_n_forces = 8 } with
  | Ok () -> ()
  | Error m -> Alcotest.failf "cadence 8 wrongly rejected: %s" m

(* ------------------------------------------------------------------ *)
(* Session interleaving is visible in the Chrome export                 *)

let test_session_trace_export () =
  let _, fs = fresh_fs () in
  Obs.Trace.enable (Device.trace (Fsd.device fs));
  let scripts =
    Array.init 2 (fun client ->
        create_script ~client ~creates:3 ~bytes:500 ~think:50_000)
  in
  ignore (S.serve fs scripts : S.report);
  let json =
    Obs.Jsonb.to_string
      (Obs.Export.chrome (Obs.Trace.to_list (Device.trace (Fsd.device fs))))
  in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "per-session track names" true
    (contains "session 0" && contains "session 1");
  check bool "session op spans" true (contains "\"session00\"");
  check bool "commit waits drawn on session tracks" true (contains "commit-wait")

(* ------------------------------------------------------------------ *)
(* Script files                                                         *)

let test_script_parser () =
  let text =
    "# build one file, read it back\n\
     think 5000\n\
     create {c}/a.txt 2048\n\
     read-page {c}/a.txt 0\n\
     list {c}/\n\
     force\n\
     delete {c}/a.txt\n"
  in
  match C.parse_script text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok script ->
    check int "six steps" 6 (List.length script);
    let inst = C.instantiate script ~client:3 in
    (match inst with
    | C.Think 5000
      :: C.Op (C.Create { name = "c03/a.txt"; bytes = 2048; _ })
      :: C.Op (C.Read_page { name = "c03/a.txt"; page = 0 })
      :: _ ->
      ()
    | _ -> Alcotest.fail "instantiation did not substitute {c}");
    (* And the instantiated script actually runs. *)
    let _, fs = fresh_fs () in
    let r = S.serve fs [| C.instantiate script ~client:0 |] in
    check int "parser script runs clean" 0 r.S.total_errors

let test_script_parser_rejects_garbage () =
  (match C.parse_script "create onlyname\n" with
  | Error m ->
    check bool "error names the line" true
      (String.length m >= 6 && String.sub m 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "malformed create accepted");
  match C.parse_script "think soon\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric think accepted"

let suite =
  [
    Alcotest.test_case "same-seed runs are byte-identical" `Quick test_determinism;
    Alcotest.test_case "more clients amortise each force" `Slow
      test_batching_amortizes;
    Alcotest.test_case "every mutation acked exactly once" `Quick
      test_all_mutations_acked;
    Alcotest.test_case "bulk writer does not starve small sessions" `Quick
      test_fairness_no_starvation;
    Alcotest.test_case "depth cap holds even with an empty log" `Quick
      test_queue_cap_unconditional;
    Alcotest.test_case "fill backpressure is a distinct typed reject" `Quick
      test_backpressure_typed_reject;
    Alcotest.test_case "crash keeps acked, drops unacked" `Quick
      test_crash_atomicity;
    Alcotest.test_case "Demons.run_due matches Fsd.tick" `Quick
      test_demons_split_equivalence;
    Alcotest.test_case "blackbox cadence param is validated" `Quick
      test_params_blackbox_cadence_validated;
    Alcotest.test_case "chrome export shows session interleaving" `Quick
      test_session_trace_export;
    Alcotest.test_case "script files parse and run" `Quick test_script_parser;
    Alcotest.test_case "script parser rejects malformed steps" `Quick
      test_script_parser_rejects_garbage;
  ]
