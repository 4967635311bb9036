(* The telemetry monitor: hand-computed interval maths over a private
   registry, sliding-window percentiles, ring eviction, the end-to-end
   determinism contract through the server, the zero-I/O sampling
   guarantee, and the open-loop generator the monitor exists to
   observe. *)

open Cedar_util
open Cedar_disk
open Cedar_obs
module Fsd = Cedar_fsd.Fsd
module Params = Cedar_fsd.Params
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server

(* One "fsd.*" counter from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Cedar_obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let close = Alcotest.float 1e-9

let small_fs () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  (device, fst (Fsd.boot device))

(* ------------------------------------------------------------------ *)
(* Interval maths, by hand                                             *)

let test_hand_computed_intervals () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let busy = ref 0 in
  let work = Metrics.counter m "work.done" in
  Metrics.gauge m "dev.busy_us" (fun () -> !busy);
  (* pre-monitor history: the baseline must swallow it *)
  Metrics.add work 7;
  busy := 25;
  let mon = Monitor.create ~interval_us:100 ~now:(fun () -> !clock) m in
  Monitor.derive mon "busy_frac" (fun v ->
      float_of_int (v.Monitor.delta "dev.busy_us")
      /. float_of_int v.Monitor.dt_us);
  (* interval 1: 3 units of work, 40 us of device busy *)
  Metrics.add work 3;
  busy := 65;
  clock := 100;
  let s1 = Monitor.sample_now mon in
  check int "dt spans the interval" 100 s1.Monitor.dt_us;
  check int "counter reports the delta, not the total" 3
    (List.assoc "work.done" s1.Monitor.counters);
  check int "gauge reports the point value" 65
    (List.assoc "dev.busy_us" s1.Monitor.gauges);
  check close "busy fraction = 40/100" 0.4
    (List.assoc "busy_frac" s1.Monitor.derived);
  (* interval 2: completely idle *)
  clock := 200;
  let s2 = Monitor.sample_now mon in
  check int "idle interval delta" 0 (List.assoc "work.done" s2.Monitor.counters);
  check close "idle busy fraction" 0.0
    (List.assoc "busy_frac" s2.Monitor.derived);
  (* interval 3: late sample — dt stretches, the fraction still lands *)
  Metrics.add work 5;
  busy := 215;
  clock := 350;
  let s3 = Monitor.sample_now mon in
  check int "stretched dt" 150 s3.Monitor.dt_us;
  check int "delta across the stretch" 5
    (List.assoc "work.done" s3.Monitor.counters);
  check close "saturated busy fraction = 150/150" 1.0
    (List.assoc "busy_frac" s3.Monitor.derived);
  check int "three samples retained" 3 (Monitor.count mon)

let test_cadence () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let mon = Monitor.create ~interval_us:100 ~now:(fun () -> !clock) m in
  check int "next sample due one interval after creation" 100
    (Monitor.due_at mon);
  clock := 99;
  Monitor.maybe_sample mon;
  check int "one tick early: no sample" 0 (Monitor.total mon);
  clock := 100;
  Monitor.maybe_sample mon;
  check int "on the due tick: sample" 1 (Monitor.total mon);
  Monitor.maybe_sample mon;
  check int "same instant: no second sample" 1 (Monitor.total mon);
  check int "cadence advances from the sample time" 200 (Monitor.due_at mon)

(* ------------------------------------------------------------------ *)
(* Sliding-window percentiles                                          *)

let test_window_percentiles () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let lat = Metrics.dist m "lat_us" in
  let mon =
    Monitor.create ~window:10 ~interval_us:100 ~now:(fun () -> !clock) m
  in
  Monitor.watch_dist mon "lat_us";
  (* not registered values yet: w_n = 0 *)
  clock := 100;
  let s0 = Monitor.sample_now mon in
  check int "empty window" 0
    (List.assoc "lat_us" s0.Monitor.dists).Monitor.w_n;
  (* 1..100 recorded; the window keeps the newest 10 (91..100) *)
  for i = 1 to 100 do
    Stats.add lat (float_of_int i)
  done;
  clock := 200;
  let s1 = Monitor.sample_now mon in
  let w = List.assoc "lat_us" s1.Monitor.dists in
  check int "window holds its bound" 10 w.Monitor.w_n;
  check close "p50 by nearest rank over 91..100" 95.0 w.Monitor.w_p50;
  check close "p90 by nearest rank" 99.0 w.Monitor.w_p90;
  check close "p99 rounds up to the max" 100.0 w.Monitor.w_p99;
  (* window slides: three more values push out 91..93 *)
  List.iter (fun v -> Stats.add lat v) [ 7.0; 7.0; 7.0 ];
  clock := 300;
  let s2 = Monitor.sample_now mon in
  let w2 = List.assoc "lat_us" s2.Monitor.dists in
  check int "still bounded" 10 w2.Monitor.w_n;
  (* window now 94..100,7,7,7; sorted 7,7,7,94..100: p50 = 5th = 95 *)
  check close "slid p50" 95.0 w2.Monitor.w_p50

(* ------------------------------------------------------------------ *)
(* Ring eviction                                                       *)

let test_ring_eviction () =
  let m = Metrics.create () in
  let clock = ref 0 in
  let mon = Monitor.create ~ring:8 ~interval_us:10 ~now:(fun () -> !clock) m in
  for i = 1 to 20 do
    clock := i * 10;
    ignore (Monitor.sample_now mon : Monitor.sample)
  done;
  check int "retained capped at the ring" 8 (Monitor.count mon);
  check int "lifetime total keeps counting" 20 (Monitor.total mon);
  check int "evictions counted" 12 (Monitor.evicted mon);
  let ats = List.map (fun s -> s.Monitor.at_us) (Monitor.samples mon) in
  check (Alcotest.list int) "oldest-first, newest survive"
    [ 130; 140; 150; 160; 170; 180; 190; 200 ]
    ats;
  check bool "last_sample is the newest" true
    (match Monitor.last_sample mon with
    | Some s -> s.Monitor.at_us = 200
    | None -> false)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism through the server                           *)

let open_loop_timelines () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  let fs, _ = Fsd.boot device in
  let mon = Fsd.enable_monitor fs in
  let scripts =
    C.open_loop
      { C.default_open with C.ol_ops = 80; ol_rate_per_s = 30.0 }
      ~clients:4
  in
  let _r = S.serve fs scripts in
  let samples = Monitor.samples mon in
  (Jsonb.to_string (Timeline.to_json samples), Timeline.to_csv samples,
   List.length samples)

let test_timeline_determinism () =
  let j1, c1, n1 = open_loop_timelines () in
  let j2, c2, n2 = open_loop_timelines () in
  check bool "enough samples to mean anything" true (n1 >= 10);
  check int "same sample count" n1 n2;
  check string "byte-identical JSON timelines" j1 j2;
  check string "byte-identical CSV timelines" c1 c2;
  (match Jsonb.of_string j1 with
  | Ok (Jsonb.Arr l) -> check int "JSON parses back to one object per sample" n1 (List.length l)
  | Ok _ -> Alcotest.fail "timeline JSON is not an array"
  | Error m -> Alcotest.failf "timeline JSON does not parse: %s" m);
  (* every sample carries the saturation gauges the sweep keys on *)
  check bool "derived gauges present" true
    (String.length c1 > 0
    &&
    let header = String.sub c1 0 (String.index c1 '\n') in
    let has s =
      let lh = String.length header and ls = String.length s in
      let rec go i = i + ls <= lh && (String.sub header i ls = s || go (i + 1)) in
      go 0
    in
    has "d.sat.device_busy" && has "d.sat.op_rate_s"
    && has "server.commit_wait_us.p99")

(* Sampling must cost no device I/O: the same run with the monitor on
   and off performs identical I/O and ends at the identical virtual
   time. *)
let test_sampling_is_io_free () =
  let run monitored =
    let clock = Simclock.create () in
    let device = Device.create ~clock Geometry.small_test in
    Fsd.format device (Params.for_geometry Geometry.small_test);
    let fs, _ = Fsd.boot device in
    if monitored then ignore (Fsd.enable_monitor fs : Monitor.t);
    for i = 0 to 19 do
      ignore
        (Fsd.create fs
           ~name:(Printf.sprintf "m/f%02d" i)
           (Bytes.make 700 'x'));
      Fsd.tick fs ~us:60_000
    done;
    Fsd.force fs;
    ( Option.value ~default:0 (Metrics.read (Device.metrics device) "device.ios"),
      Simclock.now clock,
      match Fsd.monitor fs with Some m -> Monitor.total m | None -> 0 )
  in
  let ios_off, t_off, _ = run false in
  let ios_on, t_on, taken = run true in
  check bool "monitor actually sampled" true (taken > 0);
  check int "identical device I/O with the monitor on" ios_off ios_on;
  check int "identical virtual end time" t_off t_on

(* A deferred/queued device charges busy time on its own horizon, which
   can run ahead of the sampling clock: one interval may see more busy
   microseconds than wall microseconds. The gauge must clamp at 1.0
   (saturated) rather than report a fraction above one (ISSUE 10
   bugfix). *)
let test_device_busy_clamped () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  let fs, _ = Fsd.boot device in
  Device.set_deferred device true;
  Device.set_queue device ~policy:Device.Sstf ~depth:8;
  let mon = Fsd.enable_monitor ~interval_us:1_000 fs in
  let busy0 =
    Option.value ~default:0 (Metrics.read (Device.metrics device) "device.busy_us")
  in
  (* A burst of large creates back to back: the deferred device does all
     the work on its horizon while the clock stands still. *)
  for i = 0 to 11 do
    ignore (Fsd.create fs ~name:(Printf.sprintf "b/f%02d" i) (Bytes.make 6_000 'z'))
  done;
  Fsd.force fs;
  (* One short interval elapses; the monitor samples it. *)
  Fsd.tick fs ~us:1_000;
  check bool "monitor sampled" true (Monitor.total mon > 0);
  let s =
    match Monitor.last_sample mon with
    | Some s -> s
    | None -> Alcotest.fail "no sample retained"
  in
  let busy1 = List.assoc "device.busy_us" s.Monitor.gauges in
  check bool
    (Printf.sprintf "device busy delta (%d us) overran the interval (%d us)"
       (busy1 - busy0) s.Monitor.dt_us)
    true
    (busy1 - busy0 > s.Monitor.dt_us);
  check close "sat.device_busy clamps to 1.0" 1.0
    (List.assoc "sat.device_busy" s.Monitor.derived)

let test_monitor_toggle () =
  let _device, fs = small_fs () in
  check bool "off by default" true (Fsd.monitor fs = None);
  let m = Fsd.enable_monitor ~interval_us:50_000 fs in
  check int "interval override taken" 50_000 (Monitor.interval_us m);
  Fsd.tick fs ~us:200_000;
  check bool "demon path polls the monitor" true (Monitor.total m > 0);
  Fsd.disable_monitor fs;
  check bool "disabled detaches" true (Fsd.monitor fs = None);
  let before = fsd_count fs "ops" in
  ignore (Fsd.create fs ~name:"m/after" (Bytes.make 100 'y'));
  check int "ops still run after detach" (before + 1) (fsd_count fs "ops")

(* ------------------------------------------------------------------ *)
(* The open-loop generator                                             *)

let test_open_loop_generator () =
  let spec = { C.default_open with C.ol_ops = 200 } in
  let a = C.open_loop spec ~clients:5 in
  let b = C.open_loop spec ~clients:5 in
  check bool "same spec, same scripts" true (a = b);
  let total_ops =
    Array.fold_left
      (fun n script ->
        n
        + List.length
            (List.filter (function C.Op _ -> true | _ -> false) script))
      0 a
  in
  check int "every arrival lands on some client" 200 total_ops;
  Array.iter
    (fun script ->
      (* arrival deadlines are monotone within a session *)
      let ats =
        List.filter_map (function C.At t -> Some t | _ -> None) script
      in
      check bool "At deadlines monotone nondecreasing" true
        (List.for_all2 ( <= ) ats (List.tl ats @ [ max_int ]));
      List.iter
        (function
          | C.Op (C.Create { bytes; _ }) ->
            check bool "bounded-Pareto sizes stay in range" true
              (bytes >= spec.C.ol_bytes_min && bytes <= spec.C.ol_bytes_max)
          | _ -> ())
        script)
    a;
  (* a different seed reshuffles the traffic *)
  check bool "seed changes the stream" true
    (C.open_loop { spec with C.ol_seed = 2 } ~clients:5 <> a)

let test_open_loop_replays_cleanly () =
  let _device, fs = small_fs () in
  let scripts =
    C.open_loop
      { C.default_open with C.ol_ops = 60; ol_rate_per_s = 25.0 }
      ~clients:3
  in
  let r = S.serve fs scripts in
  check int "no client errors" 0 r.S.total_errors;
  check int "no aborted sessions" 0 r.S.total_aborted;
  check int "every arrival executed" 60 r.S.total_ops

let suite =
  [
    ("hand-computed interval deltas", `Quick, test_hand_computed_intervals);
    ("sampling cadence", `Quick, test_cadence);
    ("sliding-window percentiles", `Quick, test_window_percentiles);
    ("ring eviction", `Quick, test_ring_eviction);
    ("timeline determinism end-to-end", `Quick, test_timeline_determinism);
    ("sampling performs zero device I/O", `Quick, test_sampling_is_io_free);
    ("sat.device_busy clamps at 1.0", `Quick, test_device_busy_clamped);
    ("enable/disable round trip", `Quick, test_monitor_toggle);
    ("open-loop generator", `Quick, test_open_loop_generator);
    ("open-loop replays cleanly", `Quick, test_open_loop_replays_cleanly);
  ]
