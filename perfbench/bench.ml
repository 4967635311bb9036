(* One benchmark run: repeat the workload until the time is up, gate
   every round, and reduce the rounds to metrics.

   A round runs every job of the workload once on fresh volumes. All
   rounds of a run replay the same seed, so their simulated results
   must be identical; that is checked, and the host figures are the
   medians over the rounds, in reference seconds ([Calib]). *)

module R = Report

type result = {
  correct : bool;
  problems : string list;
  attempted : int;
  failed : int;
  metrics : R.metric list;
}

let scale_spans f (s : Round.spans) =
  {
    Round.setup_s = f *. s.Round.setup_s;
    serve_s = f *. s.Round.serve_s;
    recovery_s = f *. s.Round.recovery_s;
    check_s = f *. s.Round.check_s;
  }

(* Each job is calibrated on its own, by the slices around and inside
   it: the host's speed drifts from one job to the next. *)
let round ?trace ?monitor ?sampler (w : Workloads.t) =
  List.map
    (fun job ->
      let meter = Calib.meter () in
      Calib.run meter Calib.bracket_slices;
      let r = Round.run ?trace ?monitor ?sampler ~meter job in
      Calib.run meter Calib.bracket_slices;
      { r with Round.spans = scale_spans (Calib.factor meter) r.Round.spans })
    w.Workloads.jobs

(* Everything the simulated clock and the program's counters produce;
   two rounds of one seed must render it byte for byte the same. *)
let fingerprint w rounds =
  String.concat ";"
    (List.map
       (fun mt -> Printf.sprintf "%s=%h" mt.R.name mt.R.value)
       (R.sim_metrics w rounds @ R.layer_metrics w rounds))

let gate_problems rounds =
  List.concat_map
    (fun r ->
      List.map (fun g -> r.Round.job.Workloads.label ^ ": " ^ g) r.Round.gate)
    rounds

let serve_s rounds = R.sum (fun r -> r.Round.spans.Round.serve_s) rounds

(* Setting up is cheap next to serving, so it is timed on its own
   [setup_reps] times, between calibration slices, and reported as a
   median in reference seconds. *)
let setup_reps = 25

let setup_times (w : Workloads.t) =
  Calib.interleaved setup_reps (fun () ->
      List.iter (fun job -> ignore (Round.setup job : _ * _)) w.Workloads.jobs)

let finish ~problems ~first metrics =
  let problems =
    problems
    @ List.filter_map
        (fun mt ->
          if Float.is_finite mt.R.value then None
          else Some (mt.R.name ^ " is not a finite number"))
        metrics
  in
  {
    correct = problems = [];
    problems;
    attempted = int_of_float (R.scripted first);
    failed = int_of_float (R.failed first);
    metrics;
  }

(* Call [f] at least once and then until [seconds] of wall time have
   passed since [started]. *)
let repeat ~started ~seconds f =
  let first = f () in
  let rec go acc =
    if Unix.gettimeofday () -. started >= seconds then List.rev acc
    else go (f () :: acc)
  in
  go [ first ]

let determinism_problems w first rest =
  let fp = fingerprint w first in
  List.concat_map
    (fun r ->
      if fingerprint w r = fp then []
      else [ "simulated results differ between two rounds of the same kind" ])
    rest

(* --trace 0: the end-to-end metrics, every tracing facility off. *)
let end_to_end ~seconds (w : Workloads.t) =
  let started = Unix.gettimeofday () in
  let setups = setup_times w in
  let heap = ref 0. in
  let rounds =
    repeat ~started ~seconds (fun () ->
        let r = round w in
        if !heap = 0. then heap := R.heap_mb ();
        r)
  in
  let first = List.hd rounds in
  let problems =
    List.concat_map gate_problems rounds @ determinism_problems w first (List.tl rounds)
  in
  finish ~problems ~first
    (R.sim_metrics w first
    @ [
        R.m "host_us_per_op" "us" (R.median (List.map R.host_us_per_op rounds));
        R.m "host_peak_heap_mb" "MB" !heap;
        R.m "setup_s" "s" (R.median setups);
      ])

let median_metrics = function
  | [] -> []
  | first :: _ as all ->
    List.mapi
      (fun i mt -> { mt with R.value = R.median (List.map (fun l -> (List.nth l i).R.value) all) })
      first

(* --trace 1: the per-layer metrics. Each repetition runs the whole
   workload plain, for the counters and spans, and then its reference
   job three more times: with the program's trace on, with its monitor
   on, and under the host sampler. The overheads compare the reference
   job's serve time in the first two of those with its plain one. *)
let per_layer ~seconds (w : Workloads.t) =
  let started = Unix.gettimeofday () in
  let sampler = Sampler.create () in
  let reference = { w with Workloads.jobs = [ Workloads.reference_job w ] } in
  let reps =
    repeat ~started ~seconds (fun () ->
        let plain = round w in
        let plain_ref =
          List.filter (fun r -> r.Round.job == Workloads.reference_job w) plain
        in
        (plain, plain_ref, round ~trace:true reference, round ~monitor:true reference,
         round ~sampler reference))
  in
  let plain, _, traced, monitored, _ = List.hd reps in
  let kind pick = List.map pick reps in
  (* Tracing and the monitor both shift simulated time a little (the
     black box writes the trace tail at forces), so rounds are compared
     with rounds of the same kind. The sampler must not move the
     simulation at all. *)
  let problems =
    List.concat_map
      (fun (p, _, t, m, s) -> List.concat_map gate_problems [ p; t; m; s ])
      reps
    @ determinism_problems w plain (List.tl (kind (fun (p, _, _, _, _) -> p)))
    @ determinism_problems reference
        (List.hd (kind (fun (_, r, _, _, _) -> r)))
        (kind (fun (_, _, _, _, s) -> s))
    @ determinism_problems reference traced (List.tl (kind (fun (_, _, t, _, _) -> t)))
    @ determinism_problems reference monitored (List.tl (kind (fun (_, _, _, m, _) -> m)))
  in
  let overhead pick =
    R.median (List.map (fun rep -> serve_s (pick rep)) reps)
    /. R.median (kind (fun (_, r, _, _, _) -> serve_s r))
    -. 1.
  in
  finish ~problems ~first:plain
    (R.layer_metrics w plain
    @ R.critpath_metrics traced
    @ [
        R.m "obs.trace_overhead_frac" "frac" (overhead (fun (_, _, t, _, _) -> t));
        R.m "obs.monitor_overhead_frac" "frac" (overhead (fun (_, _, _, m, _) -> m));
        R.m "host.samples" "count" (float_of_int (Sampler.samples sampler));
      ]
    @ List.map (fun (l, s) -> R.m (Printf.sprintf "host.%s_frac" l) "frac" s) (Sampler.shares sampler)
    @ median_metrics (kind (fun (p, _, _, _, _) -> R.span_metrics p)))

(* The result line: one JSON object, numbers with all their digits. *)
let to_json r =
  let num v = Printf.sprintf "%.17g" v in
  let metrics =
    if not r.correct then []
    else
      List.map
        (fun mt ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.R.name (num mt.R.value) mt.R.unit_)
        r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)
