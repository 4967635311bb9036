(* Metrics from rounds. Every function here is pure over [Round.t]
   values; the simulated ones depend only on the seed, the host ones
   are medians over the rounds of a run. *)

open Cedar_util
module Iostats = Cedar_disk.Iostats
module S = Cedar_server.Server
module Fsd = Cedar_fsd.Fsd
module Critpath = Cedar_obs.Critpath

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let median = function
  | [] -> invalid_arg "Report.median: empty"
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let ms_of_us us = us /. 1000.
let pctl st p = if Stats.n st = 0 then 0. else Stats.percentile st p

(* Registry names of a multi-volume set carry a "volN." prefix; strip it
   so instruments aggregate across volumes. *)
let base_name n =
  let len = String.length n in
  if len > 3 && String.sub n 0 3 = "vol" then
    match String.index_opt n '.' with
    | Some i
      when i > 3 && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub n 3 (i - 3))
      ->
      String.sub n (i + 1) (len - i - 1)
    | _ -> n
  else n

let counter (r : Round.t) name =
  List.fold_left
    (fun acc (n, v) -> if base_name n = name then acc + v else acc)
    0 r.Round.counters

let counter_all rounds name = fi (List.fold_left (fun a r -> a + counter r name) 0 rounds)

let pool series =
  let st = Stats.create () in
  List.iter (fun d -> List.iter (Stats.add st) (Stats.recent d (Stats.n d))) series;
  st

(* One registry distribution pooled over volumes (and over jobs). *)
let pooled rounds name =
  pool
    (List.concat_map
       (fun (r : Round.t) ->
         List.filter_map (fun (n, d) -> if base_name n = name then Some d else None) r.Round.dists)
       rounds)

let sum f rounds = List.fold_left (fun a r -> a +. f r) 0. rounds
let max_over f rounds = List.fold_left (fun a r -> Float.max a (f r)) 0. rounds
let arr_max f a = Array.fold_left (fun acc x -> Float.max acc (f x)) 0. a
let arr_sum f a = Array.fold_left (fun acc x -> acc +. f x) 0. a
let ops (r : Round.t) = fi r.Round.report.S.total_ops
let completed (r : Round.t) = fi (r.Round.report.S.total_ops - r.Round.report.S.total_errors)
let duration_s (r : Round.t) = Simclock.s_of_us r.Round.report.S.duration_us

(* ---- the open-loop ladder ---- *)

let ladder rounds =
  List.filter (fun r -> r.Round.job.Workloads.replica = 0) rounds
  |> List.filter_map (fun r -> Option.map (fun rate -> (rate, r)) r.Round.job.Workloads.offered_rate)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The latency series the end-to-end percentiles read: due time to ack,
   pooled over the runs of the reference rung, for an open loop;
   [server.op_latency_us] pooled over volumes for a closed one. *)
let latency (w : Workloads.t) rounds =
  if w.Workloads.open_loop then
    pool
      (List.filter_map
         (fun r ->
           if r.Round.job.Workloads.offered_rate = Some Workloads.reference_rate then
             Some r.Round.ack_latency_us
           else None)
         rounds)
  else pooled rounds "server.op_latency_us"

(* Capacity: at the top rung of an open loop, past the knee; pooled over
   the runs of a closed one. *)
let sim_ops_per_s (w : Workloads.t) rounds =
  let rounds =
    if w.Workloads.open_loop then [ snd (List.nth (ladder rounds) (List.length (ladder rounds) - 1)) ]
    else rounds
  in
  ratio (sum completed rounds) (sum duration_s rounds)

(* The highest sustainable offered rate: where the ladder's p99 curve,
   linear between rungs, first crosses the latency limit. Past the knee
   the backlog grows and the p99 climbs to tens of seconds, so a rate
   under the limit is also one without a growing backlog. 0 when the
   lowest rung already misses the limit, and for a closed loop, which
   has no offered rate. *)
let max_rate (w : Workloads.t) rounds =
  let limit = Workloads.latency_limit_ms in
  let p99 r = ms_of_us (pctl r.Round.ack_latency_us 0.99) in
  let rec cross = function
    | (r0, a) :: ((r1, b) :: _ as rest) ->
      if p99 b <= limit then cross rest
      else r0 +. ((r1 -. r0) *. (limit -. p99 a) /. (p99 b -. p99 a))
    | [ (r, _) ] -> r
    | [] -> 0.
  in
  if not w.Workloads.open_loop then 0.
  else
    match ladder rounds with
    | (_, first) :: _ as l when p99 first <= limit -> cross l
    | _ -> 0.

let io_per_op rounds f = ratio (sum (fun r -> arr_sum f r.Round.io) rounds) (sum ops rounds)

let scripted rounds = sum (fun r -> fi (Workloads.scripted_ops r.Round.job)) rounds

let failed rounds = scripted rounds -. sum completed rounds

let sim_metrics (w : Workloads.t) rounds =
  let lat = latency w rounds in
  [
    m "sim_ops_per_s" "ops/s" (sim_ops_per_s w rounds);
    m "sim_op_p50_ms" "ms" (ms_of_us (pctl lat 0.50));
    m "sim_op_p99_ms" "ms" (ms_of_us (pctl lat 0.99));
    m "sim_recovery_s" "s"
      (sum (fun r -> arr_max (fun b -> Simclock.s_of_us b.Fsd.total_us) r.Round.boots) rounds
      /. fi (List.length rounds));
    m "ios_per_op" "ios/op" (io_per_op rounds (fun io -> fi io.Iostats.ios));
    m "ok_frac" "frac" (1. -. ratio (failed rounds) (scripted rounds));
  ]

(* ---- host end-to-end metrics (medians over rounds) ---- *)

let host_us_per_op rounds = 1e6 *. ratio (sum (fun r -> r.Round.spans.Round.serve_s) rounds) (sum ops rounds)

let heap_mb () =
  let s = Gc.quick_stat () in
  fi (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---- per-layer metrics ---- *)

let per_op rounds name = ratio (counter_all rounds name) (sum ops rounds)

let wraps rounds = counter_all rounds "log.third_entries" /. 3.

let layer_metrics (w : Workloads.t) rounds =
  let forces = counter_all rounds "fsd.forces" in
  let reports = List.map (fun r -> r.Round.report) rounds in
  let acked = List.concat_map (fun r -> List.map (fun v -> fi v.S.vr_acked) r.S.per_volume) reports in
  let lat = latency w rounds in
  let wait = pooled rounds "server.commit_wait_us" in
  let rec_sizes = pooled rounds "log.record_sectors" in
  let volumes = sum (fun r -> fi r.Round.job.Workloads.volumes) rounds in
  let rsum f = sum (fun r -> fi (f r.Round.report)) rounds in
  [
    m "sim_op_samples" "count" (fi (Stats.n lat));
    m "sim_max_rate_ops_s" "ops/s" (max_rate w rounds);
    m "failed_frac" "frac" (ratio (failed rounds) (scripted rounds));
    m "device.ios_per_op" "ios/op" (io_per_op rounds (fun io -> fi io.Iostats.ios));
    m "device.seek_ms_per_op" "ms/op" (ms_of_us (io_per_op rounds (fun io -> fi io.Iostats.seek_us)));
    m "device.rotation_ms_per_op" "ms/op"
      (ms_of_us (io_per_op rounds (fun io -> fi io.Iostats.rotation_us)));
    m "device.transfer_ms_per_op" "ms/op"
      (ms_of_us (io_per_op rounds (fun io -> fi io.Iostats.transfer_us)));
    m "device.sectors_written_per_op" "sectors/op"
      (io_per_op rounds (fun io -> fi io.Iostats.sectors_written));
    m "device.busy_frac" "frac"
      (max_over
         (fun r -> arr_max (fun io -> ratio (fi io.Iostats.busy_us) (fi r.Round.report.S.duration_us)) r.Round.io)
         rounds);
    m "log.forces_per_op" "forces/op" (ratio forces (sum ops rounds));
    m "log.empty_force_frac" "frac" (ratio (counter_all rounds "fsd.empty_forces") forces);
    m "log.record_sectors_mean" "sectors" (if Stats.n rec_sizes = 0 then 0. else Stats.mean rec_sizes);
    m "log.wraps" "count" (wraps rounds);
    m "fnt.home_writes_per_op" "pages/op" (per_op rounds "fnt.home_writes");
    m "btree.pages" "pages" (max_over (fun r -> arr_max (fun s -> fi s.Cedar_btree.Btree.pages) r.Round.fnt) rounds);
    m "btree.pages_per_cache" "frac"
      (max_over
         (fun r -> arr_max (fun s -> ratio (fi s.Cedar_btree.Btree.pages) (fi r.Round.cache_pages)) r.Round.fnt)
         rounds);
    m "btree.depth" "levels" (max_over (fun r -> arr_max (fun s -> fi s.Cedar_btree.Btree.depth) r.Round.fnt) rounds);
    m "vam.free_frac" "frac"
      (List.fold_left (fun acc r -> Array.fold_left Float.min acc r.Round.free_frac) 1. rounds);
    m "fsd.home_write_bursts_per_wrap" "bursts"
      (ratio (counter_all rounds "fsd.home_write_bursts") (wraps rounds));
    m "fsd.reclaim_stalls" "count" (counter_all rounds "fsd.reclaim_stalls");
    m "fsd.leader_home_writes_per_op" "writes/op" (per_op rounds "fsd.leader_home_writes");
    m "server.acked_per_force" "ops/force" (ratio (rsum (fun r -> r.S.mutations_acked)) forces);
    m "server.commit_wait_p50_ms" "ms" (ms_of_us (pctl wait 0.50));
    m "server.commit_wait_p99_ms" "ms" (ms_of_us (pctl wait 0.99));
  ]
  @ List.map
      (fun p ->
        m (Printf.sprintf "server.phase.%s_ms_per_op" p) "ms/op"
          (ms_of_us (per_op rounds (Printf.sprintf "server.phase.%s_us" p))))
      [ "queue"; "admission"; "execute"; "append"; "parked" ]
  @ [
      m "server.rejects_per_op" "1/op" (ratio (rsum (fun r -> r.S.total_rejected)) (sum ops rounds));
      m "server.retries_per_op" "1/op" (per_op rounds "server.retries");
      m "server.dropped" "count" (rsum (fun r -> r.S.total_dropped));
      m "volumes.acked_max_over_min" "ratio"
        (ratio (List.fold_left Float.max 0. acked) (List.fold_left Float.min infinity acked));
      m "volumes.forces_per_volume" "forces" (ratio (rsum (fun r -> r.S.log_forces)) volumes);
      m "recovery.log_replay_s" "s"
        (max_over (fun r -> arr_max (fun b -> Simclock.s_of_us b.Fsd.log_replay_us) r.Round.boots) rounds);
      m "recovery.vam_rebuild_s" "s"
        (max_over (fun r -> arr_max (fun b -> Simclock.s_of_us b.Fsd.vam_us) r.Round.boots) rounds);
      m "recovery.replayed_records" "count"
        (sum (fun r -> arr_sum (fun b -> fi b.Fsd.replayed_records) r.Round.boots) rounds);
    ]

(* From a traced round of one job. *)
let critpath_metrics traced =
  let r = List.hd traced in
  let cp = Option.get r.Round.critpath in
  let shares =
    match List.find_opt (fun a -> a.Critpath.a_op = "create") cp.Critpath.aggs with
    | Some a -> a.Critpath.a_tail_share
    | None -> []
  in
  List.map
    (fun ph ->
      m
        (Printf.sprintf "critpath.create.%s_tail_share" (Critpath.phase_name ph))
        "frac"
        (Option.value ~default:0. (List.assoc_opt ph shares)))
    [ Critpath.Queue; Admission; Execute; Append; Parked ]
  @ [ m "workload.late_p99_ms" "ms" (ms_of_us (pctl r.Round.late_us 0.99)) ]

let span_metrics rounds =
  let span f = m f in
  let total g = sum (fun r -> g r.Round.spans) rounds in
  [
    span "span.setup_s" "s" (total (fun s -> s.Round.setup_s));
    span "span.serve_s" "s" (total (fun s -> s.Round.serve_s));
    span "span.recovery_s" "s" (total (fun s -> s.Round.recovery_s));
    span "span.check_s" "s" (total (fun s -> s.Round.check_s));
    m "host.alloc_words_per_op" "words/op" (ratio (sum (fun r -> r.Round.alloc_words) rounds) (sum ops rounds));
  ]
