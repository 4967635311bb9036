(* One round of one job, driven through the public API only:

     setup     Volume_set.create_fresh (+ Device.set_queue)
     serve     Server.create_volumes -> Server.run
     snapshot  Metrics.snapshot, Device.stats, Fsd.fnt_stats
     recovery  power failure, then Fsd.boot on every device
     check     Oracle.diff against the ack journal, Fsd.check

   Each phase is a benchmark-side span timed on the host CPU clock. The
   simulated clock is read only through the program's own reports. *)

open Cedar_util
open Cedar_disk
module Fsd = Cedar_fsd.Fsd
module V = Cedar_volumes.Volume_set
module S = Cedar_server.Server
module C = Cedar_workload.Concurrent
module M = Cedar_obs.Metrics
module Trace = Cedar_obs.Trace
module Critpath = Cedar_obs.Critpath
module Oracle = Cedar_server.Oracle

type spans = { setup_s : float; serve_s : float; recovery_s : float; check_s : float }

type t = {
  job : Workloads.job;
  report : S.report;
  counters : (string * int) list;  (** registry Int deltas over the serve *)
  dists : (string * Stats.t) list;  (** registry distributions after it *)
  io : Iostats.t array;  (** per-volume device deltas over the serve *)
  fnt : Cedar_btree.Btree.stats array;
  cache_pages : int;
  free_frac : float array;
  boots : Fsd.boot_report array;
  ack_latency_us : Stats.t;  (** open loop: due time to ack, mutations *)
  gate : string list;  (** correctness violations; [] when the round is sound *)
  critpath : Critpath.t option;
  late_us : Stats.t;  (** traced: first admission attempt minus due time *)
  spans : spans;
  alloc_words : float;
}

let cpu () = Sys.time ()

let timed f =
  let t0 = cpu () in
  let x = f () in
  (x, cpu () -. t0)

(* ---- open-loop due times ---- *)

(* Per client, the scripted ops in order, each with the [At] deadline
   that precedes it (None in a closed loop). *)
let due_times (scripts : C.script array) =
  Array.map
    (fun script ->
      let due = ref None in
      List.rev
        (List.fold_left
           (fun acc -> function
             | C.At at ->
               due := Some at;
               acc
             | C.Think _ -> acc
             | C.Op op -> (op, !due) :: acc)
           [] script))
    scripts

(* Latency from an op's due time to its ack, taken in the server's
   [on_ack] hook. A session acks its mutations in script order, so the
   acked op is found by walking the client's queue past ops that failed
   and were never acked. *)
let ack_recorder clock scripts =
  let pending =
    Array.map
      (fun ops ->
        List.filter_map
          (fun (op, due) ->
            match due with Some d when C.mutates op -> Some (op, d) | _ -> None)
          ops)
      (due_times scripts)
  in
  let lat = Stats.create () in
  let on_ack ~client ~op =
    let rec pop = function
      | [] -> []
      | (o, due) :: rest when o == op ->
        Stats.add lat (float_of_int (Simclock.now clock - due));
        rest
      | _ :: rest -> pop rest
    in
    pending.(client) <- pop pending.(client)
  in
  (lat, on_ack)

(* Generator lateness from a lifecycle trace: when the server first
   tried to admit each op, minus when it was due (the [At] deadline in
   an open loop, the end of think time in a closed one). *)
let lateness scripts (cp : Critpath.t) =
  let due = Array.map Array.of_list (due_times scripts) in
  let st = Stats.create () in
  List.iter
    (fun (r : Critpath.op_record) ->
      let submitted = r.Critpath.arrived_us + r.Critpath.queue_us in
      let d =
        match snd due.(r.Critpath.client).(r.Critpath.opseq - 1) with
        | Some at -> at
        | None -> r.Critpath.arrived_us
      in
      Stats.add st (float_of_int (submitted - d)))
    cp.Critpath.ops;
  st

(* ---- correctness gate ---- *)

(* The expected namespace of volume [i] is rebuilt from the ack journal
   (not the scripts: some ops fail). Every name any script mutates on
   the volume is checked, so an unacked create that left a name behind
   is caught too. *)
let gate vset (scripts : C.script array) acked =
  let on_vol i name = V.route vset name = i in
  let scripted =
    Array.to_list scripts |> List.concat_map Oracle.muts_of_script
    |> Oracle.mut_names
  in
  List.concat
    (List.init (V.count vset) (fun i ->
         let fs = V.vol vset i in
         let muts =
           List.filter_map
             (fun (_, op) ->
               match Oracle.mut_of_op op with
               | Some m when on_vol i (Oracle.mut_name m) -> Some m
               | _ -> None)
             acked
         in
         let keep = (Fsd.params fs).Cedar_fsd.Params.default_keep in
         let state = Oracle.state_after ~keep muts (List.length muts) in
         let names = List.filter (on_vol i) scripted in
         let tag m = Printf.sprintf "volume %d: %s" i m in
         List.map tag (Oracle.diff fs state names)
         @
         match Fsd.check fs with
         | Ok () -> []
         | Error m -> [ tag ("check: " ^ m) ]))

(* ---- the round ---- *)

let int_snapshot m =
  List.filter_map
    (function n, M.Int v -> Some (n, v) | _, M.Dist _ -> None)
    (M.snapshot m)

let delta ~before ~after =
  List.map
    (fun (n, v) ->
      (n, v - Option.value ~default:0 (List.assoc_opt n before)))
    after

let dists m =
  List.filter_map
    (fun (n, k) ->
      match k with
      | `Dist -> Option.map (fun st -> (n, st)) (M.read_dist m n)
      | `Counter | `Gauge -> None)
    (M.kinds m)

(* Ring for traced rounds: large enough that no lifecycle start is
   overwritten (checked: a dropped entry fails the round). *)
let trace_capacity = 1 lsl 21

(* Format and boot the job's fresh volumes: the work [setup_s] times. *)
let setup (job : Workloads.job) =
  let clock = Simclock.create () in
  let vset = V.create_fresh ~geom:job.Workloads.geom ~clock job.Workloads.volumes in
  (match job.Workloads.queue with
  | None -> ()
  | Some (policy, depth) ->
    for i = 0 to V.count vset - 1 do
      Device.set_queue (V.device vset i) ~policy ~depth
    done);
  (vset, clock)

(* [trace], [monitor] and [sampler] switch the program's tracing, its
   telemetry monitor and the host sampler on around the serve phase;
   the end-to-end host metrics come from rounds with all three off.
   Calibration slices run inside the serve phase into [meter], and their
   time is not counted in it. *)
let run ?(trace = false) ?(monitor = false) ?sampler ~meter (job : Workloads.job) =
  let (vset, clock), setup_s = timed (fun () -> setup job) in
  let n = V.count vset in
  let lat, record = ack_recorder clock job.Workloads.scripts in
  let acks = ref 0 in
  let on_ack ~client ~op =
    record ~client ~op;
    incr acks;
    if !acks mod Calib.slice_every_acks = 0 then Calib.run meter 1
  in
  let config = { S.default_config with S.on_ack = Some on_ack } in
  let server = S.create_volumes ~config vset job.Workloads.scripts in
  let root = V.metrics vset in
  let before = int_snapshot root in
  let io0 = Array.init n (fun i -> Iostats.copy (Device.stats (V.device vset i))) in
  let tr = V.trace vset in
  if trace then Trace.enable ~capacity:trace_capacity tr;
  if monitor then
    V.iter (fun _ fs -> ignore (Fsd.enable_monitor fs : Cedar_obs.Monitor.t)) vset;
  Option.iter Sampler.start sampler;
  let a0 = Calib.allocated_words () and k0 = meter.Calib.spent_s
  and ka0 = meter.Calib.alloc_words in
  let report, serve_s = timed (fun () -> S.run server) in
  let serve_s = serve_s -. (meter.Calib.spent_s -. k0) in
  let alloc_words = Calib.allocated_words () -. a0 -. (meter.Calib.alloc_words -. ka0) in
  Option.iter Sampler.stop sampler;
  let critpath =
    if trace then begin
      Trace.disable tr;
      let cp = Critpath.fold (Trace.to_list tr) in
      let dropped = Trace.dropped tr in
      Trace.clear tr;
      Some (cp, dropped)
    end
    else None
  in
  V.iter (fun _ fs -> Fsd.disable_monitor fs) vset;
  (* Snapshot before rebooting: boot re-registers and zeroes the fsd/log
     counters. *)
  let counters = delta ~before ~after:(int_snapshot root) in
  let dists = dists root in
  let io =
    Array.init n (fun i ->
        Iostats.diff ~after:(Iostats.copy (Device.stats (V.device vset i))) ~before:io0.(i))
  in
  let fnt = Array.init n (fun i -> Fsd.fnt_stats (V.vol vset i)) in
  let cache_pages = (Fsd.params (V.vol vset 0)).Cedar_fsd.Params.cache_pages in
  let free_frac =
    Array.init n (fun i ->
        let fs = V.vol vset i in
        float_of_int (Fsd.free_sectors fs)
        /. float_of_int (Geometry.total_sectors (Device.geometry (Fsd.device fs))))
  in
  let acked = S.acked server in
  (* Power failure: the in-memory volumes are abandoned without a
     shutdown. Recovery runs synchronously with the queue off, because
     boot times itself on the shared clock, which a deferred device
     does not advance. *)
  let boots, recovery_s =
    timed (fun () ->
        Array.init n (fun i ->
            let dev = V.device vset i in
            if Device.queued dev then
              Device.set_queue dev ~policy:(fst (Device.queue_config dev)) ~depth:1;
            Device.set_deferred dev false;
            let fs, br = Fsd.boot dev in
            V.replace vset i fs;
            br))
  in
  let gate, check_s = timed (fun () -> gate vset job.Workloads.scripts acked) in
  let gate, critpath, late_us =
    match critpath with
    | None -> (gate, None, Stats.create ())
    | Some (cp, dropped) ->
      let extra =
        (if dropped > 0 then [ Printf.sprintf "trace ring dropped %d entries" dropped ]
         else [])
        @ (if cp.Critpath.orphans > 0 then
             [ Printf.sprintf "critpath: %d orphans" cp.Critpath.orphans ]
           else [])
        @ if cp.Critpath.all_conserved then [] else [ "critpath: phases not conserved" ]
      in
      (gate @ extra, Some cp, lateness job.Workloads.scripts cp)
  in
  {
    job;
    report;
    counters;
    dists;
    io;
    fnt;
    cache_pages;
    free_frac;
    boots;
    ack_latency_us = lat;
    gate;
    critpath;
    late_us;
    spans = { setup_s; serve_s; recovery_s; check_s };
    alloc_words;
  }
