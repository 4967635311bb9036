(* The three benchmark workloads, each a list of jobs. A job is one
   independent server run on freshly formatted volumes: its geometry,
   volume count, optional request queue and client scripts. Everything
   here is a pure function of the seed, so two calls with the same seed
   give equal scripts. *)

open Cedar_disk
module C = Cedar_workload.Concurrent

type job = {
  label : string;
  geom : Geometry.t;
  volumes : int;
  queue : (Device.policy * int) option;
  scripts : C.script array;
  offered_rate : float option;  (** open-loop offered rate, ops/s *)
  replica : int;
      (** 0 for the run on the run's own seed; above 0 for the extra
          runs a workload pools, on seeds derived from it *)
}

type t = {
  open_loop : bool;
  jobs : job list;
}

let names = [ "makedo"; "openloop"; "sharded" ]

(* Open-loop ladder: offered rates on both sides of the knee (about
   14 ops/s on one small volume), the fixed rung the latency metrics are
   read at, how many runs of that rung the percentiles pool, and the
   p99 limit a rate must meet to count as sustainable: four commit
   intervals. (At two, no rate meets it: the p99 is 1.3 s even at
   6 ops/s.) *)
let ladder = [ 6.; 8.; 10.; 11.; 12.; 13.; 14.; 16.; 20.; 24. ]
let reference_rate = 10.
let reference_runs = 3
let latency_limit_ms = 2000.

(* Seed of the [replica]-th extra run of a job: derived from the run's
   seed, so the run as a whole is still a function of its seed. *)
let replica_seed ~seed replica = if replica = 0 then seed else (seed * 7919) + replica

(* The make/do mix pools [makedo_runs] independent runs: one run's
   throughput is set by its slowest session, which varies with the
   seed. [scale] shrinks a workload for the benchmark's own tests; the
   benchmark always runs at scale 1. *)
let makedo_runs = 8

let makedo ?(scale = 1) ~seed () =
  let job replica =
    let spec = { C.default_spec with C.seed = replica_seed ~seed replica } in
    let spec = if scale > 1 then { spec with C.modules = 2; rounds = 1 } else spec in
    {
      label = Printf.sprintf "closed/%d" replica;
      geom = Geometry.trident_t300;
      volumes = 1;
      queue = None;
      scripts = C.makedo_scripts spec ~clients:(64 / scale);
      offered_rate = None;
      replica;
    }
  in
  { open_loop = false; jobs = List.init (if scale > 1 then 1 else makedo_runs) job }

let open_arrivals = 4_000

(* Every rung replays the same arrival draws, scaled to its rate, so the
   ladder's latency curve is smooth in the rate. *)
let openloop ?(scale = 1) ~seed () =
  let rung ?(replica = 0) rate =
    let spec =
      {
        C.default_open with
        C.ol_rate_per_s = rate;
        ol_ops = open_arrivals / scale;
        ol_seed = replica_seed ~seed replica;
      }
    in
    {
      label = Printf.sprintf "rate=%g%s" rate (if replica = 0 then "" else Printf.sprintf "/%d" replica);
      geom = Geometry.small_test;
      volumes = 1;
      queue = None;
      scripts = C.open_loop spec ~clients:16;
      offered_rate = Some rate;
      replica;
    }
  in
  let rates =
    if scale > 1 then [ reference_rate; List.nth ladder (List.length ladder - 1) ]
    else ladder
  in
  {
    open_loop = true;
    jobs =
      List.map rung rates
      @ List.init (reference_runs - 1) (fun i -> rung ~replica:(i + 1) reference_rate);
  }

(* Creates above [small_file_bytes] so data sectors flow through the
   request queue, and no scripted forces, as in [bench qdepth]. The
   churn is split into [sharded_runs] runs of [sharded_ops] steps per
   session: each run is short enough that the host-speed calibration
   around it ([Calib]) tracks the host, and every volume's log still
   wraps in each. *)
let sharded_runs = 4
let sharded_ops = 40

let sharded ?(scale = 1) ~seed () =
  let volumes = 8 in
  let job replica =
    let spec =
      {
        C.default_churn with
        C.churn_ops = sharded_ops / scale;
        bytes_min = 6_000;
        bytes_max = 20_000;
        churn_think_us = 2_000;
        force_every = 0;
        churn_seed = replica_seed ~seed replica;
      }
    in
    {
      label = Printf.sprintf "closed/%d" replica;
      geom = Geometry.trident_t300;
      volumes;
      queue = Some (Device.Elevator, 8);
      scripts = C.shard_scripts (C.churn_scripts spec ~clients:(64 / scale)) ~volumes;
      offered_rate = None;
      replica;
    }
  in
  {
    open_loop = false;
    jobs = List.init (if scale > 1 then 1 else sharded_runs) job;
  }

(* The job the per-layer run traces: the first run of a closed loop,
   the reference rung of an open one. *)
let reference_job w =
  if w.open_loop then
    List.find (fun j -> j.offered_rate = Some reference_rate && j.replica = 0) w.jobs
  else List.hd w.jobs

let make ?scale ~seed = function
  | "makedo" -> Some (makedo ?scale ~seed ())
  | "openloop" -> Some (openloop ?scale ~seed ())
  | "sharded" -> Some (sharded ?scale ~seed ())
  | _ -> None

let scripted_ops job =
  Array.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc -> function C.Op _ -> acc + 1 | C.Think _ | C.At _ -> acc)
        acc s)
    0 job.scripts
