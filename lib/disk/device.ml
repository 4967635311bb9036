open Cedar_util

type fault_kind =
  | Damaged
  | Label_mismatch of { expected : Label.t; found : Label.t }

type tear =
  | Tear_none
  | Tear_zero
  | Tear_garbage
  | Tear_damage of int

exception Error of { sector : int; kind : fault_kind }
exception Crash_during_write of { sector : int }

module Trace = Cedar_obs.Trace
module Metrics = Cedar_obs.Metrics

type policy = Fifo | Elevator | Sstf

let policy_to_string = function
  | Fifo -> "fifo"
  | Elevator -> "elevator"
  | Sstf -> "sstf"

let policy_of_string = function
  | "fifo" -> Some Fifo
  | "elevator" -> Some Elevator
  | "sstf" -> Some Sstf
  | _ -> None

(* SSTF starvation bound: a request passed over this many times is
   serviced before any nearest-first pick (oldest aged request first). *)
let sstf_age_limit = 8

type request = {
  req_id : int; (* 1-based, monotonically increasing; also FIFO order *)
  req_sector : int;
  req_count : int;
  req_write : bool;
  req_enq_at : int; (* virtual clock at enqueue *)
  req_span : int; (* trace span of the issuing op, attributed at service *)
  mutable req_passes : int; (* times passed over by the policy *)
}

type t = {
  id : int; (* device id stamped into trace events; volume index in a set *)
  geom : Geometry.t;
  clock : Simclock.t;
  data : (int, bytes) Hashtbl.t; (* sparse; absent = all-zero, never written *)
  labels : (int, Label.t) Hashtbl.t; (* absent = Label.free *)
  damaged : (int, unit) Hashtbl.t;
  stats : Iostats.t;
  trace : Trace.t;
  metrics : Metrics.t;
  seek_dist : Stats.t; (* cylinders moved per command, in service order *)
  mutable head_cyl : int;
  mutable write_crash : (int * tear) option; (* sectors until trigger, tear *)
  mutable observer : (rw:[ `R | `W ] -> sector:int -> count:int -> unit) option;
  (* Whether the issuer waits: a synchronous device advances the shared
     clock to each command's completion, a deferred one leaves it alone
     so several devices overlap in simulated time. See [set_deferred]. *)
  mutable deferred : bool;
  mutable busy_horizon : int; (* completion time of the last serviced request *)
  (* Request queue: data/label effects happen at issue, but the timing
     of up to [qdepth] outstanding requests is resolved lazily, in the
     order [qpolicy] picks them. Depth 1 services at issue. *)
  mutable qpolicy : policy;
  mutable qdepth : int;
  mutable queue : request list; (* pending, enqueue (= id) order *)
  mutable next_req_id : int;
  req_done : (int, int) Hashtbl.t; (* request id -> service completion time *)
  mutable sweep_up : bool; (* elevator arm direction *)
}

let register_gauges t =
  let metrics = t.metrics and s = t.stats in
  Metrics.gauge metrics "device.ios" (fun () -> s.Iostats.ios);
  Metrics.gauge metrics "device.reads" (fun () -> s.Iostats.reads);
  Metrics.gauge metrics "device.writes" (fun () -> s.Iostats.writes);
  Metrics.gauge metrics "device.sectors_read" (fun () -> s.Iostats.sectors_read);
  Metrics.gauge metrics "device.sectors_written" (fun () -> s.Iostats.sectors_written);
  Metrics.gauge metrics "device.label_ops" (fun () -> s.Iostats.label_ops);
  Metrics.gauge metrics "device.seeks" (fun () -> s.Iostats.seeks);
  Metrics.gauge metrics "device.busy_us" (fun () -> s.Iostats.busy_us);
  Metrics.gauge metrics "device.qdepth" (fun () -> List.length t.queue)

let create ?(id = 0) ?trace ?metrics ~clock geom =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let stats = Iostats.create () in
  let t =
    {
      id;
      geom;
      clock;
      data = Hashtbl.create 4096;
      labels = Hashtbl.create 4096;
      damaged = Hashtbl.create 16;
      stats;
      trace;
      metrics;
      seek_dist = Metrics.dist metrics "device.seek_cyl";
      head_cyl = 0;
      write_crash = None;
      observer = None;
      deferred = false;
      busy_horizon = 0;
      qpolicy = Fifo;
      qdepth = 1;
      queue = [];
      next_req_id = 1;
      req_done = Hashtbl.create 256;
      sweep_up = true;
    }
  in
  register_gauges t;
  t

let geometry t = t.geom
let clock t = t.clock
let stats t = t.stats
let trace t = t.trace
let metrics t = t.metrics
let id t = t.id

let check_sector t s =
  if s < 0 || s >= Geometry.total_sectors t.geom then
    invalid_arg (Printf.sprintf "Device: sector %d out of range" s)

(* ------------------------------------------------------------------ *)
(* Timing engine: one request path                                     *)

(* Every command is a request on this device's service timeline, and
   [service] alone times it. Rotational phase is derived from the start
   of service, so the platter "keeps spinning" between commands: an
   operation issued right after another on the same track pays a full
   revolution unless the target sector is still ahead of the head —
   exactly the lost-revolution effect of §6. A request starts once it
   has been issued, the device has finished its previous request
   ([busy_horizon]) and the clock has got there. At depth 1 nothing can
   be reordered, so a request is serviced at issue; deeper queues
   service it at the point the policy picks it ([set_queue]). The one
   mode bit, [deferred], says whether the issuer waits: a synchronous
   issuer's clock advances to the completion of a request serviced at
   issue, a deferred one leaves the clock alone and schedules the
   completion itself ([busy_until], [issuer_done_at]). *)

(* Service one request: the only place mechanics are charged. Seek
   stats, [head_cyl] and the trace events are charged here — i.e. in
   service order — and the events are stamped at the start of service
   under [span], the span of the op that issued the request (not
   whatever op happens to be open at service time). Leaves the
   completion time in [busy_horizon]. *)
let service t ~span ~enq_at ~sector ~count ~write =
  let g = t.geom in
  let start = max (max (Simclock.now t.clock) t.busy_horizon) enq_at in
  let chs = Geometry.to_chs g sector in
  let dist = abs (chs.cyl - t.head_cyl) in
  let seek = Geometry.seek_us g dist in
  Stats.add t.seek_dist (float_of_int dist);
  if dist > 0 then begin
    t.stats.seeks <- t.stats.seeks + 1;
    t.stats.seek_us <- t.stats.seek_us + seek;
    if Trace.enabled t.trace then
      Trace.emit_span t.trace ~span ~at:start
        (Trace.Dev_seek { dev = t.id; cylinders = dist; us = seek })
  end;
  t.head_cyl <- chs.cyl;
  (* Wait for the first target sector to rotate under the head. *)
  let rot = Geometry.rotation_us g in
  let sector_t = Geometry.sector_time_us g in
  let target_start = chs.sector * sector_t in
  let phase = (start + seek) mod rot in
  let latency = (target_start - phase + rot) mod rot in
  t.stats.rotation_us <- t.stats.rotation_us + latency;
  let transfer = ref 0 in
  (* Transfer [count] consecutive sectors, charging head switches and
     track-to-track seeks at boundaries. *)
  for i = 0 to count - 1 do
    let s = sector + i in
    if i > 0 then begin
      let here = Geometry.to_chs g s and prev = Geometry.to_chs g (s - 1) in
      if here.cyl <> prev.cyl then begin
        (* Crossing a cylinder mid-run: short seek plus realignment. *)
        transfer := !transfer + Geometry.seek_us g 1 + (rot / 2);
        t.head_cyl <- here.cyl
      end
      else if here.head <> prev.head then
        (* Head switch absorbed by format skew of one sector. *)
        transfer := !transfer + g.Geometry.head_switch_us + sector_t
    end;
    transfer := !transfer + sector_t
  done;
  t.stats.transfer_us <- t.stats.transfer_us + !transfer;
  t.stats.busy_us <- t.stats.busy_us + seek + latency + !transfer;
  let dur = seek + latency + !transfer in
  if Trace.enabled t.trace then
    Trace.emit_span t.trace ~span ~at:start
      (if write then Trace.Dev_write { dev = t.id; sector; count; us = dur }
       else Trace.Dev_read { dev = t.id; sector; count; us = dur });
  t.busy_horizon <- start + dur

(* ------------------------------------------------------------------ *)
(* Request queue                                                       *)

let queued t = t.qdepth >= 2
let cyl_of t sector = (Geometry.to_chs t.geom sector).Geometry.cyl

(* Pick the next request to service. Ties (equal distance) go to the
   earliest-listed request, i.e. FIFO order, keeping every policy
   deterministic. *)
let pick t =
  match t.queue with
  | [] -> invalid_arg "Device.pick: empty queue"
  | [ r ] -> r
  | rs -> (
    let d r = abs (cyl_of t r.req_sector - t.head_cyl) in
    let nearest cands =
      List.fold_left
        (fun best r -> if d r < d best then r else best)
        (List.hd cands) (List.tl cands)
    in
    match t.qpolicy with
    | Fifo -> List.hd rs
    | Sstf -> (
      (* Aging: any request passed over [sstf_age_limit] times wins,
         oldest first — the starvation bound. *)
      match List.filter (fun r -> r.req_passes >= sstf_age_limit) rs with
      | aged :: _ -> aged
      | [] -> nearest rs)
    | Elevator -> (
      let ahead up =
        List.filter
          (fun r -> if up then cyl_of t r.req_sector >= t.head_cyl
                    else cyl_of t r.req_sector <= t.head_cyl)
          rs
      in
      match ahead t.sweep_up with
      | [] ->
        (* Nothing left in this direction: reverse the sweep. *)
        t.sweep_up <- not t.sweep_up;
        nearest (match ahead t.sweep_up with [] -> rs | l -> l)
      | cands -> nearest cands))

let service_one t =
  let r = pick t in
  t.queue <- List.filter (fun x -> x.req_id <> r.req_id) t.queue;
  List.iter (fun x -> x.req_passes <- x.req_passes + 1) t.queue;
  service t ~span:r.req_span ~enq_at:r.req_enq_at ~sector:r.req_sector
    ~count:r.req_count ~write:r.req_write;
  Hashtbl.replace t.req_done r.req_id t.busy_horizon

(* Issue one command as request [issued t + 1]. *)
let submit t ~sector ~count ~write =
  let id = t.next_req_id in
  t.next_req_id <- id + 1;
  let enq_at = Simclock.now t.clock and span = Trace.current_span t.trace in
  if not (queued t) then begin
    service t ~span ~enq_at ~sector ~count ~write;
    if not t.deferred then Simclock.advance_to t.clock t.busy_horizon
  end
  else begin
    (* A full tag queue blocks the host: service until a slot frees up. *)
    while List.length t.queue >= t.qdepth do
      service_one t
    done;
    t.queue <-
      t.queue
      @ [
          {
            req_id = id;
            req_sector = sector;
            req_count = count;
            req_write = write;
            req_enq_at = enq_at;
            req_span = span;
            req_passes = 0;
          };
        ]
  end

let drain_all t =
  while t.queue <> [] do
    service_one t
  done

let request_done_at t req =
  if req < 1 || req >= t.next_req_id then
    invalid_arg "Device.request_done_at: unknown request";
  let rec go () =
    match Hashtbl.find_opt t.req_done req with
    | Some at -> at
    | None when t.queue = [] ->
      invalid_arg "Device.request_done_at: request was serviced at issue"
    | None ->
      service_one t;
      go ()
  in
  go ()

let requests_done_at t ~first ~last =
  let worst = ref 0 in
  for req = first to last do
    worst := max !worst (request_done_at t req)
  done;
  !worst

let issued t = t.next_req_id - 1
let queue_length t = List.length t.queue

(* A synchronous depth-1 device never runs ahead of its issuer: whatever
   an earlier mode left on the timeline is not waited for, and the next
   request starts at the current clock. *)
let settle t =
  if (not t.deferred) && t.qdepth = 1 then
    t.busy_horizon <- min t.busy_horizon (Simclock.now t.clock)

let set_queue t ~policy ~depth =
  if depth < 1 then invalid_arg "Device.set_queue: depth < 1";
  drain_all t;
  t.qpolicy <- policy;
  t.qdepth <- depth;
  settle t

let queue_config t = (t.qpolicy, t.qdepth)

let set_deferred t on =
  t.deferred <- on;
  settle t

let deferred t = t.deferred

(* A force is a synchronization barrier: everything outstanding is
   serviced (per policy) before the horizon is read. *)
let busy_until t =
  drain_all t;
  max (Simclock.now t.clock) t.busy_horizon

let issuer_done_at t ~first =
  let now = Simclock.now t.clock in
  if not (queued t) then Some (max now t.busy_horizon)
  else if first > issued t then Some now
  else None

let charge_read t ~sector ~count =
  t.stats.ios <- t.stats.ios + 1;
  t.stats.reads <- t.stats.reads + 1;
  t.stats.sectors_read <- t.stats.sectors_read + count;
  submit t ~sector ~count ~write:false;
  match t.observer with Some f -> f ~rw:`R ~sector ~count | None -> ()

let charge_write t ~sector ~count =
  t.stats.ios <- t.stats.ios + 1;
  t.stats.writes <- t.stats.writes + 1;
  t.stats.sectors_written <- t.stats.sectors_written + count;
  submit t ~sector ~count ~write:true;
  match t.observer with Some f -> f ~rw:`W ~sector ~count | None -> ()

(* ------------------------------------------------------------------ *)
(* Raw store                                                           *)

let fetch t s =
  match Hashtbl.find_opt t.data s with
  | Some b -> Bytes.copy b
  | None -> Bytes.make t.geom.Geometry.sector_bytes '\000'

let store t s b = Hashtbl.replace t.data s (Bytes.copy b)

let ensure_ok t s =
  if Hashtbl.mem t.damaged s then raise (Error { sector = s; kind = Damaged })

(* Write-crash bookkeeping: returns how many of [count] sectors may still
   be written before the fault fires, or [count] if no fault is armed. *)
let crash_budget t count =
  match t.write_crash with
  | None -> count
  | Some (remaining, _) -> min remaining count

let consume_write_budget t n =
  match t.write_crash with
  | None -> ()
  | Some (remaining, tear) -> t.write_crash <- Some (remaining - n, tear)

(* Deterministic "noise off the head" for a torn sector: a function of the
   sector number only, so sweeps are reproducible. *)
let garbage_sector t sector =
  Bytes.init t.geom.Geometry.sector_bytes (fun i ->
      Char.chr (((sector * 131) + (i * 7) + 13) land 0xff))

let fire_crash t ~sector ~tear =
  t.write_crash <- None;
  (match tear with
  | Tear_none -> () (* power fails before the head reaches the sector *)
  | Tear_zero ->
      if sector < Geometry.total_sectors t.geom then begin
        store t sector (Bytes.make t.geom.Geometry.sector_bytes '\000');
        Hashtbl.remove t.damaged sector
      end
  | Tear_garbage ->
      if sector < Geometry.total_sectors t.geom then begin
        store t sector (garbage_sector t sector);
        Hashtbl.remove t.damaged sector
      end
  | Tear_damage tail ->
      for i = 0 to tail - 1 do
        let s = sector + i in
        if s < Geometry.total_sectors t.geom then Hashtbl.replace t.damaged s ()
      done);
  raise (Crash_during_write { sector })

(* ------------------------------------------------------------------ *)
(* Plain sector I/O                                                    *)

let read_run t ~sector ~count =
  if count <= 0 then invalid_arg "Device.read_run";
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_read t ~sector ~count;
  for i = 0 to count - 1 do
    ensure_ok t (sector + i)
  done;
  let sb = t.geom.Geometry.sector_bytes in
  let out = Bytes.create (count * sb) in
  for i = 0 to count - 1 do
    Bytes.blit (fetch t (sector + i)) 0 out (i * sb) sb
  done;
  out

let read t s = read_run t ~sector:s ~count:1

let write_sectors t ~sector ~count ~get =
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_write t ~sector ~count;
  let budget = crash_budget t count in
  for i = 0 to budget - 1 do
    let s = sector + i in
    store t s (get i);
    Hashtbl.remove t.damaged s
  done;
  consume_write_budget t budget;
  if budget < count then
    match t.write_crash with
    | Some (_, tear) -> fire_crash t ~sector:(sector + budget) ~tear
    | None -> assert false

let write_run t ~sector b =
  let sb = t.geom.Geometry.sector_bytes in
  if Bytes.length b = 0 || Bytes.length b mod sb <> 0 then
    invalid_arg "Device.write_run: not a whole number of sectors";
  let count = Bytes.length b / sb in
  write_sectors t ~sector ~count ~get:(fun i -> Bytes.sub b (i * sb) sb)

let write t s b =
  if Bytes.length b <> t.geom.Geometry.sector_bytes then
    invalid_arg "Device.write: not one sector";
  write_sectors t ~sector:s ~count:1 ~get:(fun _ -> b)

(* ------------------------------------------------------------------ *)
(* Labeled I/O                                                         *)

let label_of t s =
  match Hashtbl.find_opt t.labels s with Some l -> l | None -> Label.free

let read_label t s =
  check_sector t s;
  (* A label read is a positioning plus a (sub-sector) transfer; charge one
     sector time as the microcode must see the whole sector pass by. *)
  charge_read t ~sector:s ~count:1;
  t.stats.label_ops <- t.stats.label_ops + 1;
  ensure_ok t s;
  label_of t s

let write_labels t ~sector labels =
  let count = List.length labels in
  if count = 0 then invalid_arg "Device.write_labels";
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_write t ~sector ~count;
  t.stats.label_ops <- t.stats.label_ops + count;
  List.iteri
    (fun i l ->
      Hashtbl.replace t.labels (sector + i) l;
      Hashtbl.remove t.damaged (sector + i))
    labels

let check_label t s ~expect =
  let found = label_of t s in
  if not (Label.equal found expect) then
    raise (Error { sector = s; kind = Label_mismatch { expected = expect; found } })

let verified_read t s ~expect =
  check_sector t s;
  charge_read t ~sector:s ~count:1;
  t.stats.label_ops <- t.stats.label_ops + 1;
  ensure_ok t s;
  check_label t s ~expect;
  fetch t s

let verified_write t s ~expect b =
  if Bytes.length b <> t.geom.Geometry.sector_bytes then
    invalid_arg "Device.verified_write: not one sector";
  check_sector t s;
  ensure_ok t s;
  check_label t s ~expect;
  t.stats.label_ops <- t.stats.label_ops + 1;
  write_sectors t ~sector:s ~count:1 ~get:(fun _ -> b)

let verified_read_run t ~sector ~expect =
  let count = List.length expect in
  if count = 0 then invalid_arg "Device.verified_read_run";
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_read t ~sector ~count;
  t.stats.label_ops <- t.stats.label_ops + count;
  for i = 0 to count - 1 do
    ensure_ok t (sector + i)
  done;
  List.iteri (fun i l -> check_label t (sector + i) ~expect:l) expect;
  let sb = t.geom.Geometry.sector_bytes in
  let out = Bytes.create (count * sb) in
  List.iteri (fun i _ -> Bytes.blit (fetch t (sector + i)) 0 out (i * sb) sb) expect;
  out

let verified_write_run t ~sector ~expect b =
  let sb = t.geom.Geometry.sector_bytes in
  let count = List.length expect in
  if count = 0 || Bytes.length b <> count * sb then
    invalid_arg "Device.verified_write_run";
  check_sector t sector;
  check_sector t (sector + count - 1);
  List.iteri (fun i l -> check_label t (sector + i) ~expect:l) expect;
  t.stats.label_ops <- t.stats.label_ops + count;
  write_sectors t ~sector ~count ~get:(fun i -> Bytes.sub b (i * sb) sb)

let scan_labels t ~from ~count f =
  check_sector t from;
  check_sector t (from + count - 1);
  (* The scavenger reads labels a whole track at a time. *)
  let spt = t.geom.Geometry.sectors_per_track in
  let s = ref from in
  let remaining = ref count in
  while !remaining > 0 do
    let track_left = spt - (!s mod spt) in
    let n = min track_left !remaining in
    charge_read t ~sector:!s ~count:n;
    t.stats.label_ops <- t.stats.label_ops + n;
    for i = 0 to n - 1 do
      let sec = !s + i in
      let l = if Hashtbl.mem t.damaged sec then None else Some (label_of t sec) in
      f sec l
    done;
    s := !s + n;
    remaining := !remaining - n
  done

(* ------------------------------------------------------------------ *)
(* Fault injection & observation                                       *)

let damage t s =
  check_sector t s;
  Hashtbl.replace t.damaged s ()

let corrupt t s ~rng =
  check_sector t s;
  let b = Bytes.init t.geom.Geometry.sector_bytes (fun _ -> Char.chr (Rng.int rng 256)) in
  store t s b

let is_damaged t s = Hashtbl.mem t.damaged s

let plan_write_crash_tear t ~after_sectors ~tear =
  if after_sectors < 0 then invalid_arg "Device.plan_write_crash_tear";
  (match tear with
  | Tear_damage tail when tail < 0 || tail > 2 ->
      invalid_arg "Device.plan_write_crash_tear: damage tail"
  | _ -> ());
  t.write_crash <- Some (after_sectors, tear)

let plan_write_crash t ~after_sectors ~damage_tail =
  plan_write_crash_tear t ~after_sectors ~tear:(Tear_damage damage_tail)

let cancel_write_crash t = t.write_crash <- None
let set_observer t f = t.observer <- f
let written_ever t s = Hashtbl.mem t.data s

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let magic = 0x43445631 (* "CDV1" *)

let dump t oc =
  let w = Bytebuf.Writer.create ~initial:65536 () in
  Bytebuf.Writer.u32 w magic;
  let g = t.geom in
  Bytebuf.Writer.u32 w g.Geometry.cylinders;
  Bytebuf.Writer.u32 w g.Geometry.heads;
  Bytebuf.Writer.u32 w g.Geometry.sectors_per_track;
  Bytebuf.Writer.u32 w g.Geometry.sector_bytes;
  Bytebuf.Writer.u32 w g.Geometry.rpm;
  Bytebuf.Writer.u32 w g.Geometry.min_seek_us;
  Bytebuf.Writer.u32 w g.Geometry.avg_seek_us;
  Bytebuf.Writer.u32 w g.Geometry.max_seek_us;
  Bytebuf.Writer.u32 w g.Geometry.head_switch_us;
  Bytebuf.Writer.u32 w (Hashtbl.length t.data);
  Hashtbl.iter
    (fun s b ->
      Bytebuf.Writer.u32 w s;
      Bytebuf.Writer.raw w b)
    t.data;
  Bytebuf.Writer.u32 w (Hashtbl.length t.labels);
  Hashtbl.iter
    (fun s l ->
      Bytebuf.Writer.u32 w s;
      Bytebuf.Writer.raw w (Label.encode l))
    t.labels;
  Bytebuf.Writer.u32 w (Hashtbl.length t.damaged);
  Hashtbl.iter (fun s () -> Bytebuf.Writer.u32 w s) t.damaged;
  let b = Bytebuf.Writer.contents w in
  output_bytes oc b

let load ?id ?trace ?metrics ~clock ic =
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  let r = Bytebuf.Reader.of_bytes b in
  Bytebuf.Reader.expect_u32 r magic "disk image magic";
  let cylinders = Bytebuf.Reader.u32 r in
  let heads = Bytebuf.Reader.u32 r in
  let sectors_per_track = Bytebuf.Reader.u32 r in
  let sector_bytes = Bytebuf.Reader.u32 r in
  let rpm = Bytebuf.Reader.u32 r in
  let min_seek_us = Bytebuf.Reader.u32 r in
  let avg_seek_us = Bytebuf.Reader.u32 r in
  let max_seek_us = Bytebuf.Reader.u32 r in
  let head_switch_us = Bytebuf.Reader.u32 r in
  let geom =
    {
      Geometry.cylinders;
      heads;
      sectors_per_track;
      sector_bytes;
      rpm;
      min_seek_us;
      avg_seek_us;
      max_seek_us;
      head_switch_us;
    }
  in
  let t = create ?id ?trace ?metrics ~clock geom in
  let ndata = Bytebuf.Reader.u32 r in
  for _ = 1 to ndata do
    let s = Bytebuf.Reader.u32 r in
    Hashtbl.replace t.data s (Bytebuf.Reader.raw r sector_bytes)
  done;
  let nlabels = Bytebuf.Reader.u32 r in
  for _ = 1 to nlabels do
    let s = Bytebuf.Reader.u32 r in
    Hashtbl.replace t.labels s (Label.decode (Bytebuf.Reader.raw r 13))
  done;
  let ndamaged = Bytebuf.Reader.u32 r in
  for _ = 1 to ndamaged do
    Hashtbl.replace t.damaged (Bytebuf.Reader.u32 r) ()
  done;
  t
