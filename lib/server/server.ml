(* Concurrent multi-client file server over a set of volumes: a
   deterministic cooperative scheduler on the shared virtual clock, with
   one real group-commit batcher per volume.

   Each client session replays a [Concurrent.script]. Operations run to
   completion (cooperative, never preempted mid-op) on the volume that
   owns the file name ([Volume_set.route], a stable name-prefix hash); a
   session that performed a metadata mutation then *parks* on the owning
   volume's batcher and is only acknowledged once a log force on that
   volume covers its transaction — §5.4's "the process doing the commit
   waits", generalised to N clients over V independent logs. Each
   volume's batcher forces on three triggers:

   - time: that volume's half-second commit demon
     ([Params.commit_interval_us]);
   - size: [max_batch] sessions parked on that volume;
   - explicit: a client [Force] step (which forces every live volume).

   Admission control rejects — never blocks — with two distinct typed
   triggers, both judged against the op's target volume: [Queue_full]
   when [queue_cap] sessions are already parked there (unconditional,
   so each parked queue is bounded at any log fill), and [Backpressure]
   when that volume's current log third is past [backpressure_fill]. A
   rejected step is re-parked and retried after the volume's next
   commit opportunity, up to [admission_retries] times; only then is it
   dropped, and the drop is counted in the report rather than silently
   lost.

   One path serves any volume count: a single-volume server is the same
   code with V = 1, and the scheduler never asks how a device is timed.
   An op's completion is decided in one place ([complete]) from what its
   device reports: a device that serviced the op's requests at issue
   names the instant it may be acknowledged, a device whose queue still
   holds them sends the session to [Iowait].

   Crash containment is quarantine at every V: a planted device crash
   ([Device.Crash_during_write]) halts just the crashed volume. Its
   parked sessions abort (their unacked mutations are the §5.4 "may be
   lost" set), later ops routed to it abort their sessions, and every
   other volume keeps serving — recovery is per volume, which is the
   point of giving each volume its own log.

   Determinism: sessions are stepped round-robin by index, volumes are
   visited in index order, the only clock is [Simclock], and the only
   randomness is the script generator's seeded [Rng] — two runs from
   the same seed produce byte-identical reports. *)

open Cedar_util
open Cedar_obs
open Cedar_fsd
open Cedar_volumes
open Cedar_workload

type error =
  | Queue_full of { depth : int; cap : int }
  | Backpressure of { depth : int; fill : float; threshold : float }

let pp_error ppf = function
  | Queue_full { depth; cap } ->
    Format.fprintf ppf "queue-full depth=%d cap=%d" depth cap
  | Backpressure { depth; fill; threshold } ->
    Format.fprintf ppf "backpressure depth=%d fill=%.2f threshold=%.2f" depth
      fill threshold

type config = {
  max_batch : int;
  queue_cap : int;
  backpressure_fill : float;
  admission_retries : int;
  on_force : (int -> unit) option;
  on_ack : (client:int -> op:Concurrent.op -> unit) option;
  on_reject : (client:int -> error -> unit) option;
}

let default_config =
  {
    max_batch = 64;
    queue_cap = 256;
    backpressure_fill = 1.0;
    admission_retries = 8;
    on_force = None;
    on_ack = None;
    on_reject = None;
  }

type state =
  | Ready
  | Thinking of { until : int }
  | Parked of { vol : int; token : Fsd.token; since : int; op : Concurrent.op }
  | Iowait of { vol : int; first : int; last : int }
      (* The op finished executing but its device requests [first..last]
         sit in volume [vol]'s request queue; the session is
         acknowledged at their (policy-ordered) service completion. The
         scheduler resolves these lazily — once no session is runnable —
         so requests from many sessions accumulate in the queue first,
         which is exactly the window a reordering policy exploits. *)
  | Done

type session = {
  client : int;
  label : string;  (* "sessionNN", precomputed: the op-span label *)
  mutable steps : Concurrent.step list;
  mutable state : state;
  mutable ops : int;
  mutable mutations : int;
  mutable rejected : int;
  mutable retries : int;  (* consecutive rejects of the step at head *)
  mutable dropped : int;
  mutable errors : int;
  mutable aborted : string option;  (* non-Fs_error exception text *)
  mutable wait_total_us : int;
  mutable wait_max_us : int;
  (* Latency-anatomy bookkeeping (plain ints: maintained even with
     tracing off, so the per-phase monitor gauges always read). *)
  mutable opseq : int;  (* lifecycle number of the op at script head *)
  mutable arrival_us : int;  (* when that op became runnable *)
  mutable t_submitted : int;  (* first admission attempt of current op *)
  mutable t_exec_end : int;  (* Fsd.submit returned; park window starts *)
}

(* Per-volume scheduler state. Every instrument is registered in the
   volume's own registry view ([Fsd.metrics], "volN."-scoped when the
   set has several volumes, the historical unprefixed names when it has
   one) so that each volume's monitor demon derives its own sat.*
   gauges and two coexisting volumes can never clobber each other. *)
type vol = {
  v_id : int;
  v_fsd : Fsd.t;
  v_dev : Cedar_disk.Device.t;
  mutable v_dead : bool;  (* quarantined after a planted crash *)
  mutable v_crash_sector : int;  (* valid when v_dead *)
  mutable v_last_durable : int;
  mutable v_forces : int;  (* server-initiated forces on this volume *)
  mutable v_forces0 : int;  (* log forces at run start *)
  mutable v_last_force_us : int;  (* duration of its last server force *)
  mutable v_acked : int;
  v_commit_wait_us : Stats.t;
  v_batch_size : Stats.t;
  (* Per-op end-to-end latency (arrival to ack), every op kind. *)
  v_op_latency_us : Stats.t;
  c_reject_queue_full : Metrics.counter;
  c_reject_backpressure : Metrics.counter;
  c_retries : Metrics.counter;
  c_dropped : Metrics.counter;
  c_acked : Metrics.counter;
  (* Cumulative per-phase microseconds across all ops: the online (no
     trace needed) side of the latency anatomy, read by the monitor's
     sat.phase_* rate gauges. The trace-based Critpath fold is the
     per-op precise version of the same decomposition. *)
  c_phase_queue_us : Metrics.counter;
  c_phase_admission_us : Metrics.counter;
  c_phase_execute_us : Metrics.counter;
  c_phase_append_us : Metrics.counter;
  c_phase_parked_us : Metrics.counter;
}

type t = {
  vset : Volume_set.t;
  vols : vol array;
  clock : Simclock.t;
  trace : Trace.t;  (* shared by every volume *)
  cfg : config;
  sessions : session array;
  mutable cursor : int;  (* round-robin scan start *)
  mutable forces : int;  (* server-initiated (time/size/explicit), all vols *)
  mutable acked_rev : (int * Concurrent.op) list;  (* ack journal, newest first *)
}

type session_report = {
  r_client : int;
  r_ops : int;
  r_mutations : int;
  r_rejected : int;
  r_dropped : int;
  r_errors : int;
  r_aborted : string option;
  r_wait_total_us : int;
  r_wait_max_us : int;
}

type volume_report = {
  vr_volume : int;
  vr_server_forces : int;
  vr_log_forces : int;
  vr_acked : int;
  vr_crashed : bool;
}

type report = {
  clients : int;
  duration_us : int;
  total_ops : int;
  mutations_acked : int;
  server_forces : int;
  log_forces : int;
  ops_per_force : float;
  total_rejected : int;
  reject_queue_full : int;
  reject_backpressure : int;
  total_retries : int;
  total_dropped : int;
  total_errors : int;
  total_aborted : int;
  wait_n : int;
  wait_mean_us : float;
  wait_p50_us : float;
  wait_p99_us : float;
  wait_max_us : float;
  batch_n : int;
  batch_mean : float;
  batch_max : float;
  per_session : session_report list;
  per_volume : volume_report list;
}

let now t = Simclock.now t.clock

let parked_on t vid =
  Array.fold_left
    (fun n s -> match s.state with Parked { vol; _ } when vol = vid -> n + 1 | _ -> n)
    0 t.sessions

(* Which volume an operation belongs to. [Force] fans out to every
   volume; its accounting (spans, error counts) is charged to volume 0. *)
let target_vid t (op : Concurrent.op) =
  match op with
  | Create { name; _ } | Open name | Read name | Delete name -> Volume_set.route t.vset name
  | Read_page { name; _ } -> Volume_set.route t.vset name
  | List prefix -> Volume_set.route t.vset prefix
  | Force -> 0

(* ------------------------------------------------------------------ *)
(* Crash quarantine. *)

let abort s reason =
  s.aborted <- Some reason;
  s.steps <- [];
  s.state <- Done

(* A planted crash on volume [v] halts that volume only. Sessions parked
   on it will never be acked — their mutations are exactly the
   unacknowledged set §5.4 allows to be lost — so they abort now;
   sessions later routed to it abort at admission. The [Fsd.t] must not
   be touched again until the harness reboots the device. *)
let quarantine t v ~sector =
  v.v_dead <- true;
  v.v_crash_sector <- sector;
  let reason = Printf.sprintf "volume %d crashed" v.v_id in
  Array.iter
    (fun s ->
      match s.state with
      | (Parked { vol; _ } | Iowait { vol; _ }) when vol = v.v_id -> abort s reason
      | _ -> ())
    t.sessions

(* Run [f] against volume [v], quarantining [v] if a planted crash
   fires. *)
let guarded t v f =
  try f ()
  with Cedar_disk.Device.Crash_during_write { sector } -> quarantine t v ~sector

(* ------------------------------------------------------------------ *)
(* The batcher. *)

let force_vol t v =
  t.forces <- t.forces + 1;
  v.v_forces <- v.v_forces + 1;
  (match t.cfg.on_force with Some f -> f t.forces | None -> ());
  (* The force's duration is the device horizon's advance across it
     ([busy_until] drains any queued requests first — a force is a
     synchronization barrier); on a synchronous device that horizon is
     the clock. *)
  let b0 = Cedar_disk.Device.busy_until v.v_dev in
  guarded t v (fun () -> Fsd.force v.v_fsd);
  v.v_last_force_us <- Cedar_disk.Device.busy_until v.v_dev - b0

(* An explicit client [Force]: flush every live volume, index order. *)
let force_all t =
  Array.iter (fun v -> if not v.v_dead then force_vol t v) t.vols

(* Acknowledge the op at the head of [s]'s lifecycle at [done_at]; a
   session acked ahead of the clock waits (as a Thinking park) until the
   clock catches up. *)
let finish t v s ~done_at =
  if Trace.enabled t.trace then
    Trace.emit t.trace ~at:done_at
      (Trace.Op_acked { client = s.client; opseq = s.opseq });
  Stats.add v.v_op_latency_us (float_of_int (done_at - s.arrival_us));
  s.arrival_us <- done_at;
  s.state <- (if done_at > now t then Thinking { until = done_at } else Ready)

(* The one place an op's completion is decided: ack now, at the instant
   the device says the requests it issued from [first] on are done, or
   wait in [Iowait] for a queue that has not serviced them yet. *)
let complete t v s ~first =
  match Cedar_disk.Device.issuer_done_at v.v_dev ~first with
  | Some done_at -> finish t v s ~done_at
  | None ->
    s.state <-
      Iowait { vol = v.v_id; first; last = Cedar_disk.Device.issued v.v_dev }

(* Wake every parked session the last force on each volume covered. One
   durable advance on one volume = one batch; its size is the number of
   sessions released together, the quantity Hagmann's group commit
   amortises that volume's force over. *)
let poll_wakes t =
  Array.iter
    (fun v ->
      if not v.v_dead then begin
        let d = Fsd.durable_seq v.v_fsd in
        if d > v.v_last_durable then begin
          v.v_last_durable <- d;
          let woken = ref 0 in
          Array.iter
            (fun s ->
              match s.state with
              | Parked { vol; token; since; op }
                when vol = v.v_id && Fsd.token_durable v.v_fsd token ->
                (* The covering force's writes complete at the device's
                   busy horizon, which may lie ahead of the clock. *)
                let done_at = Cedar_disk.Device.busy_until v.v_dev in
                let wait = done_at - since in
                incr woken;
                Stats.add v.v_commit_wait_us (float_of_int wait);
                s.wait_total_us <- s.wait_total_us + wait;
                if wait > s.wait_max_us then s.wait_max_us <- wait;
                s.mutations <- s.mutations + 1;
                v.v_acked <- v.v_acked + 1;
                Metrics.inc v.c_acked;
                (* Phase split of the park window: the tail that overlaps
                   the covering force's own device writes is "append" (the
                   op's share of log I/O latency); the head is pure
                   parked-for-force wait. Online approximation: that
                   volume's last server-force duration; Critpath computes
                   the exact overlap from force spans in the trace. *)
                let append =
                  if wait < v.v_last_force_us then wait else v.v_last_force_us
                in
                Metrics.add v.c_phase_append_us append;
                Metrics.add v.c_phase_parked_us (wait - append);
                if Trace.enabled t.trace then
                  Trace.emit t.trace ~at:done_at
                    (Trace.Session_wait { client = s.client; us = wait });
                finish t v s ~done_at;
                t.acked_rev <- (s.client, op) :: t.acked_rev;
                (match t.cfg.on_ack with
                | Some f -> f ~client:s.client ~op
                | None -> ())
              | _ -> ())
            t.sessions;
          if !woken > 0 then Stats.add v.v_batch_size (float_of_int !woken)
        end
      end)
    t.vols

(* Run at every point where the scheduler regains control: fire each
   volume's commit demon if its interval elapsed inside the last op, let
   the other demons (scrub, home-writer, monitor) run on every volume,
   then release whoever the forces covered. *)
let schedule_point t =
  Array.iter
    (fun v ->
      if (not v.v_dead) && now t >= Fsd.commit_due_at v.v_fsd then force_vol t v)
    t.vols;
  Array.iter
    (fun v -> if not v.v_dead then guarded t v (fun () -> Demons.run_due v.v_fsd))
    t.vols;
  poll_wakes t;
  Array.iter
    (fun v ->
      if (not v.v_dead) && parked_on t v.v_id >= t.cfg.max_batch then begin
        force_vol t v;
        poll_wakes t
      end)
    t.vols

(* ------------------------------------------------------------------ *)
(* Session stepping. *)

let exec_op t v (op : Concurrent.op) =
  let fsd = v.v_fsd in
  match op with
  | Create { name; bytes; fill } ->
    ignore
      (Fsd.create fsd ~name (Concurrent.content ~fill bytes)
        : Cedar_fsbase.Fs_ops.info)
  | Open name -> ignore (Fsd.open_stat fsd ~name : Cedar_fsbase.Fs_ops.info)
  | Read name -> ignore (Fsd.read_all fsd ~name : bytes)
  | Read_page { name; page } -> ignore (Fsd.read_page fsd ~name ~page : bytes)
  | Delete name -> Fsd.delete fsd ~name
  | List prefix -> ignore (Fsd.list fsd ~prefix : Cedar_fsbase.Fs_ops.info list)
  | Force -> force_all t

(* The depth cap must hold unconditionally: each volume's parked queue
   is a bounded resource, and tying it to log fill (as an earlier
   revision did) let it grow without limit whenever the log third
   happened to be fresh. Backpressure from the target volume's log fill
   is a second, independent trigger with its own typed error. *)
let admission_reject t v (s : session) (op : Concurrent.op) =
  if not (Concurrent.mutates op) then None
  else begin
    let depth = parked_on t v.v_id in
    let reject c e =
      s.rejected <- s.rejected + 1;
      Metrics.inc c;
      (match t.cfg.on_reject with Some f -> f ~client:s.client e | None -> ());
      Some e
    in
    if depth >= t.cfg.queue_cap then
      reject v.c_reject_queue_full (Queue_full { depth; cap = t.cfg.queue_cap })
    else if t.cfg.backpressure_fill >= 1.0 then
      (* 1.0 means "trigger off" by contract — and must be tested
         explicitly, because [log_third_fill] legitimately reads exactly
         1.0 while the head sits on a third boundary. *)
      None
    else
      let fill = Fsd.log_third_fill v.v_fsd in
      if fill >= t.cfg.backpressure_fill then
        reject v.c_reject_backpressure
          (Backpressure { depth; fill; threshold = t.cfg.backpressure_fill })
      else None
  end

(* Admission has already passed when this runs. [Fs_error] is a client
   error (bad name, missing file): count it and move on. A planted
   device crash quarantines the op's volume. Anything else is a
   server-side bug; it must not wedge the round-robin scheduler
   mid-span, so the session is terminated with the exception recorded
   as a typed abort. *)
let run_op t v s op =
  s.ops <- s.ops + 1;
  let t_start = now t in
  (* Admission is over: everything since the first attempt was retry
     windows. [begin_span] is guarded so a tracing-off run performs no
     allocation on this path (the label is precomputed per session). *)
  Metrics.add v.c_phase_admission_us (t_start - s.t_submitted);
  let span =
    if Trace.enabled t.trace then
      Trace.begin_span t.trace ~at:t_start ~op:s.label
        ~name:(Concurrent.op_name op)
    else 0
  in
  (* The op's device commands become requests [first .. issued]. *)
  let first = Cedar_disk.Device.issued v.v_dev + 1 in
  let token =
    Fun.protect
      ~finally:(fun () -> Trace.end_span t.trace ~at:(now t) span)
      (fun () ->
        match Fsd.submit v.v_fsd (fun () -> exec_op t v op) with
        | (), tok -> tok
        | exception Cedar_fsbase.Fs_error.Fs_error _ ->
          s.errors <- s.errors + 1;
          Fsd.always_durable
        | exception Cedar_disk.Device.Crash_during_write { sector } ->
          quarantine t v ~sector;
          abort s (Printf.sprintf "volume %d crashed" v.v_id);
          Fsd.always_durable
        | exception e ->
          abort s
            (Printf.sprintf "%s: %s" (Concurrent.op_name op)
               (Printexc.to_string e));
          Fsd.always_durable)
  in
  let t_end = now t in
  s.t_exec_end <- t_end;
  Metrics.add v.c_phase_execute_us (t_end - t_start);
  if s.state = Done then ()
  else if token = Fsd.always_durable then
    (* Reads, lists, explicit forces and client errors: the lifecycle
       ends when the op's I/O completes, with no commit-wait park
       window. *)
    complete t v s ~first
  else if Fsd.token_durable v.v_fsd token then
    (* A mid-op force (the bulk-trigger backstop) already covered the
       mutation: acknowledge with zero commit wait, no commit park. *)
    begin
      s.mutations <- s.mutations + 1;
      v.v_acked <- v.v_acked + 1;
      Metrics.inc v.c_acked;
      Stats.add v.v_commit_wait_us 0.;
      t.acked_rev <- (s.client, op) :: t.acked_rev;
      (match t.cfg.on_ack with Some f -> f ~client:s.client ~op | None -> ());
      complete t v s ~first
    end
  else s.state <- Parked { vol = v.v_id; token; since = t_end; op }

let reject_label = function
  | Queue_full _ -> "queue_full"
  | Backpressure _ -> "backpressure"

let step t s =
  match s.steps with
  | [] -> s.state <- Done
  | step :: rest -> (
    match step with
    | Concurrent.Think us ->
      s.steps <- rest;
      let until = now t + us in
      s.state <- Thinking { until };
      (* The next op becomes runnable when the think ends; scheduler
         delay past that deadline is its queue wait. *)
      s.arrival_us <- until
    | Concurrent.At at ->
      (* Open-loop arrival: wait until the absolute deadline, but a
         session already behind schedule issues immediately — offered
         load is pinned to the clock, so the backlog is preserved. *)
      s.steps <- rest;
      if at > now t then begin
        s.state <- Thinking { until = at };
        s.arrival_us <- at
      end
      (* else: behind schedule — arrival_us stays at the previous op's
         completion; the backlog time counts as queue wait. *)
    | Concurrent.Op op -> (
      let v = t.vols.(target_vid t op) in
      if v.v_dead then begin
        (* The owning volume crashed out from under this session: there
           is no one to serve the op, or any later op routed the same
           way. Typed abort, like any other server-side termination. *)
        abort s (Printf.sprintf "volume %d crashed" v.v_id)
      end
      else begin
        if s.retries = 0 then begin
          (* First admission attempt of a new lifecycle. *)
          s.opseq <- s.opseq + 1;
          s.t_submitted <- now t;
          Metrics.add v.c_phase_queue_us (now t - s.arrival_us);
          if Trace.enabled t.trace then
            Trace.emit t.trace ~at:(now t)
              (Trace.Op_submitted
                 {
                   client = s.client;
                   opseq = s.opseq;
                   op = Concurrent.op_kind op;
                   arrived_us = s.arrival_us;
                 })
        end;
        match admission_reject t v s op with
        | Some e when s.retries < t.cfg.admission_retries ->
          (* Leave the step at the head of the script and retry once the
             volume's next commit opportunity has had a chance to drain
             its queue — a reject must never silently drop the mutation. *)
          s.retries <- s.retries + 1;
          Metrics.inc v.c_retries;
          if Trace.enabled t.trace then
            Trace.emit t.trace ~at:(now t)
              (Trace.Op_rejected
                 { client = s.client; opseq = s.opseq; why = reject_label e });
          s.state <-
            Thinking { until = max (now t + 1) (Fsd.commit_due_at v.v_fsd) }
        | Some _ ->
          (* Retries exhausted: give up on this step, but account for it.
             The whole submitted->dropped window was admission time. *)
          let retries = s.retries in
          s.retries <- 0;
          s.dropped <- s.dropped + 1;
          Metrics.inc v.c_dropped;
          Metrics.add v.c_phase_admission_us (now t - s.t_submitted);
          if Trace.enabled t.trace then
            Trace.emit t.trace ~at:(now t)
              (Trace.Op_dropped { client = s.client; opseq = s.opseq; retries });
          s.arrival_us <- now t;
          s.steps <- rest
        | None ->
          s.retries <- 0;
          s.steps <- rest;
          run_op t v s op
      end))

(* ------------------------------------------------------------------ *)
(* The scheduler. *)

let runnable t (s : session) =
  match s.state with
  | Ready -> true
  | Thinking { until } -> until <= now t
  | Parked _ | Iowait _ | Done -> false

(* Round-robin: scan from the cursor so no session can monopolise the
   scheduler — after k steps every runnable session has run at least
   once. *)
let next_runnable t =
  let n = Array.length t.sessions in
  let rec scan i =
    if i = n then None
    else
      let s = t.sessions.((t.cursor + i) mod n) in
      if runnable t s then begin
        t.cursor <- ((t.cursor + i + 1) mod n);
        Some s
      end
      else scan (i + 1)
  in
  scan 0

let all_done t = Array.for_all (fun s -> s.state = Done) t.sessions

(* Every live session is either thinking toward a known time or parked
   waiting for some volume's commit demon; the next interesting instant
   is the earliest of those across all live volumes. *)
let next_event_time t =
  let demons =
    Array.fold_left
      (fun acc v ->
        if v.v_dead then acc
        else
          (* An attached telemetry monitor wakes the scheduler too, so
             samples land on their cadence instead of at the next
             commit/think edge. *)
          let due =
            match Fsd.monitor v.v_fsd with
            | Some m -> min (Fsd.commit_due_at v.v_fsd) (Cedar_obs.Monitor.due_at m)
            | None -> Fsd.commit_due_at v.v_fsd
          in
          min acc due)
      max_int t.vols
  in
  Array.fold_left
    (fun acc s ->
      match s.state with
      | Thinking { until } -> min acc until
      | Parked _ | Iowait _ | Ready | Done -> acc)
    demons t.sessions

(* All remaining work is parked sessions whose scripts are exhausted:
   nothing new can join those batches, so flush them now rather than
   sleeping out the rest of the commit interval (shutdown semantics). *)
let only_drain_left t =
  (not (all_done t))
  && Array.for_all
       (fun s ->
         match s.state with
         | Done -> true
         | Parked _ -> s.steps = []
         | Iowait _ | Ready | Thinking _ -> false)
       t.sessions

(* Resolve every Iowait session: service (in policy order) until its
   request range is done, stamp the ack there. Runs only once no session
   is runnable — the point of lazy resolution is that requests from many
   sessions pile up in the device queue first, giving a reordering
   policy something to reorder. Sessions are resolved in index order,
   which keeps the drain deterministic. Returns whether any resolved. *)
let resolve_iowait t =
  let any = ref false in
  Array.iter
    (fun s ->
      match s.state with
      | Iowait { vol; first; last } ->
        any := true;
        let v = t.vols.(vol) in
        finish t v s
          ~done_at:(Cedar_disk.Device.requests_done_at v.v_dev ~first ~last)
      | _ -> ())
    t.sessions;
  !any

(* Flush every live volume still owing acks, index order. *)
let force_drain t =
  Array.iter
    (fun v -> if (not v.v_dead) && parked_on t v.v_id > 0 then force_vol t v)
    t.vols

let create_volumes ?(config = default_config) vset scripts =
  if Array.length scripts = 0 then invalid_arg "Server.create: no scripts";
  if config.max_batch < 1 then invalid_arg "Server.create: max_batch < 1";
  if config.queue_cap < 1 then invalid_arg "Server.create: queue_cap < 1";
  let clock = Volume_set.clock vset in
  let t0 = Simclock.now clock in
  let sessions =
    Array.mapi
      (fun client steps ->
        {
          client;
          label = Printf.sprintf "session%02d" client;
          steps;
          state = Ready;
          ops = 0;
          mutations = 0;
          rejected = 0;
          retries = 0;
          dropped = 0;
          errors = 0;
          aborted = None;
          wait_total_us = 0;
          wait_max_us = 0;
          opseq = 0;
          arrival_us = t0;
          t_submitted = t0;
          t_exec_end = t0;
        })
      scripts
  in
  let vols =
    Array.init (Volume_set.count vset) (fun i ->
        let fsd = Volume_set.vol vset i in
        let m = Fsd.metrics fsd in
        let dev = Volume_set.device vset i in
        {
          v_id = i;
          v_fsd = fsd;
          v_dev = dev;
          v_dead = false;
          v_crash_sector = -1;
          v_last_durable = Fsd.durable_seq fsd;
          v_forces = 0;
          v_forces0 = 0;
          v_last_force_us = 0;
          v_acked = 0;
          v_commit_wait_us = Metrics.dist m "server.commit_wait_us";
          v_batch_size = Metrics.dist m "server.batch_size";
          v_op_latency_us = Metrics.dist m "server.op_latency_us";
          c_reject_queue_full = Metrics.counter m "server.rejects.queue_full";
          c_reject_backpressure = Metrics.counter m "server.rejects.backpressure";
          c_retries = Metrics.counter m "server.retries";
          c_dropped = Metrics.counter m "server.dropped";
          c_acked = Metrics.counter m "server.acked";
          c_phase_queue_us = Metrics.counter m "server.phase.queue_us";
          c_phase_admission_us = Metrics.counter m "server.phase.admission_us";
          c_phase_execute_us = Metrics.counter m "server.phase.execute_us";
          c_phase_append_us = Metrics.counter m "server.phase.append_us";
          c_phase_parked_us = Metrics.counter m "server.phase.parked_us";
        })
  in
  let t =
    {
      vset;
      vols;
      clock;
      trace = Volume_set.trace vset;
      cfg = config;
      sessions;
      cursor = 0;
      forces = 0;
      acked_rev = [];
    }
  in
  Array.iter
    (fun v ->
      Metrics.gauge (Fsd.metrics v.v_fsd) "server.queue_depth" (fun () ->
          parked_on t v.v_id))
    vols;
  t

let create ?config fsd scripts =
  create_volumes ?config (Volume_set.of_fsd fsd) scripts

let log_forces_now v =
  Option.get (Metrics.read (Fsd.metrics v.v_fsd) "fsd.forces")

let run t =
  let t0 = now t in
  Array.iter (fun v -> v.v_forces0 <- log_forces_now v) t.vols;
  let rec loop () =
    if not (all_done t) then begin
      (match next_runnable t with
      | Some s -> step t s
      | None ->
        if resolve_iowait t then ()
        else if only_drain_left t then force_drain t
        else Simclock.advance_to t.clock (next_event_time t));
      schedule_point t;
      loop ()
    end
  in
  loop ();
  (* Background demon writes may still sit in a request queue; service
     them so the device stats the caller reads cover the whole run. *)
  Array.iter (fun v -> ignore (Cedar_disk.Device.busy_until v.v_dev : int)) t.vols;
  let duration_us = now t - t0 in
  let vol_log_forces v = log_forces_now v - v.v_forces0 in
  let log_forces = Array.fold_left (fun n v -> n + vol_log_forces v) 0 t.vols in
  let total f = Array.fold_left (fun n s -> n + f s) 0 t.sessions in
  let vtotal f = Array.fold_left (fun n v -> n + f v) 0 t.vols in
  let mutations_acked = total (fun s -> s.mutations) in
  (* Merged wait/batch statistics across volumes. Every sample is an
     integer count of microseconds or sessions, so float sums are exact
     and the merge order cannot change a mean. *)
  let merged per_vol =
    let d = Stats.create () in
    Array.iter
      (fun v ->
        let src = per_vol v in
        List.iter (Stats.add d) (Stats.recent src (Stats.n src)))
      t.vols;
    d
  in
  let wait = merged (fun v -> v.v_commit_wait_us) in
  let batch = merged (fun v -> v.v_batch_size) in
  let dist_or d f default = if Stats.n d = 0 then default else f d in
  {
    clients = Array.length t.sessions;
    duration_us;
    total_ops = total (fun s -> s.ops);
    mutations_acked;
    server_forces = t.forces;
    log_forces;
    ops_per_force =
      (if log_forces = 0 then 0.
       else float_of_int mutations_acked /. float_of_int log_forces);
    total_rejected = total (fun s -> s.rejected);
    reject_queue_full = vtotal (fun v -> Metrics.counter_value v.c_reject_queue_full);
    reject_backpressure =
      vtotal (fun v -> Metrics.counter_value v.c_reject_backpressure);
    total_retries = vtotal (fun v -> Metrics.counter_value v.c_retries);
    total_dropped = total (fun s -> s.dropped);
    total_errors = total (fun s -> s.errors);
    total_aborted = total (fun s -> if s.aborted = None then 0 else 1);
    wait_n = Stats.n wait;
    wait_mean_us = dist_or wait Stats.mean 0.;
    wait_p50_us = dist_or wait (fun d -> Stats.percentile d 0.50) 0.;
    wait_p99_us = dist_or wait (fun d -> Stats.percentile d 0.99) 0.;
    wait_max_us = dist_or wait Stats.max 0.;
    batch_n = Stats.n batch;
    batch_mean = dist_or batch Stats.mean 0.;
    batch_max = dist_or batch Stats.max 0.;
    per_session =
      Array.to_list
        (Array.map
           (fun s ->
             {
               r_client = s.client;
               r_ops = s.ops;
               r_mutations = s.mutations;
               r_rejected = s.rejected;
               r_dropped = s.dropped;
               r_errors = s.errors;
               r_aborted = s.aborted;
               r_wait_total_us = s.wait_total_us;
               r_wait_max_us = s.wait_max_us;
             })
           t.sessions);
    per_volume =
      Array.to_list
        (Array.map
           (fun v ->
             {
               vr_volume = v.v_id;
               vr_server_forces = v.v_forces;
               vr_log_forces = vol_log_forces v;
               vr_acked = v.v_acked;
               vr_crashed = v.v_dead;
             })
           t.vols);
  }

let serve ?config fsd scripts = run (create ?config fsd scripts)
let serve_volumes ?config vset scripts = run (create_volumes ?config vset scripts)
let acked t = List.rev t.acked_rev

let crashed_volumes t =
  Array.to_list t.vols
  |> List.filter_map (fun v -> if v.v_dead then Some v.v_id else None)

type outcome = Completed of report | Crashed of { sector : int }

let run_to_crash t =
  let r = run t in
  match Array.find_opt (fun v -> v.v_dead) t.vols with
  | Some v -> Crashed { sector = v.v_crash_sector }
  | None -> Completed r

(* Deterministic rendering: field order is fixed here, sessions are in
   client order, so byte-identical reports mean identical runs. *)
let report_json r =
  let session s =
    Jsonb.Obj
      [
        ("client", Jsonb.Int s.r_client);
        ("ops", Jsonb.Int s.r_ops);
        ("mutations", Jsonb.Int s.r_mutations);
        ("rejected", Jsonb.Int s.r_rejected);
        ("dropped", Jsonb.Int s.r_dropped);
        ("errors", Jsonb.Int s.r_errors);
        ( "aborted",
          match s.r_aborted with None -> Jsonb.Null | Some e -> Jsonb.Str e );
        ("wait_total_us", Jsonb.Int s.r_wait_total_us);
        ("wait_max_us", Jsonb.Int s.r_wait_max_us);
      ]
  in
  let volume v =
    Jsonb.Obj
      [
        ("volume", Jsonb.Int v.vr_volume);
        ("server_forces", Jsonb.Int v.vr_server_forces);
        ("log_forces", Jsonb.Int v.vr_log_forces);
        ("acked", Jsonb.Int v.vr_acked);
        ("crashed", Jsonb.Bool v.vr_crashed);
      ]
  in
  Jsonb.Obj
    ([
       ("clients", Jsonb.Int r.clients);
       ("duration_us", Jsonb.Int r.duration_us);
       ("total_ops", Jsonb.Int r.total_ops);
       ("mutations_acked", Jsonb.Int r.mutations_acked);
       ("server_forces", Jsonb.Int r.server_forces);
       ("log_forces", Jsonb.Int r.log_forces);
       ("ops_per_force", Jsonb.Float r.ops_per_force);
       ("rejected", Jsonb.Int r.total_rejected);
       ("rejects_queue_full", Jsonb.Int r.reject_queue_full);
       ("rejects_backpressure", Jsonb.Int r.reject_backpressure);
       ("retries", Jsonb.Int r.total_retries);
       ("dropped", Jsonb.Int r.total_dropped);
       ("errors", Jsonb.Int r.total_errors);
       ("aborted", Jsonb.Int r.total_aborted);
       ( "commit_wait_us",
         Jsonb.Obj
           [
             ("n", Jsonb.Int r.wait_n);
             ("mean", Jsonb.Float r.wait_mean_us);
             ("p50", Jsonb.Float r.wait_p50_us);
             ("p99", Jsonb.Float r.wait_p99_us);
             ("max", Jsonb.Float r.wait_max_us);
           ] );
       ( "batch_size",
         Jsonb.Obj
           [
             ("n", Jsonb.Int r.batch_n);
             ("mean", Jsonb.Float r.batch_mean);
             ("max", Jsonb.Float r.batch_max);
           ] );
       ("sessions", Jsonb.Arr (List.map session r.per_session));
       ("volumes", Jsonb.Arr (List.map volume r.per_volume));
     ])
