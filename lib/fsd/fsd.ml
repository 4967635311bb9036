open Cedar_util
open Cedar_disk
open Cedar_fsbase

module B = Cedar_btree.Btree.Make (Fnt_store)
module Trace = Cedar_obs.Trace
module Metrics = Cedar_obs.Metrics
module Monitor = Cedar_obs.Monitor

type vam_source = Vam_loaded | Vam_reconstructed | Vam_replayed

type boot_report = {
  boot_count : int;
  replayed_records : int;
  replayed_pages : int;
  corrected_sectors : int;
  skipped_leaders : int;
  vam_source : vam_source;
  log_replay_us : int;
  vam_us : int;
  total_us : int;
}

(* Registry-backed counter handles; registered (fresh, zeroed) on every
   boot under "fsd.*" names, so every count restarts at boot. *)
type meters = {
  m_ops : Metrics.counter;
  m_forces : Metrics.counter;
  m_empty_forces : Metrics.counter;
  m_leader_piggybacks : Metrics.counter;
  m_leader_home_writes : Metrics.counter;
  m_vam_base_rewrites : Metrics.counter;
  m_scrub_passes : Metrics.counter;
  m_scrub_fnt_repairs : Metrics.counter;
  m_scrub_leader_repairs : Metrics.counter;
  m_blackbox_checkpoints : Metrics.counter;
  m_blackbox_sectors : Metrics.counter;
  m_home_write_bursts : Metrics.counter;
  m_reclaim_stalls : Metrics.counter;
  m_op_us : Stats.t;  (** virtual latency per FSD operation *)
}

(* A leader whose current image has not reached its home sector yet. The
   newest image is logged at the next force while [modified]; [logged]
   retains the last committed image together with the third holding its
   log copy — when that third reclaims, the committed image (never an
   uncommitted newer one) is what goes home. [logged] is written only by
   [set_leader_logged], which keeps [leaders_in_third] in step; an entry
   is set back to [None] before it is removed or replaced. *)
type pending_leader = {
  mutable image : bytes;
  mutable modified : bool; (* image changed since last logged *)
  mutable logged : (int * bytes) option; (* (third, committed image) *)
}

type t = {
  device : Device.t;
  clock : Simclock.t;
  layout : Layout.t;
  params : Params.t;
  store : Fnt_store.t;
  tree : B.t;
  log : Log.t;
  alloc : Alloc.t;
  pending_leaders : (int, pending_leader) Hashtbl.t;
  leaders_in_third : int array; (* pending leaders whose [logged] names each third *)
  chunk_thirds : (int, int) Hashtbl.t; (* VAM chunk -> third of its log copy *)
  verified : (int64, unit) Hashtbl.t; (* uids whose leader checked out *)
  mutable last_force : int;
  mutable live : bool;
  mutable vam_saved_clean : bool;
  mutable mutation_seq : int;
      (* bumped whenever an operation leaves log-pending metadata *)
  mutable durable_seq : int;
      (* mutation_seq value covered by the last completed force *)
  mutable autocommit : bool;
      (* time-based commit fires inside op_done; a server scheduler
         suppresses it during [submit] and drives commits itself *)
  mutable forces_since_bb : int; (* black-box checkpoint cadence counter *)
  mutable last_scrub : int;
  mutable scrub_page_cursor : int; (* next FNT page pair to verify *)
  mutable scrub_key_cursor : string; (* next name-table key whose leader to verify *)
  mutable bb_next : (int64 * int) option; (* next black-box (gen, slot) *)
  mutable monitor : Monitor.t option;
      (* telemetry sampler; [None] (the default) keeps the hot path at
         one branch with zero allocation, same discipline as the trace *)
  boot_count : int;
  meters : meters;
}

let mk_meters reg =
  {
    m_ops = Metrics.counter reg "fsd.ops";
    m_forces = Metrics.counter reg "fsd.forces";
    m_empty_forces = Metrics.counter reg "fsd.empty_forces";
    m_leader_piggybacks = Metrics.counter reg "fsd.leader_piggybacks";
    m_leader_home_writes = Metrics.counter reg "fsd.leader_home_writes";
    m_vam_base_rewrites = Metrics.counter reg "fsd.vam_base_rewrites";
    m_scrub_passes = Metrics.counter reg "fsd.scrub_passes";
    m_scrub_fnt_repairs = Metrics.counter reg "fsd.scrub_fnt_repairs";
    m_scrub_leader_repairs = Metrics.counter reg "fsd.scrub_leader_repairs";
    m_blackbox_checkpoints = Metrics.counter reg "fsd.blackbox_checkpoints";
    m_blackbox_sectors = Metrics.counter reg "fsd.blackbox_sectors";
    m_home_write_bursts = Metrics.counter reg "fsd.home_write_bursts";
    m_reclaim_stalls = Metrics.counter reg "fsd.reclaim_stalls";
    m_op_us = Metrics.dist reg "fsd.op_us";
  }

let layout t = t.layout
let params t = t.params
let shard t = t.params.Params.shard_id
let device t = t.device
let trace t = Device.trace t.device
let metrics t = Device.metrics t.device

let counters_json t =
  let m = t.meters in
  Cedar_obs.Jsonb.Obj
    (List.map
       (fun (k, c) -> (k, Cedar_obs.Jsonb.Int (Metrics.counter_value c)))
       [
         ("ops", m.m_ops);
         ("forces", m.m_forces);
         ("empty_forces", m.m_empty_forces);
         ("leader_piggybacks", m.m_leader_piggybacks);
         ("leader_home_writes", m.m_leader_home_writes);
         ("vam_base_rewrites", m.m_vam_base_rewrites);
         ("scrub_passes", m.m_scrub_passes);
         ("scrub_fnt_repairs", m.m_scrub_fnt_repairs);
         ("scrub_leader_repairs", m.m_scrub_leader_repairs);
         ("home_write_bursts", m.m_home_write_bursts);
         ("reclaim_stalls", m.m_reclaim_stalls);
       ])
let log_stats t = Log.stats t.log
let fnt_home_writes t = Fnt_store.home_writes t.store
let fnt_repairs t = Fnt_store.repairs t.store
let free_sectors t = Vam.free_count (Alloc.vam t.alloc)
let is_live t = t.live
let drop_caches t =
  ignore (Fnt_store.flush_all_dirty t.store : int);
  Fnt_store.drop_clean_cache t.store

let sector_bytes t = t.layout.Layout.geom.Geometry.sector_bytes
let now t = Simclock.now t.clock
let cpu t us = Simclock.advance t.clock us
let require_live t = if not t.live then Fs_error.raise_ Fs_error.Not_booted

let emit t ev =
  let tr = Device.trace t.device in
  if Trace.enabled tr then Trace.emit tr ~at:(now t) ev

(* Wrap a public operation in a trace span so the device I/Os it issues
   nest under it. The disabled case is the single-branch hot path. With
   only the monitor on, no span is opened but op latency is still
   recorded so the sampler's windowed percentiles have a series. *)
let traced t ~op ~name f =
  let tr = Device.trace t.device in
  if (not (Trace.enabled tr)) && t.monitor == None then f ()
  else begin
    let t0 = now t in
    let id =
      if Trace.enabled tr then Trace.begin_span tr ~at:t0 ~op ~name else 0
    in
    match f () with
    | v ->
      Stats.add t.meters.m_op_us (float_of_int (now t - t0));
      Trace.end_span tr ~at:(now t) id;
      v
    | exception e ->
      Trace.end_span tr ~at:(now t) id;
      raise e
  end

let corrupt msg = Fs_error.raise_ (Fs_error.Corrupt_metadata msg)

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)

let set_leader_logged t pl logged =
  let count (j, _) d = t.leaders_in_third.(j) <- t.leaders_in_third.(j) + d in
  Option.iter (fun l -> count l (-1)) pl.logged;
  Option.iter (fun l -> count l 1) logged;
  pl.logged <- logged

let remove_pending_leader t sector =
  match Hashtbl.find_opt t.pending_leaders sector with
  | Some pl ->
    set_leader_logged t pl None;
    Hashtbl.remove t.pending_leaders sector
  | None -> ()

let clear_pending_leaders t =
  Hashtbl.reset t.pending_leaders;
  Array.fill t.leaders_in_third 0 3 0

(* Leaders logged in third [j] but never piggybacked must be written by
   the logging code before the third is overwritten (§5.3). With VAM
   logging, chunk images living in [j] are about to die too: rewrite the
   whole base, stamped with the current record number, so recovery
   ignores every older (stale) chunk image still in the log. *)
let home_due_leaders t j ~budget =
  let due = ref [] in
  if t.leaders_in_third.(j) > 0 then
    Hashtbl.iter
      (fun sector pl ->
        match pl.logged with
        | Some (j', image) when j' = j -> due := (sector, image, pl) :: !due
        | Some _ | None -> ())
      t.pending_leaders;
  let written = ref 0 in
  List.iter
    (fun (sector, image, pl) ->
      if !written < budget then begin
        Device.write t.device sector image;
        Metrics.inc t.meters.m_leader_home_writes;
        set_leader_logged t pl None;
        (* A newer uncommitted image keeps the entry alive until its own
           commit; otherwise the leader is fully home. *)
        if not pl.modified then remove_pending_leader t sector;
        incr written
      end)
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) !due);
  !written

let handle_enter_third t j =
  (match Fnt_store.flush_third t.store j with
  | (_ : int) -> ()
  | exception
      (Fs_error.Fs_error (Fs_error.Log_reclaim_stall { third; pinned_pages }) as ex)
    ->
    Metrics.inc t.meters.m_reclaim_stalls;
    emit t (Trace.Reclaim_stall { third; pinned = pinned_pages });
    raise ex);
  ignore (home_due_leaders t j ~budget:max_int : int);
  if t.params.Params.log_vam && Hashtbl.fold (fun _ th acc -> acc || th = j) t.chunk_thirds false
  then begin
    (* The record being appended right now (number [next_record_no]) logs
       chunk states the current map already contains, so it is covered by
       the epoch too. *)
    Vam.save ~mode:Vam.Log_based ~epoch:(Log.next_record_no t.log) (Alloc.vam t.alloc)
      t.device;
    Hashtbl.reset t.chunk_thirds;
    Metrics.inc t.meters.m_vam_base_rewrites
  end

let max_data_sectors t =
  min t.params.Params.max_record_data_sectors (Log.max_data_sectors_hard t.layout)

(* Note what each logged unit's survival horizon is (the third its
   record starts in) and update the in-memory bookkeeping. *)
let note_logged t batch ~third =
  let fnt_ids =
    List.filter_map
      (fun u -> match u.Log.kind with Log.Fnt_page p -> Some p | _ -> None)
      batch
  in
  Fnt_store.mark_logged t.store fnt_ids ~third;
  List.iter
    (fun u ->
      match u.Log.kind with
      | Log.Leader_page s -> (
        match Hashtbl.find_opt t.pending_leaders s with
        | Some pl ->
          set_leader_logged t pl (Some (third, u.Log.image));
          pl.modified <- false
        | None -> ())
      | Log.Vam_chunk c -> Hashtbl.replace t.chunk_thirds c third
      | Log.Fnt_page _ -> ())
    batch

(* Checkpoint the tail of the live trace into the on-disk black box
   (DESIGN.md §11). Only meaningful while tracing is on — the trace tail
   *is* the payload. The snapshot is taken before the "blackbox" span
   opens so the checkpoint never records itself; the slot write (and, on
   the first checkpoint of a boot, the probe reads deciding which slot
   and generation come next) then lands inside that span, keeping the
   recorder's I/O out of the forcing op's column in the table replays. *)
let checkpoint_blackbox t ~reason =
  let tr = Device.trace t.device in
  if Trace.enabled tr then begin
    let entries = Trace.last tr 512 in
    let in_flight =
      List.map (fun (_, op, name, t0) -> (op, name, t0)) (Trace.open_spans tr)
    in
    let id = Trace.begin_span tr ~at:(now t) ~op:"blackbox" ~name:reason in
    let gen, slot =
      match t.bb_next with
      | Some v -> v
      | None ->
        let v = Blackbox.probe t.device t.layout in
        t.bb_next <- Some v;
        v
    in
    let state =
      {
        Blackbox.gen;
        at_us = now t;
        reason;
        boot_count = t.boot_count;
        next_record_no = Log.next_record_no t.log;
        log_write_off = Log.write_off t.log;
        log_third = Log.current_third t.log;
        free_sectors = free_sectors t;
        pending_leaders = Hashtbl.length t.pending_leaders;
        dirty_fnt_pages = List.length (Fnt_store.dirty_pages t.store);
      }
    in
    let kept = Blackbox.write t.device t.layout ~slot ~state ~in_flight ~entries in
    Metrics.inc t.meters.m_blackbox_checkpoints;
    Metrics.add t.meters.m_blackbox_sectors t.layout.Layout.blackbox_slot_sectors;
    emit t
      (Trace.Blackbox_checkpoint
         { gen; events = kept; sectors = t.layout.Layout.blackbox_slot_sectors });
    Trace.end_span tr ~at:(now t) id;
    t.bb_next <- Some (Int64.add gen 1L, 1 - slot)
  end

let do_force t =
  require_live t;
  (* Everything mutated so far is in the dirty pages and pending leaders
     this force is about to log; once the record is durable, every token
     at or below this sequence is covered. Captured before the append so
     a crash mid-record leaves [durable_seq] untouched. *)
  let covered_seq = t.mutation_seq in
  let pages = Fnt_store.pages_to_log t.store in
  let leaders =
    Hashtbl.fold
      (fun sector pl acc -> if pl.modified then (sector, pl) :: acc else acc)
      t.pending_leaders []
  in
  if pages = [] && leaders = [] then begin
    assert (Vam.shadow_count (Alloc.vam t.alloc) = 0);
    Metrics.inc t.meters.m_empty_forces;
    emit t (Trace.Log_force { units = 0; empty = true });
    t.durable_seq <- covered_seq;
    t.last_force <- now t
  end
  else begin
    (* Deletions commit now, so their freed bits ride in this record
       (relevant only with VAM logging; harmless otherwise — a crash
       before the record is durable loses this whole session anyway). *)
    Alloc.commit t.alloc;
    let base_units =
      List.map
        (fun p ->
          { Log.kind = Log.Fnt_page p; image = Fnt_store.framed_image t.store p })
        pages
      @ List.map
          (fun (sector, pl) ->
            { Log.kind = Log.Leader_page sector; image = pl.image })
          leaders
    in
    let vam = Alloc.vam t.alloc in
    let chunk_unit c = { Log.kind = Log.Vam_chunk c; image = Vam.chunk_image vam c } in
    let units =
      if not t.params.Params.log_vam then base_units
      else
        (* Chunks dirtied since the last force ride in the same record as
           the name-table changes they belong to. Chunk images about to
           be overwritten by a third entry are covered differently: the
           entry handler rewrites the whole base with a fresh epoch. *)
        base_units @ List.map chunk_unit (Vam.drain_dirty_chunks vam)
    in
    let cap = max_data_sectors t in
    let total_data =
      List.fold_left (fun acc u -> acc + Log.unit_sectors t.layout u.Log.kind) 0 units
    in
    if total_data <= cap then begin
      (* the normal case: one record, one atomic commit *)
      let third = Log.append t.log units in
      note_logged t units ~third
    end
    else begin
      (* Backstop: split across records. Cross-record atomicity is lost,
         which the VAM base cannot tolerate — degrade it to a rebuild. *)
      if t.params.Params.log_vam then begin
        Vam.invalidate_saved t.layout t.device;
        Hashtbl.reset t.chunk_thirds
      end;
      let flush batch =
        let batch = List.rev batch in
        let third = Log.append t.log batch in
        note_logged t batch ~third
      in
      let rec pack acc acc_sectors = function
        | [] -> if acc <> [] then flush acc
        | u :: rest ->
          let s = Log.unit_sectors t.layout u.Log.kind in
          if acc <> [] && acc_sectors + s > cap then begin
            flush acc;
            pack [ u ] s rest
          end
          else pack (u :: acc) (acc_sectors + s) rest
      in
      pack [] 0 units
    end;
    t.durable_seq <- covered_seq;
    Metrics.inc t.meters.m_forces;
    emit t (Trace.Log_force { units = List.length units; empty = false });
    (* An empty force changes no durable state, so only real commits are
       checkpointed; the recorder's cost scales with commit activity.
       [blackbox_every_n_forces] further thins the cadence so runs with
       many clients (frequent forces) don't pay a checkpoint per force. *)
    t.forces_since_bb <- t.forces_since_bb + 1;
    if t.forces_since_bb >= t.params.Params.blackbox_every_n_forces then begin
      checkpoint_blackbox t ~reason:"force";
      t.forces_since_bb <- 0
    end;
    t.last_force <- now t
  end

let force t = traced t ~op:"force" ~name:"" (fun () -> do_force t)

(* Force early when the pending batch approaches one record, so a single
   force stays a single atomic log write ("the log is forced long before
   this should occur"). *)
let force_threshold t =
  max 2 ((max_data_sectors t / t.params.Params.fnt_page_sectors) - 4)

let maybe_commit t =
  (* Under a server scheduler ([autocommit] off, see {!submit}) the
     interval-driven force belongs to the batcher; the bulk trigger stays
     on unconditionally so one force remains one atomic record. *)
  let due_time =
    t.autocommit && now t - t.last_force >= t.params.Params.commit_interval_us
  in
  let due_bulk = Fnt_store.pages_to_log_count t.store >= force_threshold t in
  if due_time || due_bulk then force t

(* Any mutation of allocation state spoils an idle-period VAM snapshot.
   With VAM logging the base stays valid: the mutations reach the log. *)
let spoil_saved_vam t =
  if t.vam_saved_clean && not t.params.Params.log_vam then begin
    Vam.invalidate_saved t.layout t.device;
    t.vam_saved_clean <- false
  end

(* ------------------------------------------------------------------ *)
(* Name-table access                                                   *)

let validate_name name =
  match Fname.validate name with
  | Ok () -> ()
  | Error reason -> Fs_error.raise_ (Fs_error.Bad_name { name; reason })

let decode_entry name v =
  match Entry.decode v with
  | e -> e
  | exception Bytebuf.Decode_error m ->
    corrupt (Printf.sprintf "entry for %s does not decode: %s" name m)

let newest t name =
  validate_name name;
  let _, hi = Fname.bounds ~name in
  match B.find_last_below t.tree hi with
  | None -> None
  | Some (k, v) -> (
    match Fname.parse k with
    | Some (n, version) when String.equal n name ->
      Some (k, version, decode_entry name v)
    | Some _ | None -> None)

let newest_exn t name =
  match newest t name with
  | Some x -> x
  | None -> Fs_error.raise_ (Fs_error.No_such_file name)

let info_of name version (e : Entry.t) =
  { Fs_ops.name; version; byte_size = e.Entry.byte_size; uid = e.Entry.uid }

let insert_entry t ~key (e : Entry.t) =
  t.mutation_seq <- t.mutation_seq + 1;
  emit t (Trace.Mutation { seq = t.mutation_seq });
  match B.insert t.tree ~key ~value:(Entry.encode e) with
  | () -> ()
  | exception Invalid_argument _ ->
    (match Fname.parse key with
    | Some (name, _) -> Fs_error.raise_ (Fs_error.Too_fragmented name)
    | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Leader handling                                                     *)

let leader_image_of_entry t ~name ~version (e : Entry.t) =
  Leader.encode (Leader.of_entry ~name ~version e) ~sector_bytes:(sector_bytes t)

(* After any entry change the leader must be refreshed (it mirrors the
   whole entry for the scavenger); it is logged at the next commit and
   home-written lazily (never a synchronous I/O). *)
let refresh_leader t ~name ~version (e : Entry.t) =
  if e.Entry.anchor >= 0 then begin
    let image = leader_image_of_entry t ~name ~version e in
    match Hashtbl.find_opt t.pending_leaders e.Entry.anchor with
    | Some pl ->
      (* Keep [pl.logged]: the previously committed image still lives in
         the log and must go home when its third reclaims, even though a
         newer uncommitted image now shadows it in memory. *)
      pl.image <- image;
      pl.modified <- true
    | None ->
      Hashtbl.add t.pending_leaders e.Entry.anchor
        { image; modified = true; logged = None }
  end

let read_leader t (e : Entry.t) =
  match Hashtbl.find_opt t.pending_leaders e.Entry.anchor with
  | Some pl -> Leader.decode pl.image
  | None -> (
    match Device.read t.device e.Entry.anchor with
    | b -> Leader.decode b
    | exception Device.Error { sector; _ } ->
      Fs_error.raise_ (Fs_error.Damaged_data { name = "<leader>"; sector }))

let check_leader t name version (e : Entry.t) leader =
  match leader with
  | Some l when Leader.matches l ~name ~version e ->
    Hashtbl.replace t.verified e.Entry.uid ()
  | Some _ | None ->
    corrupt (Printf.sprintf "leader/name-table mismatch for %s (uid %Ld)" name e.Entry.uid)

let leader_verified t (e : Entry.t) =
  e.Entry.anchor < 0 || Hashtbl.mem t.verified e.Entry.uid

(* ------------------------------------------------------------------ *)
(* Data I/O                                                            *)

let read_sectors_of_runs t runs buf =
  let sb = sector_bytes t in
  let off = ref 0 in
  List.iter
    (fun r ->
      let data = Device.read_run t.device ~sector:r.Run_table.start ~count:r.Run_table.len in
      Bytes.blit data 0 buf !off (r.Run_table.len * sb);
      off := !off + (r.Run_table.len * sb))
    (Run_table.runs runs)

(* Read the whole file; on the first access, verify the leader — combined
   with the first data transfer when it is physically adjacent (§5.7). *)
let read_file_bytes t name version (e : Entry.t) =
  let sb = sector_bytes t in
  let npages = Run_table.pages e.Entry.runs in
  let buf = Bytes.create (npages * sb) in
  let piggyback_possible =
    (not (leader_verified t e))
    && (not (Hashtbl.mem t.pending_leaders e.Entry.anchor))
    && npages > 0
    && Run_table.sector_of_page e.Entry.runs 0 = e.Entry.anchor + 1
  in
  (try
     if piggyback_possible then begin
       let runs = Run_table.runs e.Entry.runs in
       match runs with
       | first :: rest ->
         let combined =
           Device.read_run t.device ~sector:e.Entry.anchor ~count:(1 + first.Run_table.len)
         in
         Metrics.inc t.meters.m_leader_piggybacks;
         emit t (Trace.Leader_piggyback { sector = e.Entry.anchor });
         let leader = Leader.decode (Bytes.sub combined 0 sb) in
         check_leader t name version e leader;
         Bytes.blit combined sb buf 0 (first.Run_table.len * sb);
         let off = ref (first.Run_table.len * sb) in
         List.iter
           (fun r ->
             let d = Device.read_run t.device ~sector:r.Run_table.start ~count:r.Run_table.len in
             Bytes.blit d 0 buf !off (r.Run_table.len * sb);
             off := !off + (r.Run_table.len * sb))
           rest
       | [] -> assert false
     end
     else begin
       if (not (leader_verified t e)) && e.Entry.anchor >= 0 then
         check_leader t name version e (read_leader t e);
       read_sectors_of_runs t e.Entry.runs buf
     end
   with Device.Error { sector; _ } ->
     Fs_error.raise_ (Fs_error.Damaged_data { name; sector }));
  Bytes.sub buf 0 e.Entry.byte_size

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let op_done t ?(pages = 0) () =
  Metrics.inc t.meters.m_ops;
  cpu t (t.params.Params.cpu_op_us + (pages * t.params.Params.cpu_page_us));
  maybe_commit t;
  (* Single-threaded callers never reach [run_due_demons]; polling here
     too keeps the sampling cadence without a scheduler. *)
  match t.monitor with None -> () | Some m -> Monitor.maybe_sample m

let split_leader_runs runs =
  match runs with
  | [] -> invalid_arg "split_leader_runs"
  | first :: rest ->
    let leader = first.Run_table.start in
    let data =
      if first.Run_table.len > 1 then
        { Run_table.start = first.Run_table.start + 1; len = first.Run_table.len - 1 }
        :: rest
      else rest
    in
    (leader, data)

let versions t ~name =
  let lo, hi = Fname.bounds ~name in
  B.fold_range ~lo ~hi t.tree ~init:[] ~f:(fun acc k _ ->
      match Fname.parse k with Some (_, v) -> v :: acc | None -> acc)
  |> List.rev

let delete_version_unchecked t name version =
  let key = Fname.key ~name ~version in
  match B.find t.tree key with
  | None -> Fs_error.raise_ (Fs_error.No_such_file (Printf.sprintf "%s!%d" name version))
  | Some v ->
    let e = decode_entry name v in
    t.mutation_seq <- t.mutation_seq + 1;
    emit t (Trace.Mutation { seq = t.mutation_seq });
    ignore (B.delete t.tree key : bool);
    spoil_saved_vam t;
    if e.Entry.anchor >= 0 then begin
      (* The leader and the data pages return to the VAM at commit. *)
      Alloc.free_on_commit t.alloc
        ({ Run_table.start = e.Entry.anchor; len = 1 } :: Run_table.runs e.Entry.runs);
      remove_pending_leader t e.Entry.anchor
    end;
    Hashtbl.remove t.verified e.Entry.uid

let enforce_keep t name newest_version keep =
  if keep > 0 then
    List.iter
      (fun v -> if v <= newest_version - keep then delete_version_unchecked t name v)
      (versions t ~name)

let create_common t ~name ~keep ~data_pages ~byte_size ~kind data_opt =
  require_live t;
  validate_name name;
  spoil_saved_vam t;
  let small = byte_size <= t.params.Params.small_file_bytes in
  let runs =
    match Alloc.allocate t.alloc ~sectors:(1 + data_pages) ~small with
    | Ok rs -> rs
    | Error `Volume_full -> Fs_error.raise_ Fs_error.Volume_full
    | Error `Too_fragmented -> Fs_error.raise_ (Fs_error.Too_fragmented name)
  in
  let anchor, data_runs = split_leader_runs runs in
  let uid = Fnt_store.fresh_uid t.store in
  let version = match newest t name with Some (_, v, _) -> v + 1 | None -> 1 in
  let entry =
    {
      Entry.uid;
      keep;
      byte_size;
      created = now t;
      runs = Run_table.of_runs data_runs;
      anchor;
      kind;
    }
  in
  (try insert_entry t ~key:(Fname.key ~name ~version) entry
   with e ->
     Alloc.free_now t.alloc runs;
     raise e);
  let limage = leader_image_of_entry t ~name ~version entry in
  (match data_opt with
  | Some data ->
    (* One synchronous I/O: the leader and the first data run together. *)
    let sb = sector_bytes t in
    let padded = Bytes.make (data_pages * sb) '\000' in
    Bytes.blit data 0 padded 0 (Bytes.length data);
    (match Run_table.runs entry.Entry.runs with
    | first :: rest when first.Run_table.start = anchor + 1 ->
      let combined = Bytes.create ((1 + first.Run_table.len) * sb) in
      Bytes.blit limage 0 combined 0 sb;
      Bytes.blit padded 0 combined sb (first.Run_table.len * sb);
      Device.write_run t.device ~sector:anchor combined;
      let off = ref (first.Run_table.len * sb) in
      List.iter
        (fun r ->
          Device.write_run t.device ~sector:r.Run_table.start
            (Bytes.sub padded !off (r.Run_table.len * sb));
          off := !off + (r.Run_table.len * sb))
        rest
    | runs ->
      (* Leader not adjacent to the data (fragmented volume): write it
         separately. *)
      Device.write t.device anchor limage;
      let off = ref 0 in
      List.iter
        (fun r ->
          Device.write_run t.device ~sector:r.Run_table.start
            (Bytes.sub padded !off (r.Run_table.len * sb));
          off := !off + (r.Run_table.len * sb))
        runs);
    Hashtbl.replace t.verified uid ()
  | None ->
    (* No data write to piggyback on: the leader goes through the log. *)
    Option.iter
      (fun old -> set_leader_logged t old None)
      (Hashtbl.find_opt t.pending_leaders anchor);
    Hashtbl.replace t.pending_leaders anchor
      { image = limage; modified = true; logged = None });
  enforce_keep t name version keep;
  op_done t ~pages:data_pages ();
  info_of name version entry

let create t ~name ?keep data =
  traced t ~op:"create" ~name (fun () ->
      let keep = Option.value keep ~default:t.params.Params.default_keep in
      let sb = sector_bytes t in
      let byte_size = Bytes.length data in
      let data_pages = max 1 ((byte_size + sb - 1) / sb) in
      create_common t ~name ~keep ~data_pages ~byte_size ~kind:Entry.Local
        (Some data))

let create_empty t ~name ?keep ~pages () =
  if pages < 0 then invalid_arg "Fsd.create_empty";
  traced t ~op:"create_empty" ~name (fun () ->
      let keep = Option.value keep ~default:t.params.Params.default_keep in
      let sb = sector_bytes t in
      create_common t ~name ~keep ~data_pages:pages ~byte_size:(pages * sb)
        ~kind:Entry.Local None)

let import_cached t ~name ~server data =
  traced t ~op:"import" ~name (fun () ->
      let sb = sector_bytes t in
      let byte_size = Bytes.length data in
      let data_pages = max 1 ((byte_size + sb - 1) / sb) in
      create_common t ~name ~keep:t.params.Params.default_keep ~data_pages
        ~byte_size
        ~kind:(Entry.Cached { server; last_used = now t })
        (Some data))

let create_symlink t ~name ~target =
  traced t ~op:"symlink" ~name @@ fun () ->
  require_live t;
  validate_name name;
  let uid = Fnt_store.fresh_uid t.store in
  let version = match newest t name with Some (_, v, _) -> v + 1 | None -> 1 in
  let entry =
    {
      Entry.uid;
      keep = t.params.Params.default_keep;
      byte_size = 0;
      created = now t;
      runs = Run_table.empty;
      anchor = -1;
      kind = Entry.Symlink { target };
    }
  in
  insert_entry t ~key:(Fname.key ~name ~version) entry;
  enforce_keep t name version entry.Entry.keep;
  op_done t ()

let open_stat t ~name =
  traced t ~op:"open" ~name @@ fun () ->
  require_live t;
  let _, version, e = newest_exn t name in
  op_done t ();
  info_of name version e

let exists t ~name =
  traced t ~op:"exists" ~name @@ fun () ->
  require_live t;
  let r = newest t name <> None in
  op_done t ();
  r

let readlink t ~name =
  traced t ~op:"readlink" ~name @@ fun () ->
  require_live t;
  let _, _, e = newest_exn t name in
  op_done t ();
  match e.Entry.kind with Entry.Symlink { target } -> Some target | _ -> None

let rec read_all_depth t ~name ~depth =
  require_live t;
  let _, version, e = newest_exn t name in
  match e.Entry.kind with
  | Entry.Symlink { target } ->
    if depth >= 8 then corrupt ("symlink chain too deep at " ^ name)
    else read_all_depth t ~name:target ~depth:(depth + 1)
  | Entry.Local | Entry.Cached _ ->
    let bytes = read_file_bytes t name version e in
    op_done t ~pages:(Run_table.pages e.Entry.runs) ();
    bytes

let read_all t ~name =
  traced t ~op:"read_all" ~name (fun () -> read_all_depth t ~name ~depth:0)

let read_page t ~name ~page =
  traced t ~op:"read_page" ~name @@ fun () ->
  require_live t;
  let _, version, e = newest_exn t name in
  let npages = Run_table.pages e.Entry.runs in
  if page < 0 || page >= npages then Fs_error.raise_ (Fs_error.Bad_page { name; page });
  let sector = Run_table.sector_of_page e.Entry.runs page in
  let sb = sector_bytes t in
  let result =
    try
      if leader_verified t e then Device.read t.device sector
      else if
        page = 0
        && sector = e.Entry.anchor + 1
        && not (Hashtbl.mem t.pending_leaders e.Entry.anchor)
      then begin
        (* §5.7: the leader is the previous physical page; verifying it
           costs only one extra sector of transfer. *)
        let combined = Device.read_run t.device ~sector:e.Entry.anchor ~count:2 in
        Metrics.inc t.meters.m_leader_piggybacks;
        emit t (Trace.Leader_piggyback { sector = e.Entry.anchor });
        check_leader t name version e (Leader.decode (Bytes.sub combined 0 sb));
        Bytes.sub combined sb sb
      end
      else begin
        check_leader t name version e (read_leader t e);
        Device.read t.device sector
      end
    with Device.Error { sector; _ } ->
      Fs_error.raise_ (Fs_error.Damaged_data { name; sector })
  in
  op_done t ~pages:1 ();
  result

let write_page t ~name ~page data =
  traced t ~op:"write_page" ~name @@ fun () ->
  require_live t;
  let _, _, e = newest_exn t name in
  let npages = Run_table.pages e.Entry.runs in
  if page < 0 || page >= npages then Fs_error.raise_ (Fs_error.Bad_page { name; page });
  Device.write t.device (Run_table.sector_of_page e.Entry.runs page) data;
  op_done t ~pages:1 ()

let update_entry t ~key (e : Entry.t) =
  insert_entry t ~key e;
  match Fname.parse key with
  | Some (name, version) -> refresh_leader t ~name ~version e
  | None -> ()

let extend t ~name ~pages =
  if pages <= 0 then invalid_arg "Fsd.extend";
  traced t ~op:"extend" ~name @@ fun () ->
  require_live t;
  let key, _, e = newest_exn t name in
  spoil_saved_vam t;
  let small = Run_table.pages e.Entry.runs + pages <= 8 in
  let new_runs =
    match Alloc.allocate t.alloc ~sectors:pages ~small with
    | Ok rs -> rs
    | Error `Volume_full -> Fs_error.raise_ Fs_error.Volume_full
    | Error `Too_fragmented -> Fs_error.raise_ (Fs_error.Too_fragmented name)
  in
  let runs =
    try Run_table.of_runs (Run_table.runs e.Entry.runs @ new_runs)
    with Invalid_argument _ -> corrupt ("run table overlap extending " ^ name)
  in
  let sb = sector_bytes t in
  let e' = { e with Entry.runs; byte_size = e.Entry.byte_size + (pages * sb) } in
  (try update_entry t ~key e'
   with exn ->
     Alloc.free_now t.alloc new_runs;
     raise exn);
  Hashtbl.remove t.verified e.Entry.uid;
  Hashtbl.replace t.verified e'.Entry.uid (); (* leader refreshed in pending *)
  op_done t ()

let contract t ~name ~pages =
  if pages < 0 then invalid_arg "Fsd.contract";
  traced t ~op:"contract" ~name @@ fun () ->
  require_live t;
  let key, _, e = newest_exn t name in
  let current = Run_table.pages e.Entry.runs in
  if pages > current then Fs_error.raise_ (Fs_error.Bad_page { name; page = pages });
  spoil_saved_vam t;
  let runs, freed = Run_table.truncate e.Entry.runs ~pages in
  let sb = sector_bytes t in
  let e' =
    { e with Entry.runs; byte_size = min e.Entry.byte_size (pages * sb) }
  in
  update_entry t ~key e';
  Alloc.free_on_commit t.alloc freed;
  op_done t ()

let delete t ~name =
  traced t ~op:"delete" ~name @@ fun () ->
  require_live t;
  let _, version, e = newest_exn t name in
  delete_version_unchecked t name version;
  (* freeing cost scales with the run table and the pending-release work *)
  op_done t ~pages:(Run_table.pages e.Entry.runs / 2) ()

let delete_version t ~name ~version =
  traced t ~op:"delete_version" ~name @@ fun () ->
  require_live t;
  validate_name name;
  delete_version_unchecked t name version;
  op_done t ()

let set_keep t ~name ~keep =
  if keep < 0 then invalid_arg "Fsd.set_keep";
  traced t ~op:"set_keep" ~name @@ fun () ->
  require_live t;
  let key, version, e = newest_exn t name in
  update_entry t ~key { e with Entry.keep };
  enforce_keep t name version keep;
  op_done t ()

(* Rename is pure metadata: both the removal and the insertion ride the
   same group commit, so the pair is atomic (one log record). *)
let rename t ~from_ ~to_ =
  traced t ~op:"rename" ~name:from_ @@ fun () ->
  require_live t;
  validate_name to_;
  let from_key, _, e = newest_exn t from_ in
  (match newest t to_ with
  | Some _ -> Fs_error.raise_ (Fs_error.Bad_name { name = to_; reason = "target exists" })
  | None -> ());
  ignore (B.delete t.tree from_key : bool);
  (* The leader mirrors the name: refresh it under the new key so a later
     scavenge does not resurrect the old name. *)
  update_entry t ~key:(Fname.key ~name:to_ ~version:1) e;
  op_done t ()

(* Copy duplicates the data pages under a fresh uid and leader. *)
let copy t ~from_ ~to_ =
  traced t ~op:"copy" ~name:from_ @@ fun () ->
  require_live t;
  let data = read_all t ~name:from_ in
  let _, _, e = newest_exn t from_ in
  create t ~name:to_ ~keep:e.Entry.keep data

let touch_cached t ~name =
  traced t ~op:"touch" ~name @@ fun () ->
  require_live t;
  let key, _, e = newest_exn t name in
  (match e.Entry.kind with
  | Entry.Cached { server; _ } ->
    update_entry t ~key
      { e with Entry.kind = Entry.Cached { server; last_used = now t } }
  | Entry.Local | Entry.Symlink _ ->
    corrupt (name ^ " is not a cached remote file"));
  op_done t ()

let last_used t ~name =
  traced t ~op:"last_used" ~name @@ fun () ->
  require_live t;
  let _, _, e = newest_exn t name in
  op_done t ();
  match e.Entry.kind with
  | Entry.Cached { last_used; _ } -> Some last_used
  | Entry.Local | Entry.Symlink _ -> None

let list t ~prefix =
  traced t ~op:"list" ~name:prefix @@ fun () ->
  require_live t;
  let hi = prefix ^ "\xff\xff\xff\xff" in
  let acc = ref [] in
  let current : (string * int * Entry.t) option ref = ref None in
  let entries = ref 0 in
  let flush () =
    match !current with
    | Some (n, v, e) -> acc := info_of n v e :: !acc
    | None -> ()
  in
  B.iter_range ~lo:prefix ~hi t.tree (fun k v ->
      incr entries;
      match Fname.parse k with
      | None -> ()
      | Some (n, ver) ->
        (match !current with
        | Some (cn, _, _) when not (String.equal cn n) -> flush ()
        | Some _ | None -> ());
        current := Some (n, ver, decode_entry n v));
  flush ();
  cpu t (!entries * t.params.Params.cpu_page_us);
  op_done t ();
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Online scrub demon

   Latent damage — a decayed sector, a wild write, silent corruption — in
   a doubly-kept structure is only survivable while the twin is still
   good. Waiting for a client read to notice leaves an unbounded window
   in which the second copy can die too. During idle periods the demon
   therefore walks the FNT page pairs and the leaders a few at a time,
   verifies every copy (checksum, not just readability), and rewrites a
   lone bad copy in place from its surviving source. *)

let scrub_fnt_pages t =
  let np = t.params.Params.fnt_pages in
  let budget = min t.params.Params.scrub_pages_per_pass np in
  for _ = 1 to budget do
    let page = t.scrub_page_cursor in
    t.scrub_page_cursor <- (page + 1) mod np;
    if Fnt_store.page_in_use t.store page then
      match Fnt_store.scrub_page t.store page with
      | `Repaired ->
        Metrics.inc t.meters.m_scrub_fnt_repairs;
        emit t (Trace.Scrub_repair { target = "fnt-page"; loc = page })
      | `Ok | `Unreadable -> ()
  done

(* A leader that fails its checksum or no longer corroborates the entry
   is rewritten from the name table (the entry is the primary copy; the
   leader is reconstructible redundancy). Leaders with a pending image
   are skipped: their home copy is legitimately stale until the logging
   code writes it. *)
let scrub_leaders t =
  let budget = t.params.Params.scrub_leaders_per_pass in
  let scanned = ref 0 in
  let wrapped = ref true in
  (try
     B.iter_range ~lo:t.scrub_key_cursor t.tree (fun k v ->
         if !scanned >= budget then begin
           t.scrub_key_cursor <- k;
           wrapped := false;
           raise Exit
         end;
         incr scanned;
         match Fname.parse k with
         | None -> ()
         | Some (name, version) ->
           let e = decode_entry name v in
           if
             e.Entry.anchor >= 0
             && not (Hashtbl.mem t.pending_leaders e.Entry.anchor)
           then begin
             let ok =
               match Device.read t.device e.Entry.anchor with
               | b -> (
                 match Leader.decode b with
                 | Some l -> Leader.matches l ~name ~version e
                 | None -> false)
               | exception Device.Error _ -> false
             in
             if not ok then begin
               Device.write t.device e.Entry.anchor
                 (leader_image_of_entry t ~name ~version e);
               Metrics.inc t.meters.m_scrub_leader_repairs;
               emit t (Trace.Scrub_repair { target = "leader"; loc = e.Entry.anchor })
             end;
             Hashtbl.replace t.verified e.Entry.uid ()
           end)
   with Exit -> ());
  if !wrapped then t.scrub_key_cursor <- ""

let maybe_scrub t =
  let interval = t.params.Params.scrub_interval_us in
  if interval > 0 && now t - t.last_scrub >= interval then begin
    t.last_scrub <- now t;
    Metrics.inc t.meters.m_scrub_passes;
    scrub_fnt_pages t;
    scrub_leaders t
  end

(* Demon dispatch, separated from time-advance so that an external
   scheduler (lib/server) can fire the commit and scrub demons at its own
   pace; re-exported as [Demons.run_due]. [tick] = advance + this, so
   single-threaded callers see identical behavior. *)
(* Background home-write scheduling: once the current third is
   [home_write_fill] full, pre-flush pages and leaders whose survival
   horizon is the NEXT third, in bounded batches between group commits —
   so the synchronous reclaim when the writer actually enters that third
   ([handle_enter_third]) finds little left to do inside an op. *)
let maybe_home_writes t =
  let budget = t.params.Params.home_writes_per_pass in
  if
    budget > 0
    && t.params.Params.home_write_fill < 1.0
    && Log.third_fill t.log >= t.params.Params.home_write_fill
  then begin
    let next = (Log.current_third t.log + 1) mod 3 in
    let pages = Fnt_store.flush_some_third t.store next ~budget in
    let leaders =
      if pages >= budget then 0
      else home_due_leaders t next ~budget:(budget - pages)
    in
    if pages + leaders > 0 then begin
      Metrics.inc t.meters.m_home_write_bursts;
      emit t (Trace.Home_write_burst { third = next; pages; leaders })
    end
  end

let run_due_demons t =
  require_live t;
  maybe_commit t;
  maybe_home_writes t;
  maybe_scrub t;
  match t.monitor with None -> () | Some m -> Monitor.maybe_sample m

let tick t ~us =
  require_live t;
  Simclock.advance t.clock us;
  run_due_demons t

(* ------------------------------------------------------------------ *)
(* Submission API: execute now, wait for the covering force later.

   A server scheduler runs each client operation to completion through
   [submit], which suppresses the interval-driven force for the duration
   (the batcher owns commit timing) and returns a completion token. The
   token is durable once a force covering every mutation the operation
   made has completed — the moment the paper's client, "the process doing
   the commit", may be unparked (§5.4). *)

type token = int

let always_durable : token = 0

let submit t f =
  require_live t;
  let was = t.autocommit in
  t.autocommit <- false;
  let before = t.mutation_seq in
  match f () with
  | v ->
    t.autocommit <- was;
    let tok = if t.mutation_seq > before then t.mutation_seq else always_durable in
    (v, tok)
  | exception e ->
    t.autocommit <- was;
    raise e

let token_durable t (tok : token) = t.durable_seq >= tok
let mutation_seq t = t.mutation_seq
let durable_seq t = t.durable_seq

let commit_due_at t = t.last_force + t.params.Params.commit_interval_us

(* ------------------------------------------------------------------ *)
(* Telemetry monitor                                                   *)

let monitor t = t.monitor

(* The saturation gauges: derived per-interval figures that answer "was
   the system saturated during this 100ms?" rather than "how much work
   has it done since boot". All are pure functions of the interval's
   counter deltas and current gauge values, so samples stay
   deterministic. Server-side names ("server.acked", ...) read as zero
   until a server registers them — the monitor works unchanged under
   single-threaded callers. *)
let enable_monitor ?ring ?window ?interval_us t =
  require_live t;
  let interval =
    match interval_us with
    | Some us -> us
    | None -> t.params.Params.monitor_interval_us
  in
  let reg = Device.metrics t.device in
  let m =
    Monitor.create ?ring ?window ~interval_us:interval
      ~now:(fun () -> now t)
      reg
  in
  let per_second n v = float_of_int n *. 1e6 /. float_of_int (max 1 v.Monitor.dt_us) in
  Monitor.derive m "sat.device_busy" (fun v ->
      (* Deferred/queued devices charge busy_us on their own horizon,
         which can run ahead of the sampling clock — an interval may see
         more busy time than wall time. A fraction above 1.0 just means
         "saturated"; clamp it so the gauge stays a fraction. *)
      Float.min 1.0
        (float_of_int (v.Monitor.delta "device.busy_us")
        /. float_of_int (max 1 v.Monitor.dt_us)));
  Monitor.derive m "sat.log_third_fill" (fun _ -> Log.third_fill t.log);
  Monitor.derive m "sat.queue_depth" (fun v ->
      float_of_int (v.Monitor.value "server.queue_depth"));
  Monitor.derive m "sat.ops_per_force" (fun v ->
      let forces = v.Monitor.delta "fsd.forces" in
      if forces = 0 then 0.0
      else float_of_int (v.Monitor.delta "server.acked") /. float_of_int forces);
  Monitor.derive m "sat.op_rate_s" (fun v -> per_second (v.Monitor.delta "fsd.ops") v);
  Monitor.derive m "sat.reject_rate_s" (fun v ->
      per_second (v.Monitor.delta "server.rejects.queue_full") v);
  Monitor.derive m "sat.retry_rate_s" (fun v ->
      per_second (v.Monitor.delta "server.retries") v);
  Monitor.derive m "sat.dropped_rate_s" (fun v ->
      per_second (v.Monitor.delta "server.dropped") v);
  Monitor.derive m "sat.reclaim_stall_rate_s" (fun v ->
      per_second (v.Monitor.delta "fsd.reclaim_stalls") v);
  Monitor.derive m "sat.home_write_burst_rate_s" (fun v ->
      per_second (v.Monitor.delta "fsd.home_write_bursts") v);
  (* Per-phase occupancy gauges (the live face of the latency anatomy):
     accumulated phase-microseconds per elapsed microsecond, i.e. the
     average number of ops simultaneously inside that phase over the
     sample window. The server maintains the underlying counters with
     tracing off; standalone (serverless) runs read 0. *)
  let phase_occupancy name counter =
    Monitor.derive m name (fun v ->
        float_of_int (v.Monitor.delta counter)
        /. float_of_int (max 1 v.Monitor.dt_us))
  in
  phase_occupancy "sat.phase_queue" "server.phase.queue_us";
  phase_occupancy "sat.phase_admission" "server.phase.admission_us";
  phase_occupancy "sat.phase_execute" "server.phase.execute_us";
  phase_occupancy "sat.phase_append" "server.phase.append_us";
  phase_occupancy "sat.phase_parked" "server.phase.parked_us";
  Monitor.watch_dist m "server.commit_wait_us";
  Monitor.watch_dist m "fsd.op_us";
  t.monitor <- Some m;
  m

let disable_monitor t = t.monitor <- None

let save_vam t =
  require_live t;
  force t;
  if not t.params.Params.log_vam then begin
    (* An idle snapshot, trusted until the next mutation. With VAM
       logging the boot-time base plus the log already cover the map. *)
    Vam.save (Alloc.vam t.alloc) t.device;
    t.vam_saved_clean <- true
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let format device params =
  let geom = Device.geometry device in
  let layout = Layout.compute geom params in
  let store = Fnt_store.create_fresh device layout in
  Fnt_store.flush_anchor store;
  Blackbox.format device layout;
  Log.format device layout;
  Vam.save (Vam.create_all_free layout) device;
  Boot_page.write device ~sector_bytes:geom.Geometry.sector_bytes
    {
      Boot_page.boot_count = 0;
      clean_shutdown = true;
      fnt_page_sectors = params.Params.fnt_page_sectors;
      fnt_pages = params.Params.fnt_pages;
      log_sectors = params.Params.log_sectors;
      log_vam = params.Params.log_vam;
      track_tolerant_log = params.Params.track_tolerant_log;
      shard_id = params.Params.shard_id;
    }

(* Scan the whole name table once: mark allocated sectors in the VAM and
   collect anchor-sector -> uid for validating logged leader images. *)
let scan_name_table t_tree vam anchors cpu_per_entry clock =
  B.iter t_tree (fun k v ->
      Simclock.advance clock cpu_per_entry;
      match Entry.decode v with
      | exception Bytebuf.Decode_error m ->
        corrupt (Printf.sprintf "entry %s does not decode during scan: %s" k m)
      | e ->
        if e.Entry.anchor >= 0 then begin
          (match vam with
          | Some vm -> Vam.mark_allocated_for_rebuild vm e.Entry.anchor
          | None -> ());
          Hashtbl.replace anchors e.Entry.anchor e.Entry.uid
        end;
        match vam with
        | Some vm -> Run_table.iter_sectors e.Entry.runs (Vam.mark_allocated_for_rebuild vm)
        | None -> ())

let boot ?params device =
  let clock = Device.clock device in
  let geom = Device.geometry device in
  let t_start = Simclock.now clock in
  let bp =
    match Boot_page.read device with
    | Some bp -> bp
    | None -> corrupt "both boot pages are unreadable"
  in
  (* Explicit params win; otherwise the volume's own boot page decides,
     including the extension flags it was formatted with. *)
  let runtime =
    match params with
    | Some p -> p
    | None ->
      {
        (Params.for_geometry geom) with
        Params.log_vam = bp.Boot_page.log_vam;
        track_tolerant_log = bp.Boot_page.track_tolerant_log;
      }
  in
  let p =
    {
      runtime with
      Params.fnt_page_sectors = bp.Boot_page.fnt_page_sectors;
      fnt_pages = bp.Boot_page.fnt_pages;
      log_sectors = bp.Boot_page.log_sectors;
      (* identity, not tuning: the shard the volume was formatted as *)
      shard_id = bp.Boot_page.shard_id;
    }
  in
  let layout = Layout.compute geom p in
  let boot_count = bp.Boot_page.boot_count + 1 in
  Boot_page.write device ~sector_bytes:geom.Geometry.sector_bytes
    { bp with Boot_page.boot_count; clean_shutdown = false };
  (* Log replay: one sequential pass over the live log region
     (Log.replay). Records are applied in log order as they decode —
     later images overwrite earlier ones in the staging tables, so each
     unit is then written home exactly once — and no log sector is read
     twice. Replay is unconditional: it is also what rolls back
     uncommitted state a diverged page's home copy could never hold. *)
  let r0 = Simclock.now clock in
  let fnt_tbl : (int, bytes) Hashtbl.t = Hashtbl.create 64 in
  let leader_tbl : (int, bytes) Hashtbl.t = Hashtbl.create 64 in
  let chunk_tbl : (int, bytes * int64) Hashtbl.t = Hashtbl.create 16 in
  let rec_info =
    Log.replay ~shard:p.Params.shard_id device layout
      ~f:(fun ~record_no ~off:_ units ->
        List.iter
          (fun u ->
            match u.Log.kind with
            | Log.Fnt_page id -> Hashtbl.replace fnt_tbl id u.Log.image
            | Log.Leader_page s -> Hashtbl.replace leader_tbl s u.Log.image
            | Log.Vam_chunk c -> Hashtbl.replace chunk_tbl c (u.Log.image, record_no))
          units)
  in
  let sorted_bindings tbl =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let fnt_images = sorted_bindings fnt_tbl in
  let leader_images = sorted_bindings leader_tbl in
  let vam_chunk_images =
    List.map (fun (c, (image, no)) -> (c, image, no)) (sorted_bindings chunk_tbl)
  in
  List.iter
    (fun (id, image) -> Fnt_store.write_home_image device layout ~page:id image)
    fnt_images;
  Simclock.advance clock (runtime.Params.cpu_page_us * rec_info.Log.p_records * 4);
  let log_replay_us = Simclock.now clock - r0 in
  let trace_boot ev =
    let tr = Device.trace device in
    if Trace.enabled tr then Trace.emit tr ~at:(Simclock.now clock) ev
  in
  trace_boot (Trace.Recovery_phase { phase = "log-replay"; us = log_replay_us });
  (* Attach the recovered structures. *)
  let t_ref = ref None in
  let on_enter j =
    match !t_ref with Some t -> handle_enter_third t j | None -> ()
  in
  let base_no =
    match rec_info.Log.p_last_record_no with
    | Some n -> max n rec_info.Log.p_pointer_record_no
    | None -> rec_info.Log.p_pointer_record_no
  in
  (* Attach the name table before the log: Log.attach moves the recovery
     pointer, and if the name table turns out to be beyond repair the
     caller will run the scavenger, which must still see this log. *)
  let store = Fnt_store.attach device layout in
  let tree = B.attach store in
  let log =
    Log.attach ~shard:p.Params.shard_id device layout ~boot_count
      ~next_record_no:(Int64.add base_no 1_000_000L)
      ~write_off:rec_info.Log.p_next_write_off ~on_enter_third:on_enter
  in
  (* VAM: with VAM logging, rebuild from the saved base plus the logged
     chunk images; otherwise trust a clean snapshot; else reconstruct
     from the name table. A mode mismatch (the volume last ran with the
     other setting) falls back to reconstruction. *)
  let v0 = Simclock.now clock in
  let anchors = Hashtbl.create 64 in
  let reconstruct () =
    let vm = Vam.create_all_free layout in
    scan_name_table tree (Some vm) anchors (runtime.Params.cpu_page_us / 2) clock;
    (vm, Vam_reconstructed, true)
  in
  let vam, vam_source, scanned =
    match (Vam.load layout device, p.Params.log_vam) with
    | Some (vm, Vam.Log_based, epoch), true ->
      (* Chunk images from records at or below the base's epoch predate
         the base (it was rewritten after they were logged): skip them. *)
      List.iter
        (fun (c, image, no) ->
          if Int64.compare no epoch > 0 then Vam.apply_chunk vm c image)
        vam_chunk_images;
      Simclock.advance clock (List.length vam_chunk_images * runtime.Params.cpu_page_us);
      (vm, Vam_replayed, false)
    | Some (vm, Vam.Snapshot, _), false ->
      Vam.invalidate_saved layout device;
      (vm, Vam_loaded, false)
    | Some _, _ | None, _ -> reconstruct ()
  in
  (* With VAM logging, rewrite the base now: the pointer was just reset,
     so every surviving chunk record will postdate this image. *)
  if p.Params.log_vam then begin
    Vam.save ~mode:Vam.Log_based
      ~epoch:(Int64.sub (Log.next_record_no log) 1L)
      vam device;
    ignore (Vam.drain_dirty_chunks vam : int list)
  end;
  let vam_us = Simclock.now clock - v0 in
  let vam_source_str =
    match vam_source with
    | Vam_loaded -> "loaded"
    | Vam_reconstructed -> "reconstructed"
    | Vam_replayed -> "replayed"
  in
  trace_boot (Trace.Vam_rebuild { source = vam_source_str; us = vam_us });
  (* Leader images are applied only where the (recovered) name table still
     points: stale ones could stomp reused data sectors. *)
  let skipped_leaders = ref 0 in
  if leader_images <> [] then begin
    if not scanned then
      scan_name_table tree None anchors (runtime.Params.cpu_page_us / 2) clock;
    List.iter
      (fun (sector, image) ->
        let ok =
          match (Leader.decode image, Hashtbl.find_opt anchors sector) with
          | Some l, Some uid -> Int64.equal l.Leader.uid uid
          | _, _ -> false
        in
        if ok then Device.write device sector image else incr skipped_leaders)
      leader_images
  end;
  let t =
    {
      device;
      clock;
      layout;
      params = p;
      store;
      tree;
      log;
      alloc = Alloc.create vam;
      pending_leaders = Hashtbl.create 32;
      leaders_in_third = Array.make 3 0;
      chunk_thirds = Hashtbl.create 32;
      verified = Hashtbl.create 256;
      last_force = Simclock.now clock;
      live = true;
      vam_saved_clean = false;
      mutation_seq = 0;
      durable_seq = 0;
      autocommit = true;
      forces_since_bb = 0;
      last_scrub = Simclock.now clock;
      scrub_page_cursor = 0;
      scrub_key_cursor = "";
      bb_next = None;
      monitor = None;
      boot_count;
      meters = mk_meters (Device.metrics device);
    }
  in
  t_ref := Some t;
  (* Boot and replay above ran synchronously; only steady-state traffic
     rides the request queue. *)
  if p.Params.disk_qdepth > 0 then
    Device.set_queue device ~policy:p.Params.disk_sched
      ~depth:p.Params.disk_qdepth;
  let reg = Device.metrics device in
  Metrics.gauge reg "vam.free_sectors" (fun () ->
      Vam.free_count (Alloc.vam t.alloc));
  Metrics.gauge reg "vam.shadow_pending" (fun () ->
      Vam.shadow_count (Alloc.vam t.alloc));
  Metrics.gauge reg "vam.dirty_chunks" (fun () ->
      Vam.dirty_chunk_count (Alloc.vam t.alloc));
  let total_us = Simclock.now clock - t_start in
  trace_boot (Trace.Recovery_phase { phase = "total"; us = total_us });
  let report =
    {
      boot_count;
      replayed_records = rec_info.Log.p_records;
      replayed_pages =
        List.length fnt_images + List.length leader_images
        + List.length vam_chunk_images;
      corrected_sectors = rec_info.Log.p_corrected_sectors;
      skipped_leaders = !skipped_leaders;
      vam_source;
      log_replay_us;
      vam_us;
      total_us;
    }
  in
  (t, report)

(* Boot raises on unrecoverable metadata damage (both copies of an FNT
   page gone, anchor undecodable, …). try_boot turns that into an outcome
   the caller can answer with the scavenger. *)
let try_boot ?params device =
  match boot ?params device with
  | v -> `Ok v
  | exception Fs_error.Fs_error (Fs_error.Corrupt_metadata m) -> `Needs_scavenge m
  | exception Cedar_btree.Btree.Corrupt m -> `Needs_scavenge ("name table: " ^ m)

let shutdown t =
  require_live t;
  force t;
  ignore (Fnt_store.flush_all_dirty t.store : int);
  Hashtbl.iter
    (fun sector pl ->
      Device.write t.device sector pl.image;
      Metrics.inc t.meters.m_leader_home_writes)
    t.pending_leaders;
  clear_pending_leaders t;
  Log.reset_pointer t.log;
  let mode = if t.params.Params.log_vam then Vam.Log_based else Vam.Snapshot in
  Vam.save ~mode
    ~epoch:(Int64.sub (Log.next_record_no t.log) 1L)
    (Alloc.vam t.alloc) t.device;
  ignore (Vam.drain_dirty_chunks (Alloc.vam t.alloc) : int list);
  Hashtbl.reset t.chunk_thirds;
  checkpoint_blackbox t ~reason:"shutdown";
  Boot_page.write t.device ~sector_bytes:(sector_bytes t)
    {
      Boot_page.boot_count = t.boot_count;
      clean_shutdown = true;
      fnt_page_sectors = t.params.Params.fnt_page_sectors;
      fnt_pages = t.params.Params.fnt_pages;
      log_sectors = t.params.Params.log_sectors;
      log_vam = t.params.Params.log_vam;
      track_tolerant_log = t.params.Params.track_tolerant_log;
      shard_id = t.params.Params.shard_id;
    };
  t.live <- false

(* ------------------------------------------------------------------ *)
(* Checking and the Ops vtable                                         *)

let check t =
  match B.check t.tree with
  | Error m -> Error ("btree: " ^ m)
  | Ok () -> (
    let bad = ref [] in
    (* Leader/name-table mutual check, plus an allocation audit: every
       referenced sector must be marked allocated and no sector may be
       claimed twice. *)
    let claimed = Hashtbl.create 256 in
    let claim k s =
      if Hashtbl.mem claimed s then
        bad := Printf.sprintf "%s: sector %d claimed twice" k s :: !bad
      else begin
        Hashtbl.replace claimed s ();
        if Vam.is_free (Alloc.vam t.alloc) s then
          bad := Printf.sprintf "%s: sector %d in use but marked free" k s :: !bad
      end
    in
    B.iter t.tree (fun k v ->
        match Entry.decode v with
        | exception Bytebuf.Decode_error m -> bad := (k ^ ": " ^ m) :: !bad
        | e ->
          if e.Entry.anchor >= 0 then begin
            claim k e.Entry.anchor;
            Run_table.iter_sectors e.Entry.runs (claim k);
            let name, version =
              match Fname.parse k with Some (n, v) -> (n, v) | None -> (k, 0)
            in
            match read_leader t e with
            | Some l when Leader.matches l ~name ~version e -> ()
            | Some _ -> bad := (k ^ ": leader mismatch") :: !bad
            | None -> bad := (k ^ ": leader unreadable") :: !bad
            | exception Fs_error.Fs_error _ ->
              bad := (k ^ ": leader sector damaged") :: !bad
          end);
    (* Every page the anchor allocates is in the tree and vice versa: a
       page written but never linked in is a silent leak of its keys. *)
    let reachable = List.sort compare (B.page_ids t.tree) in
    let allocated = Fnt_store.allocated_pages t.store in
    if reachable <> allocated then begin
      let missing a b =
        List.filter (fun p -> not (List.mem p b)) a
        |> List.map string_of_int |> String.concat ","
      in
      bad :=
        Printf.sprintf "fnt: pages allocated but unreachable [%s], reachable but free [%s]"
          (missing allocated reachable) (missing reachable allocated)
        :: !bad
    end;
    let free = t.params.Params.fnt_pages - 1 - List.length allocated in
    if Fnt_store.free_pages t.store <> free then
      bad :=
        Printf.sprintf "fnt: free count %d but %d pages free"
          (Fnt_store.free_pages t.store) free
        :: !bad;
    (* The maintained dirty-page and pending-leader counts against a
       recount. *)
    let to_log, pages_in = Fnt_store.recount t.store in
    let leaders_in = Array.make 3 0 in
    Hashtbl.iter
      (fun _ pl ->
        Option.iter (fun (j, _) -> leaders_in.(j) <- leaders_in.(j) + 1) pl.logged)
      t.pending_leaders;
    let counts name maintained recounted =
      if maintained <> recounted then
        bad :=
          Printf.sprintf "%s: count %d but %d recounted" name maintained recounted
          :: !bad
    in
    counts "fnt: pages to log" (Fnt_store.pages_to_log_count t.store) to_log;
    for j = 0 to 2 do
      counts
        (Printf.sprintf "fnt: pages in third %d" j)
        (Fnt_store.pages_in_third t.store j) pages_in.(j);
      counts
        (Printf.sprintf "leaders in third %d" j)
        t.leaders_in_third.(j) leaders_in.(j)
    done;
    let vam = Alloc.vam t.alloc in
    let recounted = Vam.recount_free vam in
    if recounted <> Vam.free_count vam then
      bad :=
        Printf.sprintf "vam: free count %d but %d bits free" (Vam.free_count vam)
          recounted
        :: !bad;
    match !bad with
    | [] -> Ok ()
    | problems -> Error (String.concat "; " problems))

let fnt_stats t = B.stats t.tree

let fold_entries t ~init ~f =
  require_live t;
  B.fold_range t.tree ~init ~f:(fun acc k v ->
      match Fname.parse k with
      | None -> acc
      | Some (name, version) -> f acc ~name ~version (decode_entry name v))

let sector_is_free t s = Vam.is_free (Alloc.vam t.alloc) s

let ops t =
  {
    Fs_ops.label = "FSD";
    create = (fun ~name ~data -> create t ~name data);
    open_stat = (fun ~name -> open_stat t ~name);
    read_all = (fun ~name -> read_all t ~name);
    read_page = (fun ~name ~page -> read_page t ~name ~page);
    delete = (fun ~name -> delete t ~name);
    list = (fun ~prefix -> list t ~prefix);
    force = (fun () -> force t);
    device = t.device;
    clock = t.clock;
  }
