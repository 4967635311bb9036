(** FSD — the reimplemented Cedar file system (the paper's contribution).

    All name-table and leader-page updates go through a physical redo log
    forced every half second of virtual time (group commit); file creation
    costs one synchronous combined leader+data write; open, delete, list
    and property changes normally cost no I/O at all. The free-page map is
    volatile. Crash recovery replays the log (seconds) and, when the VAM
    was not saved cleanly, reconstructs it from the name table.

    All operations raise {!Cedar_fsbase.Fs_error.Fs_error} on failure. *)

type t

type vam_source =
  | Vam_loaded  (** clean snapshot from the save area *)
  | Vam_reconstructed  (** rebuilt by scanning the name table *)
  | Vam_replayed
      (** VAM-logging extension: saved base plus logged chunk images *)

type boot_report = {
  boot_count : int;
  replayed_records : int;
  replayed_pages : int;  (** page images written home by recovery *)
  corrected_sectors : int;
  skipped_leaders : int;
      (** logged leader images dropped because the name table no longer
          references their sector (the file was deleted and the sector
          possibly reused — writing would risk data) *)
  vam_source : vam_source;
  log_replay_us : int;
  vam_us : int;
  total_us : int;
}

(** {1 Lifecycle} *)

val format : Cedar_disk.Device.t -> Params.t -> unit
(** Initialise an empty volume (boot pages, anchor, log, clean VAM). *)

val boot : ?params:Params.t -> Cedar_disk.Device.t -> t * boot_report
(** Run recovery and attach. [params] supplies runtime knobs; the
    layout-defining fields are taken from the boot page. Raises
    [Fs_error Corrupt_metadata] on unrecoverable name-table damage —
    prefer {!try_boot} when the caller can scavenge. *)

val try_boot :
  ?params:Params.t ->
  Cedar_disk.Device.t ->
  [ `Ok of t * boot_report | `Needs_scavenge of string ]
(** Like {!boot}, but damage the log cannot repair (both copies of an FNT
    page lost, an undecodable anchor) yields [`Needs_scavenge reason]
    instead of an exception; run {!Scavenge.run} and boot again. *)

val shutdown : t -> unit
(** Controlled shutdown: force, write everything home, save the VAM. *)

val is_live : t -> bool

(** {1 Files}

    [name] operations address the newest version unless stated. *)

val create : t -> name:string -> ?keep:int -> bytes -> Cedar_fsbase.Fs_ops.info
val create_empty : t -> name:string -> ?keep:int -> pages:int -> unit -> Cedar_fsbase.Fs_ops.info
(** Allocates space without writing data (the leader is logged and later
    written by the logging code — §5.3's non-piggybacked path). *)

val open_stat : t -> name:string -> Cedar_fsbase.Fs_ops.info
val exists : t -> name:string -> bool
val read_all : t -> name:string -> bytes
(** Dereferences a symlink one level. *)

val read_page : t -> name:string -> page:int -> bytes
val write_page : t -> name:string -> page:int -> bytes -> unit
val extend : t -> name:string -> pages:int -> unit
val contract : t -> name:string -> pages:int -> unit
(** Truncate to [pages] data pages. *)

val rename : t -> from_:string -> to_:string -> unit
(** Move the newest version of [from_] to (a fresh) [to_]. Pure metadata:
    the removal and insertion commit together in one log record. Fails if
    [to_] exists. *)

val copy : t -> from_:string -> to_:string -> Cedar_fsbase.Fs_ops.info
(** Duplicate the newest version's contents as a new file (fresh uid,
    leader, and pages). *)

val delete : t -> name:string -> unit
val delete_version : t -> name:string -> version:int -> unit
val set_keep : t -> name:string -> keep:int -> unit
val list : t -> prefix:string -> Cedar_fsbase.Fs_ops.info list
val versions : t -> name:string -> int list

(** {1 Remote-file entries (§4: symlinks and cached copies)} *)

val create_symlink : t -> name:string -> target:string -> unit
val readlink : t -> name:string -> string option
val import_cached :
  t -> name:string -> server:string -> bytes -> Cedar_fsbase.Fs_ops.info
val touch_cached : t -> name:string -> unit
(** Update the cached copy's last-used time — pure metadata, absorbed by
    group commit (§5.4's example). *)

val last_used : t -> name:string -> int option

(** {1 Commit and time} *)

val force : t -> unit
(** Client-requested log force (§5.4: "clients may force the log"). *)

val tick : t -> us:int -> unit
(** Advance virtual time (idle workstation), then {!run_due_demons}. *)

val run_due_demons : t -> unit
(** Fire every demon whose interval has elapsed at the current virtual
    time: the commit demon (group-commit force), the background
    home-write demon (once the current third passes
    [Params.home_write_fill], pre-flush up to [home_writes_per_pass]
    pages/leaders whose survival horizon is the next third, traced as
    [Home_write_burst]), and the scrub demon — each scrub pass verifies
    a few FNT page pairs (both copies, by checksum) and a few leaders,
    repairing lone bad copies in place (counted in
    ["fsd.scrub_fnt_repairs"] and ["fsd.scrub_leader_repairs"]).
    [tick us] is [advance us] plus this; external schedulers call it
    through {!Demons.run_due} so demons fire identically whether or not
    a server owns the clock. *)

(** {1 Submission (server scheduler interface)}

    A concurrent server executes each client operation through {!submit}
    and parks the client until the returned token is durable — the
    paper's "process doing the commit waits" (§5.4), extended to every
    transactional operation. While the closure runs, the interval-driven
    commit demon is suppressed (the server's batcher owns commit timing);
    the bulk trigger that keeps one force equal to one atomic log record
    stays armed. *)

type token
(** Completion token: durable once a force covering every mutation the
    submitted operation made has completed. *)

val always_durable : token
(** The token of an operation that mutated nothing (reads, stats). *)

val submit : t -> (unit -> 'a) -> 'a * token
(** Run one operation with interval-commit suppressed; returns its result
    and completion token. Exceptions propagate (with the commit mode
    restored). *)

val token_durable : t -> token -> bool
val mutation_seq : t -> int
(** Sequence number of the newest metadata mutation. *)

val durable_seq : t -> int
(** Mutation sequence covered by the last completed force;
    [token_durable] is [durable_seq >= token]. *)

val log_third_fill : t -> float
(** Fraction of the current log third already consumed, in [0,1] — the
    batcher's backpressure signal: near 1.0 the next force enters a fresh
    third, evicting that third's logged pages. Reads exactly 1.0 (never
    wrapping early to 0.0) while the head sits on a third boundary,
    since the entry happens only on the next append. *)

val commit_due_at : t -> int
(** Virtual time at which the half-second commit demon next fires
    (last force time + [commit_interval_us]) — what a scheduler that
    owns the clock sleeps toward when every session is parked. *)

val save_vam : t -> unit
(** Idle-period VAM save (valid until the next metadata mutation). *)

(** {1 Telemetry monitor}

    A {!Cedar_obs.Monitor} sampling the metrics registry on the
    [Params.monitor_interval_us] cadence, polled from
    {!run_due_demons} and at op boundaries. Off by default; while off
    the polls cost one branch on an option and allocate nothing, the
    same discipline as the trace. *)

val enable_monitor :
  ?ring:int -> ?window:int -> ?interval_us:int -> t -> Cedar_obs.Monitor.t
(** Attach (or replace) the telemetry monitor and return it.
    [interval_us] defaults to [Params.monitor_interval_us]; [ring] and
    [window] are passed to {!Cedar_obs.Monitor.create}. Beyond the
    registry's raw counters and gauges, every sample computes the
    derived saturation gauges:

    - [sat.device_busy] — device busy-us this interval / interval;
    - [sat.log_third_fill] — {!log_third_fill} at sample time;
    - [sat.queue_depth] — the server admission queue depth gauge;
    - [sat.ops_per_force] — acked server ops per non-empty force this
      interval (batcher occupancy), 0 when no force landed;
    - [sat.op_rate_s] — FSD ops per second;
    - [sat.reject_rate_s], [sat.retry_rate_s], [sat.dropped_rate_s] —
      admission rejects (both kinds), retries and drops per second;
    - [sat.reclaim_stall_rate_s], [sat.home_write_burst_rate_s];

    and watches the [server.commit_wait_us] and [fsd.op_us]
    distributions for sliding-window p50/p90/p99. Server-side names
    read as zero until a server registers them. *)

val disable_monitor : t -> unit
val monitor : t -> Cedar_obs.Monitor.t option

(** {1 Introspection} *)

val ops : t -> Cedar_fsbase.Fs_ops.t
val layout : t -> Layout.t
val params : t -> Params.t
(** The runtime parameters the volume booted with. *)

val shard : t -> int
(** The shard id the volume was formatted as (from the boot page via
    [params]); 0 for a standalone volume. *)

val device : t -> Cedar_disk.Device.t
val free_sectors : t -> int

val counters_json : t -> Cedar_obs.Jsonb.t
(** The FSD counters, registered under ["fsd.*"] in {!metrics} and
    zeroed at every boot, as one object keyed without the prefix
    ([ops], [forces], [empty_forces], [leader_piggybacks],
    [leader_home_writes], [vam_base_rewrites], [scrub_passes],
    [scrub_fnt_repairs], [scrub_leader_repairs], [home_write_bursts],
    [reclaim_stalls], in that order). Read one count with
    [Metrics.read (metrics t) "fsd.forces"]. *)

val trace : t -> Cedar_obs.Trace.t
(** The volume's event trace (shared with {!Cedar_disk.Device.trace});
    enable it before driving operations to record spans and events. *)

val metrics : t -> Cedar_obs.Metrics.t
(** The volume's metrics registry, holding the FSD counters plus the
    gauges registered by the device, log and name-table store. *)

val log_stats : t -> Log.stats
val fnt_home_writes : t -> int
val fnt_repairs : t -> int
val fnt_stats : t -> Cedar_btree.Btree.stats
(** Shape of the name-table B-tree. *)

val fold_entries :
  t ->
  init:'a ->
  f:('a -> name:string -> version:int -> Cedar_fsbase.Entry.t -> 'a) ->
  'a
(** Fold over every name-table entry in key order. *)

val sector_is_free : t -> int -> bool

val drop_caches : t -> unit
(** Write dirty name-table pages home and evict the whole cache
    (cold-cache benchmarking). *)

val check : t -> (unit, string) result
(** Structural check: B-tree invariants plus leader/name-table mutual
    checks for every file; the pages reachable from the B-tree root are
    exactly the pages the anchor's allocation map marks in use (page 0
    aside), and the maintained free-page and free-sector counts match a
    recount. *)
