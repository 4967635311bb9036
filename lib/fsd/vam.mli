(** The Volume Allocation Map (§5.5).

    Kept entirely in volatile memory during normal operation — FSD does no
    disk writes to track free pages. A set bit means "free". Pages of
    deleted-but-uncommitted files sit in a list of pending freed runs (the
    paper's shadow map) and only become allocatable when the deletion
    commits; this keeps a crashed uncommitted delete from having handed
    the pages to a new file. Committing costs O(pending runs) and both
    counts are maintained, so nothing done per force or per sample walks
    the whole volume.

    The map is saved to its disk area on controlled shutdown, loaded on a
    clean boot, and reconstructed from the name table otherwise. *)

type t

type mode =
  | Snapshot
      (** a full map, valid only while nothing has changed since the save
          (the paper's scheme: saved at shutdown and idle) *)
  | Log_based
      (** a base image whose subsequent changes live in the redo log as
          {!Cedar_fsd.Log.Vam_chunk} records — the extension §5.3
          declined to build *)

val create_all_free : Layout.t -> t
(** Every data sector free; metadata regions permanently non-free. *)

val create_none_free : Layout.t -> t
(** Every sector non-free: the starting point for reconstruction. *)

val layout : t -> Layout.t
val is_free : t -> int -> bool
val free_count : t -> int
(** Free sectors; O(1), maintained by every mutation. *)

val recount_free : t -> int
(** Free sectors counted bit by bit over the whole map: O(volume), for
    checks that {!free_count} is right. *)

val allocate_run : t -> pos:int -> len:int -> unit
(** Marks the run allocated. Raises [Invalid_argument] if any sector is
    not currently free. *)

val release_run : t -> pos:int -> len:int -> unit
(** Immediate release (used by reconstruction and by aborted creates). *)

val shadow_release_run : t -> pos:int -> len:int -> unit
(** Deferred release: free only at the next {!commit_shadow}. Raises
    [Invalid_argument], as {!release_run} does, on a metadata sector or a
    sector already free, and also on a sector already pending. *)

val commit_shadow : t -> unit
(** Frees every pending run and marks the chunks they cover dirty;
    O(pending runs). *)

val shadow_count : t -> int
(** Sectors pending release; O(1). *)

val find_free_run : t -> from:int -> upto:int -> len:int -> int option
val find_free_run_down : t -> from:int -> downto_:int -> len:int -> int option

val mark_allocated_for_rebuild : t -> int -> unit
(** During reconstruction: claim one sector found referenced by the FNT. *)

val mark_free_for_rebuild : t -> pos:int -> len:int -> unit

(** {1 Persistence (§5.5: saved on shutdown, read if properly saved)} *)

val save : ?mode:mode -> ?epoch:int64 -> t -> Cedar_disk.Device.t -> unit
(** Writes the bitmap and a checksummed header marking it cleanly saved.
    [mode] defaults to [Snapshot]. For a [Log_based] base, [epoch] is the
    highest log record number whose effects the image already contains:
    recovery applies only chunk images from records numbered above it. *)

val load : Layout.t -> Cedar_disk.Device.t -> (t * mode * int64) option
(** [None] if the save area is absent, damaged, or not marked clean. *)

val invalidate_saved : Layout.t -> Cedar_disk.Device.t -> unit
(** Marks the on-disk copy stale; called as soon as a boot proceeds so a
    later crash cannot reuse it. *)

(** {1 Chunks (the VAM-logging extension)}

    The packed bitmap is divided into sector-sized chunks, chunk [c]
    being what {!save} writes at save-area sector [c + 1]. Mutations
    mark the covering chunks dirty; the extension logs dirty chunk
    images at each group commit so recovery can rebuild the map from the
    saved base plus the log, skipping the name-table scan. *)

val chunk_count : t -> int
val chunk_image : t -> int -> bytes
val apply_chunk : t -> int -> bytes -> unit
val drain_dirty_chunks : t -> int list
(** Chunks touched since the last drain, ascending; clears the set. *)

val dirty_chunk_count : t -> int
