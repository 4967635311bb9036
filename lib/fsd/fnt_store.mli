(** The name-table page store: write-back cache over the doubly-written
    FNT regions, integrated with the log.

    [write] only updates the cache and notes the page for the next group
    commit; pages reach their two home locations when the log writer
    re-enters the third they were last logged in, at clean shutdown, or
    during crash recovery. Dirty pages are pinned in the cache — their
    only durable copy is in the log, so they must stay until written home
    (§5.3). Reads that miss fetch {e both} copies and use whichever
    checks; a bad copy is repaired from the good one (§5.1).

    Page 0 is the anchor: B-tree root pointer, page allocation map, and
    the uid counter. It flows through the same cache/log/home machinery,
    so a committed anchor update is exactly as durable as the tree pages
    it describes.

    Payloads are immutable strings: [read] returns the cached string
    itself and [write] keeps the one it is given, so the B-tree can
    recognise a page it has already decoded by physical equality. Every
    page leaving the cache (evicted, freed, dropped) is reported to the
    [on_drop] hooks. Dirty pages are also kept in a table of their own,
    so per-force work ([pages_to_log], [dirty_pages]) costs O(dirty
    pages), not O(cache). The store also counts the pages still to log
    and the pages last logged in each third, so the per-op questions
    [pages_to_log_count] and [pages_in_third] cost O(1), and
    [flush_some_third] returns at once when its third holds nothing. *)

type t

val create_fresh : Cedar_disk.Device.t -> Layout.t -> t
(** A brand-new store with an empty anchor; used by format. Writes
    nothing to disk until flushed/committed. *)

val attach : Cedar_disk.Device.t -> Layout.t -> t
(** Reads the anchor from disk (run after log recovery has replayed all
    committed page images home). Raises [Fs_error Corrupt_metadata] if
    both anchor copies are bad. *)

val set_note_dirty : t -> (int -> unit) -> unit
(** Callback invoked with a page id whenever a page becomes dirty; the
    file system uses it to build the group-commit batch. *)

(** {1 Btree.STORE} *)

val page_bytes : t -> int
val read : t -> int -> string
val write : t -> int -> string -> unit

val alloc : t -> int
(** Raises [Fs_error Name_table_full] when every page is in use. *)

val free : t -> int -> unit

val ensure_free : t -> int -> unit
(** Raises [Fs_error Name_table_full] unless at least this many pages are
    free. *)

val on_drop : t -> (int -> unit) -> unit
val get_root : t -> int option
val set_root : t -> int option -> unit

val free_pages : t -> int
(** Pages the allocation map has free; maintained, O(1). *)

val flush_anchor : t -> unit
(** Write the anchor page home immediately (format time). *)

(** {1 Anchor extras} *)

val fresh_uid : t -> int64
val next_uid_peek : t -> int64

val bump_uid_floor : t -> int64 -> unit
(** Raise the uid counter to at least the given value (scavenging: no
    rebuilt file may collide with a recovered uid). *)

val page_in_use : t -> int -> bool
(** Whether the anchor's allocation map marks this page slot live. *)

val allocated_pages : t -> int list
(** Every page the allocation map marks live, except the anchor, in
    ascending order. *)

(** {1 Log integration} *)

val framed_image : t -> int -> bytes
(** The full on-disk image (payload + trailer) of a cached page, as logged. *)

val mark_logged : t -> int list -> third:int -> unit
(** Note the third in which these pages' images now live in the log. *)

val flush_third : t -> int -> int
(** Home-write every dirty page last logged in the given third; returns
    how many pages were written. A page modified again since that commit
    homes its retained committed image (never the uncommitted payload)
    and stays dirty and pinned awaiting its own commit. Raises
    [Fs_error Log_reclaim_stall] if a page claiming the third is
    modified yet holds no committed image — reclaiming would destroy its
    only durable copy. *)

val flush_some_third : t -> int -> budget:int -> int
(** Bounded variant for the background home-write demon: flush up to
    [budget] pages claiming the given third, lowest page id first,
    skipping stalled pages instead of raising. Returns how many pages
    were written. *)

val flush_all_dirty : t -> int
(** Home-write everything dirty (clean shutdown). *)

val write_home_image : Cedar_disk.Device.t -> Layout.t -> page:int -> bytes -> unit
(** Write a framed image to both home locations (used by recovery). *)

val dirty_pages : t -> int list
(** Every dirty page (logged or not). *)

val pages_to_log : t -> int list
(** Dirty pages modified since they were last logged — the group-commit
    batch, in ascending order. *)

val pages_to_log_count : t -> int
(** [List.length (pages_to_log t)]; maintained, O(1). *)

val pages_in_third : t -> int -> int
(** How many dirty pages were last logged in the given third; maintained,
    O(1). *)

val recount : t -> int * int array
(** [(pages_to_log_count t, [| pages_in_third t 0; ... 2 |])] recomputed
    by walking the cache — the check on the maintained counts. *)

val cached_pages : t -> int
val drop_clean_cache : t -> unit
(** Evict every clean page (benchmarks use this to simulate a cold cache). *)

val home_writes : t -> int
(** Total pages written home so far (each costs two disk writes). *)

val repairs : t -> int
(** Copies repaired from the twin — unreadable or checksum-bad copies on
    read or scrub, plus valid-but-disagreeing twins (copy A wins). *)

(** {1 Scrubbing and scavenging} *)

val scrub_page : t -> int -> [ `Ok | `Repaired | `Unreadable ]
(** Verify both home copies of a page (checksum and twin comparison),
    rewriting a lone bad or stale copy in place. [`Unreadable] means both
    copies are bad: only the offline scavenger can help. Bypasses the
    cache. *)

val try_read_home :
  Cedar_disk.Device.t -> Layout.t -> page:int -> string option
(** Twin-copy read of a page's payload without attaching a store and
    without repair — the scavenger's probe. *)
