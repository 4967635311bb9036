(** Generic LRU cache with pinning.

    The FSD name-table cache must never evict a "dirty but logged" page
    (its only durable copy lives in the log, which will be overwritten);
    such pages are kept pinned until the thirds algorithm writes them
    home. Eviction therefore skips pinned entries. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity] bounds the number of {e unpinned} entries; pinned entries may
    push the total size above it. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Looks up and promotes to most-recently-used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Looks up without promoting. *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) list
(** [add t k v] inserts or replaces the binding, promoting it. Returns the
    (unpinned) entries evicted to respect capacity. *)

val remove : ('k, 'v) t -> 'k -> unit
val mem : ('k, 'v) t -> 'k -> bool

val pin : ('k, 'v) t -> 'k -> unit
val unpin : ('k, 'v) t -> 'k -> ('k * 'v) list
(** Returns the entries evicted now that one more counts against the
    capacity (possibly the unpinned entry itself). *)

val pinned : ('k, 'v) t -> 'k -> bool

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
val size : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
