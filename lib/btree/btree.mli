(** Page-based B-tree with variable-length string keys and values.

    Both file name tables are instances of this functor: CFS runs it over a
    store that writes pages straight to disk (so a crash between the page
    writes of a split corrupts the tree — the flaw §5.3 calls out), while
    FSD runs it over the logged, double-written page cache (so every
    multi-page update is atomic).

    Keys are ordered by [String.compare]. Entries must be small relative
    to the page: an entry whose encoded size exceeds a quarter of the page
    is rejected with [Invalid_argument] so that splits always succeed.

    Pages are immutable strings. Each tree keeps a memo of decoded nodes,
    one per page id, next to the page string each was decoded from. A
    lookup still reads every page through the store, so the store's cache
    sees every touch and every miss; the memoised node is reused only when
    the store returns that very string ([==]), and is decoded afresh
    otherwise. The store drops a page's entry by calling the [on_drop]
    hook whenever it stops holding the page, so the memo never holds
    more pages than the store's cache. *)

module type STORE = sig
  type t

  val page_bytes : t -> int

  val read : t -> int -> string
  (** [read t id] returns the page's current contents: while the store
      holds the page, the very string last written or read, not a copy. *)

  val write : t -> int -> string -> unit
  (** The store keeps the given string itself. *)

  val alloc : t -> int
  (** A fresh page id, distinct from all live pages. *)

  val free : t -> int -> unit

  val ensure_free : t -> int -> unit
  (** [ensure_free t n] returns if the next [n] [alloc]s will succeed and
      otherwise raises the store's own out-of-pages error. Writes
      nothing. *)

  val on_drop : t -> (int -> unit) -> unit
  (** Registers a hook the store calls with each page id it stops holding
      in memory: evicted, freed or dropped. A store that never evicts
      calls it on [free] only. *)

  val get_root : t -> int option
  (** The root page id, or [None] for an empty tree. *)

  val set_root : t -> int option -> unit
end

type stats = { depth : int; pages : int; entries : int; used_bytes : int }

exception Corrupt of string
(** Raised when a page fails to decode — e.g. after a torn CFS write. *)

module Make (S : STORE) : sig
  type t

  val attach : S.t -> t
  (** Attach to a store; the tree may be empty (no root) or existing. The
      tree starts with an empty memo and registers its [on_drop] hook. *)

  val insert : t -> key:string -> value:string -> unit
  (** Inserts or replaces. Before writing anything, counts the pages the
      insert will allocate (one per split node, plus a new root) with a
      read-only pass and calls [S.ensure_free] with that count, so an
      insert the store cannot hold fails with the tree untouched. *)

  val find : t -> string -> string option

  val delete : t -> string -> bool
  (** [true] if the key was present. *)

  val iter_range : ?lo:string -> ?hi:string -> t -> (string -> string -> unit) -> unit
  (** In-order over keys with [lo <= key < hi] (each bound optional). *)

  val fold_range :
    ?lo:string -> ?hi:string -> t -> init:'a -> f:('a -> string -> string -> 'a) -> 'a

  val iter : t -> (string -> string -> unit) -> unit

  val min_key : t -> string option
  val max_key : t -> string option

  val find_last_below : t -> string -> (string * string) option
  (** Greatest binding with key strictly less than the argument — used to
      find the newest version of a file name. *)

  val is_empty : t -> bool
  val stats : t -> stats

  val check : t -> (unit, string) result
  (** Full structural validation: sorted keys, separator bounds, uniform
      leaf depth, page-size respect. *)

  val page_ids : t -> int list
  (** Every page reachable from the root, in no particular order. *)

  val cached_nodes : t -> int
  (** Pages whose decoded node the memo holds. Memoised nodes are shared
      between lookups and must never be mutated; every edit builds new
      arrays. *)
end
