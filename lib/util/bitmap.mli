(** Fixed-size mutable bit vectors.

    Used for the volume allocation map (VAM) and the cylinder-group
    bitmaps of the BSD baseline. Bit [i] set means "page [i] is free" for
    the VAM. *)

type t

val create : int -> t
(** [create n] is a bitmap of [n] bits, all clear. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val assign : t -> int -> bool -> unit

val count : t -> int
(** Number of set bits. *)

val count_run : t -> pos:int -> len:int -> int
(** Number of set bits among [pos .. pos+len-1]. *)

val set_run : t -> pos:int -> len:int -> unit
val clear_run : t -> pos:int -> len:int -> unit

val all_set_in_run : t -> pos:int -> len:int -> bool

val find_set : t -> from:int -> int option
(** First set bit at index >= [from], or [None]. *)

val find_run_set : t -> from:int -> upto:int -> len:int -> int option
(** [find_run_set t ~from ~upto ~len] finds the lowest [pos] with
    [from <= pos] and [pos + len <= upto] such that bits [pos .. pos+len-1]
    are all set. *)

val find_run_set_down : t -> from:int -> downto_:int -> len:int -> int option
(** Like {!find_run_set} but searching from high addresses downward:
    the highest [pos] with [downto_ <= pos] and [pos + len <= from + 1]. *)

val copy : t -> t
val equal : t -> t -> bool

val to_bytes : t -> bytes
(** Packed little-endian-bit representation, 8 bits per byte. *)

val blit_bytes : t -> off:int -> bytes -> dst_off:int -> len:int -> unit
(** [blit_bytes t ~off dst ~dst_off ~len] copies bytes [off .. off+len-1]
    of the packed representation into [dst] at [dst_off], without
    copying the rest; raises [Invalid_argument] on an out-of-range
    span. *)

val overwrite_bytes : t -> off:int -> bytes -> unit
(** Patch a byte range of the packed representation in place (used to
    apply logged allocation-map chunks); bits beyond [length] stay
    clear. *)

val of_bytes : bits:int -> bytes -> t
(** Inverse of {!to_bytes}; raises [Invalid_argument] if [bytes] is too
    short for [bits]. *)
