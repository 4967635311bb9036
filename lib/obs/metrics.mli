(** Named metrics registry shared by every storage layer.

    Three kinds of instrument live under dotted names ("fsd.forces",
    "device.sectors_written", "log.record_sectors"):

    - {e counters}: integer cells owned by the registry, incremented by
      the instrumented layer through the returned handle;
    - {e gauges}: closures sampling state the layer already keeps (an
      [Iostats.t] field, a store's repair count) so legacy mutable
      records need no second write on the hot path;
    - {e distributions}: [Stats.t] series for latency/size histograms.

    Registering a name that already exists {e replaces} the binding and
    (for counters and distributions) starts from a fresh zeroed cell.
    The FSD registers its counters at every boot, which is what zeroes
    the ["fsd.*"] counts at each boot. *)

type t

type counter
(** Handle to a registered counter; incrementing through the handle is
    a single mutation, no lookup. *)

val create : unit -> t

val scoped : t -> string -> t
(** [scoped t prefix] is a view onto the {e same} underlying table that
    qualifies every name with [prefix] (conventionally ["vol0."]), on
    registration and on lookup alike. Enumeration ({!kinds},
    {!snapshot}, {!to_json}, {!pp}) through a scoped view is restricted
    to names under the prefix and reports them {e stripped}, so code
    written against unqualified names ("fsd.forces") works unchanged
    per instance; the root view still enumerates everything under its
    full ["vol0.fsd.forces"] names. Scopes nest. *)

val prefix : t -> string
(** The view's accumulated prefix; [""] for a root registry. *)

val counter : t -> string -> counter
(** Register (or re-register, zeroed) a counter under [name]. *)

val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> string -> (unit -> int) -> unit
(** Register a sampled integer source under [name]. *)

val dist : t -> string -> Cedar_util.Stats.t
(** Register a fresh distribution under [name] and return it. *)

val register_dist : t -> string -> Cedar_util.Stats.t -> unit
(** Register an existing series (e.g. [Log.stats].record_sizes). *)

val kinds : t -> (string * [ `Counter | `Gauge | `Dist ]) list
(** Every registered instrument with its kind, sorted by name. Lets a
    sampler treat counters (delta per interval) differently from gauges
    (point-in-time value) without guessing from the name. *)

val read : t -> string -> int option
(** Current value of the counter or gauge registered under [name];
    [None] for unknown names and distributions. *)

val read_dist : t -> string -> Cedar_util.Stats.t option

type snapshot_value =
  | Int of int  (** counter or sampled gauge *)
  | Dist of {
      n : int;
      mean : float;
      min : float;
      p50 : float;
      p90 : float;
      p95 : float;
      p99 : float;
      max : float;
    }

val snapshot : t -> (string * snapshot_value) list
(** All instruments, sampled now, sorted by name. Empty distributions
    report [Dist] with [n = 0] and zeroed moments. *)

val to_json : t -> Jsonb.t
(** Deterministic (name-sorted) object; distributions become
    [{n, mean, min, p50, p90, p95, p99, max}] sub-objects. *)

val pp : Format.formatter -> t -> unit
