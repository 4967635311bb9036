(** Concurrent closed-loop client scripts for the FSD server.

    A {e script} is a pure description of one client session's behavior —
    operations interleaved with think time — replayed by the server
    scheduler (lib/server). Generation is deterministic: equal specs give
    equal scripts, which is what makes server runs replayable from a
    seed. *)

type op =
  | Create of { name : string; bytes : int; fill : int }
      (** [fill] seeds the deterministic payload, see {!content} *)
  | Open of string
  | Read of string
  | Read_page of { name : string; page : int }
  | Delete of string
  | List of string
  | Force  (** explicit client force of the log (§5.4) *)

type step =
  | Think of int  (** client-side pause in microseconds *)
  | At of int
      (** open-loop arrival: do not issue the next op before this
          absolute virtual time. A session already past the deadline
          issues immediately — the backlog is the point. *)
  | Op of op

type script = step list

val content : fill:int -> int -> bytes
(** The deterministic payload a [Create] carries: byte [i] is
    [(i + fill) mod 251]. [fill] must not be negative. *)

val pp_op : Format.formatter -> op -> unit
val op_name : op -> string

(** The operation's type as a constant label ("create", "open", "read",
    "read_page", "delete", "list", "force") — the key latency anatomy
    aggregates by. Never allocates. *)
val op_kind : op -> string
val mutates : op -> bool
(** Whether the operation leaves log-pending metadata (create/delete) —
    the ops whose sessions park on the group-commit batcher. *)

(** {1 The §7 make/do workload, per client} *)

type spec = {
  modules : int;
  deps_per_module : int;
  rounds : int;  (** build passes after the prepare phase *)
  source_bytes : int;
  think_us : int;  (** mean think time; draws are uniform in ±50% *)
  seed : int;
}

val default_spec : spec

val makedo_client : spec -> client:int -> script
(** One client's closed-loop make/do session under its own directory
    [c<NN>/]: create sources, then per round read sources, stat
    dependencies, create-use-delete compiler temps and emit objects. *)

val makedo_scripts : spec -> clients:int -> script array

(** {1 The crash-sweep reference script} *)

val crash_reference : clients:int -> script array
(** The deterministic script the crash-injection sweep replays: per
    client, six uniquely-named creates, two deletes of names created
    earlier in the same session, reads in between, and a mix of explicit
    [Force] steps and think time long enough that timed commits fire
    too. Unique names and session-ordered deletes keep the post-crash
    acked/unacked oracle unambiguous. *)

(** {1 Adversarial shapes (fairness and backpressure tests)} *)

val bulk_writer :
  client:int -> files:int -> bytes:int -> think_us:int -> seed:int -> script
(** A session that streams large creates with little think time. *)

val churn :
  client:int -> ops:int -> bytes:int -> think_us:int -> seed:int -> script
(** A session of small create/delete metadata traffic. *)

(** {1 The log-wrap churn workload} *)

type churn_spec = {
  slots : int;  (** distinct names in the client's working set *)
  churn_ops : int;  (** steps per client (creates/deletes/reads) *)
  bytes_min : int;
  bytes_max : int;  (** create payload sizes drawn uniformly in range *)
  churn_keep : int;
      (** versions the volume keeps per name — must match the booted
          [Params.default_keep] so the generator's live-depth model (and
          so the post-crash oracle) agrees with the file system *)
  churn_think_us : int;  (** max think time per step; 0 disables *)
  force_every : int;  (** explicit [Force] every N mutations; 0 = none *)
  churn_seed : int;
}

val default_churn : churn_spec
(** 12 slots, 400 ops, 256–2048-byte payloads, keep 2, a force every 16
    mutations — on a small test volume one client wraps the log several
    times. *)

val churn_client : churn_spec -> client:int -> script
(** One client's closed-loop churn session over its own
    ["c<NN>/churn/s<SSS>"] slots: ~60% creates (new versions of live
    slots — overwrites under keep truncation), ~25% deletes of the
    newest live version, ~15% reads, with per-slot live-depth tracking
    so no step targets a missing name. Deterministic; raises
    [Invalid_argument] on a non-positive [slots] or [churn_keep]. *)

val churn_scripts : churn_spec -> clients:int -> script array

(** {1 The open-loop production workload} *)

type open_spec = {
  ol_rate_per_s : float;
      (** aggregate Poisson arrival rate across all clients, ops/s *)
  ol_ops : int;  (** total arrivals across all clients *)
  ol_bytes_min : int;
  ol_bytes_max : int;  (** bounded-Pareto size range *)
  ol_alpha : float;  (** Pareto tail index; smaller = heavier tail *)
  ol_hot_dirs : int;  (** hot directories, zipf-popular *)
  ol_slots : int;  (** name slots per hot directory, zipf-popular *)
  ol_zipf_s : float;  (** zipf exponent over dirs and slots *)
  ol_keep : int;
      (** must match the booted [Params.default_keep], as in
          {!churn_spec} *)
  ol_seed : int;
}

val default_open : open_spec
(** 20 ops/s aggregate, 400 arrivals, 384–16384-byte bounded-Pareto
    sizes (α = 1.3), 4 hot dirs × 16 slots at zipf 1.1, keep 2. *)

val open_loop : open_spec -> clients:int -> script array
(** Deterministic open-loop traffic: one global Poisson stream at
    [ol_rate_per_s], each arrival assigned uniformly to a client as an
    [At arrival; Op op] pair — so offered load is pinned to the virtual
    clock instead of self-limiting to the service rate, and past the
    saturation knee the backlog grows. The mix is ~70% creates
    (heavy-tailed sizes), ~15% deletes, ~15% reads over zipfian
    hot-directory/slot names, with per-(client, dir, slot) live-depth
    tracking so a clean run replays with zero client errors. Raises
    [Invalid_argument] on non-positive rate/dirs/slots/keep or an empty
    byte range. *)

(** {1 Script files ([cedar serve --script])} *)

val parse_script : string -> (script, string) result
(** Parse the one-step-per-line format ([think US], [at US],
    [create NAME BYTES], [open NAME], [read NAME],
    [read-page NAME PAGE], [delete NAME], [list PREFIX], [force];
    [#] comments). *)

val instantiate : ?volumes:int -> script -> client:int -> script
(** Replace every ["{c}"] in names with the client's directory ("c00",
    "c01", ...) so each session gets its own namespace, and every
    ["{v}"] with a top-level directory that shard-routes
    ({!Cedar_fsbase.Fname.shard_dir}) to volume [client mod volumes]
    (default [volumes = 1], where it is the constant ["v0"]). Raises
    [Invalid_argument] when [volumes < 1]. *)

val shard_scripts : script array -> volumes:int -> script array
(** Pin client [i]'s namespace to volume [i mod volumes] by prefixing
    every name with a shard-routing top-level directory
    ("v<K>.../name"). [volumes = 1] adds the same constant prefix to
    every client — same single volume, same script shape — so single-
    and multi-volume benchmark runs stay comparable. Raises
    [Invalid_argument] when [volumes < 1]. *)
