(** Sector-level disk simulator with a mechanical timing model.

    The simulator tracks arm position and rotational phase (derived from
    the virtual clock) and charges each command seek time, rotational
    latency, and transfer time. It therefore exhibits the phenomena the
    paper's §6 model reasons about — lost revolutions on
    read-then-rewrite, free rides for sectors that "have just gone past the
    head", cheap same-cylinder transfers — without any per-operation
    special-casing.

    Failure model (§5.3): at most one fault at a time, damaging one or two
    consecutive sectors. Torn multi-sector writes are injected with
    {!plan_write_crash}; reads of damaged sectors raise {!Error}. *)

type t

type fault_kind =
  | Damaged  (** media error: read fails *)
  | Label_mismatch of { expected : Label.t; found : Label.t }

type tear =
  | Tear_none  (** power fails before the head reaches the sector *)
  | Tear_zero  (** the interrupted sector reads back as zeroes *)
  | Tear_garbage  (** the interrupted sector reads back as noise *)
  | Tear_damage of int
      (** 0–2 sectors become media errors (the legacy §5.3 model) *)
(** What the crash leaves behind at the first unwritten sector of the
    interrupted command. *)

exception Error of { sector : int; kind : fault_kind }

exception Crash_during_write of { sector : int }
(** Raised when an injected write fault fires; the test harness treats this
    as the machine halting mid-write. *)

val create :
  ?id:int ->
  ?trace:Cedar_obs.Trace.t ->
  ?metrics:Cedar_obs.Metrics.t ->
  clock:Cedar_util.Simclock.t ->
  Geometry.t ->
  t
(** A fresh trace (disabled) and metrics registry are created unless
    supplied; the device registers its [Iostats] fields as
    ["device.*"] gauges, a ["device.qdepth"] occupancy gauge, and a
    ["device.seek_cyl"] seek-distance dist in the registry. Higher
    layers share the device's trace and registry via {!trace} /
    {!metrics}. [id] (default 0) is stamped into this device's trace
    events — a multi-volume set numbers its devices by volume index. *)

val geometry : t -> Geometry.t
val clock : t -> Cedar_util.Simclock.t
val stats : t -> Iostats.t

val id : t -> int
(** The device id stamped into [Dev_*] trace events. *)

val trace : t -> Cedar_obs.Trace.t
(** The volume-wide event trace. Disabled (and allocation-free on the
    I/O path) until [Trace.enable]; every device command then emits a
    [Dev_read]/[Dev_write] event carrying its simulated latency, plus
    [Dev_seek] for arm movement. *)

val metrics : t -> Cedar_obs.Metrics.t
(** The volume-wide metrics registry; every layer above registers its
    instruments here. *)

(** {1 Timing: one request path}

    Every command is a request on the device's own service timeline. A
    request starts once it has been issued, the device has finished its
    previous request and the clock has got there; the mechanical model
    (seek from the current arm position, rotation phase at the start of
    service, transfer) times it, and all [Iostats] accounting happens
    there. At depth 1 (the default) nothing can be reordered, so a
    request is serviced at issue; a deeper queue ({!set_queue}) services
    it when its policy picks it. Data and label effects (contents, the
    crash budget, the observer, count stats) always happen at issue. *)

val set_deferred : t -> bool -> unit
(** The one mode bit: whether the issuer waits. A synchronous device
    (the default) advances the shared clock to the completion of each
    request it services at issue, so commands on different devices
    serialise in simulated time. With [set_deferred t true] the clock is
    left alone; commands on different devices then overlap, which is
    what lets a multi-volume server scale. The caller owns completion:
    it must not treat a command's result as available before
    {!busy_until} (the server parks the issuing session until then).
    Switching back to synchronous at depth 1 drops the deferred
    horizon: the next command starts at the current clock. *)

val deferred : t -> bool

val busy_until : t -> int
(** Completion time of this device's latest request, never earlier than
    the clock: the virtual instant the caller may consume every result
    issued so far. Equals [Simclock.now] on a synchronous device at
    depth 1. It is a synchronization barrier: every pending request is
    serviced (in policy order) first — which is what a group-commit
    force wants, and why per-request completions go through
    {!requests_done_at} instead. *)

val issuer_done_at : t -> first:int -> int option
(** When the issuer of requests [first .. issued t] may consume their
    results, if that is known without servicing anything. At depth 1
    every request was serviced at issue, so it is [Some] of the device
    horizon (as {!busy_until}) — also for an issuer that issued
    nothing, which still waits behind the requests before it. At depth
    ≥ 2 an issuer that issued nothing is done now ([Some now]); one
    that issued requests gets [None] and must wait for their
    policy-ordered service ({!requests_done_at}). *)

(** {1 Request queue (disk-arm scheduling)} *)

type policy =
  | Fifo  (** service in enqueue order — a queue with no reordering *)
  | Elevator
      (** SCAN: keep sweeping in one direction, service the nearest
          request ahead of the arm, reverse when none remain *)
  | Sstf
      (** shortest-seek-time-first, with an aging bound: a request
          passed over 8 times is serviced before any nearest pick, so
          no request starves behind a hot cylinder *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** ["fifo"], ["elevator"], ["sstf"]. *)

val set_queue : t -> policy:policy -> depth:int -> unit
(** Give the device a request queue of [depth] slots. A request's
    timing is resolved at the service point the policy picks, so seeks
    and the arm position are charged in service order. A full queue
    services one request to free a slot before accepting the next. Any
    pending requests under the previous configuration are drained
    first. [depth = 1] services every request at issue — the same path
    a device without a queue takes. Raises [Invalid_argument] if
    [depth < 1]. *)

val queue_config : t -> policy * int
(** Current [(policy, depth)]; [(Fifo, 1)] until {!set_queue}. *)

val queued : t -> bool
(** Whether requests can be outstanding (depth ≥ 2). *)

val queue_length : t -> int
(** Requests currently pending (also the ["device.qdepth"] gauge). *)

val issued : t -> int
(** Id of the most recently issued request, 0 before any. Ids are
    dense, so the requests a caller issued during an operation are
    exactly [issued t + 1 .. issued t'] around it. *)

val request_done_at : t -> int -> int
(** Completion time of request [id] issued to a queue of depth ≥ 2,
    servicing pending requests (in policy order) until it has run.
    Raises [Invalid_argument] for an id never issued, or one serviced
    at issue (depth 1), whose completion {!issuer_done_at} reports. *)

val requests_done_at : t -> first:int -> last:int -> int
(** Latest completion time over the id range — when an op whose
    commands got those ids may be acknowledged. [first > last] (the op
    issued nothing) is 0. *)

(** {1 Plain sector I/O (used by FSD and the BSD baseline)} *)

val read : t -> int -> bytes
(** [read t s] is a fresh copy of sector [s]'s contents (zeroes if never
    written). Raises [Error] if the sector is damaged. *)

val write : t -> int -> bytes -> unit
(** [write t s b]. [b] must be exactly one sector. Writing a damaged
    sector repairs it (re-written media reads back fine). *)

val read_run : t -> sector:int -> count:int -> bytes
(** One command transferring [count] consecutive sectors; result is their
    concatenation. *)

val write_run : t -> sector:int -> bytes -> unit
(** One command writing [Bytes.length / sector_bytes] consecutive sectors. *)

(** {1 Labeled I/O (used by CFS; models Trident microcode)} *)

val read_label : t -> int -> Label.t
(** Reads just the label field of a sector; costs a (short) disk access.
    Damaged sectors raise [Error]. *)

val write_labels : t -> sector:int -> Label.t list -> unit
(** One command (re)writing the label fields of consecutive sectors —
    how CFS claims or frees pages. *)

val verified_read : t -> int -> expect:Label.t -> bytes
(** Microcode check-then-transfer: raises [Error] with [Label_mismatch] if
    the on-disk label differs from [expect]. *)

val verified_write : t -> int -> expect:Label.t -> bytes -> unit

val verified_read_run : t -> sector:int -> expect:Label.t list -> bytes
(** One command verifying and reading several consecutive sectors. *)

val verified_write_run : t -> sector:int -> expect:Label.t list -> bytes -> unit
(** One command verifying and writing several consecutive sectors; the
    [i]-th label is checked against sector [sector + i] before its data is
    transferred. *)

val scan_labels :
  t -> from:int -> count:int -> (int -> Label.t option -> unit) -> unit
(** Sequential label scan (the scavenger). Charged as full-track reads.
    Damaged sectors yield [None] instead of raising. *)

(** {1 Fault injection} *)

val damage : t -> int -> unit
(** Mark a sector as a media error until rewritten. *)

val corrupt : t -> int -> rng:Cedar_util.Rng.t -> unit
(** Silently replace a sector's contents with random bytes (readable but
    wrong; caught only by checksums or replica comparison). *)

val is_damaged : t -> int -> bool

val plan_write_crash : t -> after_sectors:int -> damage_tail:int -> unit
(** Arm a fault: after [after_sectors] more sectors have been written, the
    current command stops; [damage_tail] (1 or 2) further sectors of the
    command are damaged; [Crash_during_write] is raised. Equivalent to
    {!plan_write_crash_tear} with [Tear_damage damage_tail]. *)

val plan_write_crash_tear : t -> after_sectors:int -> tear:tear -> unit
(** Arm a fault with an explicit tear mode for the sector the command was
    interrupted at: [Tear_none] leaves it untouched (clean prefix),
    [Tear_zero]/[Tear_garbage] store a zeroed/noise sector first (a torn
    write that still reads back without a media error), [Tear_damage n]
    marks [n] sectors as media errors. *)

val cancel_write_crash : t -> unit

(** {1 Observation} *)

val set_observer : t -> (rw:[ `R | `W ] -> sector:int -> count:int -> unit) option -> unit
(** Callback invoked on every data command, used by tests to assert I/O
    patterns. *)

val written_ever : t -> int -> bool
(** Whether a sector has ever been written (distinguishes zeroed-but-real
    from never-touched in tests). *)

(** {1 Persistence (CLI disk images)} *)

val dump : t -> out_channel -> unit

val load :
  ?id:int ->
  ?trace:Cedar_obs.Trace.t ->
  ?metrics:Cedar_obs.Metrics.t ->
  clock:Cedar_util.Simclock.t ->
  in_channel ->
  t
