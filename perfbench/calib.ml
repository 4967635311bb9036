(* Host-speed calibration.

   The host this benchmark runs on may be shared: the same serve phase
   can take 1.5x more CPU time when neighbours are busy. So the benchmark
   keeps measuring a fixed calibration kernel while it works: slices of
   it run before and after every job and, through the server's ack
   hook, every [slice_every_acks] acks during the serve. A job's CPU
   time is scaled by the kernel's reference time over its measured
   time, so host times are reported in "reference seconds": the time on
   a host that runs one slice in [slice_reference_s].

   The kernel uses no program code, so a faster program cannot make it
   faster. It mimics the simulator's mix: hashing with string keys,
   short-lived allocation, byte copies, and a bit-by-bit walk over a
   bitmap the size of a T-300 volume's. *)

let slice_reference_s = 0.003
let bitmap = Bytes.make (588_430 / 8) '\000'
let buf = Bytes.make 65536 'x'

(* One slice of kernel work; it takes about [slice_reference_s]. *)
let slice () =
  let t0 = Sys.time () in
  let h = Hashtbl.create 256 in
  let acc = ref 0 in
  for i = 0 to 3_999 do
    let k = string_of_int (i * 7919 mod 50_021) in
    Hashtbl.replace h k (Bytes.sub buf (i land 1023) 64);
    if i land 15 = 0 then acc := !acc + Hashtbl.length h
  done;
  for i = 0 to 235_371 do
    if Char.code (Bytes.unsafe_get bitmap (i lsr 3)) land (1 lsl (i land 7)) <> 0 then incr acc
  done;
  ignore (Sys.opaque_identity !acc);
  Sys.time () -. t0

(* Words allocated on the minor heap so far. Unlike the [Gc.quick_stat]
   totals, which are brought up to date only at collections, this count
   is exact, so it repeats from run to run. Blocks too large for the
   minor heap are not in it. *)
let allocated_words () = Gc.minor_words ()

(* Kernel time, and the words the kernel allocated, measured so far for
   one timed section. *)
type meter = { mutable slices : int; mutable spent_s : float; mutable alloc_words : float }

let meter () = { slices = 0; spent_s = 0.; alloc_words = 0. }

let run m n =
  for _ = 1 to n do
    let a0 = allocated_words () in
    let t = slice () in
    m.slices <- m.slices + 1;
    m.spent_s <- m.spent_s +. t;
    m.alloc_words <- m.alloc_words +. (allocated_words () -. a0)
  done

(* The factor that turns the section's CPU seconds into reference
   seconds. *)
let factor m = float_of_int m.slices *. slice_reference_s /. m.spent_s

(* Slices before and after a job, and one every [slice_every_acks] acks
   inside its serve phase. *)
let bracket_slices = 25
let slice_every_acks = 64

(* [interleaved n f] times [f] [n] times with ten slices between
   consecutive calls, and scales each time by the slices on either
   side: for sections too short to sample inside. *)
let interleaved n f =
  let around () =
    let m = meter () in
    run m 10;
    factor m
  in
  let rec go i before acc =
    if i = n then List.rev acc
    else begin
      let t0 = Sys.time () in
      f ();
      let t = Sys.time () -. t0 in
      let after = around () in
      go (i + 1) after ((t *. 2. /. ((1. /. before) +. (1. /. after))) :: acc)
    end
  in
  go 0 (around ()) []
