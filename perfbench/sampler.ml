(* Host-time profile by layer: a SIGPROF sampler.

   [Unix.setitimer ITIMER_PROF] delivers a signal every [interval] of
   process CPU time; the handler takes [Printexc.get_callstack] and
   charges the sample to the innermost frame from a [Cedar_*] library
   module, named after the module in lib/. Frames from [Cedar_util]
   (bitmaps, buffers, checksums, the LRU) are charged to their caller,
   like the standard library's. A stack with no such frame is [other].

   Classifying a return address needs its debug info, so each distinct
   address is classified once and memoised. *)

let layers =
  [ "device"; "log"; "fnt_store"; "btree"; "vam"; "alloc"; "fsd"; "server";
    "volumes"; "obs"; "other" ]

(* "Cedar_fsd__Vam.commit_shadow" -> Some "vam"; None = not ours to
   charge, keep walking outward. *)
let layer_of_function name =
  let modname =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match String.split_on_char '_' modname with
  | "Cedar" :: lib :: rest -> (
    let sub = String.lowercase_ascii (String.concat "_" (List.filter (( <> ) "") rest)) in
    match lib with
    | "util" -> None
    | "disk" -> Some "device"
    | "btree" -> Some "btree"
    | "fsd" -> (
      match sub with
      | "log" | "fnt_store" | "vam" | "alloc" -> Some sub
      | _ -> Some "fsd")
    | "server" -> Some "server"
    | "volumes" -> Some "volumes"
    | "obs" -> Some "obs"
    | _ -> Some "other")
  | _ -> None

type t = {
  counts : (string, int) Hashtbl.t;
  memo : (Printexc.raw_backtrace_entry, string option) Hashtbl.t;
  mutable samples : int;
}

let classify memo entry =
  match Hashtbl.find_opt memo entry with
  | Some c -> c
  | None ->
    let c =
      match Printexc.backtrace_slots_of_raw_entry entry with
      | None -> None
      | Some slots ->
        (* Inlined frames come innermost first within one entry. *)
        Array.fold_left
          (fun acc slot ->
            match acc with
            | Some _ -> acc
            | None -> Option.bind (Printexc.Slot.name slot) layer_of_function)
          None slots
    in
    Hashtbl.replace memo entry c;
    c

let record t stack =
  let entries = Printexc.raw_backtrace_entries stack in
  let n = Array.length entries in
  let rec find i =
    if i >= n then "other"
    else match classify t.memo entries.(i) with Some l -> l | None -> find (i + 1)
  in
  let l = find 0 in
  t.samples <- t.samples + 1;
  Hashtbl.replace t.counts l (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts l))

let interval = 0.002

let create () = { counts = Hashtbl.create 16; memo = Hashtbl.create 1024; samples = 0 }

(* Samples accumulate in [t] across start/stop pairs. *)
let start t =
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> record t (Printexc.get_callstack 256)));
  let it = { Unix.it_interval = interval; it_value = interval } in
  ignore (Unix.setitimer Unix.ITIMER_PROF it : Unix.interval_timer_status)

let stop _t =
  let off = { Unix.it_interval = 0.; it_value = 0. } in
  ignore (Unix.setitimer Unix.ITIMER_PROF off : Unix.interval_timer_status);
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let samples t = t.samples

(* Each layer's share of the samples; the shares sum to 1 whenever any
   sample was taken. *)
let shares t =
  List.map
    (fun l ->
      let c = Option.value ~default:0 (Hashtbl.find_opt t.counts l) in
      (l, if t.samples = 0 then 0. else float_of_int c /. float_of_int t.samples))
    layers
