(* Slicing-by-8 (Kounavis & Berry, ISCC 2005): eight 256-entry tables,
   laid end to end in one array, fold eight input bytes per step. Table
   [k] maps a byte to its CRC contribution when [k] more bytes of the
   block follow it, so one step XORs eight independent lookups where the
   byte-at-a-time loop does eight dependent ones. Same polynomial, same
   results. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  (* [pos, pos + len) is checked above, so every read below is in range. *)
  let tab k i = Array.unsafe_get tables ((k lsl 8) lor i) in
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let c = ref 0xffffffff in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let lo =
      !c
      lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16)
           lor (byte (p + 3) lsl 24))
    in
    c :=
      tab 7 (lo land 0xff)
      lxor tab 6 ((lo lsr 8) land 0xff)
      lxor tab 5 ((lo lsr 16) land 0xff)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (byte (p + 4))
      lxor tab 2 (byte (p + 5))
      lxor tab 1 (byte (p + 6))
      lxor tab 0 (byte (p + 7));
    i := p + 8
  done;
  for j = !i to pos + len - 1 do
    c := tab 0 ((!c lxor byte j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let string s = bytes (Bytes.unsafe_of_string s)
