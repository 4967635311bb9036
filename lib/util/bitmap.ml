type t = { bits : int; data : Bytes.t }

let create bits =
  if bits < 0 then invalid_arg "Bitmap.create";
  { bits; data = Bytes.make ((bits + 7) / 8) '\000' }

let length t = t.bits

let check t i =
  if i < 0 || i >= t.bits then
    invalid_arg (Printf.sprintf "Bitmap: index %d out of [0,%d)" i t.bits)

let get t i =
  check t i;
  Char.code (Bytes.get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.set t.data b
    (Char.chr (Char.code (Bytes.get t.data b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.set t.data b
    (Char.chr (Char.code (Bytes.get t.data b) land lnot (1 lsl (i land 7)) land 0xff))

let assign t i v = if v then set t i else clear t i

let popcount_byte =
  lazy
    (Array.init 256 (fun n ->
         let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
         go n 0))

let count t =
  let pc = Lazy.force popcount_byte in
  let total = ref 0 in
  Bytes.iter (fun c -> total := !total + pc.(Char.code c)) t.data;
  (* Bits past [t.bits] in the final byte are never set. *)
  !total

let count_run t ~pos ~len =
  let n = ref 0 in
  for i = pos to pos + len - 1 do
    if get t i then incr n
  done;
  !n

let set_run t ~pos ~len =
  for i = pos to pos + len - 1 do
    set t i
  done

let clear_run t ~pos ~len =
  for i = pos to pos + len - 1 do
    clear t i
  done

let all_set_in_run t ~pos ~len =
  let rec go i = i >= pos + len || (get t i && go (i + 1)) in
  pos >= 0 && pos + len <= t.bits && go pos

let find_set t ~from =
  let rec go i =
    if i >= t.bits then None else if get t i then Some i else go (i + 1)
  in
  go (max 0 from)

let find_run_set t ~from ~upto ~len =
  if len <= 0 then invalid_arg "Bitmap.find_run_set";
  let upto = min upto t.bits in
  (* [run] counts consecutive set bits ending just before [i]. *)
  let rec go i run =
    if run >= len then Some (i - len)
    else if i >= upto then None
    else if get t i then go (i + 1) (run + 1)
    else go (i + 1) 0
  in
  if from < 0 || from >= upto then None else go from 0

let find_run_set_down t ~from ~downto_ ~len =
  if len <= 0 then invalid_arg "Bitmap.find_run_set_down";
  let from = min from (t.bits - 1) in
  (* Scan downward for the highest window [pos, pos+len) entirely set. *)
  let rec go pos =
    if pos < downto_ then None
    else if all_set_in_run t ~pos ~len then Some pos
    else go (pos - 1)
  in
  if from - len + 1 < downto_ then None else go (from - len + 1)

let copy t = { bits = t.bits; data = Bytes.copy t.data }
let equal a b = a.bits = b.bits && Bytes.equal a.data b.data
let to_bytes t = Bytes.copy t.data
let blit_bytes t ~off dst ~dst_off ~len = Bytes.blit t.data off dst dst_off len

let overwrite_bytes t ~off src =
  if off < 0 || off + Bytes.length src > Bytes.length t.data then
    invalid_arg "Bitmap.overwrite_bytes";
  Bytes.blit src 0 t.data off (Bytes.length src);
  (* re-mask stray bits beyond [bits] *)
  if t.bits land 7 <> 0 && Bytes.length t.data > 0 then begin
    let last = Bytes.length t.data - 1 in
    let mask = (1 lsl (t.bits land 7)) - 1 in
    Bytes.set t.data last (Char.chr (Char.code (Bytes.get t.data last) land mask))
  end

let of_bytes ~bits b =
  if Bytes.length b < (bits + 7) / 8 then invalid_arg "Bitmap.of_bytes";
  let t = { bits; data = Bytes.sub b 0 ((bits + 7) / 8) } in
  (* Clear any stray bits beyond [bits] so [count] and [equal] are exact. *)
  if bits land 7 <> 0 then begin
    let last = Bytes.length t.data - 1 in
    let mask = (1 lsl (bits land 7)) - 1 in
    Bytes.set t.data last (Char.chr (Char.code (Bytes.get t.data last) land mask))
  end;
  t
