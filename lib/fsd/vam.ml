open Cedar_util
open Cedar_disk

type mode = Snapshot | Log_based

type t = {
  layout : Layout.t;
  free : Bitmap.t;
  mutable free_count : int; (* set bits of [free], maintained *)
  mutable pending : (int * int) list; (* (pos, len) released, not yet committed *)
  mutable pending_count : int; (* sectors in [pending] *)
  dirty_chunks : (int, unit) Hashtbl.t; (* bitmap chunks touched since drain *)
}

let total t = Bitmap.length t.free

let chunk_bytes layout = layout.Layout.geom.Geometry.sector_bytes

let of_bitmap layout free ~free_count =
  {
    layout;
    free;
    free_count;
    pending = [];
    pending_count = 0;
    dirty_chunks = Hashtbl.create 16;
  }

let create_none_free layout =
  of_bitmap layout
    (Bitmap.create (Geometry.total_sectors layout.Layout.geom))
    ~free_count:0

let create_all_free layout =
  let t = create_none_free layout in
  let set_range lo hi =
    if hi > lo then begin
      Bitmap.set_run t.free ~pos:lo ~len:(hi - lo);
      t.free_count <- t.free_count + (hi - lo)
    end
  in
  set_range layout.Layout.small_lo layout.Layout.small_hi;
  set_range layout.Layout.big_lo layout.Layout.big_hi;
  t

let layout t = t.layout
let is_free t s = Bitmap.get t.free s
let free_count t = t.free_count
let recount_free t = Bitmap.count t.free

let check_run t ~pos ~len =
  if len <= 0 || pos < 0 || pos + len > total t then invalid_arg "Vam: bad run"

(* Chunk c covers bits [c * 8 * chunk_bytes, ...): one save-area sector. *)
let mark_chunks t ~pos ~len =
  let per = 8 * chunk_bytes t.layout in
  for c = pos / per to (pos + len - 1) / per do
    Hashtbl.replace t.dirty_chunks c ()
  done

let allocate_run t ~pos ~len =
  check_run t ~pos ~len;
  if not (Bitmap.all_set_in_run t.free ~pos ~len) then
    invalid_arg (Printf.sprintf "Vam.allocate_run: [%d,+%d) not free" pos len);
  Bitmap.clear_run t.free ~pos ~len;
  t.free_count <- t.free_count - len;
  mark_chunks t ~pos ~len

let release_run t ~pos ~len =
  check_run t ~pos ~len;
  for s = pos to pos + len - 1 do
    if not (Layout.is_data_sector t.layout s) then
      invalid_arg "Vam.release_run: metadata sector";
    if Bitmap.get t.free s then invalid_arg "Vam.release_run: double free";
    Bitmap.set t.free s
  done;
  t.free_count <- t.free_count + len;
  mark_chunks t ~pos ~len

(* Set the run's bits, counting only those that were not already set. *)
let set_free_run t ~pos ~len =
  t.free_count <- t.free_count + len - Bitmap.count_run t.free ~pos ~len;
  Bitmap.set_run t.free ~pos ~len

let shadow_release_run t ~pos ~len =
  check_run t ~pos ~len;
  for s = pos to pos + len - 1 do
    if not (Layout.is_data_sector t.layout s) then
      invalid_arg "Vam.shadow_release_run: metadata sector";
    if Bitmap.get t.free s then invalid_arg "Vam.shadow_release_run: double free"
  done;
  if List.exists (fun (p, l) -> pos < p + l && p < pos + len) t.pending then
    invalid_arg
      (Printf.sprintf "Vam.shadow_release_run: [%d,+%d) already pending" pos len);
  t.pending <- (pos, len) :: t.pending;
  t.pending_count <- t.pending_count + len

(* O(pending runs). A pending run that [release_run] has freed meanwhile
   is already free; [set_free_run] counts only the bits it newly sets. *)
let commit_shadow t =
  List.iter
    (fun (pos, len) ->
      mark_chunks t ~pos ~len;
      set_free_run t ~pos ~len)
    t.pending;
  t.pending <- [];
  t.pending_count <- 0

let shadow_count t = t.pending_count
let find_free_run t = Bitmap.find_run_set t.free
let find_free_run_down t = Bitmap.find_run_set_down t.free

let mark_allocated_for_rebuild t s =
  if Bitmap.get t.free s then begin
    Bitmap.clear t.free s;
    t.free_count <- t.free_count - 1
  end

(* --- chunk interface for the VAM-logging extension ------------------- *)

let chunk_count t = t.layout.Layout.vam_sectors - 1

(* Bytes of chunk [c] that hold bitmap bits: the last chunk is partial,
   chunks past the end of the bitmap hold none. *)
let chunk_span t c =
  let cb = chunk_bytes t.layout in
  let off = c * cb in
  (off, max 0 (min cb (((total t + 7) / 8) - off)))

let chunk_image t c =
  if c < 0 || c >= chunk_count t then invalid_arg "Vam.chunk_image";
  let out = Bytes.make (chunk_bytes t.layout) '\000' in
  let off, len = chunk_span t c in
  if len > 0 then Bitmap.blit_bytes t.free ~off out ~dst_off:0 ~len;
  out

let apply_chunk t c image =
  if c < 0 || c >= chunk_count t then invalid_arg "Vam.apply_chunk";
  if Bytes.length image <> chunk_bytes t.layout then
    invalid_arg "Vam.apply_chunk: image size";
  let off, len = chunk_span t c in
  if len > 0 then begin
    let pos = off * 8 in
    let bits = min (len * 8) (total t - pos) in
    let before = Bitmap.count_run t.free ~pos ~len:bits in
    Bitmap.overwrite_bytes t.free ~off (Bytes.sub image 0 len);
    t.free_count <- t.free_count - before + Bitmap.count_run t.free ~pos ~len:bits
  end

let drain_dirty_chunks t =
  let cs = Hashtbl.fold (fun c () acc -> c :: acc) t.dirty_chunks [] in
  Hashtbl.reset t.dirty_chunks;
  List.sort compare cs

let dirty_chunk_count t = Hashtbl.length t.dirty_chunks

let mark_free_for_rebuild t ~pos ~len = set_free_run t ~pos ~len

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let magic = 0x56414d31 (* "VAM1" *)

let save ?(mode = Snapshot) ?(epoch = 0L) t device =
  let sb = t.layout.Layout.geom.Geometry.sector_bytes in
  let bits = total t in
  let body = Bitmap.to_bytes t.free in
  let header = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 header magic;
  Bytebuf.Writer.u32 header bits;
  Bytebuf.Writer.bool header true; (* clean *)
  Bytebuf.Writer.u8 header (match mode with Snapshot -> 0 | Log_based -> 1);
  Bytebuf.Writer.u64 header epoch;
  Bytebuf.Writer.u32 header (Crc32.bytes body);
  Device.write device t.layout.Layout.vam_start
    (Bytebuf.Writer.to_sector header ~size:sb);
  (* Body sectors follow the header in one command. *)
  let body_sectors = t.layout.Layout.vam_sectors - 1 in
  let padded = Bytes.make (body_sectors * sb) '\000' in
  Bytes.blit body 0 padded 0 (Bytes.length body);
  Device.write_run device ~sector:(t.layout.Layout.vam_start + 1) padded

let load layout device =
  let bits = Geometry.total_sectors layout.Layout.geom in
  match Device.read device layout.Layout.vam_start with
  | exception Device.Error _ -> None
  | header -> (
    let r = Bytebuf.Reader.of_bytes header in
    match
      let m = Bytebuf.Reader.u32 r in
      let saved_bits = Bytebuf.Reader.u32 r in
      let clean = Bytebuf.Reader.bool r in
      let mode = match Bytebuf.Reader.u8 r with 0 -> Snapshot | _ -> Log_based in
      let epoch = Bytebuf.Reader.u64 r in
      let crc = Bytebuf.Reader.u32 r in
      (m, saved_bits, clean, mode, epoch, crc)
    with
    | exception Bytebuf.Decode_error _ -> None
    | m, saved_bits, clean, mode, epoch, crc ->
      if m <> magic || saved_bits <> bits || not clean then None
      else begin
        let body_sectors = layout.Layout.vam_sectors - 1 in
        match
          Device.read_run device ~sector:(layout.Layout.vam_start + 1)
            ~count:body_sectors
        with
        | exception Device.Error _ -> None
        | body ->
          let body = Bytes.sub body 0 ((bits + 7) / 8) in
          if Crc32.bytes body <> crc then None
          else
            let free = Bitmap.of_bytes ~bits body in
            Some (of_bitmap layout free ~free_count:(Bitmap.count free), mode, epoch)
      end)

let invalidate_saved layout device =
  let sb = layout.Layout.geom.Geometry.sector_bytes in
  let header = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 header magic;
  Bytebuf.Writer.u32 header (Geometry.total_sectors layout.Layout.geom);
  Bytebuf.Writer.bool header false; (* not clean *)
  Bytebuf.Writer.u8 header 0;
  Bytebuf.Writer.u64 header 0L;
  Bytebuf.Writer.u32 header 0;
  Device.write device layout.Layout.vam_start
    (Bytebuf.Writer.to_sector header ~size:sb)
