open Cedar_util
open Cedar_disk
open Cedar_fsbase

type scavenge_report = {
  files_recovered : int;
  files_lost : int;
  duration_us : int;
}

let corrupt msg = Fs_error.raise_ (Fs_error.Corrupt_metadata msg)

(* ------------------------------------------------------------------ *)
(* The direct-to-disk name-table page store.

   Pages are written in place, synchronously, one verified labelled
   command per page — so a multi-page B-tree update is NOT atomic (§5.3's
   complaint). Clean pages are cached; every write goes straight to disk. *)

module Direct_store = struct
  type anchor = {
    mutable root : int option;
    alloc_map : Bitmap.t;
    mutable uid_hint : int64;
  }

  type t = {
    device : Device.t;
    layout : Cfs_layout.t;
    cache : (int, string) Lru.t; (* payloads; everything here is clean *)
    anchor : anchor;
    mutable page_writes : int;
    mutable on_drop : (int -> unit) list;
  }

  let trailer = 16
  let page_magic = 0x43464e54 (* "CFNT" *)
  let anchor_magic = 0x43414e31 (* "CAN1" *)

  let full_bytes layout =
    layout.Cfs_layout.params.Cfs_layout.fnt_page_sectors
    * layout.Cfs_layout.geom.Geometry.sector_bytes

  let page_bytes t = full_bytes t.layout - trailer

  let fnt_labels layout ~page =
    let n = layout.Cfs_layout.params.Cfs_layout.fnt_page_sectors in
    List.init n (fun i ->
        { Label.uid = 0L; page = (page * n) + i; kind = Label.Fnt })

  let frame layout ~page payload =
    let full = full_bytes layout in
    if String.length payload <> full - trailer then invalid_arg "Direct_store.frame";
    let out = Bytes.make full '\000' in
    Bytes.blit_string payload 0 out 0 (String.length payload);
    let w = Bytebuf.Writer.create ~initial:trailer () in
    Bytebuf.Writer.u32 w page_magic;
    Bytebuf.Writer.u32 w page;
    Bytebuf.Writer.u32 w (Crc32.string payload);
    Bytebuf.Writer.u32 w 0;
    Bytes.blit (Bytebuf.Writer.contents w) 0 out (full - trailer) trailer;
    out

  let unframe layout ~page image =
    let full = full_bytes layout in
    if Bytes.length image <> full then None
    else begin
      let payload = Bytes.sub_string image 0 (full - trailer) in
      let r = Bytebuf.Reader.of_bytes ~pos:(full - trailer) image in
      match
        let m = Bytebuf.Reader.u32 r in
        let id = Bytebuf.Reader.u32 r in
        let crc = Bytebuf.Reader.u32 r in
        (m, id, crc)
      with
      | exception Bytebuf.Decode_error _ -> None
      | m, id, crc ->
        if m = page_magic && id = page && crc = Crc32.string payload then Some payload
        else None
    end

  let on_drop t f = t.on_drop <- f :: t.on_drop
  let dropped t page = List.iter (fun f -> f page) t.on_drop

  let cache_page t page payload =
    List.iter (fun (p, _) -> dropped t p) (Lru.add t.cache page payload)

  let read t page =
    match Lru.find t.cache page with
    | Some payload -> payload
    | None -> (
      let sector = Cfs_layout.fnt_sector t.layout ~page in
      let image =
        try
          Device.verified_read_run t.device ~sector ~expect:(fnt_labels t.layout ~page)
        with Device.Error { sector; kind = _ } ->
          corrupt (Printf.sprintf "name-table sector %d unreadable" sector)
      in
      match unframe t.layout ~page image with
      | Some payload ->
        cache_page t page payload;
        payload
      | None ->
        raise
          (Cedar_btree.Btree.Corrupt
             (Printf.sprintf "name-table page %d fails its checksum" page)))

  (* Synchronous in-place write: the non-atomicity is the point. *)
  let write t page payload =
    let sector = Cfs_layout.fnt_sector t.layout ~page in
    Device.verified_write_run t.device ~sector
      ~expect:(fnt_labels t.layout ~page)
      (frame t.layout ~page payload);
    t.page_writes <- t.page_writes + 1;
    cache_page t page payload

  let encode_anchor t =
    let w = Bytebuf.Writer.create () in
    Bytebuf.Writer.u32 w anchor_magic;
    (match t.anchor.root with
    | None -> Bytebuf.Writer.u32 w 0
    | Some r -> Bytebuf.Writer.u32 w (r + 1));
    Bytebuf.Writer.u64 w t.anchor.uid_hint;
    Bytebuf.Writer.u32 w (Bitmap.length t.anchor.alloc_map);
    Bytebuf.Writer.raw w (Bitmap.to_bytes t.anchor.alloc_map);
    let b = Bytebuf.Writer.contents w in
    if Bytes.length b > page_bytes t then
      invalid_arg "Cfs: anchor exceeds one page; reduce fnt_pages";
    let out = Bytes.make (page_bytes t) '\000' in
    Bytes.blit b 0 out 0 (Bytes.length b);
    Bytes.unsafe_to_string out

  let decode_anchor payload =
    let r = Bytebuf.Reader.of_bytes (Bytes.unsafe_of_string payload) in
    match
      let m = Bytebuf.Reader.u32 r in
      if m <> anchor_magic then None
      else begin
        let root = match Bytebuf.Reader.u32 r with 0 -> None | n -> Some (n - 1) in
        let uid_hint = Bytebuf.Reader.u64 r in
        let bits = Bytebuf.Reader.u32 r in
        let map = Bitmap.of_bytes ~bits (Bytebuf.Reader.raw r ((bits + 7) / 8)) in
        Some { root; alloc_map = map; uid_hint }
      end
    with
    | v -> v
    | exception Bytebuf.Decode_error _ -> None

  let write_anchor t = write t 0 (encode_anchor t)

  let alloc t =
    let map = t.anchor.alloc_map in
    let rec go i =
      if i >= Bitmap.length map then Fs_error.raise_ Fs_error.Name_table_full
      else if not (Bitmap.get map i) then i
      else go (i + 1)
    in
    let page = go 1 in
    Bitmap.set map page;
    write_anchor t;
    page

  let free t page =
    if page = 0 || not (Bitmap.get t.anchor.alloc_map page) then
      invalid_arg "Direct_store.free";
    Bitmap.clear t.anchor.alloc_map page;
    Lru.remove t.cache page;
    dropped t page;
    write_anchor t

  let ensure_free t n =
    let map = t.anchor.alloc_map in
    if n > Bitmap.length map - Bitmap.count map then
      Fs_error.raise_ Fs_error.Name_table_full

  let get_root t = t.anchor.root

  let set_root t r =
    t.anchor.root <- r;
    write_anchor t

  let mk device layout anchor =
    {
      device;
      layout;
      cache = Lru.create ~capacity:layout.Cfs_layout.params.Cfs_layout.cache_pages;
      anchor;
      page_writes = 0;
      on_drop = [];
    }

  let create_fresh device layout =
    let map = Bitmap.create layout.Cfs_layout.params.Cfs_layout.fnt_pages in
    Bitmap.set map 0;
    mk device layout { root = None; alloc_map = map; uid_hint = 1L }

  let attach device layout =
    let t = mk device layout { root = None; alloc_map = Bitmap.create 1; uid_hint = 1L } in
    let payload = read t 0 in
    match decode_anchor payload with
    | Some anchor -> mk device layout anchor
    | None -> corrupt "CFS name-table anchor does not decode"
end

module B = Cedar_btree.Btree.Make (Direct_store)

(* ------------------------------------------------------------------ *)
(* Name-table values: Table 1's CFS column — uid, keep, and the header
   page 0 disk address. Everything else lives in the header. *)

module Nt_value = struct
  (* Local and cached entries point at a header; symbolic links live
     entirely in the name table (which is why the scavenger, working
     from labels and headers, cannot recover them). *)
  type v =
    | File of { uid : int64; keep : int; header_sector : int }
    | Symlink of { target : string }

  let encode_file ~uid ~keep ~header_sector =
    let w = Bytebuf.Writer.create ~initial:16 () in
    Bytebuf.Writer.u8 w 0;
    Bytebuf.Writer.u64 w uid;
    Bytebuf.Writer.u16 w keep;
    Bytebuf.Writer.u32 w header_sector;
    Bytes.to_string (Bytebuf.Writer.contents w)

  let encode_symlink ~target =
    let w = Bytebuf.Writer.create ~initial:16 () in
    Bytebuf.Writer.u8 w 1;
    Bytebuf.Writer.string w target;
    Bytes.to_string (Bytebuf.Writer.contents w)

  let decode s =
    let r = Bytebuf.Reader.of_bytes (Bytes.unsafe_of_string s) in
    match Bytebuf.Reader.u8 r with
    | 0 ->
      let uid = Bytebuf.Reader.u64 r in
      let keep = Bytebuf.Reader.u16 r in
      let header_sector = Bytebuf.Reader.u32 r in
      File { uid; keep; header_sector }
    | 1 -> Symlink { target = Bytebuf.Reader.string r }
    | n -> raise (Bytebuf.Decode_error (Printf.sprintf "bad CFS entry kind %d" n))
end

(* ------------------------------------------------------------------ *)

type t = {
  device : Device.t;
  clock : Simclock.t;
  layout : Cfs_layout.t;
  store : Direct_store.t;
  tree : B.t;
  vam : Bitmap.t; (* set = free; a hint with no invariants (§2) *)
  mutable hint : int;
  opened : (string, Header.t * int) Hashtbl.t; (* key -> header, sector *)
  mutable next_uid : int64;
  mutable live : bool;
  ops_c : Cedar_obs.Metrics.counter;
}

let layout t = t.layout
let device t = t.device
let free_sector_hints t = Bitmap.count t.vam
let drop_open_cache t = Hashtbl.reset t.opened

let sector_bytes t = t.layout.Cfs_layout.geom.Geometry.sector_bytes
let cpu t us = Simclock.advance t.clock us

let op_cpu t =
  Cedar_obs.Metrics.inc t.ops_c;
  cpu t t.layout.Cfs_layout.params.Cfs_layout.cpu_op_us

let require_live t = if not t.live then Fs_error.raise_ Fs_error.Not_booted

(* Span wrapper matching Fsd's, so the per-op I/O tables line up across
   the three systems. Single-branch no-op while tracing is disabled. *)
let traced t ~op ~name f =
  let tr = Device.trace t.device in
  if not (Cedar_obs.Trace.enabled tr) then f ()
  else begin
    let id = Cedar_obs.Trace.begin_span tr ~at:(Simclock.now t.clock) ~op ~name in
    match f () with
    | v ->
      Cedar_obs.Trace.end_span tr ~at:(Simclock.now t.clock) id;
      v
    | exception e ->
      Cedar_obs.Trace.end_span tr ~at:(Simclock.now t.clock) id;
      raise e
  end

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- Int64.add uid 1L;
  uid

(* ------------------------------------------------------------------ *)
(* Boot page                                                           *)

let boot_magic = 0x43425431 (* "CBT1" *)

let write_boot device layout ~clean =
  let sb = layout.Cfs_layout.geom.Geometry.sector_bytes in
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w boot_magic;
  Bytebuf.Writer.bool w clean;
  Bytebuf.Writer.u16 w layout.Cfs_layout.params.Cfs_layout.fnt_page_sectors;
  Bytebuf.Writer.u32 w layout.Cfs_layout.params.Cfs_layout.fnt_pages;
  let body = Bytebuf.Writer.contents w in
  Bytebuf.Writer.u32 w (Crc32.bytes body);
  let page = Bytebuf.Writer.to_sector w ~size:sb in
  let buf = Bytes.make (3 * sb) '\000' in
  Bytes.blit page 0 buf 0 sb;
  Bytes.blit page 0 buf (2 * sb) sb;
  Device.write_run device ~sector:0 buf

let read_boot device =
  let parse b =
    let r = Bytebuf.Reader.of_bytes b in
    match
      let m = Bytebuf.Reader.u32 r in
      if m <> boot_magic then None
      else begin
        let clean = Bytebuf.Reader.bool r in
        let fnt_page_sectors = Bytebuf.Reader.u16 r in
        let fnt_pages = Bytebuf.Reader.u32 r in
        let body_len = Bytebuf.Reader.pos r in
        let crc = Bytebuf.Reader.u32 r in
        if crc <> Crc32.bytes ~pos:0 ~len:body_len b then None
        else Some (clean, fnt_page_sectors, fnt_pages)
      end
    with
    | v -> v
    | exception Bytebuf.Decode_error _ -> None
  in
  let try_at s = match Device.read device s with
    | b -> parse b
    | exception Device.Error _ -> None
  in
  match try_at 0 with Some v -> Some v | None -> try_at 2

(* ------------------------------------------------------------------ *)
(* VAM persistence (hints; loaded only after a clean shutdown)         *)

let vam_magic = 0x4356414d (* "CVAM" *)

let save_vam t =
  let sb = sector_bytes t in
  let body = Bitmap.to_bytes t.vam in
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w vam_magic;
  Bytebuf.Writer.u32 w (Bitmap.length t.vam);
  Bytebuf.Writer.u32 w (Crc32.bytes body);
  Device.write t.device t.layout.Cfs_layout.vam_start (Bytebuf.Writer.to_sector w ~size:sb);
  let body_sectors = t.layout.Cfs_layout.vam_sectors - 1 in
  let padded = Bytes.make (body_sectors * sb) '\000' in
  Bytes.blit body 0 padded 0 (Bytes.length body);
  Device.write_run t.device ~sector:(t.layout.Cfs_layout.vam_start + 1) padded

let load_vam device layout =
  let bits = Geometry.total_sectors layout.Cfs_layout.geom in
  match Device.read device layout.Cfs_layout.vam_start with
  | exception Device.Error _ -> None
  | header -> (
    let r = Bytebuf.Reader.of_bytes header in
    match
      let m = Bytebuf.Reader.u32 r in
      let saved = Bytebuf.Reader.u32 r in
      let crc = Bytebuf.Reader.u32 r in
      (m, saved, crc)
    with
    | exception Bytebuf.Decode_error _ -> None
    | m, saved, crc ->
      if m <> vam_magic || saved <> bits then None
      else (
        match
          Device.read_run device ~sector:(layout.Cfs_layout.vam_start + 1)
            ~count:(layout.Cfs_layout.vam_sectors - 1)
        with
        | exception Device.Error _ -> None
        | body ->
          let body = Bytes.sub body 0 ((bits + 7) / 8) in
          if Crc32.bytes body <> crc then None else Some (Bitmap.of_bytes ~bits body)))

(* ------------------------------------------------------------------ *)
(* Format                                                              *)

let format device params =
  let geom = Device.geometry device in
  let layout = Cfs_layout.compute geom params in
  (* Label the whole volume: everything free except boot, VAM area and
     the name-table region. *)
  let total = Geometry.total_sectors geom in
  let spt = geom.Geometry.sectors_per_track in
  let fnt_lo = layout.Cfs_layout.fnt_start in
  let fnt_hi = fnt_lo + layout.Cfs_layout.fnt_sectors in
  let label_of s =
    if s < layout.Cfs_layout.data_lo then { Label.uid = 0L; page = s; kind = Label.Boot }
    else if s >= fnt_lo && s < fnt_hi then
      { Label.uid = 0L; page = s - fnt_lo; kind = Label.Fnt }
    else Label.free
  in
  let s = ref 0 in
  while !s < total do
    let n = min spt (total - !s) in
    Device.write_labels device ~sector:!s (List.init n (fun i -> label_of (!s + i)));
    s := !s + n
  done;
  let store = Direct_store.create_fresh device layout in
  Direct_store.write_anchor store;
  (* Empty VAM: all data sectors free. *)
  let vam = Bitmap.create total in
  for s = 0 to total - 1 do
    if Cfs_layout.is_data_sector layout s then Bitmap.set vam s
  done;
  let tmp =
    {
      device;
      clock = Device.clock device;
      layout;
      store;
      tree = B.attach store;
      vam;
      hint = layout.Cfs_layout.data_lo;
      opened = Hashtbl.create 8;
      next_uid = 1L;
      live = true;
      ops_c = Cedar_obs.Metrics.counter (Device.metrics device) "cfs.ops";
    }
  in
  save_vam tmp;
  write_boot device layout ~clean:true

(* ------------------------------------------------------------------ *)
(* Allocation: first-fit with a rotating hint over one big pool — the
   fragmenting allocator §5.6 replaced. Candidates are verified against
   the labels before being claimed (the VAM is only a hint). *)

let verify_free t ~pos ~len =
  let ok = ref true in
  Device.scan_labels t.device ~from:pos ~count:len (fun s l ->
      match l with
      | Some l when Label.equal l Label.free -> ()
      | Some _ | None ->
        ok := false;
        (* correct the stale hint *)
        if Bitmap.get t.vam s then Bitmap.clear t.vam s);
  !ok

let find_free_run t len =
  let lo = t.layout.Cfs_layout.data_lo and hi = t.layout.Cfs_layout.data_hi in
  match Bitmap.find_run_set t.vam ~from:t.hint ~upto:hi ~len with
  | Some pos -> Some pos
  | None -> Bitmap.find_run_set t.vam ~from:lo ~upto:(min hi (t.hint + len)) ~len

(* Allocate [len] sectors as one verified run; retries when the hint was
   stale. *)
let rec alloc_verified_run t len tries =
  if tries > 16 then Fs_error.raise_ Fs_error.Volume_full
  else
    match find_free_run t len with
    | None -> Fs_error.raise_ Fs_error.Volume_full
    | Some pos ->
      if verify_free t ~pos ~len then begin
        Bitmap.clear_run t.vam ~pos ~len;
        t.hint <- pos + len;
        pos
      end
      else alloc_verified_run t len (tries + 1)

(* Allocate the header (2 contiguous) plus [n] data sectors, preferring
   one contiguous piece, falling back to fragments. *)
let allocate_file t ~data_pages =
  let total = Header.sectors + data_pages in
  match find_free_run t total with
  | Some pos when verify_free t ~pos ~len:total ->
    Bitmap.clear_run t.vam ~pos ~len:total;
    t.hint <- pos + total;
    (pos, if data_pages = 0 then [] else [ { Run_table.start = pos + 2; len = data_pages } ])
  | Some _ | None ->
    let header = alloc_verified_run t Header.sectors 0 in
    let rec gather acc remaining chunk =
      if remaining = 0 then List.rev acc
      else if List.length acc > 24 then Fs_error.raise_ (Fs_error.Too_fragmented "")
      else
        let want = min remaining chunk in
        match find_free_run t want with
        | Some pos when verify_free t ~pos ~len:want ->
          Bitmap.clear_run t.vam ~pos ~len:want;
          t.hint <- pos + want;
          gather ({ Run_table.start = pos; len = want } :: acc) (remaining - want) chunk
        | Some _ -> gather acc remaining chunk
        | None ->
          if chunk = 1 then Fs_error.raise_ Fs_error.Volume_full
          else gather acc remaining (max 1 (chunk / 2))
    in
    (header, gather [] data_pages data_pages)

(* ------------------------------------------------------------------ *)
(* Header I/O                                                          *)

let write_header t (h : Header.t) ~sector =
  Device.verified_write_run t.device ~sector ~expect:(Header.labels h)
    (Header.encode h ~sector_bytes:(sector_bytes t))

let read_header t ~uid ~sector =
  let expect =
    [
      { Label.uid; page = 0; kind = Label.Header };
      { Label.uid; page = 1; kind = Label.Header };
    ]
  in
  match Device.verified_read_run t.device ~sector ~expect with
  | image -> (
    match Header.decode image with
    | Some h -> h
    | None -> corrupt (Printf.sprintf "header at sector %d fails its checksum" sector))
  | exception Device.Error { sector; kind = Device.Label_mismatch _ } ->
    corrupt (Printf.sprintf "label mismatch reading header at %d" sector)
  | exception Device.Error { sector; kind = Device.Damaged } ->
    Fs_error.raise_ (Fs_error.Damaged_data { name = "<header>"; sector })

(* ------------------------------------------------------------------ *)
(* Name-table access                                                   *)

let validate_name name =
  match Fname.validate name with
  | Ok () -> ()
  | Error reason -> Fs_error.raise_ (Fs_error.Bad_name { name; reason })

let wrap_tree f =
  try f () with Cedar_btree.Btree.Corrupt m -> corrupt ("name table: " ^ m)

let newest t name =
  validate_name name;
  let _, hi = Fname.bounds ~name in
  wrap_tree (fun () ->
      match B.find_last_below t.tree hi with
      | None -> None
      | Some (k, v) -> (
        match Fname.parse k with
        | Some (n, version) when String.equal n name -> Some (k, version, v)
        | Some _ | None -> None))

let newest_exn t name =
  match newest t name with
  | Some x -> x
  | None -> Fs_error.raise_ (Fs_error.No_such_file name)

(* Open = name-table lookup + header read, cached per open file; follows
   symbolic links (bounded). *)
let rec open_header ?(depth = 0) t name =
  if depth > 8 then corrupt ("symlink chain too deep at " ^ name)
  else begin
    let key, version, raw = newest_exn t name in
    match Nt_value.decode raw with
    | Nt_value.Symlink { target } -> open_header ~depth:(depth + 1) t target
    | Nt_value.File { uid; header_sector; _ } -> (
      match Hashtbl.find_opt t.opened key with
      | Some (h, s) -> (key, version, h, s)
      | None ->
        let h = read_header t ~uid ~sector:header_sector in
        Hashtbl.replace t.opened key (h, header_sector);
        (key, version, h, header_sector))
  end

let info_of name version (h : Header.t) =
  { Fs_ops.name; version; byte_size = h.Header.byte_size; uid = h.Header.uid }

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let versions t ~name =
  require_live t;
  let lo, hi = Fname.bounds ~name in
  wrap_tree (fun () ->
      B.fold_range ~lo ~hi t.tree ~init:[] ~f:(fun acc k _ ->
          match Fname.parse k with Some (_, v) -> v :: acc | None -> acc))
  |> List.rev

let free_labels_of t (h : Header.t) ~header_sector =
  (* One command for the header pair, one per data run. *)
  Device.write_labels t.device ~sector:header_sector [ Label.free; Label.free ];
  Bitmap.set_run t.vam ~pos:header_sector ~len:Header.sectors;
  List.iter
    (fun r ->
      Device.write_labels t.device ~sector:r.Run_table.start
        (List.init r.Run_table.len (fun _ -> Label.free));
      Bitmap.set_run t.vam ~pos:r.Run_table.start ~len:r.Run_table.len)
    (Run_table.runs h.Header.runs)

let delete_version_unchecked t name version =
  let key = Fname.key ~name ~version in
  match wrap_tree (fun () -> B.find t.tree key) with
  | None -> Fs_error.raise_ (Fs_error.No_such_file (Printf.sprintf "%s!%d" name version))
  | Some v ->
    (match Nt_value.decode v with
    | Nt_value.Symlink _ -> ()
    | Nt_value.File { uid; header_sector; _ } ->
      let h =
        match Hashtbl.find_opt t.opened key with
        | Some (h, _) -> h
        | None -> read_header t ~uid ~sector:header_sector
      in
      free_labels_of t h ~header_sector);
    ignore (wrap_tree (fun () -> B.delete t.tree key) : bool);
    Hashtbl.remove t.opened key

let enforce_keep t name newest_version keep =
  if keep > 0 then
    List.iter
      (fun v -> if v <= newest_version - keep then delete_version_unchecked t name v)
      (versions t ~name)

let create_common t ~name ~keep ~kind data =
  require_live t;
  validate_name name;
  let sb = sector_bytes t in
  let byte_size = Bytes.length data in
  let data_pages = max 1 ((byte_size + sb - 1) / sb) in
  let version = match newest t name with Some (_, v, _) -> v + 1 | None -> 1 in
  let uid = fresh_uid t in
  (* 1: find and verify candidate pages (allocate_file reads labels). *)
  let header_sector, data_runs = allocate_file t ~data_pages in
  let runs = Run_table.of_runs data_runs in
  let h =
    { Header.uid; name; version; keep; byte_size; created = Simclock.now t.clock; runs; kind }
  in
  (* 2: claim the header labels. *)
  Device.write_labels t.device ~sector:header_sector (Header.labels h);
  (* 3: claim the data labels, one command per run. *)
  List.iteri
    (fun i r ->
      let base =
        List.fold_left
          (fun acc (j, r') -> if j < i then acc + r'.Run_table.len else acc)
          0
          (List.mapi (fun j r' -> (j, r')) data_runs)
      in
      Device.write_labels t.device ~sector:r.Run_table.start
        (List.init r.Run_table.len (fun k ->
             { Label.uid; page = base + k; kind = Label.Data })))
    data_runs;
  (* 4: write the header (size not yet final, as in the paper's script). *)
  write_header t { h with Header.byte_size = 0 } ~sector:header_sector;
  (* 5: write the data through the labels. *)
  let padded = Bytes.make (data_pages * sb) '\000' in
  Bytes.blit data 0 padded 0 byte_size;
  let off = ref 0 in
  List.iter
    (fun r ->
      let labels =
        List.init r.Run_table.len (fun k ->
            { Label.uid; page = (!off / sb) + k; kind = Label.Data })
      in
      Device.verified_write_run t.device ~sector:r.Run_table.start ~expect:labels
        (Bytes.sub padded !off (r.Run_table.len * sb));
      off := !off + (r.Run_table.len * sb))
    data_runs;
  (* 6: update the name table (synchronous page writes). *)
  wrap_tree (fun () ->
      B.insert t.tree ~key:(Fname.key ~name ~version)
        ~value:(Nt_value.encode_file ~uid ~keep ~header_sector));
  (* 7: rewrite the header with the final byte count. *)
  write_header t h ~sector:header_sector;
  Hashtbl.replace t.opened (Fname.key ~name ~version) (h, header_sector);
  enforce_keep t name version keep;
  op_cpu t;
  cpu t (data_pages * t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us);
  info_of name version h

let create t ~name ?(keep = 2) data =
  traced t ~op:"create" ~name (fun () ->
      create_common t ~name ~keep ~kind:Header.Local data)

let import_cached t ~name ~server data =
  traced t ~op:"import" ~name (fun () ->
      create_common t ~name ~keep:2
        ~kind:(Header.Cached { server; last_used = Simclock.now t.clock })
        data)

let create_symlink t ~name ~target =
  require_live t;
  validate_name name;
  let version = match newest t name with Some (_, v, _) -> v + 1 | None -> 1 in
  wrap_tree (fun () ->
      B.insert t.tree ~key:(Fname.key ~name ~version)
        ~value:(Nt_value.encode_symlink ~target));
  enforce_keep t name version 2;
  op_cpu t

let readlink t ~name =
  require_live t;
  let _, _, raw = newest_exn t name in
  op_cpu t;
  match Nt_value.decode raw with
  | Nt_value.Symlink { target } -> Some target
  | Nt_value.File _ -> None

(* CFS keeps the last-used time in the header: every update reads and
   rewrites the header pair — the traffic FSD's group commit removes. *)
let touch_cached t ~name =
  require_live t;
  let key, _, h, header_sector = open_header t name in
  match h.Header.kind with
  | Header.Cached { server; _ } ->
    let h' =
      { h with Header.kind = Header.Cached { server; last_used = Simclock.now t.clock } }
    in
    write_header t h' ~sector:header_sector;
    Hashtbl.replace t.opened key (h', header_sector);
    op_cpu t
  | Header.Local -> corrupt (name ^ " is not a cached remote file")

let last_used t ~name =
  require_live t;
  let _, _, h, _ = open_header t name in
  op_cpu t;
  match h.Header.kind with
  | Header.Cached { last_used; _ } -> Some last_used
  | Header.Local -> None

let open_stat t ~name =
  traced t ~op:"open" ~name @@ fun () ->
  require_live t;
  let _, version, h, _ = open_header t name in
  op_cpu t;
  info_of name version h

let exists t ~name =
  require_live t;
  op_cpu t;
  newest t name <> None

let read_runs t (h : Header.t) buf =
  let sb = sector_bytes t in
  let off = ref 0 in
  List.iter
    (fun r ->
      let labels =
        List.init r.Run_table.len (fun k ->
            { Label.uid = h.Header.uid; page = (!off / sb) + k; kind = Label.Data })
      in
      let d = Device.verified_read_run t.device ~sector:r.Run_table.start ~expect:labels in
      Bytes.blit d 0 buf !off (r.Run_table.len * sb);
      off := !off + (r.Run_table.len * sb))
    (Run_table.runs h.Header.runs)

let read_all t ~name =
  traced t ~op:"read_all" ~name @@ fun () ->
  require_live t;
  let _, _, h, _ = open_header t name in
  let sb = sector_bytes t in
  let buf = Bytes.create (Run_table.pages h.Header.runs * sb) in
  (try read_runs t h buf with
  | Device.Error { sector; kind = Device.Damaged } ->
    Fs_error.raise_ (Fs_error.Damaged_data { name; sector })
  | Device.Error { sector; kind = Device.Label_mismatch _ } ->
    corrupt (Printf.sprintf "stale run table for %s at sector %d" name sector));
  op_cpu t;
  cpu t (Run_table.pages h.Header.runs * t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us);
  Bytes.sub buf 0 h.Header.byte_size

let read_page t ~name ~page =
  traced t ~op:"read_page" ~name @@ fun () ->
  require_live t;
  let _, _, h, _ = open_header t name in
  if page < 0 || page >= Run_table.pages h.Header.runs then
    Fs_error.raise_ (Fs_error.Bad_page { name; page });
  let sector = Run_table.sector_of_page h.Header.runs page in
  let expect = { Label.uid = h.Header.uid; page; kind = Label.Data } in
  op_cpu t;
  match Device.verified_read t.device sector ~expect with
  | b -> b
  | exception Device.Error { sector; kind = Device.Damaged } ->
    Fs_error.raise_ (Fs_error.Damaged_data { name; sector })
  | exception Device.Error { sector; kind = Device.Label_mismatch _ } ->
    corrupt (Printf.sprintf "stale run table for %s at sector %d" name sector)

let write_page t ~name ~page data =
  traced t ~op:"write_page" ~name @@ fun () ->
  require_live t;
  let _, _, h, _ = open_header t name in
  if page < 0 || page >= Run_table.pages h.Header.runs then
    Fs_error.raise_ (Fs_error.Bad_page { name; page });
  let sector = Run_table.sector_of_page h.Header.runs page in
  let expect = { Label.uid = h.Header.uid; page; kind = Label.Data } in
  op_cpu t;
  Device.verified_write t.device sector ~expect data

let delete t ~name =
  traced t ~op:"delete" ~name @@ fun () ->
  require_live t;
  let _, version, raw = newest_exn t name in
  let pages =
    match Nt_value.decode raw with
    | Nt_value.Symlink _ -> 0
    | Nt_value.File { uid; header_sector; _ } -> (
      match Hashtbl.find_opt t.opened (Fname.key ~name ~version) with
      | Some (h, _) -> Run_table.pages h.Header.runs
      | None -> (
        match read_header t ~uid ~sector:header_sector with
        | h ->
          Hashtbl.replace t.opened (Fname.key ~name ~version) (h, header_sector);
          Run_table.pages h.Header.runs
        | exception Fs_error.Fs_error _ -> 0))
  in
  delete_version_unchecked t name version;
  op_cpu t;
  cpu t (pages * t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us / 2)

let list t ~prefix =
  traced t ~op:"list" ~name:prefix @@ fun () ->
  require_live t;
  (* The name table has only names and header addresses; properties such
     as the byte count require reading each header (Table 3's 146 I/Os
     for 100 files). *)
  let hi = prefix ^ "\xff\xff\xff\xff" in
  let acc = ref [] in
  let current : (string * int * string) option ref = ref None in
  let flush () =
    match !current with
    | Some (n, ver, v) -> (
      match Nt_value.decode v with
      | Nt_value.Symlink _ ->
        acc := { Fs_ops.name = n; version = ver; byte_size = 0; uid = 0L } :: !acc
      | Nt_value.File { uid; header_sector; _ } ->
        let key = Fname.key ~name:n ~version:ver in
        let h =
          match Hashtbl.find_opt t.opened key with
          | Some (h, _) -> h
          | None ->
            let h = read_header t ~uid ~sector:header_sector in
            Hashtbl.replace t.opened key (h, header_sector);
            h
        in
        acc := info_of n ver h :: !acc)
    | None -> ()
  in
  wrap_tree (fun () ->
      B.iter_range ~lo:prefix ~hi t.tree (fun k v ->
          cpu t (t.layout.Cfs_layout.params.Cfs_layout.cpu_page_us / 2);
          match Fname.parse k with
          | None -> ()
          | Some (n, ver) ->
            (match !current with
            | Some (cn, _, _) when not (String.equal cn n) -> flush ()
            | Some _ | None -> ());
            current := Some (n, ver, v)));
  flush ();
  op_cpu t;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let mk_live device layout store vam =
  let m = Device.metrics device in
  let t =
    {
      device;
      clock = Device.clock device;
      layout;
      store;
      tree = B.attach store;
      vam;
      hint = layout.Cfs_layout.data_lo;
      opened = Hashtbl.create 64;
      next_uid = Int64.add store.Direct_store.anchor.Direct_store.uid_hint 1_000_000L;
      live = true;
      ops_c = Cedar_obs.Metrics.counter m "cfs.ops";
    }
  in
  Cedar_obs.Metrics.gauge m "cfs.nt_page_writes" (fun () ->
      store.Direct_store.page_writes);
  Cedar_obs.Metrics.gauge m "cfs.open_headers" (fun () -> Hashtbl.length t.opened);
  t

let boot device =
  match read_boot device with
  | None -> corrupt "CFS boot pages unreadable"
  | Some (clean, fnt_page_sectors, fnt_pages) ->
    if not clean then `Needs_scavenge
    else begin
      let params =
        { (Cfs_layout.params_for_geometry (Device.geometry device)) with
          Cfs_layout.fnt_page_sectors;
          fnt_pages;
        }
      in
      let layout = Cfs_layout.compute (Device.geometry device) params in
      match load_vam device layout with
      | None -> `Needs_scavenge
      | Some vam ->
        let store = Direct_store.attach device layout in
        (* Mark unclean until the next controlled shutdown. *)
        write_boot device layout ~clean:false;
        `Ok (mk_live device layout store vam)
    end

let shutdown t =
  require_live t;
  t.store.Direct_store.anchor.Direct_store.uid_hint <- t.next_uid;
  Direct_store.write_anchor t.store;
  save_vam t;
  write_boot t.device t.layout ~clean:true;
  t.live <- false

let scavenge device =
  let clock = Device.clock device in
  let t0 = Simclock.now clock in
  let geom = Device.geometry device in
  let params =
    match read_boot device with
    | Some (_, fnt_page_sectors, fnt_pages) ->
      { (Cfs_layout.params_for_geometry geom) with
        Cfs_layout.fnt_page_sectors;
        fnt_pages;
      }
    | None -> Cfs_layout.params_for_geometry geom
  in
  let layout = Cfs_layout.compute geom params in
  let total = Geometry.total_sectors geom in
  (* Pass 1: read every label on the volume. A header whose page-0
     sector is unreadable is recognisable by its orphaned page-1 label. *)
  let headers = ref [] in
  let orphan_uids = Hashtbl.create 64 in
  let vam = Bitmap.create total in
  Device.scan_labels device ~from:0 ~count:total (fun s l ->
      Simclock.advance clock 10;
      match l with
      | Some { Label.kind = Label.Header; page = 0; uid } -> headers := (s, uid) :: !headers
      | Some { Label.kind = Label.Header; page = 1; uid }
      | Some { Label.kind = Label.Data; uid; _ } ->
        Hashtbl.replace orphan_uids uid ()
      | Some l when Label.equal l Label.free ->
        if Cfs_layout.is_data_sector layout s then Bitmap.set vam s
      | Some _ | None -> ());
  (* Pass 2: rebuild the name table from the headers. *)
  let store = Direct_store.create_fresh device layout in
  Direct_store.write_anchor store;
  let t = mk_live device layout store vam in
  let recovered = ref 0 and lost = ref 0 and max_uid = ref 0L in
  List.iter
    (fun (sector, uid) ->
      match read_header t ~uid ~sector with
      | exception Fs_error.Fs_error _ -> incr lost
      | h ->
        wrap_tree (fun () ->
            B.insert t.tree
              ~key:(Fname.key ~name:h.Header.name ~version:h.Header.version)
              ~value:
                (Nt_value.encode_file ~uid:h.Header.uid ~keep:h.Header.keep
                   ~header_sector:sector));
        if Int64.compare h.Header.uid !max_uid > 0 then max_uid := h.Header.uid;
        Hashtbl.remove orphan_uids h.Header.uid;
        incr recovered)
    (List.rev !headers);
  (* Uids with surviving header or data labels but no readable header:
     those files are lost (only their pages remain). *)
  List.iter (fun (_, uid) -> Hashtbl.remove orphan_uids uid) !headers;
  lost := !lost + Hashtbl.length orphan_uids;
  t.next_uid <- Int64.add !max_uid 1L;
  t.store.Direct_store.anchor.Direct_store.uid_hint <- t.next_uid;
  Direct_store.write_anchor t.store;
  save_vam t;
  write_boot device layout ~clean:false;
  ( t,
    {
      files_recovered = !recovered;
      files_lost = !lost;
      duration_us = Simclock.now clock - t0;
    } )

(* ------------------------------------------------------------------ *)
(* Check & Ops                                                         *)

let check t =
  match wrap_tree (fun () -> B.check t.tree) with
  | Error m -> Error ("name table: " ^ m)
  | Ok () -> (
    let bad = ref [] in
    (try
       wrap_tree (fun () ->
           B.iter t.tree (fun k v ->
               match Nt_value.decode v with
               | Nt_value.Symlink _ -> ()
               | Nt_value.File { uid; header_sector; _ } -> (
               match read_header t ~uid ~sector:header_sector with
               | exception Fs_error.Fs_error e ->
                 bad := (k ^ ": " ^ Fs_error.to_string e) :: !bad
               | h ->
                 if h.Header.uid <> uid then bad := (k ^ ": header uid mismatch") :: !bad;
                 (match Fname.parse k with
                 | Some (n, ver) ->
                   if h.Header.name <> n || h.Header.version <> ver then
                     bad := (k ^ ": header name mismatch") :: !bad
                 | None -> bad := (k ^ ": unparseable key") :: !bad))))
     with Fs_error.Fs_error e -> bad := Fs_error.to_string e :: !bad);
    match !bad with [] -> Ok () | problems -> Error (String.concat "; " problems))

let ops t =
  {
    Fs_ops.label = "CFS";
    create = (fun ~name ~data -> create t ~name data);
    open_stat = (fun ~name -> open_stat t ~name);
    read_all = (fun ~name -> read_all t ~name);
    read_page = (fun ~name ~page -> read_page t ~name ~page);
    delete = (fun ~name -> delete t ~name);
    list = (fun ~prefix -> list t ~prefix);
    force = (fun () -> ());
    device = t.device;
    clock = t.clock;
  }
