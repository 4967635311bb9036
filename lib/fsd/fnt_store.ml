open Cedar_util
open Cedar_disk
open Cedar_fsbase

(* [modified] and [third] are written only by [set_modified] and
   [set_third], which keep the store's counts of them in step. *)
type cached = {
  mutable payload : string; (* immutable: readers share it, writes replace it *)
  mutable dirty : bool;
  mutable modified : bool; (* changed since last logged; implies [dirty] *)
  mutable third : int option; (* where the image was last logged; implies [dirty] *)
  mutable dirtied_at : int; (* virtual time the page last became dirty *)
  mutable logged : string option;
      (* The committed image as last logged, retained from the moment the
         payload diverges from it. When the third holding that log copy
         is reclaimed, this — never the uncommitted payload — is what
         goes home; [None] while the payload itself is the logged image
         (or nothing is logged). *)
}

type anchor = {
  mutable root : int option;
  alloc_map : Bitmap.t; (* set = page slot in use *)
  mutable next_uid : int64;
}

type t = {
  device : Device.t;
  layout : Layout.t;
  cache : (int, cached) Lru.t;
  dirty : (int, cached) Hashtbl.t; (* exactly the cached pages with [dirty] set *)
  mutable to_log : int; (* dirty pages with [modified] set *)
  in_third : int array; (* dirty pages whose [third] is each log third *)
  anchor : anchor;
  mutable free_pages : int; (* clear bits of [anchor.alloc_map] past page 0 *)
  mutable note_dirty : int -> unit;
  mutable on_drop : (int -> unit) list;
  mutable home_writes : int;
  mutable repairs : int;
  dirty_age : Stats.t; (* dirty-to-home-write latency per page flush *)
}

let trailer_bytes = 16
let page_magic = 0x464e5431 (* "FNT1" *)

let full_page_bytes layout =
  layout.Layout.params.Params.fnt_page_sectors
  * layout.Layout.geom.Geometry.sector_bytes

let page_bytes t = full_page_bytes t.layout - trailer_bytes

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let frame layout ~page payload =
  let full = full_page_bytes layout in
  if String.length payload <> full - trailer_bytes then
    invalid_arg "Fnt_store.frame: payload size";
  let out = Bytes.create full in
  let at = full - trailer_bytes in
  Bytes.blit_string payload 0 out 0 at;
  Bytes.set_int32_le out at (Int32.of_int page_magic);
  Bytes.set_int32_le out (at + 4) (Int32.of_int page);
  Bytes.set_int32_le out (at + 8) (Int32.of_int (Crc32.string payload));
  Bytes.set_int32_le out (at + 12) 0l;
  out

let unframe layout ~page image =
  let full = full_page_bytes layout in
  if Bytes.length image <> full then None
  else begin
    let payload = Bytes.sub_string image 0 (full - trailer_bytes) in
    let r = Bytebuf.Reader.of_bytes ~pos:(full - trailer_bytes) image in
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

(* ------------------------------------------------------------------ *)
(* Anchor codec (page 0's payload)                                     *)

let anchor_magic = 0x414e4331 (* "ANC1" *)

let encode_anchor t =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w anchor_magic;
  (match t.anchor.root with
  | None -> Bytebuf.Writer.u32 w 0
  | Some r -> Bytebuf.Writer.u32 w (r + 1));
  Bytebuf.Writer.u64 w t.anchor.next_uid;
  Bytebuf.Writer.u32 w (Bitmap.length t.anchor.alloc_map);
  Bytebuf.Writer.raw w (Bitmap.to_bytes t.anchor.alloc_map);
  let b = Bytebuf.Writer.contents w in
  if Bytes.length b > page_bytes t then
    invalid_arg "Fnt_store: anchor exceeds one page; reduce fnt_pages";
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
      let next_uid = Bytebuf.Reader.u64 r in
      let bits = Bytebuf.Reader.u32 r in
      let map = Bitmap.of_bytes ~bits (Bytebuf.Reader.raw r ((bits + 7) / 8)) in
      Some { root; alloc_map = map; next_uid }
    end
  with
  | v -> v
  | exception Bytebuf.Decode_error _ -> None

(* ------------------------------------------------------------------ *)
(* Home I/O                                                            *)

let write_home_image device layout ~page image =
  if Bytes.length image <> full_page_bytes layout then
    invalid_arg "Fnt_store.write_home_image";
  Device.write_run device ~sector:(Layout.fnt_sector_a layout ~page) image;
  Device.write_run device ~sector:(Layout.fnt_sector_b layout ~page) image

(* Both copies are read and checked (§5.1); a lone bad copy is repaired.
   When both copies carry a valid checksum but disagree (a torn
   home-write pair, or a wild write that happens to re-frame), copy A is
   authoritative — home writes go A then B, so A is never the stale one —
   and B is rewritten from it. *)
let note_twin_repair t page =
  t.repairs <- t.repairs + 1;
  let tr = Device.trace t.device in
  if Cedar_obs.Trace.enabled tr then
    Cedar_obs.Trace.emit tr
      ~at:(Simclock.now (Device.clock t.device))
      (Cedar_obs.Trace.Scrub_repair { target = "fnt-twin"; loc = page })

let read_home t page =
  let n = t.layout.Layout.params.Params.fnt_page_sectors in
  let read_copy sector =
    match Device.read_run t.device ~sector ~count:n with
    | image -> unframe t.layout ~page image
    | exception Device.Error _ -> None
  in
  let sa = Layout.fnt_sector_a t.layout ~page in
  let sb = Layout.fnt_sector_b t.layout ~page in
  let a = read_copy sa and b = read_copy sb in
  match (a, b) with
  | Some pa, Some pb ->
    if not (String.equal pa pb) then begin
      note_twin_repair t page;
      Device.write_run t.device ~sector:sb (frame t.layout ~page pa)
    end;
    pa
  | Some pa, None ->
    note_twin_repair t page;
    Device.write_run t.device ~sector:sb (frame t.layout ~page pa);
    pa
  | None, Some pb ->
    note_twin_repair t page;
    Device.write_run t.device ~sector:sa (frame t.layout ~page pb);
    pb
  | None, None ->
    Fs_error.raise_
      (Fs_error.Corrupt_metadata
         (Printf.sprintf "both copies of name-table page %d are bad" page))

(* Twin-copy read without a store (the scavenger probes pages of a
   volume it cannot attach). No repair side effects. *)
let try_read_home device layout ~page =
  let n = layout.Layout.params.Params.fnt_page_sectors in
  let read_copy sector =
    match Device.read_run device ~sector ~count:n with
    | image -> unframe layout ~page image
    | exception Device.Error _ -> None
  in
  match read_copy (Layout.fnt_sector_a layout ~page) with
  | Some p -> Some p
  | None -> read_copy (Layout.fnt_sector_b layout ~page)

(* One scrub-demon step: verify both home copies against their checksums
   and each other; rewrite a lone bad or stale copy from its twin. The
   cache is deliberately not consulted — a dirty page's home copies are
   legitimately old but must still agree with each other. *)
let scrub_page t page =
  let n = t.layout.Layout.params.Params.fnt_page_sectors in
  let read_copy sector =
    match Device.read_run t.device ~sector ~count:n with
    | image -> unframe t.layout ~page image
    | exception Device.Error _ -> None
  in
  let sa = Layout.fnt_sector_a t.layout ~page in
  let sb = Layout.fnt_sector_b t.layout ~page in
  let repair sector payload =
    t.repairs <- t.repairs + 1;
    Device.write_run t.device ~sector (frame t.layout ~page payload)
  in
  match (read_copy sa, read_copy sb) with
  | Some pa, Some pb ->
    if String.equal pa pb then `Ok
    else begin
      repair sb pa;
      `Repaired
    end
  | Some pa, None ->
    repair sb pa;
    `Repaired
  | None, Some pb ->
    repair sa pb;
    `Repaired
  | None, None -> `Unreadable

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let mk device layout anchor =
  let t =
    {
      device;
      layout;
      cache = Lru.create ~capacity:layout.Layout.params.Params.cache_pages;
      dirty = Hashtbl.create 64;
      to_log = 0;
      in_third = Array.make 3 0;
      anchor;
      free_pages =
        (let map = anchor.alloc_map in
         let len = Bitmap.length map - 1 in
         len - Bitmap.count_run map ~pos:1 ~len);
      note_dirty = (fun _ -> ());
      on_drop = [];
      home_writes = 0;
      repairs = 0;
      dirty_age = Stats.create ();
    }
  in
  let m = Device.metrics device in
  Cedar_obs.Metrics.gauge m "fnt.home_writes" (fun () -> t.home_writes);
  Cedar_obs.Metrics.gauge m "fnt.repairs" (fun () -> t.repairs);
  Cedar_obs.Metrics.register_dist m "fnt.dirty_page_age_us" t.dirty_age;
  t

let create_fresh device layout =
  let map = Bitmap.create layout.Layout.params.Params.fnt_pages in
  Bitmap.set map 0; (* the anchor page itself *)
  mk device layout { root = None; alloc_map = map; next_uid = 1L }

let attach device layout =
  let t = mk device layout { root = None; alloc_map = Bitmap.create 1; next_uid = 1L } in
  let payload = read_home t 0 in
  match decode_anchor payload with
  | Some anchor ->
    let t' = mk device layout anchor in
    (* carry over a twin repair made while reading the anchor *)
    t'.repairs <- t.repairs;
    t'
  | None ->
    Fs_error.raise_ (Fs_error.Corrupt_metadata "name-table anchor does not decode")

let set_note_dirty t f = t.note_dirty <- f
let on_drop t f = t.on_drop <- f :: t.on_drop

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let set_modified t c m =
  if c.modified <> m then begin
    c.modified <- m;
    t.to_log <- (if m then t.to_log + 1 else t.to_log - 1)
  end

let set_third t c third =
  (match c.third with Some j -> t.in_third.(j) <- t.in_third.(j) - 1 | None -> ());
  (match third with Some j -> t.in_third.(j) <- t.in_third.(j) + 1 | None -> ());
  c.third <- third

let dropped t page = List.iter (fun f -> f page) t.on_drop
let evicted t victims = List.iter (fun (page, _) -> dropped t page) victims

(* A missed page enters the cache clean, or dirty and modified. *)
let insert_cache t page ~payload ~dirty ~dirtied_at =
  let c =
    { payload; dirty; modified = false; third = None; dirtied_at; logged = None }
  in
  (* Evictions are always clean (dirty pages are pinned). *)
  evicted t (Lru.add t.cache page c);
  if dirty then begin
    set_modified t c true;
    Hashtbl.replace t.dirty page c;
    Lru.pin t.cache page
  end

let read t page =
  match Lru.find t.cache page with
  | Some c -> c.payload
  | None ->
    let payload = read_home t page in
    insert_cache t page ~payload ~dirty:false ~dirtied_at:0;
    payload

let write t page payload =
  if String.length payload <> page_bytes t then invalid_arg "Fnt_store.write: size";
  let now = Simclock.now (Device.clock t.device) in
  (match Lru.peek t.cache page with
  | Some c ->
    (* First modification after a log commit: the payload about to be
       replaced is the committed logged image. Retain it — it is what
       must go home if its third reclaims before this change commits. *)
    if c.dirty && (not c.modified) && c.logged = None then c.logged <- Some c.payload;
    c.payload <- payload;
    if not c.dirty then begin
      c.dirty <- true;
      set_third t c None;
      c.dirtied_at <- now;
      Hashtbl.replace t.dirty page c;
      Lru.pin t.cache page
    end;
    set_modified t c true
  | None -> insert_cache t page ~payload ~dirty:true ~dirtied_at:now);
  t.note_dirty page

(* Anchor mutations are ordinary writes of page 0. *)
let write_anchor t = write t 0 (encode_anchor t)

let alloc t =
  match
    let map = t.anchor.alloc_map in
    let rec go i =
      if i >= Bitmap.length map then None
      else if not (Bitmap.get map i) then Some i
      else go (i + 1)
    in
    go 1
  with
  | None -> Fs_error.raise_ Fs_error.Name_table_full
  | Some page ->
    Bitmap.set t.anchor.alloc_map page;
    t.free_pages <- t.free_pages - 1;
    write_anchor t;
    page

let free t page =
  if page = 0 || not (Bitmap.get t.anchor.alloc_map page) then
    invalid_arg "Fnt_store.free";
  Bitmap.clear t.anchor.alloc_map page;
  t.free_pages <- t.free_pages + 1;
  (match Lru.peek t.cache page with
  | Some c ->
    set_modified t c false;
    set_third t c None
  | None -> ());
  Lru.remove t.cache page;
  Hashtbl.remove t.dirty page;
  dropped t page;
  write_anchor t

let free_pages t = t.free_pages

let ensure_free t n = if n > t.free_pages then Fs_error.raise_ Fs_error.Name_table_full

let get_root t = t.anchor.root

let set_root t r =
  t.anchor.root <- r;
  write_anchor t

let fresh_uid t =
  let uid = t.anchor.next_uid in
  t.anchor.next_uid <- Int64.add uid 1L;
  write_anchor t;
  uid

let next_uid_peek t = t.anchor.next_uid

let bump_uid_floor t uid =
  if Int64.compare uid t.anchor.next_uid > 0 then begin
    t.anchor.next_uid <- uid;
    write_anchor t
  end

let page_in_use t page =
  page >= 0
  && page < Bitmap.length t.anchor.alloc_map
  && Bitmap.get t.anchor.alloc_map page

let allocated_pages t =
  let map = t.anchor.alloc_map in
  List.filter (Bitmap.get map) (List.init (Bitmap.length map - 1) succ)

(* ------------------------------------------------------------------ *)
(* Log integration                                                     *)

let framed_image t page =
  match Lru.peek t.cache page with
  | Some c -> frame t.layout ~page c.payload
  | None -> invalid_arg (Printf.sprintf "Fnt_store.framed_image: page %d not cached" page)

let mark_logged t pages ~third =
  List.iter
    (fun page ->
      match Lru.peek t.cache page with
      | Some c when c.dirty ->
        set_third t c (Some third);
        set_modified t c false;
        (* The payload is now itself the committed image. *)
        c.logged <- None
      | Some _ | None -> ())
    pages

let home_write t page c =
  (* A diverged page homes its retained committed image; the newer,
     uncommitted payload stays dirty and pinned until its own commit. *)
  let diverged = c.modified && c.logged <> None in
  let image = match c.logged with Some l when c.modified -> l | _ -> c.payload in
  write_home_image t.device t.layout ~page (frame t.layout ~page image);
  let now = Simclock.now (Device.clock t.device) in
  let tr = Device.trace t.device in
  if Cedar_obs.Trace.enabled tr then
    Cedar_obs.Trace.emit tr ~at:now (Cedar_obs.Trace.Fnt_write_twice { page });
  t.home_writes <- t.home_writes + 1;
  set_third t c None;
  c.logged <- None;
  if not diverged then begin
    Stats.add t.dirty_age (float_of_int (now - c.dirtied_at));
    c.dirty <- false;
    set_modified t c false;
    Hashtbl.remove t.dirty page;
    evicted t (Lru.unpin t.cache page)
  end

(* Pages that claim [third] and could not be safely homed: modified since
   their last commit with no retained committed image. Writing their
   payload home would make uncommitted state durable while the log copy
   that could roll it back is destroyed — refuse instead. Unreachable
   while the retention protocol in [write] holds. *)
let stalled_in_third t third =
  Hashtbl.fold
    (fun _ c n -> if c.third = Some third && c.modified && c.logged = None then n + 1 else n)
    t.dirty 0

let flush_third t third =
  (match stalled_in_third t third with
  | 0 -> ()
  | pinned_pages ->
    Fs_error.raise_ (Fs_error.Log_reclaim_stall { third; pinned_pages }));
  let victims = ref [] in
  Lru.iter t.cache (fun page c ->
      if c.dirty && c.third = Some third then victims := (page, c) :: !victims);
  List.iter (fun (page, c) -> home_write t page c) !victims;
  List.length !victims

(* Bounded variant for the background home-write demon: flush up to
   [budget] pages claiming [third], lowest page first, skipping (rather
   than raising on) any stalled page — the synchronous reclaim at third
   entry remains the correctness backstop. *)
let flush_some_third t third ~budget =
  let victims =
    if t.in_third.(third) = 0 then []
    else
      Hashtbl.fold
        (fun page c acc ->
          if c.third = Some third && not (c.modified && c.logged = None) then
            (page, c) :: acc
          else acc)
        t.dirty []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let n = ref 0 in
  List.iter
    (fun (page, c) ->
      if !n < budget then begin
        home_write t page c;
        incr n
      end)
    victims;
  !n

(* [flush_third] above and [flush_all_dirty] home pages in the cache's
   own iteration order, which sets the order of their home writes and so
   the simulated seeks; both are rare, so they keep walking the cache. *)
let flush_all_dirty t =
  let victims = ref [] in
  Lru.iter t.cache (fun page c -> if c.dirty then victims := (page, c) :: !victims);
  List.iter (fun (page, c) -> home_write t page c) !victims;
  List.length !victims

let dirty_pages t = List.sort compare (Hashtbl.fold (fun page _ acc -> page :: acc) t.dirty [])

let pages_to_log t =
  Hashtbl.fold (fun page c acc -> if c.modified then page :: acc else acc) t.dirty []
  |> List.sort compare

let pages_to_log_count t = t.to_log
let pages_in_third t third = t.in_third.(third)

(* The maintained counts, recomputed from the whole cache: a page
   counted here but missing from the dirty table breaks them too. *)
let recount t =
  let to_log = ref 0 and in_third = Array.make 3 0 in
  Lru.iter t.cache (fun _ c ->
      if c.modified then incr to_log;
      Option.iter (fun j -> in_third.(j) <- in_third.(j) + 1) c.third);
  (!to_log, in_third)

let cached_pages t = Lru.size t.cache

let drop_clean_cache t =
  let clean = ref [] in
  Lru.iter t.cache (fun page c -> if not c.dirty then clean := page :: !clean);
  List.iter
    (fun page ->
      Lru.remove t.cache page;
      dropped t page)
    !clean

let flush_anchor t =
  write_anchor t;
  ignore (flush_all_dirty t : int)

let home_writes t = t.home_writes
let repairs t = t.repairs
