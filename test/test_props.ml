(* Property-based tests over the core data structures and codecs, beyond
   the per-module suites: random-value roundtrips, reference-model
   equivalence, and order-preservation laws. *)

open Cedar_util
open Cedar_disk
open Cedar_fsbase

(* ------------------------------------------------------------------ *)
(* Bytebuf: a random sequence of typed values roundtrips. *)

type field =
  | F_u8 of int
  | F_u16 of int
  | F_u32 of int
  | F_u64 of int64
  | F_bool of bool
  | F_string of string
  | F_fixed of string

let field_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun n -> F_u8 (n land 0xff)) small_nat;
      map (fun n -> F_u16 (n land 0xffff)) nat;
      map (fun n -> F_u32 (n land 0xffffffff)) nat;
      map (fun n -> F_u64 (Int64.of_int n)) nat;
      map (fun b -> F_bool b) bool;
      map (fun s -> F_string s) (string_size (0 -- 40));
      map
        (fun s -> F_fixed (String.map (fun c -> if c = '\000' then 'x' else c) s))
        (string_size (0 -- 8));
    ]

let prop_bytebuf_roundtrip =
  QCheck.Test.make ~name:"bytebuf: random field sequences roundtrip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 30) field_gen))
    (fun fields ->
      let w = Bytebuf.Writer.create () in
      List.iter
        (function
          | F_u8 v -> Bytebuf.Writer.u8 w v
          | F_u16 v -> Bytebuf.Writer.u16 w v
          | F_u32 v -> Bytebuf.Writer.u32 w v
          | F_u64 v -> Bytebuf.Writer.u64 w v
          | F_bool v -> Bytebuf.Writer.bool w v
          | F_string v -> Bytebuf.Writer.string w v
          | F_fixed v -> Bytebuf.Writer.fixed_string w ~width:10 v)
        fields;
      let r = Bytebuf.Reader.of_bytes (Bytebuf.Writer.contents w) in
      List.for_all
        (function
          | F_u8 v -> Bytebuf.Reader.u8 r = v
          | F_u16 v -> Bytebuf.Reader.u16 r = v
          | F_u32 v -> Bytebuf.Reader.u32 r = v
          | F_u64 v -> Bytebuf.Reader.u64 r = v
          | F_bool v -> Bytebuf.Reader.bool r = v
          | F_string v -> Bytebuf.Reader.string r = v
          | F_fixed v -> Bytebuf.Reader.fixed_string r ~width:10 = v)
        fields
      && Bytebuf.Reader.remaining r = 0)

(* ------------------------------------------------------------------ *)
(* LRU vs a reference model (association list with recency). *)

let prop_lru_vs_reference =
  QCheck.Test.make ~name:"lru: equivalent to a recency-list model" ~count:150
    QCheck.(list (pair (int_bound 20) (option (int_bound 99))))
    (fun ops ->
      let capacity = 4 in
      let cache = Lru.create ~capacity in
      (* model: most-recent-first assoc list, never longer than capacity *)
      let model = ref [] in
      let model_find k =
        match List.assoc_opt k !model with
        | Some v ->
          model := (k, v) :: List.remove_assoc k !model;
          Some v
        | None -> None
      in
      let model_add k v =
        model := (k, v) :: List.remove_assoc k !model;
        if List.length !model > capacity then
          model := List.filteri (fun i _ -> i < capacity) !model
      in
      List.for_all
        (fun (k, op) ->
          match op with
          | Some v ->
            ignore (Lru.add cache k (string_of_int v));
            model_add k (string_of_int v);
            true
          | None ->
            let got = Lru.find cache k and expected = model_find k in
            got = expected)
        ops
      && List.for_all (fun (k, v) -> Lru.peek cache k = Some v) !model
      && Lru.size cache = List.length !model)

(* ------------------------------------------------------------------ *)
(* Fname: key order equals (name, version) order. *)

let name_gen =
  QCheck.Gen.(
    map
      (fun (a, b) -> Printf.sprintf "%c%s" (char_range 'a' 'z' |> generate1) (string_of_int (a mod 50) ^ b))
      (pair nat (oneofl [ ""; ".mesa"; ".bcd"; "/sub" ])))

let prop_fname_order =
  QCheck.Test.make ~name:"fname: key order = (name, version) order" ~count:300
    QCheck.(
      pair
        (pair (make name_gen) (int_range 1 999_999))
        (pair (make name_gen) (int_range 1 999_999)))
    (fun (((n1, v1)), ((n2, v2))) ->
      QCheck.assume (Fname.validate n1 = Ok () && Fname.validate n2 = Ok ());
      let k1 = Fname.key ~name:n1 ~version:v1 in
      let k2 = Fname.key ~name:n2 ~version:v2 in
      let expected = compare (n1, v1) (n2, v2) in
      compare (String.compare k1 k2) 0 = compare expected 0)

let prop_fname_bounds_bracket =
  QCheck.Test.make ~name:"fname: bounds bracket exactly the name's versions" ~count:300
    QCheck.(pair (make name_gen) (pair (make name_gen) (int_range 1 999_999)))
    (fun (bound_name, (key_name, v)) ->
      QCheck.assume (Fname.validate bound_name = Ok () && Fname.validate key_name = Ok ());
      let lo, hi = Fname.bounds ~name:bound_name in
      let k = Fname.key ~name:key_name ~version:v in
      let inside = String.compare lo k <= 0 && String.compare k hi < 0 in
      inside = String.equal bound_name key_name)

(* ------------------------------------------------------------------ *)
(* Entry and Header codecs under random contents. *)

let runs_gen =
  QCheck.Gen.(
    map
      (fun pieces ->
        let _, runs =
          List.fold_left
            (fun (base, acc) (gap, len) ->
              let start = base + gap in
              (start + len, { Run_table.start; len } :: acc))
            (10, [])
            pieces
        in
        Run_table.of_runs (List.rev runs))
      (list_size (0 -- 6) (pair (int_range 1 50) (int_range 1 30))))

let entry_gen =
  QCheck.Gen.(
    map
      (fun ((uid, keep, size), (runs, kind_pick, server)) ->
        let kind =
          match kind_pick with
          | 0 -> Entry.Local
          | 1 -> Entry.Symlink { target = server }
          | _ -> Entry.Cached { server; last_used = size * 3 }
        in
        {
          Entry.uid = Int64.of_int uid;
          keep = keep mod 10;
          byte_size = size;
          created = size * 7;
          runs;
          anchor = (if kind_pick = 1 then -1 else 9 + uid mod 1000);
          kind;
        })
      (pair (triple nat nat nat) (triple runs_gen (int_bound 2) (string_size (1 -- 12)))))

let prop_entry_roundtrip =
  QCheck.Test.make ~name:"entry: random entries roundtrip" ~count:300
    (QCheck.make entry_gen)
    (fun e -> Entry.equal e (Entry.decode (Entry.encode e)))

let prop_entry_decode_never_crashes =
  QCheck.Test.make ~name:"entry: random bytes decode or raise cleanly" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      match Entry.decode s with
      | _ -> true
      | exception Bytebuf.Decode_error _ -> true
      | exception Invalid_argument _ -> true)

let prop_leader_matches_entry =
  QCheck.Test.make ~name:"leader: of_entry always matches its entry" ~count:200
    (QCheck.make entry_gen)
    (fun e ->
      let open Cedar_fsd in
      let l = Leader.of_entry ~name:"prop/file" ~version:7 e in
      let b = Leader.encode l ~sector_bytes:512 in
      match Leader.decode b with
      | Some l' -> Leader.matches l' ~name:"prop/file" ~version:7 e
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Device: dump/load preserves everything observable. *)

let prop_device_dump_load =
  QCheck.Test.make ~name:"device: dump/load roundtrips content, labels, damage"
    ~count:40
    QCheck.(list (triple (int_bound 767) (int_bound 2) small_nat))
    (fun ops ->
      let geom = Geometry.tiny_test in
      let d = Device.create ~clock:(Simclock.create ()) geom in
      let sb = geom.Geometry.sector_bytes in
      List.iter
        (fun (sector, op, seed) ->
          match op with
          | 0 -> Device.write d sector (Bytes.make sb (Char.chr (seed mod 256)))
          | 1 ->
            Device.write_labels d ~sector
              [ { Label.uid = Int64.of_int seed; page = seed mod 7; kind = Label.Data } ]
          | _ -> Device.damage d sector)
        ops;
      let file = Filename.temp_file "cedarprop" ".img" in
      let oc = open_out_bin file in
      Device.dump d oc;
      close_out oc;
      let ic = open_in_bin file in
      let d' = Device.load ~clock:(Simclock.create ()) ic in
      close_in ic;
      Sys.remove file;
      List.for_all
        (fun (sector, _, _) ->
          Device.is_damaged d sector = Device.is_damaged d' sector
          && (Device.is_damaged d sector
             || (Bytes.equal (Device.read d sector) (Device.read d' sector)
                && Label.equal (Device.read_label d sector) (Device.read_label d' sector))))
        ops)

(* ------------------------------------------------------------------ *)
(* Log: random batches of records, then random 1-2 sector damage, still
   recover every record with the right final images. *)

let prop_log_random_batches_with_damage =
  QCheck.Test.make ~name:"log: random batches survive random 1-2 sector damage"
    ~count:40
    QCheck.(triple (int_bound 10_000) (int_range 1 12) (int_bound 3))
    (fun (seed, nrecords, damage_count) ->
      let open Cedar_fsd in
      let geom = Geometry.small_test in
      let layout = Layout.compute geom (Params.for_geometry geom) in
      let device = Device.create ~clock:(Simclock.create ()) geom in
      Log.format device layout;
      let log =
        Log.attach device layout ~boot_count:1 ~next_record_no:1_000_000L ~write_off:0
          ~on_enter_third:(fun _ -> ())
      in
      let rng = Rng.create (seed + 7) in
      let expected : (Log.unit_kind, char) Hashtbl.t = Hashtbl.create 16 in
      let first_off = ref None in
      let last_end = ref 0 in
      for _ = 1 to nrecords do
        let nunits = 1 + Rng.int rng 3 in
        let units =
          List.init nunits (fun _ ->
              let fill = Char.chr (97 + Rng.int rng 26) in
              let kind, sectors =
                if Rng.bool rng then (Log.Fnt_page (Rng.int rng 20), layout.Layout.params.Params.fnt_page_sectors)
                else (Log.Leader_page (5000 + Rng.int rng 50), 1)
              in
              Hashtbl.replace expected kind fill;
              { Log.kind; image = Bytes.make (sectors * 512) fill })
        in
        let size = Log.record_total_sectors layout units in
        (match !first_off with None -> first_off := Some 0 | Some _ -> ());
        ignore (Log.append log units : int);
        last_end := !last_end + size
      done;
      (* random damage inside the written region, 1-2 consecutive *)
      let body = layout.Layout.log_start + 3 in
      for _ = 1 to damage_count do
        let pos = Rng.int rng (max 1 !last_end) in
        Device.damage device (body + pos);
        if Rng.bool rng && pos + 1 < !last_end then Device.damage device (body + pos + 1)
      done;
      (* NOTE: the failure model is one fault at a time; with several
         random faults two copies of the same sector can die, so only
         require: every record recovered when damage is light. *)
      let r = Log.recover device layout in
      if damage_count <= 1 then
        r.Log.replayed_records = nrecords
        && Hashtbl.fold
             (fun kind fill acc ->
               acc
               && List.exists
                    (fun (k, img, _) -> k = kind && Bytes.get img 0 = fill)
                    r.Log.images)
             expected true
      else r.Log.replayed_records <= nrecords)

(* ------------------------------------------------------------------ *)
(* Bitmap run-search laws. *)

let prop_bitmap_find_run_correct =
  QCheck.Test.make ~name:"bitmap: find_run_set returns the lowest valid window"
    ~count:200
    QCheck.(pair (list (int_bound 99)) (int_range 1 6))
    (fun (set_bits, len) ->
      let b = Bitmap.create 100 in
      List.iter (Bitmap.set b) set_bits;
      let reference =
        let rec go pos =
          if pos + len > 100 then None
          else if Bitmap.all_set_in_run b ~pos ~len then Some pos
          else go (pos + 1)
        in
        go 0
      in
      Bitmap.find_run_set b ~from:0 ~upto:100 ~len = reference)

let prop_bitmap_find_run_down_correct =
  QCheck.Test.make ~name:"bitmap: find_run_set_down returns the highest valid window"
    ~count:200
    QCheck.(pair (list (int_bound 99)) (int_range 1 6))
    (fun (set_bits, len) ->
      let b = Bitmap.create 100 in
      List.iter (Bitmap.set b) set_bits;
      let reference =
        let rec go pos =
          if pos < 0 then None
          else if Bitmap.all_set_in_run b ~pos ~len then Some pos
          else go (pos - 1)
        in
        go (100 - len)
      in
      Bitmap.find_run_set_down b ~from:99 ~downto_:0 ~len = reference)

(* ------------------------------------------------------------------ *)
(* Vam: the pending freed-run list against the shadow-bitmap model it
   replaced. The model keeps deferred frees as a second bitmap, ORs it
   into the free map at commit and marks the chunk of every bit it held. *)

module Vam = Cedar_fsd.Vam
module Layout = Cedar_fsd.Layout

type vam_op = Allocate | Release | Shadow_release | Commit

type vam_model = {
  m_free : bool array;
  m_shadow : bool array;
  m_dirty : (int, unit) Hashtbl.t;
}

let vam_geom = Geometry.small_test
let vam_chunk_bits = 8 * vam_geom.Geometry.sector_bytes

let vam_op_gen =
  let open QCheck.Gen in
  (* Half the runs start near a chunk boundary, so some straddle two. *)
  let near_boundary =
    map2 (fun k d -> (k * vam_chunk_bits) + d - 8) (int_range 1 2) (int_bound 16)
  in
  triple
    (frequency
       [
         (3, return Allocate);
         (2, return Release);
         (3, return Shadow_release);
         (1, return Commit);
       ])
    (oneof [ int_bound (Geometry.total_sectors vam_geom - 1); near_boundary ])
    (int_range 1 12)

let vam_op_print (op, start, len) =
  Printf.sprintf "%s@%d+%d"
    (match op with
    | Allocate -> "allocate"
    | Release -> "release"
    | Shadow_release -> "shadow_release"
    | Commit -> "commit")
    start len

let model_count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

let model_image m c =
  let cb = vam_geom.Geometry.sector_bytes in
  let out = Bytes.make cb '\000' in
  for i = 0 to vam_chunk_bits - 1 do
    let s = (c * vam_chunk_bits) + i in
    if s < Array.length m.m_free && m.m_free.(s) then
      Bytes.set out (i lsr 3)
        (Char.chr (Char.code (Bytes.get out (i lsr 3)) lor (1 lsl (i land 7))))
  done;
  out

let model_mark m ~pos ~len =
  for s = pos to pos + len - 1 do
    Hashtbl.replace m.m_dirty (s / vam_chunk_bits) ()
  done

(* The first run of [len] at or after [from] (wrapping once) whose every
   sector satisfies [ok]. *)
let find_model_run total ok ~from ~len =
  let fits p =
    let rec go s = s >= p + len || (ok s && go (s + 1)) in
    p + len <= total && go p
  in
  let rec scan i =
    if i >= total then None
    else
      let p = (from + i) mod total in
      if fits p then Some p else scan (i + 1)
  in
  scan 0

let prop_vam_pending_runs_match_shadow_bitmap =
  QCheck.Test.make ~name:"vam: pending freed runs match the shadow-bitmap model"
    ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list vam_op_print)
       QCheck.Gen.(list_size (int_range 1 50) vam_op_gen))
    (fun ops ->
      let l = Layout.compute vam_geom (Cedar_fsd.Params.for_geometry vam_geom) in
      let v = Vam.create_all_free l in
      let total = Geometry.total_sectors vam_geom in
      let data = Layout.is_data_sector l in
      let m =
        {
          m_free = Array.init total data;
          m_shadow = Array.make total false;
          m_dirty = Hashtbl.create 8;
        }
      in
      let step (op, start, len) =
        let run ok = find_model_run total ok ~from:start ~len in
        match op with
        | Allocate -> (
          match run (fun s -> data s && m.m_free.(s)) with
          | None -> ()
          | Some pos ->
            Vam.allocate_run v ~pos ~len;
            Array.fill m.m_free pos len false;
            model_mark m ~pos ~len)
        | Release -> (
          match run (fun s -> data s && not m.m_free.(s)) with
          | None -> ()
          | Some pos ->
            Vam.release_run v ~pos ~len;
            Array.fill m.m_free pos len true;
            model_mark m ~pos ~len)
        | Shadow_release -> (
          match run (fun s -> data s && (not m.m_free.(s)) && not m.m_shadow.(s)) with
          | None -> ()
          | Some pos ->
            Vam.shadow_release_run v ~pos ~len;
            Array.fill m.m_shadow pos len true)
        | Commit ->
          Vam.commit_shadow v;
          Array.iteri
            (fun s pending ->
              if pending then begin
                model_mark m ~pos:s ~len:1;
                m.m_free.(s) <- true;
                m.m_shadow.(s) <- false
              end)
            m.m_shadow
      in
      let agree () =
        let chunks = List.init (Vam.chunk_count v) Fun.id in
        let model_drained =
          List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) m.m_dirty [])
        in
        Hashtbl.reset m.m_dirty;
        List.for_all
          (fun c -> Bytes.equal (Vam.chunk_image v c) (model_image m c))
          chunks
        && Vam.free_count v = model_count m.m_free
        && Vam.shadow_count v = model_count m.m_shadow
        && Vam.drain_dirty_chunks v = model_drained
      in
      Vam.chunk_count v > 1
      && agree ()
      && List.for_all
           (fun op ->
             step op;
             agree ())
           ops)

(* ------------------------------------------------------------------ *)
(* B-tree with its decoded-node memo vs a Map, over a store whose small
   LRU evicts, whose page count is capped, and whose pages are sometimes
   rewritten behind the tree's back. *)

exception Store_full

module Evicting_store = struct
  type t = {
    limit : int; (* page ids 0 .. limit-1 *)
    used : (int, unit) Hashtbl.t;
    home : (int, string) Hashtbl.t; (* each written page's current image *)
    cache : (int, string) Lru.t;
    mutable root : int option;
    mutable on_drop : (int -> unit) list;
  }

  let create ~limit ~cache =
    {
      limit;
      used = Hashtbl.create 64;
      home = Hashtbl.create 64;
      cache = Lru.create ~capacity:cache;
      root = None;
      on_drop = [];
    }

  let page_bytes _ = 256
  let on_drop t f = t.on_drop <- f :: t.on_drop
  let dropped t page = List.iter (fun f -> f page) t.on_drop
  let cache t page s = List.iter (fun (p, _) -> dropped t p) (Lru.add t.cache page s)

  (* A miss returns a fresh string, as a disk read would. *)
  let read t page =
    match Lru.find t.cache page with
    | Some s -> s
    | None ->
      let s = Bytes.to_string (Bytes.of_string (Hashtbl.find t.home page)) in
      cache t page s;
      s

  let write t page s =
    Hashtbl.replace t.home page s;
    cache t page s

  let alloc t =
    let rec go i =
      if i >= t.limit then raise Store_full
      else if Hashtbl.mem t.used i then go (i + 1)
      else i
    in
    let page = go 0 in
    Hashtbl.replace t.used page ();
    page

  let free t page =
    Hashtbl.remove t.used page;
    Hashtbl.remove t.home page;
    Lru.remove t.cache page;
    dropped t page

  let ensure_free t n = if n > t.limit - Hashtbl.length t.used then raise Store_full
  let get_root t = t.root
  let set_root t r = t.root <- r

  (* Out of band: the page gets a new image string while the cache keeps
     holding it, so no drop is reported. *)
  let rewrite t page s =
    Hashtbl.replace t.home page s;
    if Lru.mem t.cache page then cache t page s
end

module Bt = Cedar_btree.Btree.Make (Evicting_store)
module Sm = Map.Make (String)

type bt_op =
  | Bt_insert of int * int
  | Bt_delete of int
  | Bt_find of int
  | Bt_last_below of int
  | Bt_range of int * int
  | Bt_rewrite of int (* re-image a live page with an equal copy *)
  | Bt_snapshot
  | Bt_rollback (* re-image every page with its snapshot image *)

let bt_op_gen =
  let open QCheck.Gen in
  let k = int_bound 150 in
  frequency
    [
      (6, map2 (fun k len -> Bt_insert (k, len)) k (int_bound 40));
      (3, map (fun k -> Bt_delete k) k);
      (2, map (fun k -> Bt_find k) k);
      (2, map (fun k -> Bt_last_below k) k);
      (1, map2 (fun a b -> Bt_range (a, b)) k k);
      (1, map (fun i -> Bt_rewrite i) (int_bound 1000));
      (1, return Bt_snapshot);
      (1, return Bt_rollback);
    ]

let bt_op_print = function
  | Bt_insert (k, len) -> Printf.sprintf "insert %d/%d" k len
  | Bt_delete k -> Printf.sprintf "delete %d" k
  | Bt_find k -> Printf.sprintf "find %d" k
  | Bt_last_below k -> Printf.sprintf "last_below %d" k
  | Bt_range (a, b) -> Printf.sprintf "range %d-%d" a b
  | Bt_rewrite i -> Printf.sprintf "rewrite %d" i
  | Bt_snapshot -> "snapshot"
  | Bt_rollback -> "rollback"

let prop_btree_memo_vs_map =
  QCheck.Test.make ~name:"btree: memoised tree matches a Map over an evicting store"
    ~count:120
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list bt_op_print))
       QCheck.Gen.(
         triple (int_range 2 16) (int_range 1 6) (list_size (int_range 1 120) bt_op_gen)))
    (fun (limit, cache, ops) ->
      let s = Evicting_store.create ~limit ~cache in
      let t = Bt.attach s in
      let model = ref Sm.empty in
      let snapshot = ref None in
      let key k = Printf.sprintf "k%03d" k in
      let value k len = String.make len (Char.chr (97 + ((k + len) mod 26))) in
      let bindings tree = List.rev (Bt.fold_range tree ~init:[] ~f:(fun acc k v -> (k, v) :: acc)) in
      let range lo hi m = List.filter (fun (k, _) -> lo <= k && k < hi) (Sm.bindings m) in
      (* Queries answer the same on the warm tree, on a cold one and on the model. *)
      let query f expected =
        let cold = Bt.attach s in
        f t = expected && f cold = expected
      in
      let step = function
        | Bt_insert (k, len) -> (
          match Bt.insert t ~key:(key k) ~value:(value k len) with
          | () ->
            model := Sm.add (key k) (value k len) !model;
            true
          | exception Store_full -> true)
        | Bt_delete k ->
          let was = Sm.mem (key k) !model in
          model := Sm.remove (key k) !model;
          Bt.delete t (key k) = was
        | Bt_find k -> query (fun tree -> Bt.find tree (key k)) (Sm.find_opt (key k) !model)
        | Bt_last_below k ->
          query
            (fun tree -> Bt.find_last_below tree (key k))
            (Sm.find_last_opt (fun k' -> String.compare k' (key k) < 0) !model)
        | Bt_range (a, b) ->
          let lo = key (min a b) and hi = key (max a b) in
          query
            (fun tree ->
              List.rev (Bt.fold_range ~lo ~hi tree ~init:[] ~f:(fun acc k v -> (k, v) :: acc)))
            (range lo hi !model)
        | Bt_rewrite i ->
          let live = List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) s.used []) in
          (match live with
          | [] -> ()
          | _ ->
            let page = List.nth live (i mod List.length live) in
            Evicting_store.rewrite s page
              (Bytes.to_string (Bytes.of_string (Hashtbl.find s.home page))));
          true
        | Bt_snapshot ->
          snapshot := Some (Hashtbl.copy s.home, Hashtbl.copy s.used, s.root, !model);
          true
        | Bt_rollback ->
          (match !snapshot with
          | None -> ()
          | Some (home, used, root, m) ->
            Hashtbl.iter
              (fun p () -> if not (Hashtbl.mem used p) then Evicting_store.free s p)
              (Hashtbl.copy s.used);
            Hashtbl.iter (fun p img -> Evicting_store.rewrite s p img) home;
            Hashtbl.reset s.used;
            Hashtbl.iter (fun p () -> Hashtbl.replace s.used p ()) used;
            s.root <- root;
            model := m);
          true
      in
      let consistent () =
        let live = List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) s.used []) in
        Bt.check t = Ok ()
        && bindings t = Sm.bindings !model
        && bindings (Bt.attach s) = Sm.bindings !model
        && List.sort compare (Bt.page_ids t) = live
        && Bt.cached_nodes t <= Lru.size s.cache
      in
      List.for_all (fun op -> step op && consistent ()) ops)

(* ------------------------------------------------------------------ *)
(* Fsd: random creates, deletes, forces, demon ticks and full home-write
   passes on a tiny volume whose log wraps every few forces. After every
   step [Fsd.check] holds — among its clauses, the maintained counts of
   dirty pages to log, of dirty pages and pending leaders per log third —
   and the name table holds exactly the model's names. *)

module Fsd = Cedar_fsd.Fsd

type fsd_op =
  | Fs_create of int * int
  | Fs_create_empty of int * int (* leader goes through the log *)
  | Fs_delete of int
  | Fs_force
  | Fs_tick of int (* demons: interval commit and home-write bursts *)
  | Fs_home_all (* every dirty page and leader written home *)

let fsd_op_gen =
  let open QCheck.Gen in
  let k = int_bound 39 in
  frequency
    [
      (5, map2 (fun k n -> Fs_create (k, n)) k (int_bound 2000));
      (2, map2 (fun k p -> Fs_create_empty (k, p)) k (int_range 1 3));
      (4, map (fun k -> Fs_delete k) k);
      (2, return Fs_force);
      (2, map (fun us -> Fs_tick us) (int_range 1_000 300_000));
      (1, return Fs_home_all);
    ]

let fsd_op_print = function
  | Fs_create (k, n) -> Printf.sprintf "create %d/%d" k n
  | Fs_create_empty (k, p) -> Printf.sprintf "create_empty %d/%d" k p
  | Fs_delete k -> Printf.sprintf "delete %d" k
  | Fs_force -> "force"
  | Fs_tick us -> Printf.sprintf "tick %d" us
  | Fs_home_all -> "home all"

let prop_fsd_counts_hold =
  QCheck.Test.make ~count:40
    ~name:"fsd: check (maintained counts included) holds after every step"
    (QCheck.make
       ~print:QCheck.Print.(list fsd_op_print)
       QCheck.Gen.(list_size (int_range 1 150) fsd_op_gen))
    (fun ops ->
      let geom = Geometry.tiny_test in
      let device = Device.create ~clock:(Simclock.create ()) geom in
      Fsd.format device (Cedar_fsd.Params.for_geometry geom);
      let fs, _ = Fsd.boot device in
      (* Long names spread the name table over several pages, so creates
         split pages and deletes free them. *)
      let name k = Printf.sprintf "d/%s%02d" (String.make 48 'n') k in
      let live = Array.make 40 false in
      let attempt k f =
        match f () with
        | (_ : Fs_ops.info) -> live.(k) <- true
        | exception
            Fs_error.Fs_error
              (Fs_error.Volume_full | Fs_error.Name_table_full
              | Fs_error.Too_fragmented _) ->
          ()
      in
      let step = function
        | Fs_create (k, n) ->
          attempt k (fun () ->
              Fsd.create fs ~name:(name k) ~keep:1 (Bytes.make n (Char.chr (k + 65))))
        | Fs_create_empty (k, pages) ->
          attempt k (fun () -> Fsd.create_empty fs ~name:(name k) ~keep:1 ~pages ())
        | Fs_delete k ->
          if live.(k) then begin
            Fsd.delete fs ~name:(name k);
            live.(k) <- false
          end
        | Fs_force -> Fsd.force fs
        | Fs_tick us -> Fsd.tick fs ~us
        | Fs_home_all -> Fsd.drop_caches fs
      in
      List.iter
        (fun op ->
          step op;
          (match Fsd.check fs with
          | Ok () -> ()
          | Error m -> QCheck.Test.fail_reportf "after %s: %s" (fsd_op_print op) m);
          Array.iteri
            (fun k l ->
              if Fsd.exists fs ~name:(name k) <> l then
                QCheck.Test.fail_reportf "after %s: name %d live=%b" (fsd_op_print op) k
                  l)
            live)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Geometry: chs mapping is a bijection for random geometries. *)

let prop_geometry_chs_bijection =
  QCheck.Test.make ~name:"geometry: sector<->chs bijection" ~count:60
    QCheck.(triple (int_range 2 30) (int_range 1 8) (int_range 4 40))
    (fun (cylinders, heads, sectors_per_track) ->
      let g =
        {
          Geometry.cylinders;
          heads;
          sectors_per_track;
          sector_bytes = 512;
          rpm = 3600;
          min_seek_us = 1000;
          avg_seek_us = 5000;
          max_seek_us = 9000;
          head_switch_us = 100;
        }
      in
      let total = Geometry.total_sectors g in
      let ok = ref true in
      for s = 0 to total - 1 do
        if Geometry.of_chs g (Geometry.to_chs g s) <> s then ok := false
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bytebuf_roundtrip;
      prop_lru_vs_reference;
      prop_fname_order;
      prop_fname_bounds_bracket;
      prop_entry_roundtrip;
      prop_entry_decode_never_crashes;
      prop_leader_matches_entry;
      prop_device_dump_load;
      prop_log_random_batches_with_damage;
      prop_bitmap_find_run_correct;
      prop_bitmap_find_run_down_correct;
      prop_vam_pending_runs_match_shadow_bitmap;
      prop_btree_memo_vs_map;
      prop_fsd_counts_hold;
      prop_geometry_chs_bijection;
    ]
