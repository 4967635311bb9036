open Cedar_util

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Bytebuf                                                             *)

let test_bytebuf_roundtrip () =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u8 w 0xab;
  Bytebuf.Writer.u16 w 0xbeef;
  Bytebuf.Writer.u32 w 0xdeadbeef;
  Bytebuf.Writer.u64 w 0x1122334455667788L;
  Bytebuf.Writer.i64 w (-42);
  Bytebuf.Writer.bool w true;
  Bytebuf.Writer.string w "hello";
  Bytebuf.Writer.bytes w (Bytes.of_string "\x00\x01\x02");
  Bytebuf.Writer.fixed_string w ~width:8 "abc";
  Bytebuf.Writer.list w Bytebuf.Writer.u16 [ 1; 2; 3 ];
  let r = Bytebuf.Reader.of_bytes (Bytebuf.Writer.contents w) in
  check int "u8" 0xab (Bytebuf.Reader.u8 r);
  check int "u16" 0xbeef (Bytebuf.Reader.u16 r);
  check int "u32" 0xdeadbeef (Bytebuf.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Bytebuf.Reader.u64 r);
  check int "i64" (-42) (Bytebuf.Reader.i64 r);
  check bool "bool" true (Bytebuf.Reader.bool r);
  check Alcotest.string "string" "hello" (Bytebuf.Reader.string r);
  check Alcotest.string "bytes" "\x00\x01\x02"
    (Bytes.to_string (Bytebuf.Reader.bytes r));
  check Alcotest.string "fixed" "abc" (Bytebuf.Reader.fixed_string r ~width:8);
  check (Alcotest.list int) "list" [ 1; 2; 3 ]
    (Bytebuf.Reader.list r Bytebuf.Reader.u16);
  check int "consumed all" 0 (Bytebuf.Reader.remaining r)

let test_bytebuf_truncated () =
  let r = Bytebuf.Reader.of_bytes (Bytes.of_string "\x01") in
  Alcotest.check_raises "u32 on 1 byte"
    (Bytebuf.Decode_error "truncated input (need 4 at 0, limit 1)") (fun () ->
      ignore (Bytebuf.Reader.u32 r))

let test_bytebuf_sector_pad () =
  let w = Bytebuf.Writer.create () in
  Bytebuf.Writer.u32 w 7;
  let s = Bytebuf.Writer.to_sector w ~size:512 in
  check int "padded" 512 (Bytes.length s);
  check int "tail zero" 0 (Char.code (Bytes.get s 511))

let test_bytebuf_bad_bool () =
  let r = Bytebuf.Reader.of_bytes (Bytes.of_string "\x07") in
  Alcotest.check_raises "bad bool" (Bytebuf.Decode_error "invalid boolean byte 7")
    (fun () -> ignore (Bytebuf.Reader.bool r))

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)

let test_crc32_known () =
  (* Standard test vector: CRC-32("123456789") = 0xcbf43926. *)
  check int "vector" 0xcbf43926 (Crc32.string "123456789");
  check int "empty" 0 (Crc32.string "")

let test_crc32_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  check int "slice" 0xcbf43926 (Crc32.bytes ~pos:2 ~len:9 b)

(* Bit at a time, no table: shares nothing with the sliced version. *)
let crc32_reference b ~pos ~len =
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

let test_crc32_matches_reference () =
  let rng = Random.State.make [| 32 |] in
  for len = 0 to 2048 do
    let b = Bytes.init (len + 9) (fun _ -> Char.chr (Random.State.int rng 256)) in
    let whole = Bytes.sub b 0 len in
    let expect = crc32_reference whole ~pos:0 ~len in
    if Crc32.bytes whole <> expect || Crc32.string (Bytes.to_string whole) <> expect
    then Alcotest.failf "length %d" len;
    (* An unaligned slice and its tail: every start offset mod 8 is hit. *)
    let pos = 1 + (len mod 8) in
    if Crc32.bytes ~pos ~len b <> crc32_reference b ~pos ~len then
      Alcotest.failf "slice pos %d len %d" pos len;
    if Crc32.bytes ~pos b <> crc32_reference b ~pos ~len:(len + 9 - pos) then
      Alcotest.failf "tail from pos %d of %d" pos (len + 9)
  done

let test_crc32_bad_range () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %s" pos
           (match len with Some l -> string_of_int l | None -> "-"))
        (Invalid_argument "Crc32.bytes")
        (fun () -> ignore (Crc32.bytes ~pos ?len b)))
    [ (-1, None); (0, Some (-1)); (0, Some 17); (9, Some 8); (17, None); (16, Some 1) ]

(* ------------------------------------------------------------------ *)
(* Bitmap                                                              *)

let test_bitmap_basic () =
  let b = Bitmap.create 100 in
  check int "empty count" 0 (Bitmap.count b);
  Bitmap.set b 0;
  Bitmap.set b 63;
  Bitmap.set b 99;
  check bool "get 0" true (Bitmap.get b 0);
  check bool "get 1" false (Bitmap.get b 1);
  check int "count" 3 (Bitmap.count b);
  Bitmap.clear b 63;
  check bool "cleared" false (Bitmap.get b 63);
  check int "count after clear" 2 (Bitmap.count b)

let test_bitmap_runs () =
  let b = Bitmap.create 64 in
  Bitmap.set_run b ~pos:10 ~len:20;
  check bool "run set" true (Bitmap.all_set_in_run b ~pos:10 ~len:20);
  check int "count_run straddles" 5 (Bitmap.count_run b ~pos:5 ~len:10);
  check bool "beyond run" false (Bitmap.all_set_in_run b ~pos:10 ~len:21);
  check (Alcotest.option int) "find up" (Some 10)
    (Bitmap.find_run_set b ~from:0 ~upto:64 ~len:5);
  check (Alcotest.option int) "find exact" (Some 10)
    (Bitmap.find_run_set b ~from:0 ~upto:64 ~len:20);
  check (Alcotest.option int) "find too long" None
    (Bitmap.find_run_set b ~from:0 ~upto:64 ~len:21);
  check (Alcotest.option int) "find down" (Some 25)
    (Bitmap.find_run_set_down b ~from:63 ~downto_:0 ~len:5);
  Bitmap.clear_run b ~pos:10 ~len:20;
  check int "cleared all" 0 (Bitmap.count b)

let test_bitmap_bytes_roundtrip () =
  let b = Bitmap.create 37 in
  Bitmap.set b 0;
  Bitmap.set b 36;
  Bitmap.set b 17;
  let b' = Bitmap.of_bytes ~bits:37 (Bitmap.to_bytes b) in
  check bool "equal" true (Bitmap.equal b b');
  let window = Bytes.make 4 'x' in
  Bitmap.blit_bytes b ~off:2 window ~dst_off:1 ~len:2;
  check Alcotest.string "blit copies only the span"
    (Bytes.sub_string (Bitmap.to_bytes b) 2 2)
    (Bytes.sub_string window 1 2);
  check Alcotest.char "left untouched" 'x' (Bytes.get window 0)

let prop_bitmap_vs_reference =
  QCheck.Test.make ~name:"bitmap matches reference set semantics" ~count:200
    QCheck.(list (pair (int_bound 199) bool))
    (fun ops ->
      let bm = Bitmap.create 200 in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (i, v) ->
          Bitmap.assign bm i v;
          if v then Hashtbl.replace reference i () else Hashtbl.remove reference i)
        ops;
      Hashtbl.length reference = Bitmap.count bm
      && List.for_all (fun (i, _) -> Bitmap.get bm i = Hashtbl.mem reference i) ops)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 2 "b");
  ignore (Lru.find c 1); (* promote 1; 2 is now LRU *)
  let evicted = Lru.add c 3 "c" in
  check (Alcotest.list (Alcotest.pair int Alcotest.string)) "evicted LRU"
    [ (2, "b") ] evicted;
  check bool "1 kept" true (Lru.mem c 1);
  check bool "3 kept" true (Lru.mem c 3)

let test_lru_pinned_never_evicted () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  Lru.pin c 1;
  ignore (Lru.add c 2 "b");
  ignore (Lru.add c 3 "c");
  ignore (Lru.add c 4 "d");
  check bool "pinned survives" true (Lru.mem c 1);
  (* 1 is the least recently used, so unpinning it past capacity evicts it *)
  check (Alcotest.list (Alcotest.pair int Alcotest.string)) "unpin evicts"
    [ (1, "a") ] (Lru.unpin c 1);
  ignore (Lru.add c 5 "e");
  check int "capacity respected after unpin" 2 (Lru.size c)

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 1 "a2");
  check (Alcotest.option Alcotest.string) "replaced" (Some "a2") (Lru.find c 1);
  check int "size 1" 1 (Lru.size c)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r ~lo:5 ~hi:10 in
    check bool "in range" true (v >= 5 && v <= 10)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  check bool "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Simclock, Stats                                                     *)

let test_simclock () =
  let c = Simclock.create () in
  check int "starts at 0" 0 (Simclock.now c);
  Simclock.advance c 500;
  check int "advanced" 500 (Simclock.now c);
  Simclock.advance_to c 400;
  check int "no going back" 500 (Simclock.now c);
  Simclock.advance_to c 600;
  check int "forward" 600 (Simclock.now c)

let test_stats () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check int "n" 4 (Stats.n s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "p50" 2.0 (Stats.percentile s 0.5);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile s 1.0)

let test_percentile_edges () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; 1.0; 3.0 ];
  check (Alcotest.float 1e-9) "p0 is the minimum" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "below 0 clamps to min" 1.0 (Stats.percentile s (-0.7));
  check (Alcotest.float 1e-9) "above 1 clamps to max" 5.0 (Stats.percentile s 2.5);
  check bool "empty series still raises" true
    (match Stats.percentile (Stats.create ()) 0.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_histogram () =
  let h = Stats.Histogram.create ~bucket_width:10 in
  List.iter (Stats.Histogram.add h) [ 1; 5; 11; 25; 27 ];
  check
    (Alcotest.list (Alcotest.pair int int))
    "buckets"
    [ (0, 2); (10, 1); (20, 2) ]
    (Stats.Histogram.buckets h)

let suite =
  [
    ("bytebuf roundtrip", `Quick, test_bytebuf_roundtrip);
    ("bytebuf truncated", `Quick, test_bytebuf_truncated);
    ("bytebuf sector pad", `Quick, test_bytebuf_sector_pad);
    ("bytebuf bad bool", `Quick, test_bytebuf_bad_bool);
    ("crc32 known vector", `Quick, test_crc32_known);
    ("crc32 slice", `Quick, test_crc32_slice);
    ("crc32 matches a bitwise reference", `Quick, test_crc32_matches_reference);
    ("crc32 rejects a bad range", `Quick, test_crc32_bad_range);
    ("bitmap basic", `Quick, test_bitmap_basic);
    ("bitmap runs", `Quick, test_bitmap_runs);
    ("bitmap bytes roundtrip", `Quick, test_bitmap_bytes_roundtrip);
    QCheck_alcotest.to_alcotest prop_bitmap_vs_reference;
    ("lru eviction order", `Quick, test_lru_eviction_order);
    ("lru pinned never evicted", `Quick, test_lru_pinned_never_evicted);
    ("lru replace", `Quick, test_lru_replace);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("simclock", `Quick, test_simclock);
    ("stats", `Quick, test_stats);
    ("percentile edges", `Quick, test_percentile_edges);
    ("histogram", `Quick, test_histogram);
  ]
