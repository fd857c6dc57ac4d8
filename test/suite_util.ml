(* Tests for Cdutil: deterministic RNG, MurmurHash3 reference vectors,
   descriptive statistics, JSON output. *)

open Cdutil

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next64 a <> Rng.next64 b then differs := true
  done;
  check_bool "streams differ across seeds" true !differs

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    check_bool "in inclusive range" true (v >= -5 && v <= 5)
  done

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let _ = Rng.next64 a in
  let b = Rng.copy a in
  check_int "copies agree" 0 (Int64.compare (Rng.next64 a) (Rng.next64 b))

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_mix_stable () =
  check_int "mix is a function" (Rng.mix 12 34) (Rng.mix 12 34);
  check_bool "mix separates pairs" true (Rng.mix 12 34 <> Rng.mix 34 12);
  check_bool "mix non-negative" true (Rng.mix 5 6 >= 0)

let test_rng_bytes_len () =
  let r = Rng.create 5 in
  check_int "requested length" 33 (Bytes.length (Rng.bytes r 33))

let rng_props =
  let open QCheck in
  [
    Test.make ~name:"Rng.int always within bound" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let r = Rng.create seed in
        let v = Rng.int r bound in
        v >= 0 && v < bound);
    Test.make ~name:"Rng.float in [0,1)" ~count:500 small_int (fun seed ->
        let r = Rng.create seed in
        let f = Rng.float r in
        f >= 0. && f < 1.);
  ]

(* --- Murmur3: reference vectors from the canonical C++ implementation --- *)

let test_murmur_empty () =
  Alcotest.(check int32) "empty/0" 0l (Murmur3.hash32 "")

let test_murmur_vectors () =
  (* Known-answer tests for MurmurHash3_x86_32. *)
  let cases =
    [
      ("", 0x1l, 0x514E28B7l);
      ("", 0xffffffffl, 0x81F16F39l);
      ("hello", 0l, 0x248BFA47l);
      ("hello, world", 0l, 0x149BBB7Fl);
      ("The quick brown fox jumps over the lazy dog", 0l, 0x2E4FF723l);
      ("aaaa", 0x9747b28cl, 0x5A97808Al);
      ("aaa", 0x9747b28cl, 0x283E0130l);
      ("aa", 0x9747b28cl, 0x5D211726l);
      ("a", 0x9747b28cl, 0x7FA09EA6l);
    ]
  in
  List.iter
    (fun (s, seed, want) ->
      Alcotest.(check int32) (Printf.sprintf "murmur3(%S)" s) want
        (Murmur3.hash32 ~seed s))
    cases

let test_murmur_distinct () =
  check_bool "different strings hash differently" true
    (Murmur3.hash32 "output A" <> Murmur3.hash32 "output B")

let test_murmur_hash_nonneg () =
  List.iter
    (fun s -> check_bool "non-negative" true (Murmur3.hash s >= 0))
    [ ""; "x"; "hello"; String.make 1000 'z' ]

(* --- Murmur3 streaming: bit-identical to hashing the concatenation --- *)

let test_murmur_stream_cases () =
  let cases =
    [
      [];
      [ "" ];
      [ "hello"; ", "; "world" ];
      [ "a"; ""; "b"; "cd"; "efghij" ];
      [ "out\x00put"; "\x00"; "exit(0)" ];
      [ String.make 1023 'q'; "x" ];
      [ "1"; "2"; "3"; "4"; "5" ];
    ]
  in
  List.iter
    (fun parts ->
      Alcotest.(check int32)
        (Printf.sprintf "parts %s" (String.concat "|" parts))
        (Murmur3.hash32 (String.concat "" parts))
        (Murmur3.hash32_parts parts))
    cases

let murmur_stream_props =
  let open QCheck in
  [
    Test.make ~name:"hash32_parts = hash32 of concat" ~count:500
      (pair small_int (small_list (string_gen_of_size (Gen.int_range 0 9) Gen.char)))
      (fun (seed, parts) ->
        let seed = Int32.of_int seed in
        Murmur3.hash32_parts ~seed parts
        = Murmur3.hash32 ~seed (String.concat "" parts));
  ]

(* --- Pool --- *)

let test_pool_map_order () =
  let p = Pool.create ~jobs:4 () in
  let xs = List.init 200 Fun.id in
  let got = Pool.map ~pool:p (fun i -> (i * i) + 1) xs in
  Pool.shutdown p;
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun i -> (i * i) + 1) xs)
    got

let test_pool_jobs1_inline () =
  let p = Pool.create ~jobs:1 () in
  let got = Pool.map ~pool:p string_of_int [ 1; 2; 3 ] in
  Pool.shutdown p;
  Alcotest.(check (list string)) "sequential degenerate" [ "1"; "2"; "3" ] got

let test_pool_exception_propagation () =
  let p = Pool.create ~jobs:4 () in
  let ran = Atomic.make 0 in
  (try
     ignore
       (Pool.map ~pool:p
          (fun i ->
            Atomic.incr ran;
            if i = 37 then failwith "boom";
            i)
          (List.init 64 Fun.id));
     Alcotest.fail "expected Failure"
   with Failure msg -> Alcotest.(check string) "original exn" "boom" msg);
  (* every task still ran to completion, and the pool stays usable *)
  check_int "all tasks ran" 64 (Atomic.get ran);
  let again = Pool.map ~pool:p (fun i -> i + 1) [ 1; 2; 3 ] in
  Pool.shutdown p;
  Alcotest.(check (list int)) "pool usable after failure" [ 2; 3; 4 ] again

let test_pool_nested_map () =
  let p = Pool.create ~jobs:3 () in
  let got =
    Pool.map ~pool:p
      (fun i -> List.fold_left ( + ) 0 (Pool.map ~pool:p (fun j -> (i * 10) + j) [ 1; 2; 3 ]))
      [ 1; 2; 3; 4 ]
  in
  Pool.shutdown p;
  Alcotest.(check (list int)) "nested maps don't deadlock"
    (List.map (fun i -> (3 * i * 10) + 6) [ 1; 2; 3; 4 ])
    got

let test_pool_run_and_shutdown_idempotent () =
  let p = Pool.create ~jobs:2 () in
  let got = Pool.run ~pool:p [ (fun () -> "a"); (fun () -> "b") ] in
  Alcotest.(check (list string)) "run order" [ "a"; "b" ] got;
  Pool.shutdown p;
  Pool.shutdown p;
  (* a shut-down pool still executes batches on the caller *)
  let late = Pool.map ~pool:p (fun i -> -i) [ 4; 5 ] in
  Alcotest.(check (list int)) "works after shutdown" [ -4; -5 ] late

(* --- Pool.async / await --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* spin until a worker has claimed and started a task, so the await
   below takes the helping path rather than running it inline *)
let wait_started started =
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done

let test_async_size1_runs_at_await () =
  let p = Pool.create ~jobs:1 () in
  let ran = ref false in
  let pr =
    Pool.async ~pool:p (fun () ->
        ran := true;
        Domain.self ())
  in
  check_bool "nothing runs before await" false !ran;
  let dom = Pool.await pr in
  check_bool "ran at await" true !ran;
  check_bool "on the awaiting domain" true (dom = Domain.self ());
  Pool.shutdown p

let[@inline never] boom_in_task started () =
  Atomic.set started true;
  if Atomic.get started then raise (Failure "async boom");
  0

let test_async_exception_backtrace () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let p = Pool.create ~jobs:2 () in
  let started = Atomic.make false in
  let pr = Pool.async ~pool:p (boom_in_task started) in
  wait_started started;
  (match Pool.await pr with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
      Alcotest.(check string) "original exn" "async boom" msg;
      check_bool "backtrace names the raising task" true
        (contains bt "boom_in_task"));
  Pool.shutdown p;
  Printexc.record_backtrace recording

let test_async_nested_map () =
  let p = Pool.create ~jobs:2 () in
  let started = Atomic.make false in
  let pr =
    Pool.async ~pool:p (fun () ->
        Atomic.set started true;
        List.fold_left ( + ) 0
          (Pool.map ~pool:p (fun i -> i * i) (List.init 200 Fun.id)))
  in
  wait_started started;
  check_int "nested map inside an awaited task"
    (List.fold_left ( + ) 0 (List.init 200 (fun i -> i * i)))
    (Pool.await pr);
  Pool.shutdown p

let test_async_after_shutdown_inline () =
  let p = Pool.create ~jobs:2 () in
  Pool.shutdown p;
  let pr = Pool.async ~pool:p (fun () -> Domain.self ()) in
  check_bool "a shut-down pool runs the task on the awaiting domain" true
    (Pool.await pr = Domain.self ())

let test_async_many_in_order () =
  let p = Pool.create ~jobs:2 () in
  let prs = List.init 1000 (fun i -> Pool.async ~pool:p (fun () -> (i * 3) + 1)) in
  let got = List.map Pool.await prs in
  Pool.shutdown p;
  Alcotest.(check (list int)) "1000 promises, awaited in order"
    (List.init 1000 (fun i -> (i * 3) + 1))
    got

let pool_props =
  let open QCheck in
  [
    Test.make ~name:"Pool.map agrees with List.map" ~count:50
      (pair (int_range 1 4) (small_list small_int))
      (fun (jobs, xs) ->
        let p = Pool.create ~jobs () in
        let got = Pool.map ~pool:p (fun x -> (x * 7) - 1) xs in
        Pool.shutdown p;
        got = List.map (fun x -> (x * 7) - 1) xs);
  ]

(* --- Stats --- *)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_stats_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.percentile 0.5 xs);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.percentile 1. xs);
  Alcotest.(check (float 1e-9)) "q1" 2. (Stats.percentile 0.25 xs)

let test_stats_box () =
  let b = Stats.box_of_ints [ 5; 1; 3; 2; 4 ] in
  Alcotest.(check (float 1e-9)) "median" 3. b.Stats.median;
  Alcotest.(check (float 1e-9)) "min" 1. b.Stats.minimum;
  Alcotest.(check (float 1e-9)) "max" 5. b.Stats.maximum;
  check_int "count" 5 b.Stats.count

let test_stats_singleton () =
  let b = Stats.box_of [ 7. ] in
  Alcotest.(check (float 1e-9)) "all equal" 7. b.Stats.q1;
  Alcotest.(check (float 1e-9)) "all equal" 7. b.Stats.q3

let stats_props =
  let open QCheck in
  [
    Test.make ~name:"percentile is monotone in p" ~count:300
      (list_of_size (Gen.int_range 1 30) (float_bound_exclusive 100.))
      (fun xs ->
        let p25 = Stats.percentile 0.25 xs
        and p75 = Stats.percentile 0.75 xs in
        p25 <= p75);
    Test.make ~name:"mean within [min,max]" ~count:300
      (list_of_size (Gen.int_range 1 30) (float_bound_exclusive 100.))
      (fun xs ->
        let b = Stats.box_of xs in
        b.Stats.mean >= b.Stats.minimum -. 1e-9
        && b.Stats.mean <= b.Stats.maximum +. 1e-9);
  ]

(* --- Tablefmt --- *)

let test_table_render () =
  let out =
    Tablefmt.render ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check_int "4 lines" 4 (List.length lines);
  (* all lines share the same width *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> check_int "aligned" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "no output"

let test_table_pct () =
  Alcotest.(check string) "pct" "37%" (Tablefmt.pct 0.372);
  Alcotest.(check string) "pct0" "0%" (Tablefmt.pct 0.);
  Alcotest.(check string) "pct100" "100%" (Tablefmt.pct 1.)

let tc name f = Alcotest.test_case name `Quick f

(* --- Json --- *)

let json = Alcotest.(check string)

(* any bytes render as printable ASCII, byte n as code point n *)
let test_json_bytes () =
  let all = String.init 256 Char.chr in
  let out = Json.(to_string (String all)) in
  check_bool "all 256 bytes: printable ASCII" true
    (String.for_all (fun c -> c >= ' ' && c <= '~') out);
  json "quote" {|"\""|} Json.(to_string (String "\""));
  json "backslash" {|"\\"|} Json.(to_string (String "\\"));
  json "newline" {|"\n"|} Json.(to_string (String "\n"));
  json "0x01" {|"\u0001"|} Json.(to_string (String "\x01"));
  json "0xff" {|"\u00ff"|} Json.(to_string (String "\xff"))

let test_json_numbers_layout () =
  json "nan" "null" Json.(to_string (Float nan));
  json "infinity" "null" Json.(to_string (Float infinity));
  json "integral float" "3" Json.(to_string (Float 3.));
  json "fraction" "0.666667" Json.(to_string (Float (2. /. 3.)));
  json "layout" {|{"a": [1, true, null], "b": {}}|}
    Json.(to_string (Obj [ ("a", List [ Int 1; Bool true; Null ]); ("b", Obj []) ]))

let suites =
  [
    ( "util.rng",
      [
        tc "determinism" test_rng_determinism;
        tc "seed sensitivity" test_rng_seed_sensitivity;
        tc "bounds" test_rng_bounds;
        tc "int_in bounds" test_rng_int_in;
        tc "copy" test_rng_copy_independent;
        tc "shuffle permutes" test_rng_shuffle_permutation;
        tc "mix stable" test_rng_mix_stable;
        tc "bytes length" test_rng_bytes_len;
      ]
      @ List.map QCheck_alcotest.to_alcotest rng_props );
    ( "util.murmur3",
      [
        tc "empty" test_murmur_empty;
        tc "reference vectors" test_murmur_vectors;
        tc "distinct" test_murmur_distinct;
        tc "hash non-negative" test_murmur_hash_nonneg;
        tc "streaming matches concat" test_murmur_stream_cases;
      ]
      @ List.map QCheck_alcotest.to_alcotest murmur_stream_props );
    ( "util.pool",
      [
        tc "map preserves order" test_pool_map_order;
        tc "jobs=1 is inline" test_pool_jobs1_inline;
        tc "exception propagation" test_pool_exception_propagation;
        tc "nested map" test_pool_nested_map;
        tc "run + idempotent shutdown" test_pool_run_and_shutdown_idempotent;
        tc "async: size 1 runs at await" test_async_size1_runs_at_await;
        tc "async: exception keeps its backtrace"
          test_async_exception_backtrace;
        tc "async: task with a nested map" test_async_nested_map;
        tc "async: after shutdown runs inline" test_async_after_shutdown_inline;
        tc "async: 1000 promises in order" test_async_many_in_order;
      ]
      @ List.map QCheck_alcotest.to_alcotest pool_props );
    ( "util.stats",
      [
        tc "mean" test_stats_mean;
        tc "percentile" test_stats_percentile;
        tc "box" test_stats_box;
        tc "singleton" test_stats_singleton;
      ]
      @ List.map QCheck_alcotest.to_alcotest stats_props );
    ( "util.tablefmt",
      [ tc "render alignment" test_table_render; tc "pct" test_table_pct ] );
    ( "util.json",
      [
        tc "bytes render as printable ASCII" test_json_bytes;
        tc "numbers and layout" test_json_numbers_layout;
      ] );
  ]
