(* Tests for the CompDiff core: oracle verdicts, output normalization,
   timeout escalation, subset studies and triage. *)

open Compdiff

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- oracle --- *)

let stable_src = "int main() { print(\"ok %d\\n\", getchar()); return 0; }"

let unstable_src =
  "int main() {\n\
   \  int l;\n\
   \  int c = getchar();\n\
   \  if (c > 64) { l = c; }\n\
   \  print(\"%d\\n\", l);\n\
   \  return 0;\n\
   }"

let test_oracle_agree () =
  let o = Oracle.create (frontend stable_src) in
  match Oracle.check o ~input:"A" with
  | Oracle.Agree obs -> Alcotest.(check string) "output" "ok 65\n" obs.Oracle.output
  | Oracle.Diverge _ -> Alcotest.fail "expected agreement"

let test_oracle_diverge () =
  let o = Oracle.create (frontend unstable_src) in
  check_bool "diverges on empty input" true (Oracle.is_divergence (Oracle.check o ~input:""));
  check_bool "agrees on initializing input" false
    (Oracle.is_divergence (Oracle.check o ~input:"Z"))

let test_oracle_find_bug () =
  let inputs = [ "Z"; "Y"; ""; "X" ] in
  let r = Compdiff.Tools.check (frontend unstable_src) ~inputs in
  match Compdiff.Tools.first_divergence r ~inputs with
  | Some (input, _) -> Alcotest.(check string) "bug input" "" input
  | None -> Alcotest.fail "expected to find the bug-triggering input"

let test_oracle_subset_profiles () =
  (* with two identical-family implementations the uninit bug may vanish *)
  let profiles = [ Cdcompiler.Profiles.gccx "O2"; Cdcompiler.Profiles.gccx "O3" ] in
  let o10 = Oracle.create (frontend unstable_src) in
  let o2 = Oracle.create ~profiles (frontend unstable_src) in
  let d10 = Oracle.is_divergence (Oracle.check o10 ~input:"") in
  let d2 = Oracle.is_divergence (Oracle.check o2 ~input:"") in
  check_bool "full set detects" true d10;
  (* the small same-family subset is allowed to detect or miss; this test
     pins the current behaviour so regressions surface *)
  check_bool "subset result is deterministic" d2
    (Oracle.is_divergence (Oracle.check o2 ~input:""))

let test_oracle_partition () =
  let o = Oracle.create (frontend stable_src) in
  let obs = Oracle.observe o ~input:"A" in
  let classes = Oracle.partition o obs in
  Alcotest.(check (array int)) "all in one class" (Array.make 10 0) classes

let test_oracle_timeout_escalation () =
  (* terminates everywhere, but needs more fuel at -O0 than the base
     budget: escalation must avoid the false positive *)
  let src =
    "int main() {\n\
     \  int s = 0;\n\
     \  for (int i = 0; i < 20000; i++) { s += i % 7; }\n\
     \  print(\"%d\\n\", s);\n\
     \  return 0;\n\
     }"
  in
  let o = Oracle.create ~fuel:60_000 ~max_fuel:4_000_000 (frontend src) in
  match Oracle.check o ~input:"" with
  | Oracle.Agree _ -> ()
  | Oracle.Diverge obs ->
    Alcotest.failf "escalation failed: %s" (Oracle.report_to_string ~input:"" obs)

let test_oracle_all_hang_agrees () =
  let src = "int main() { while (1) { } return 0; }" in
  let o = Oracle.create ~fuel:10_000 ~max_fuel:20_000 (frontend src) in
  match Oracle.check o ~input:"" with
  | Oracle.Agree obs ->
    check_bool "status hang" true (obs.Oracle.status = Cdvm.Trap.Hang)
  | Oracle.Diverge _ -> Alcotest.fail "all-hang must not be a divergence"

let test_oracle_status_ablation () =
  (* same stdout, different exit codes: caught only when comparing status *)
  let src =
    "int main() {\n\
     \  int x;\n\
     \  print(\"fixed\\n\");\n\
     \  return x & 127;\n\
     }"
  in
  let with_status = Oracle.create (frontend src) in
  let without = Oracle.create ~compare_status:false (frontend src) in
  let d1 = Oracle.is_divergence (Oracle.check with_status ~input:"") in
  let d2 = Oracle.is_divergence (Oracle.check without ~input:"") in
  check_bool "status comparison detects" true d1;
  check_bool "output-only misses" false d2

let test_report_format () =
  let o = Oracle.create (frontend unstable_src) in
  match Oracle.check o ~input:"" with
  | Oracle.Diverge obs ->
    let r = Oracle.report_to_string ~input:"" obs in
    check_bool "mentions input" true
      (String.length r > 0 && String.sub r 0 3 = "===")
  | Oracle.Agree _ -> Alcotest.fail "expected divergence"

(* --- normalize --- *)

let test_normalize_timestamps () =
  Alcotest.(check string) "strip ts" "<TS> [Epan WARNING]"
    (Normalize.strip_timestamps "10:44:23.405830 [Epan WARNING]");
  Alcotest.(check string) "no ts untouched" "hello 1:2"
    (Normalize.strip_timestamps "hello 1:2")

let test_normalize_addresses () =
  Alcotest.(check string) "strip addr" "ptr=<ADDR> end"
    (Normalize.strip_hex_addresses "ptr=0x7ffe123 end")

let test_normalize_lines () =
  Alcotest.(check string) "drop marked lines" "keep\nkeep2"
    (Normalize.strip_lines_containing "[random]" "keep\nnoise [random] 42\nkeep2")

let test_normalize_compose () =
  let f = Normalize.compose [ Normalize.strip_timestamps; Normalize.strip_hex_addresses ] in
  Alcotest.(check string) "both" "<TS> at <ADDR>" (f "10:00:00 at 0xdead")

let test_normalize_makes_outputs_agree () =
  (* %p output differs across layouts; address stripping removes the
     divergence *)
  let src = "int g;\nint main() { print(\"ptr %p\\n\", &g); return 0; }" in
  let raw = Oracle.create (frontend src) in
  let filtered =
    Oracle.create ~normalize:Normalize.strip_hex_addresses (frontend src)
  in
  check_bool "raw %p diverges" true (Oracle.is_divergence (Oracle.check raw ~input:""));
  check_bool "normalized agrees" false
    (Oracle.is_divergence (Oracle.check filtered ~input:""))

(* --- subset --- *)

let test_subset_masks () =
  check_int "C(4,2)" 6 (List.length (Subset.masks_of_size ~n:4 ~size:2));
  check_int "C(10,2)" 45 (List.length (Subset.masks_of_size ~n:10 ~size:2));
  check_int "C(10,10)" 1 (List.length (Subset.masks_of_size ~n:10 ~size:10))

let test_subset_detects_mask () =
  let classes = [| 0; 0; 1; 0 |] in
  check_bool "straddles" true (Subset.detects_mask classes 0b0101);
  check_bool "same class" false (Subset.detects_mask classes 0b1011);
  check_bool "single impl" false (Subset.detects_mask classes 0b0100)

let test_subset_study_monotone () =
  (* detection counts never decrease with subset size (max over subsets) *)
  let partitions =
    [ [| 0; 0; 0; 1 |]; [| 0; 1; 1; 1 |]; [| 0; 0; 0; 0 |]; [| 0; 1; 0; 1 |] ]
  in
  let rows = Subset.study ~n:4 partitions in
  check_int "three sizes" 3 (List.length rows);
  let maxima = List.map (fun r -> snd r.Subset.best) rows in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "max detection grows with size" true (monotone maxima)

let test_subset_full_set_detects_all_detectable () =
  let partitions = [ [| 0; 0; 0; 1 |]; [| 0; 0; 0; 0 |]; [| 0; 1; 0; 1 |] ] in
  let full_mask = (1 lsl 4) - 1 in
  check_int "full set detects the 2 detectable bugs" 2
    (Subset.count_detected partitions full_mask)

let test_subset_recommend () =
  let names = List.map (fun p -> p.Cdcompiler.Policy.pname) Cdcompiler.Profiles.all in
  Alcotest.(check (list string)) "recommendation" [ "gccx-O0"; "clangx-O3" ]
    (Subset.recommend ~names ())

(* --- localize (the Section 5 prototype) --- *)

let event_view (e : Cdtrace.event) = (e.Cdtrace.ev_fn, e.Cdtrace.ev_text)

(* Localize at the [Prints] level, cross-checked against the [Steps]
   level: both recordings carry the same observable events, so both must
   pick the same diverging event, the same differing event on each side
   and the same shared context. *)
let localize_both o obs ~input =
  let at level =
    match Localize.of_divergence ~level o obs ~input with
    | Some l -> l
    | None -> Alcotest.fail "expected a divergent pair"
  in
  let p = at Cdtrace.Prints and s = at Cdtrace.Steps in
  let view (l : Localize.t) =
    ( l.Localize.diverging_event,
      Option.map event_view l.Localize.ev_a,
      Option.map event_view l.Localize.ev_b,
      List.map event_view l.Localize.before )
  in
  check_bool "Prints and Steps levels agree on the divergence" true
    (view p = view s);
  p

let test_localize_listing1 () =
  (* the first divergent observation must sit in dump_data *)
  let src =
    "int dump_data(int offset, int len) {\n\
     \  if (offset + len > 100) { return -1; }\n\
     \  if (offset + len < offset) { return -1; }\n\
     \  print(\"dumping %d bytes\\n\", len);\n\
     \  return 0;\n\
     }\n\
     int main() { print(\"r=%d\\n\", dump_data(2147483547, 101)); return 0; }"
  in
  let o = Oracle.create (frontend src) in
  match Oracle.check o ~input:"" with
  | Oracle.Agree _ -> Alcotest.fail "expected divergence"
  | Oracle.Diverge obs ->
    let l = localize_both o obs ~input:"" in
    check_bool "diverges at the first observation" true
      (l.Localize.diverging_event = Some 0);
    let mentions_dump =
      match (l.Localize.ev_a, l.Localize.ev_b) with
      | Some a, Some b ->
        a.Cdtrace.ev_fn = "dump_data" || b.Cdtrace.ev_fn = "dump_data"
      | _ -> false
    in
    check_bool "localized into dump_data" true mentions_dump;
    check_bool "report renders" true (String.length (Localize.to_string l) > 0)

let test_localize_shared_prefix () =
  (* agreement on the first print, divergence on the second: index 1 and
     a shared-prefix context *)
  let src =
    "int main() {\n\
     \  print(\"header\\n\");\n\
     \  int l;\n\
     \  print(\"%d\\n\", l);\n\
     \  return 0;\n\
     }"
  in
  let o = Oracle.create (frontend src) in
  match Oracle.check o ~input:"" with
  | Oracle.Agree _ -> Alcotest.fail "expected divergence"
  | Oracle.Diverge obs ->
    let l = localize_both o obs ~input:"" in
    check_bool "second observation" true (l.Localize.diverging_event = Some 1);
    check_int "one shared event kept as context" 1 (List.length l.Localize.before)

let test_localize_none_on_status_only () =
  (* divergence via exit code only: traces are identical *)
  let src =
    "int main() {\n\
     \  int x;\n\
     \  print(\"fixed\\n\");\n\
     \  return x & 127;\n\
     }"
  in
  let o = Oracle.create (frontend src) in
  match Oracle.check o ~input:"" with
  | Oracle.Agree _ -> Alcotest.fail "expected divergence"
  | Oracle.Diverge obs ->
    let l = localize_both o obs ~input:"" in
    check_bool "no print-level localization" true
      (l.Localize.diverging_event = None && Localize.diverging_fn l = None)

(* --- triage --- *)

let test_triage_dedup () =
  let o = Oracle.create (frontend unstable_src) in
  let t = Triage.create () in
  (* the same uninit bug via two different non-initializing inputs *)
  List.iter
    (fun input ->
      match Oracle.check o ~input with
      | Oracle.Diverge obs -> ignore (Triage.add t o ~input obs)
      | Oracle.Agree _ -> Alcotest.failf "expected divergence on %S" input)
    [ ""; "!" ];
  check_int "two entries" 2 (Triage.total_count t);
  check_bool "deduplicated to fewer uniques" true (Triage.unique_count t <= 2);
  check_int "representatives match uniques" (Triage.unique_count t)
    (List.length (Triage.representatives t))

(* --- parallel oracle: dedup, incremental escalation, equivalence --- *)

let hang_src = "int main() { while (1) { } return 0; }"

(* terminates everywhere; -O0 needs ~420k fuel, the optimized pipelines
   ~220k, so a 300k base budget forces exactly one escalation round in
   which only the -O0 class is re-run *)
let escalation_src =
  "int main() {\n\
   \  int acc = 0;\n\
   \  int i = 0;\n\
   \  while (i < 20000) { acc = acc + i * 3 + 1; i = i + 1; }\n\
   \  print(\"%d\\n\", acc);\n\
   \  return 0;\n\
   }"

let test_oracle_dedup_classes () =
  let deduped = Oracle.create ~jobs:2 (frontend stable_src) in
  check_bool "dedup merges some of the 10 binaries" true (Oracle.class_count deduped < 10);
  check_int "one class index per binary" 10 (Array.length (Oracle.classes deduped));
  Array.iter
    (fun c -> check_bool "class index in range" true (c >= 0 && c < Oracle.class_count deduped))
    (Oracle.classes deduped)

let test_oracle_matches_naive () =
  (* the optimized path must be observationally identical to the
     sequential dedup-free reference, including fuel_used *)
  List.iter
    (fun src ->
      let o = Oracle.create ~jobs:2 ~fuel:60_000 ~max_fuel:240_000 (frontend src) in
      List.iter
        (fun input ->
          check_bool
            (Printf.sprintf "observe = observe_naive on %S" input)
            true
            (Oracle.observe o ~input = Oracle.observe_naive o ~input);
          check_bool
            (Printf.sprintf "check = check_naive on %S" input)
            true
            (Oracle.check o ~input = Oracle.check_naive o ~input))
        [ ""; "A"; "Z"; "!" ])
    [ stable_src; unstable_src; hang_src ]

let test_oracle_escalation_keeps_fuel_used () =
  (* regression: observations finished in round 1 must keep their
     original fuel_used when other classes escalate *)
  let o = Oracle.create ~jobs:2 ~fuel:300_000 ~max_fuel:4_800_000 (frontend escalation_src) in
  let obs = Oracle.observe o ~input:"" in
  let finished = List.filter (fun (_, ob) -> ob.Oracle.fuel_used <= 300_000) obs in
  let escalated = List.filter (fun (_, ob) -> ob.Oracle.fuel_used > 300_000) obs in
  check_bool "some binaries finished within the base budget" true (finished <> []);
  check_bool "the -O0 class needed escalation" true (escalated <> []);
  List.iter
    (fun (name, ob) ->
      check_bool
        (name ^ " keeps a sub-budget fuel_used")
        true
        (ob.Oracle.status = Cdvm.Trap.Exit 0 && ob.Oracle.fuel_used < 300_000))
    finished;
  check_bool "identical to the naive escalation" true (obs = Oracle.observe_naive o ~input:"");
  let s = Oracle.stats o in
  check_bool "escalation skipped finished classes" true (s.Oracle.escalation_saved > 0);
  check_bool "dedup skipped duplicate binaries" true (s.Oracle.dedup_saved > 0);
  match Oracle.check o ~input:"" with
  | Oracle.Agree _ -> ()
  | Oracle.Diverge _ -> Alcotest.fail "escalation must converge to agreement"

let test_oracle_stats_invariant () =
  let o = Oracle.create ~jobs:2 (frontend unstable_src) in
  List.iter (fun input -> ignore (Oracle.check o ~input)) [ ""; "A"; "Z" ];
  let s = Oracle.stats o in
  check_int "checks counted" 3 s.Oracle.checks;
  (* every check runs each of the 10 binaries exactly once here (no
     escalation in this program), so the naive total is 30 *)
  check_int "vm_execs + saved = naive execs" 30
    (s.Oracle.vm_execs + s.Oracle.dedup_saved + s.Oracle.escalation_saved);
  check_bool "dedup saved something" true (s.Oracle.dedup_saved > 0);
  Oracle.reset_stats o;
  check_int "reset" 0 (Oracle.stats o).Oracle.checks

(* one program, three behaviours picked by the first input byte: 'h'
   hangs on every binary, 'e' runs the [escalation_src] loop (one
   escalation round, only the -O0 class re-run), anything else stops at
   once *)
let mixed_src =
  "int main() {\n\
   \  int c = getchar();\n\
   \  if (c == 104) { while (1) { } }\n\
   \  int acc = 0;\n\
   \  int i = 0;\n\
   \  if (c == 101) {\n\
   \    while (i < 20000) { acc = acc + i * 3 + 1; i = i + 1; }\n\
   \  }\n\
   \  print(\"%d\\n\", acc);\n\
   \  return 0;\n\
   }"

(* rounds the naive loop ran to reach [obs]: a terminating run of [u]
   instructions finishes under budget [b] iff [u < b], a hang reports
   the budget itself, and an all-hang stops after the first round *)
let naive_rounds ~base (obs : (string * Oracle.observation) list) =
  if List.for_all (fun (_, o) -> o.Oracle.status = Cdvm.Trap.Hang) obs then 1
  else
    let hung = List.exists (fun (_, o) -> o.Oracle.status = Cdvm.Trap.Hang) obs in
    let m = List.fold_left (fun a (_, o) -> max a o.Oracle.fuel_used) 0 obs in
    let last_round b = if hung then b >= m else b > m in
    let rec go k b = if last_round b then k else go (k + 1) (b * 4) in
    go 1 base

let test_oracle_batch_escalation () =
  let base = 300_000 in
  let o =
    Oracle.create ~jobs:2 ~fuel:base ~max_fuel:4_800_000 (frontend mixed_src)
  in
  let inputs = [| "s"; "e"; "h"; "e"; "" |] in
  let naive = Array.map (fun input -> Oracle.observe_naive o ~input) inputs in
  let rounds = Array.map (naive_rounds ~base) naive in
  check_bool "stable, escalating and all-hang inputs" true
    (rounds = [| 1; 2; 1; 2; 1 |]);
  let naive_execs = List.length (Oracle.names o) * Array.fold_left ( + ) 0 rounds in
  let counted () =
    let s = Oracle.stats o in
    s.Oracle.vm_execs + s.Oracle.dedup_saved + s.Oracle.escalation_saved
  in
  Oracle.reset_stats o;
  let obs = Oracle.observe_batch o ~inputs in
  Array.iteri
    (fun k input ->
      check_bool (Printf.sprintf "observe_batch = observe_naive on %S" input) true
        (obs.(k) = naive.(k)))
    inputs;
  check_int "checks counted" (Array.length inputs) (Oracle.stats o).Oracle.checks;
  check_int "vm_execs + saved = naive execs" naive_execs (counted ());
  check_bool "escalation skipped finished classes" true
    ((Oracle.stats o).Oracle.escalation_saved > 0);
  Oracle.reset_stats o;
  let verdicts = Oracle.check_batch o ~inputs in
  Array.iteri
    (fun k input ->
      check_bool (Printf.sprintf "check_batch = check_naive on %S" input) true
        (verdicts.(k) = Oracle.check_naive o ~input))
    inputs;
  check_int "check_batch: vm_execs + saved = naive execs" naive_execs (counted ())

(* same token soup the front-end fuzz suite uses *)
let gen_soup =
  let open QCheck.Gen in
  let token =
    oneofl
      [
        "int "; "long "; "double "; "if"; "else"; "while"; "return "; "break";
        "print"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "+"; "-"; "*"; "/";
        "%"; "="; "=="; "<"; ">"; "&&"; "||"; "&"; "|"; "^"; "<<"; ">>"; "!";
        "~"; "?"; ":"; "x"; "y"; "foo"; "main"; "0"; "1"; "42"; "2147483647";
        "0x1F"; "7L"; "1.5"; "\"str\""; "'c'"; "__LINE__"; "static "; "for";
        "getchar()"; "malloc"; "free"; " "; "\n"; "//c\n"; "/*c*/";
      ]
  in
  let* n = int_range 0 40 in
  let* parts = list_repeat n token in
  return (String.concat "" parts)

let prop_parallel_oracle_matches_naive =
  QCheck.Test.make
    ~name:"deduped+pooled verdicts = sequential naive on random programs" ~count:80
    (QCheck.make gen_soup)
    (fun soup ->
      let src = "int main() { " ^ soup ^ " ; return 0; }" in
      match Minic.frontend_of_source src with
      | Error _ -> true
      | Ok tp ->
        let o = Oracle.create ~jobs:2 ~fuel:20_000 ~max_fuel:80_000 tp in
        List.for_all
          (fun input -> Oracle.check o ~input = Oracle.check_naive o ~input)
          [ ""; "A"; "zz" ])

(* --- observation-store hits in the escalation loop ---

   A round looks every class up in the session's store first and sends
   only the classes with misses to the pool.  [prewarm_src] is
   [mixed_src] at a tenth of the loop: at base fuel 30k, 'h' hangs
   everywhere, 'e' needs one escalation round for the -O0 class only,
   and anything else stops at once.  Inputs are warmed before the
   checked batch: fully (every round of the batch hits), at base fuel
   only (the first round hits, the escalation round misses), or not at
   all. *)
let prewarm_src =
  "int main() {\n\
   \  int c = getchar();\n\
   \  if (c == 104) { while (1) { } }\n\
   \  int acc = 0;\n\
   \  int i = 0;\n\
   \  if (c == 101) {\n\
   \    while (i < 2000) { acc = acc + i * 3 + 1; i = i + 1; }\n\
   \  }\n\
   \  print(\"%d\\n\", acc);\n\
   \  return 0;\n\
   }"

let prewarm_base = 30_000
let prewarm_max = 480_000

let prewarm_naive =
  let o =
    lazy
      (Oracle.create ~fuel:prewarm_base ~max_fuel:prewarm_max
         (frontend prewarm_src))
  in
  let memo = Hashtbl.create 8 in
  fun input ->
    match Hashtbl.find_opt memo input with
    | Some obs -> obs
    | None ->
        let obs = Oracle.observe_naive (Lazy.force o) ~input in
        Hashtbl.add memo input obs;
        obs

type warmth = Cold | Base_only | Full

(* A fresh session and an oracle over [prewarm_src], with each input of
   [cases] warmed as it says.  Warming observes twice: the store admits
   a key on its second request. *)
let prewarmed (cases : (string * warmth) list) =
  let session = Engine.Session.create ~cache_mb:16 () in
  let tp = frontend prewarm_src in
  let o =
    Oracle.create ~session ~jobs:2 ~fuel:prewarm_base ~max_fuel:prewarm_max tp
  in
  (* same units and images on the same session, escalation off *)
  let base_only =
    Oracle.create ~session ~jobs:2 ~fuel:prewarm_base ~max_fuel:prewarm_base tp
  in
  let warm oracle w =
    let ins = List.filter_map (fun (i, w') -> if w' = w then Some i else None) cases in
    if ins <> [] then ignore (Oracle.observe_batch oracle ~inputs:(Array.of_list ins))
  in
  for _ = 1 to 2 do
    warm base_only Base_only;
    warm o Full
  done;
  Oracle.reset_stats o;
  (session, o)

(* [cases]: (input, how warm) pairs.  True when the batch equals the
   naive reference, every class run the batch requested was looked up
   in the store exactly once, and a warmed input was served from it. *)
let prewarmed_batch_matches_naive (cases : (string * warmth) list) : bool =
  let session, o = prewarmed cases in
  let counts () =
    let c = (Engine.Session.stats session).Engine.Session.observations in
    (c.Engine.Session.hits + c.Engine.Session.misses, c.Engine.Session.hits)
  in
  let before, hits_before = counts () in
  let inputs = Array.of_list (List.map fst cases) in
  let obs = Oracle.observe_batch o ~inputs in
  let after, hits_after = counts () in
  after - before = (Oracle.stats o).Oracle.vm_execs
  && Array.for_all2 (fun input ob -> ob = prewarm_naive input) inputs obs
  && (hits_after > hits_before || List.for_all (fun (_, w) -> w = Cold) cases)

let test_prewarmed_rounds () =
  let e = prewarm_naive "e" in
  check_bool "'e' escalates the -O0 class only" true
    (List.exists (fun (_, ob) -> ob.Oracle.fuel_used > prewarm_base) e
    && List.exists (fun (_, ob) -> ob.Oracle.fuel_used <= prewarm_base) e);
  check_bool "'h' hangs everywhere" true
    (List.for_all (fun (_, ob) -> ob.Oracle.status = Cdvm.Trap.Hang)
       (prewarm_naive "h"));
  let all w = List.map (fun i -> (i, w)) [ "e"; "h"; "s"; ""; "e" ] in
  List.iter
    (fun (what, cases) ->
      check_bool (what ^ " = observe_naive") true
        (prewarmed_batch_matches_naive cases))
    [
      ("all rounds all hits", all Full);
      ("all rounds all misses", all Cold);
      ("base round hits, escalation misses", all Base_only);
      ("mixed", [ ("e", Full); ("h", Cold); ("e", Base_only); ("s", Full); ("", Cold) ]);
    ]

let print_cases cases =
  String.concat "; "
    (List.map
       (fun (i, w) ->
         Printf.sprintf "%S:%s" i
           (match w with Cold -> "cold" | Base_only -> "base" | Full -> "full"))
       cases)

let prop_prewarmed_batch_matches_naive =
  let open QCheck in
  let case =
    Gen.pair
      (Gen.oneofl [ "e"; "h"; "s"; ""; "ee"; "x" ])
      (Gen.oneofl [ Cold; Base_only; Full ])
  in
  Test.make ~name:"observe_batch on a partly warmed session = observe_naive"
    ~count:30
    (make ~print:print_cases Gen.(list_size (int_range 1 6) case))
    prewarmed_batch_matches_naive

(* --- checks answered from the store alone ---

   [Oracle.check_stored] against [Oracle.check_batch] on twin sessions
   warmed alike: it answers exactly when every input was warmed at base
   fuel and none needs a second round ('e' escalates, 'h' hangs
   everywhere and stops), its verdicts are [check_batch]'s, and the
   oracle and session counters end where [check_batch]'s all-hit round
   leaves them.  A [None] counts nothing at all. *)
let session_counts session =
  let st = Engine.Session.stats session in
  let o = st.Engine.Session.observations in
  ( o.Engine.Session.hits,
    o.Engine.Session.misses,
    o.Engine.Session.entries,
    st.Engine.Session.declined )

let stored_check_matches_batch (cases : (string * warmth) list) : bool =
  let inputs = Array.of_list (List.map fst cases) in
  let s_stored, o_stored = prewarmed cases in
  let s_batch, o_batch = prewarmed cases in
  let before = session_counts s_stored in
  let expected = Oracle.check_batch o_batch ~inputs in
  (* an input may be listed twice, warmed once *)
  let warmed input = List.exists (fun (i, w) -> i = input && w <> Cold) cases in
  let answerable =
    Array.for_all
      (fun input ->
        warmed input && naive_rounds ~base:prewarm_base (prewarm_naive input) = 1)
      inputs
  in
  let s = Oracle.stats o_stored in
  match Oracle.check_stored o_stored ~inputs with
  | None ->
      (not answerable)
      && s = Oracle.stats o_stored
      && session_counts s_stored = before
  | Some verdicts ->
      let st = Oracle.stats o_stored in
      answerable && verdicts = expected
      && st = Oracle.stats o_batch
      && session_counts s_stored = session_counts s_batch
      && st.Oracle.vm_execs + st.Oracle.dedup_saved + st.Oracle.escalation_saved
         = List.length (Oracle.names o_stored) * Array.length inputs

let test_check_stored () =
  List.iter
    (fun (what, cases) ->
      check_bool what true (stored_check_matches_batch cases))
    [
      ("every input stored: answered", [ ("s", Full); ("", Base_only); ("h", Full) ]);
      ("nothing stored: None", [ ("s", Cold) ]);
      ("one input not stored: None", [ ("s", Full); ("x", Cold) ]);
      ("an escalating input: None", [ ("s", Full); ("e", Full) ]);
      ("no inputs: answered", []);
    ];
  (* a class the store lacks: a profile subset on the same session
     stores every class but the one of the last binary, and the full
     oracle falls back *)
  let session = Engine.Session.create ~cache_mb:16 () in
  let tp = frontend unstable_src in
  let full = Oracle.create ~session tp in
  let classes = Oracle.classes full in
  let last = classes.(Array.length classes - 1) in
  let profiles =
    List.filteri (fun i _ -> classes.(i) <> last) Cdcompiler.Profiles.all
  in
  let sub = Oracle.create ~session ~profiles tp in
  ignore (Oracle.check sub ~input:"A");
  ignore (Oracle.check sub ~input:"A");
  check_bool "the subset is answered" true
    (Oracle.check_stored sub ~inputs:[| "A" |] <> None);
  let before = session_counts session in
  check_bool "a class not stored: None" true
    (Oracle.check_stored full ~inputs:[| "A" |] = None);
  check_bool "and nothing counted" true (session_counts session = before);
  check_int "oracle counters untouched" 0 (Oracle.stats full).Oracle.checks

let prop_check_stored_matches_batch =
  let open QCheck in
  let case =
    Gen.pair
      (Gen.oneofl [ "e"; "h"; "s"; ""; "ee"; "x" ])
      (Gen.oneofl [ Cold; Base_only; Full; Full ])
  in
  Test.make ~name:"check_stored = None or check_batch, with its counters"
    ~count:30
    (make ~print:print_cases Gen.(list_size (int_range 1 4) case))
    stored_check_matches_batch

(* --- class tasks ---

   A fuel round is one task per class (lookup, execution, normalization
   and checksum), and a verdict compares the per-class checksums.  On
   Juliet programs whose dedup classes have several members, and on one
   batch that escalates, three [check_batch] passes (the first requests
   every key, the second stores it, the third hits; §10.6) run at jobs 1
   and at jobs 2: every verdict equals [check_naive], the session and
   oracle counters are equal at both widths, and [vm_execs +
   dedup_saved + escalation_saved] is the naive count.  After them,
   [check_stored] answers with [check_batch]'s verdicts when no input
   escalates. *)
let with_jobs n f =
  let prev = Cdutil.Pool.default_jobs () in
  Cdutil.Pool.set_default_jobs n;
  Fun.protect ~finally:(fun () -> Cdutil.Pool.set_default_jobs prev) f

let class_task_passes ~jobs ~fuel ~max_fuel tp inputs =
  with_jobs jobs (fun () ->
      let session = Engine.Session.create ~cache_mb:16 () in
      let o = Oracle.create ~session ~jobs ~fuel ~max_fuel tp in
      let passes = List.init 3 (fun _ -> Oracle.check_batch o ~inputs) in
      let counts = (session_counts session, Oracle.stats o) in
      (o, passes, counts, Oracle.check_stored o ~inputs))

(* the checks above for one program and batch; [check_stored]'s answer
   after the passes *)
let class_tasks_match what ~fuel ~max_fuel tp inputs =
  let o, passes1, counts1, stored1 =
    class_task_passes ~jobs:1 ~fuel ~max_fuel tp inputs
  in
  let _, passes2, counts2, stored2 =
    class_task_passes ~jobs:2 ~fuel ~max_fuel tp inputs
  in
  let naive = Array.map (fun input -> Oracle.check_naive o ~input) inputs in
  List.iter
    (fun verdicts -> check_bool (what ^ ": jobs 1 = naive") true (verdicts = naive))
    passes1;
  List.iter
    (fun verdicts -> check_bool (what ^ ": jobs 2 = naive") true (verdicts = naive))
    passes2;
  check_bool (what ^ ": same counters at jobs 1 and 2") true (counts1 = counts2);
  let rounds =
    Array.fold_left
      (fun a input -> a + naive_rounds ~base:fuel (Oracle.observe_naive o ~input))
      0 inputs
  in
  let st = snd counts1 in
  check_int (what ^ ": vm_execs + saved = naive execs")
    (3 * List.length (Oracle.names o) * rounds)
    (st.Oracle.vm_execs + st.Oracle.dedup_saved + st.Oracle.escalation_saved);
  check_bool (what ^ ": check_stored the same at jobs 1 and 2") true
    (stored1 = stored2);
  Option.iter
    (fun verdicts ->
      check_bool (what ^ ": check_stored = check_batch") true (verdicts = naive))
    stored1;
  stored1

let test_class_tasks () =
  let merged = ref 0 in
  List.iter
    (fun (name, tp) ->
      let o = Oracle.create tp in
      let nclasses = Oracle.class_count o in
      if nclasses > 1 && nclasses < List.length (Oracle.names o) then begin
        incr merged;
        let stored =
          class_tasks_match name ~fuel:20_000 ~max_fuel:80_000 tp
            [| ""; "A"; "zz"; "7"; "" |]
        in
        check_bool (name ^ ": the stored pass is answered") true (stored <> None)
      end)
    (List.concat_map
       (fun (t : Juliet.Testcase.t) ->
         [ (t.Juliet.Testcase.name ^ " bad", Juliet.Testcase.frontend_bad t);
           (t.Juliet.Testcase.name ^ " good", Juliet.Testcase.frontend_good t) ])
       (Juliet.Suite.quick ~per_cwe:1 ()));
  check_bool "some programs have merged classes" true (!merged >= 10);
  let stored =
    class_tasks_match "escalating batch" ~fuel:300_000 ~max_fuel:4_800_000
      (frontend mixed_src) [| "s"; "e"; "h"; "e"; "" |]
  in
  check_bool "an escalating batch is not answered stored" true (stored = None);
  let none = Oracle.create ~profiles:[] (frontend stable_src) in
  Alcotest.check_raises "no binaries" (Invalid_argument "Oracle: no binaries")
    (fun () -> ignore (Oracle.check_batch none ~inputs:[| "A" |]))

(* --- binary signatures ---

   The signature encoding before it became one [Marshal] of a triple:
   the projection's bytes, then "mem" and "ureg" policy lines appended
   through a [Buffer].  Kept here as the reference the new encoding must
   partition binaries exactly like. *)
type reference_projection = {
  rp_funcs :
    (string * int * int * int array * Cdcompiler.Ir.instr array) list;
  rp_globals : Cdcompiler.Ir.iglobal list;
}

let reference_signature (u : Cdcompiler.Ir.unit_) : string =
  let open Cdcompiler in
  let projection =
    {
      rp_funcs =
        List.map
          (fun (name, (f : Ir.ifunc)) ->
            ( name,
              f.Ir.nparams,
              f.Ir.nregs,
              Array.map (fun (s : Ir.frame_slot) -> s.Ir.slot_size) f.Ir.slots,
              f.Ir.code ))
          u.Ir.funcs;
      rp_globals = u.Ir.globals;
    }
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Marshal.to_string projection [ Marshal.No_sharing ]);
  if Binsig.touches_memory u then begin
    Buffer.add_string buf "mem ";
    Buffer.add_string buf (Policy.memory_runtime_signature u.Ir.runtime);
    Buffer.add_char buf '\n'
  end;
  if Binsig.may_read_uninit_reg u then begin
    Buffer.add_string buf "ureg ";
    Buffer.add_string buf (Policy.uninit_signature u.Ir.runtime.Policy.uninit_reg);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

(* class per binary, numbered by first occurrence, as [Oracle.classes] *)
let reference_classes (o : Oracle.t) : int array =
  let table = Hashtbl.create 16 in
  Array.of_list
    (List.map
       (fun (_, u) ->
         let key = reference_signature u in
         match Hashtbl.find_opt table key with
         | Some c -> c
         | None ->
             let c = Hashtbl.length table in
             Hashtbl.add table key c;
             c)
       (Oracle.binaries o))

let all_profiles_oracle tp =
  Oracle.create ~profiles:Cdcompiler.Profiles.extended_with_buggy tp

let same_partition_as_reference o = Oracle.classes o = reference_classes o

(* Juliet bad variants read uninitialized registers and memory, so both
   optional parts of the signature take part *)
let test_binsig_partition_juliet () =
  let tests = Juliet.Suite.quick ~per_cwe:2 () in
  let merged = ref 0 and split = ref 0 in
  List.iter
    (fun (t : Juliet.Testcase.t) ->
      let o = all_profiles_oracle (Juliet.Testcase.frontend_bad t) in
      check_bool (t.Juliet.Testcase.name ^ ": same partition") true
        (same_partition_as_reference o);
      if Oracle.class_count o < List.length (Oracle.names o) then incr merged;
      if Oracle.class_count o > 1 then incr split)
    tests;
  check_bool "some programs merge binaries" true (!merged > 0);
  check_bool "some programs keep several classes" true (!split > 0)

let prop_binsig_partition_random =
  QCheck.Test.make ~name:"signature partition = reference encoding on random programs"
    ~count:30 (QCheck.make Suite_passes.gen_program_src) (fun src ->
      match Minic.frontend_of_source src with
      | Error _ -> false
      | Ok tp -> same_partition_as_reference (all_profiles_oracle tp))

let test_triage_signature_canonical () =
  let s1 = Triage.signature_of_partition [| 0; 0; 1; 1 |] in
  let s2 = Triage.signature_of_partition [| 1; 1; 0; 0 |] in
  let s3 = Triage.signature_of_partition [| 0; 1; 0; 1 |] in
  check_bool "renaming-invariant" true (s1 = s2);
  check_bool "different groupings differ" true (s1 <> s3)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "compdiff.oracle",
      [
        tc "agree" test_oracle_agree;
        tc "diverge" test_oracle_diverge;
        tc "find bug" test_oracle_find_bug;
        tc "subset profiles" test_oracle_subset_profiles;
        tc "partition" test_oracle_partition;
        tc "timeout escalation" test_oracle_timeout_escalation;
        tc "all-hang agrees" test_oracle_all_hang_agrees;
        tc "status ablation" test_oracle_status_ablation;
        tc "report format" test_report_format;
      ] );
    ( "compdiff.normalize",
      [
        tc "timestamps" test_normalize_timestamps;
        tc "addresses" test_normalize_addresses;
        tc "line dropping" test_normalize_lines;
        tc "composition" test_normalize_compose;
        tc "%p agreement" test_normalize_makes_outputs_agree;
      ] );
    ( "compdiff.subset",
      [
        tc "mask counts" test_subset_masks;
        tc "detects_mask" test_subset_detects_mask;
        tc "study monotone" test_subset_study_monotone;
        tc "full set" test_subset_full_set_detects_all_detectable;
        tc "recommend" test_subset_recommend;
      ] );
    ( "compdiff.localize",
      [
        tc "listing1" test_localize_listing1;
        tc "shared prefix" test_localize_shared_prefix;
        tc "status-only divergence" test_localize_none_on_status_only;
      ] );
    ( "compdiff.parallel_oracle",
      [
        tc "dedup classes" test_oracle_dedup_classes;
        tc "matches naive reference" test_oracle_matches_naive;
        tc "escalation keeps fuel_used" test_oracle_escalation_keeps_fuel_used;
        tc "stats invariant" test_oracle_stats_invariant;
        tc "batch escalation = naive" test_oracle_batch_escalation;
        QCheck_alcotest.to_alcotest prop_parallel_oracle_matches_naive;
        tc "warmed store rounds = naive" test_prewarmed_rounds;
        QCheck_alcotest.to_alcotest prop_prewarmed_batch_matches_naive;
        tc "check_stored answers all-stored checks" test_check_stored;
        QCheck_alcotest.to_alcotest prop_check_stored_matches_batch;
        tc "class tasks: jobs 1 = jobs 2 = naive" test_class_tasks;
        tc "signature partition = reference (Juliet)" test_binsig_partition_juliet;
        QCheck_alcotest.to_alcotest prop_binsig_partition_random;
      ] );
    ( "compdiff.triage",
      [
        tc "dedup" test_triage_dedup;
        tc "canonical signature" test_triage_signature_canonical;
      ] );
  ]
