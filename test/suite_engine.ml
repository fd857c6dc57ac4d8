(* Tests for the engine session layer: the LRU primitive, the
   compile/link/observe caches, and the cross-validation properties the
   caches must satisfy (cached sessions are verdict-identical to the
   caching-disabled reference; the partition-based subset study matches
   the per-subset recomputation). *)

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stable_src = "int main() { print(\"ok %d\\n\", getchar()); return 0; }"

let unstable_src =
  "int main() {\n\
   \  int l;\n\
   \  int c = getchar();\n\
   \  if (c > 64) { l = c; }\n\
   \  print(\"%d\\n\", l);\n\
   \  return 0;\n\
   }"

(* --- the LRU primitive --- *)

let test_lru_basics () =
  let l = Engine.Lru.create ~budget_bytes:1000 in
  let v =
    Engine.Lru.find_or_compute l "a" ~weight:(fun _ -> 10) (fun () -> 1)
  in
  check_int "computed" 1 v;
  let v =
    Engine.Lru.find_or_compute l "a" ~weight:(fun _ -> 10) (fun () -> 2)
  in
  check_int "cached, not recomputed" 1 v;
  let s = Engine.Lru.stats l in
  check_int "one hit" 1 s.Engine.Lru.hits;
  check_int "one miss" 1 s.Engine.Lru.misses;
  check_int "one entry" 1 s.Engine.Lru.entries;
  check_int "ten bytes" 10 s.Engine.Lru.bytes

let test_lru_eviction_lru_order () =
  let l = Engine.Lru.create ~budget_bytes:100 in
  let put k = ignore (Engine.Lru.find_or_compute l k ~weight:(fun _ -> 40) (fun () -> k)) in
  put "a";
  put "b";
  (* touch "a" so "b" is the least recently used *)
  check_bool "a cached" true (Engine.Lru.find_opt l "a" = Some "a");
  (* third insert pushes past 100 bytes: evict down to 75 *)
  put "c";
  let s = Engine.Lru.stats l in
  check_bool "evicted at least one entry" true (s.Engine.Lru.evictions >= 1);
  check_bool "within budget" true (s.Engine.Lru.bytes <= 100);
  check_bool "oldest entry (b) evicted first" true
    (Engine.Lru.find_opt l "b" = None);
  check_bool "newest entry survives" true (Engine.Lru.find_opt l "c" = Some "c")

(* Keys the hash cannot tell apart (it reads only the first ten values
   of a list) share a bucket: each keeps its own value, and eviction
   takes only the oldest ones out of the shared bucket. *)
let test_lru_bucket_collisions () =
  let key k = List.init 20 (fun i -> if i = 19 then k else 0) in
  check_bool "one hash" true (Hashtbl.hash (key 1) = Hashtbl.hash (key 2));
  let l = Engine.Lru.create ~budget_bytes:30 in
  List.iter (fun k -> Engine.Lru.put l (key k) k ~weight:10) [ 1; 2; 3 ];
  List.iter
    (fun k ->
      check_bool "own value" true (Engine.Lru.find_opt l (key k) = Some k))
    [ 1; 2; 3 ];
  (* 40 bytes: evict down to 22, the two oldest *)
  Engine.Lru.put l (key 4) 4 ~weight:10;
  check_int "two entries" 2 (Engine.Lru.stats l).Engine.Lru.entries;
  check_bool "1 evicted" true (Engine.Lru.find_opt l (key 1) = None);
  check_bool "2 evicted" true (Engine.Lru.find_opt l (key 2) = None);
  check_bool "3 kept" true (Engine.Lru.find_opt l (key 3) = Some 3);
  check_bool "4 kept" true (Engine.Lru.find_opt l (key 4) = Some 4)

(* a striped cache looked up from two domains at once: every lookup
   answers with its key's value and is counted, and the stripes'
   budgets add up to the whole *)
let test_lru_striped_concurrent () =
  let l = Engine.Lru.create_striped ~stripes:4 ~budget_bytes:4000 in
  let work d () =
    for i = 0 to 999 do
      let k = string_of_int (((i * 7) + d) mod 500) in
      let v =
        Engine.Lru.find_or_compute l k ~weight:(fun _ -> 10) (fun () -> k ^ "!")
      in
      if v <> k ^ "!" then failwith ("wrong value for " ^ k)
    done
  in
  let other = Domain.spawn (work 1) in
  work 0 ();
  Domain.join other;
  let s = Engine.Lru.stats l in
  check_int "every lookup counted" 2000 (s.Engine.Lru.hits + s.Engine.Lru.misses);
  check_bool "evicted" true (s.Engine.Lru.evictions > 0);
  check_bool "within budget" true (s.Engine.Lru.bytes <= 4000);
  check_int "ten bytes an entry" (10 * s.Engine.Lru.entries) s.Engine.Lru.bytes

(* --- session caches --- *)

let profile0 = List.hd Cdcompiler.Profiles.all

(* one cached run: the one-input batch *)
let run1 s l ~input =
  (Engine.Session.run_batch s l ~inputs:[| input |] ~fuel:100_000).(0)

let test_unit_cache_hit () =
  let s = Engine.Session.create ~cache_mb:16 () in
  let tp = frontend stable_src in
  let u1 = Engine.Session.compile s profile0 tp in
  let u2 = Engine.Session.compile s profile0 tp in
  check_bool "second compile is the cached unit" true (u1 == u2);
  let st = Engine.Session.stats s in
  check_int "unit hit" 1 st.Engine.Session.units.Engine.Session.hits;
  check_int "unit miss" 1 st.Engine.Session.units.Engine.Session.misses;
  (* a structurally equal but physically distinct program hits too:
     keys are content hashes, not physical identity *)
  let tp' = frontend stable_src in
  let u3 = Engine.Session.compile s profile0 tp' in
  check_bool "content-addressed: equal program hits" true (u1 == u3)

let test_image_cache_and_obs_store () =
  let s = Engine.Session.create ~cache_mb:16 () in
  let tp = frontend stable_src in
  let u = Engine.Session.compile s profile0 tp in
  let l1 = Engine.Session.link s u in
  let l2 = Engine.Session.link s u in
  check_bool "re-link is the cached image" true
    (Engine.Session.image l1 == Engine.Session.image l2);
  (* an observation is stored on its key's second request (admission),
     so the store serves the third *)
  let o0 = run1 s l1 ~input:"A" in
  let o1 = run1 s l1 ~input:"A" in
  let o2 = run1 s l2 ~input:"A" in
  check_bool "replay equals the stored observation" true (o0 = o1 && o1 = o2);
  Alcotest.(check string) "raw stdout" "ok 65\n" o1.Cdvm.Exec.stdout;
  let st = Engine.Session.stats s in
  check_int "one observation stored" 1
    st.Engine.Session.observations.Engine.Session.entries;
  check_int "one observation hit" 1
    st.Engine.Session.observations.Engine.Session.hits;
  (* a different input or fuel is a different key *)
  let o3 = run1 s l1 ~input:"B" in
  ignore (run1 s l1 ~input:"B");
  check_bool "different input, different observation" true (o3 <> o1);
  check_int "two observations stored" 2
    (Engine.Session.stats s).Engine.Session.observations.Engine.Session.entries

let test_disabled_session_is_passthrough () =
  let s = Engine.Session.create ~cache_mb:0 () in
  check_bool "caching off" false (Engine.Session.caching s);
  let tp = frontend stable_src in
  let u1 = Engine.Session.compile s profile0 tp in
  let u2 = Engine.Session.compile s profile0 tp in
  check_bool "recompiles every time" true (u1 != u2);
  let st = Engine.Session.stats s in
  check_int "no unit traffic counted" 0
    (st.Engine.Session.units.Engine.Session.hits
    + st.Engine.Session.units.Engine.Session.misses);
  check_int "the function memo is never consulted" 0
    (st.Engine.Session.funcs.Engine.Session.hits
    + st.Engine.Session.funcs.Engine.Session.misses);
  check_bool "stats say disabled" false st.Engine.Session.caching

let test_oracle_shares_session_compiles () =
  (* two oracles over the same program on one session: the second one's
     ten compiles and links are all cache hits *)
  let s = Engine.Session.create ~cache_mb:64 () in
  let tp = frontend unstable_src in
  let o1 = Compdiff.Oracle.create ~session:s tp in
  let st1 = Engine.Session.stats s in
  let o2 = Compdiff.Oracle.create ~session:s tp in
  let st2 = Engine.Session.stats s in
  check_int "no new unit misses for the second oracle"
    st1.Engine.Session.units.Engine.Session.misses
    st2.Engine.Session.units.Engine.Session.misses;
  check_bool "ten unit hits for the second oracle" true
    (st2.Engine.Session.units.Engine.Session.hits
     >= st1.Engine.Session.units.Engine.Session.hits + 10);
  (* and their verdicts agree with each other and with a fresh oracle *)
  List.iter
    (fun input ->
      let v1 = Compdiff.Oracle.check o1 ~input in
      let v2 = Compdiff.Oracle.check o2 ~input in
      let fresh = Compdiff.Oracle.check (Compdiff.Oracle.create tp) ~input in
      check_bool "session oracles agree" true (v1 = v2);
      check_bool "matches a session-free oracle" true (v1 = fresh))
    [ ""; "A"; "Z" ]

let test_oracle_replay_hits_obs_store () =
  let s = Engine.Session.create ~cache_mb:64 () in
  let o = Compdiff.Oracle.create ~session:s (frontend unstable_src) in
  (* the first check's observations are admitted by the second *)
  ignore (Compdiff.Oracle.check o ~input:"");
  let v1 = Compdiff.Oracle.check o ~input:"" in
  let before = Engine.Session.stats s in
  let v2 = Compdiff.Oracle.check o ~input:"" in
  let after = Engine.Session.stats s in
  check_bool "replayed verdict identical" true (v1 = v2);
  check_int "replay adds no observation misses"
    before.Engine.Session.observations.Engine.Session.misses
    after.Engine.Session.observations.Engine.Session.misses;
  check_bool "replay served from the store" true
    (after.Engine.Session.observations.Engine.Session.hits
    > before.Engine.Session.observations.Engine.Session.hits)

(* The admission rule: the in-memory store takes an observation on its
   key's second request.  A first run executes and stores nothing, a
   second executes again and stores without hitting, a third is served;
   every input is counted as one hit or one miss all along. *)
let test_admission_rule () =
  let tp = frontend unstable_src in
  let fuel = 100_000 in
  let inputs = [| "A"; ""; "q" |] in
  let s = Engine.Session.create ~cache_mb:16 () in
  let l = Engine.Session.link s (Engine.Session.compile s profile0 tp) in
  let lookups = ref 0 in
  let run () =
    lookups := !lookups + Array.length inputs;
    Engine.Session.run_batch s l ~inputs ~fuel
  in
  let obs () = (Engine.Session.stats s).Engine.Session.observations in
  let r1 = run () in
  check_int "a first run stores nothing" 0 (obs ()).Engine.Session.entries;
  check_int "its executions are declined" 3
    (Engine.Session.stats s).Engine.Session.declined;
  let r2 = run () in
  check_int "a second run stores" 3 (obs ()).Engine.Session.entries;
  check_int "and hits nothing" 0 (obs ()).Engine.Session.hits;
  let r3 = run () in
  check_int "a third run hits" 3 (obs ()).Engine.Session.hits;
  check_int "hits + misses = lookups" !lookups
    ((obs ()).Engine.Session.hits + (obs ()).Engine.Session.misses);
  check_int "nothing more declined" 3
    (Engine.Session.stats s).Engine.Session.declined;
  let d = Engine.Session.create ~cache_mb:0 () in
  let ld = Engine.Session.link d (Engine.Session.compile d profile0 tp) in
  check_bool "every run = caching-disabled run" true
    (r1 = r2 && r2 = r3 && r3 = Engine.Session.run_batch d ld ~inputs ~fuel);
  check_int "a disabled session declines nothing" 0
    (Engine.Session.stats d).Engine.Session.declined

(* The doorkeeper clears its fingerprints once an eighth of its bits have
   been recorded; a 1 MiB session's clears after 1024 keys.  Checking
   well over that many keys twice clears it mid-pass, so keys recorded
   before a clear look new again (the second pass declines some), and
   still every verdict is the caching-disabled oracle's. *)
let test_admission_clear_keeps_verdicts () =
  let tp = frontend unstable_src in
  let s = Engine.Session.create ~cache_mb:1 () in
  let o = Compdiff.Oracle.create ~session:s ~jobs:1 tp in
  let reference = Compdiff.Oracle.create ~session:(Engine.Session.create ~cache_mb:0 ()) ~jobs:1 tp in
  let inputs = Array.init 800 (fun i -> Printf.sprintf "%c%d" (Char.chr (32 + (i mod 90))) i) in
  let expected = Compdiff.Oracle.check_batch reference ~inputs in
  let declined () = (Engine.Session.stats s).Engine.Session.declined in
  let pass () =
    Array.iteri
      (fun k v ->
        check_bool (Printf.sprintf "verdict %d = caching disabled" k) true
          (v = expected.(k)))
      (Compdiff.Oracle.check_batch o ~inputs)
  in
  pass ();
  let first = declined () in
  pass ();
  check_bool "the doorkeeper was cleared mid-pass" true (declined () > first);
  let c = (Engine.Session.stats s).Engine.Session.observations in
  check_int "hits + misses = requested observations"
    (Compdiff.Oracle.stats o).Compdiff.Oracle.vm_execs
    (c.Engine.Session.hits + c.Engine.Session.misses)

(* The two phases of [run_batch] on a batch that mixes stored and
   fresh inputs, duplicates included: the lookup finds exactly the
   stored ones and counts each input once, the second phase counts
   nothing again, and the result is what [run_batch] gives on a session
   warmed the same way and on a caching-disabled one.  Warming runs the
   stored inputs twice: the store admits a key on its second request. *)
let test_two_phase_matches_run_batch () =
  let tp = frontend unstable_src in
  let fuel = 100_000 in
  let warm = [| "A"; "q" |] and batch = [| "A"; ""; "q"; "Z"; ""; "A" |] in
  let warmed () =
    let s = Engine.Session.create ~cache_mb:16 () in
    let l = Engine.Session.link s (Engine.Session.compile s profile0 tp) in
    ignore (Engine.Session.run_batch s l ~inputs:warm ~fuel);
    ignore (Engine.Session.run_batch s l ~inputs:warm ~fuel);
    (s, l)
  in
  let lookups s =
    let o = (Engine.Session.stats s).Engine.Session.observations in
    (o.Engine.Session.hits, o.Engine.Session.misses)
  in
  let s, l = warmed () in
  let h0, m0 = lookups s in
  let lk = Engine.Session.lookup s l ~inputs:batch ~fuel in
  let h1, m1 = lookups s in
  check_bool "the misses are the unstored inputs" true
    (lk.Engine.Session.misses = [| 1; 3; 4 |]);
  Array.iteri
    (fun i o ->
      check_bool
        (Printf.sprintf "input %d found iff stored" i)
        (Array.mem batch.(i) warm) (Option.is_some o))
    lk.Engine.Session.found;
  check_int "three hits" 3 (h1 - h0);
  check_int "three misses" 3 (m1 - m0);
  let two = Engine.Session.run_misses s l ~inputs:batch ~fuel lk in
  check_bool "the second phase looks nothing up" true (lookups s = (h1, m1));
  let s', l' = warmed () in
  check_bool "two phases = run_batch" true
    (two = Engine.Session.run_batch s' l' ~inputs:batch ~fuel);
  let d = Engine.Session.create ~cache_mb:0 () in
  let ld = Engine.Session.link d (Engine.Session.compile d profile0 tp) in
  check_bool "two phases = caching-disabled run_batch" true
    (two = Engine.Session.run_batch d ld ~inputs:batch ~fuel);
  (* the batch's fresh inputs were seen once (the duplicate "" twice):
     one more run admits them all *)
  ignore (Engine.Session.run_batch s l ~inputs:batch ~fuel);
  check_bool "the misses were written back" true
    ((Engine.Session.lookup s l ~inputs:batch ~fuel).Engine.Session.misses
    = [||]);
  let lkd = Engine.Session.lookup d ld ~inputs:batch ~fuel in
  check_bool "caching disabled: every input misses" true
    (lkd.Engine.Session.misses = Array.init (Array.length batch) Fun.id
    && Array.for_all Option.is_none lkd.Engine.Session.found);
  check_bool "caching disabled: two phases = run_batch" true
    (Engine.Session.run_misses d ld ~inputs:batch ~fuel lkd = two)

(* The memory-only probe: [None] unless memory holds every input, and
   either way it counts nothing and records nothing in the doorkeeper,
   so the runs after a probe count and admit exactly as without it. *)
let test_probe_is_memory_only () =
  let tp = frontend unstable_src in
  let fuel = 100_000 in
  let s = Engine.Session.create ~cache_mb:16 () in
  let l = Engine.Session.link s (Engine.Session.compile s profile0 tp) in
  let counts () =
    let st = Engine.Session.stats s in
    let o = st.Engine.Session.observations in
    (o.Engine.Session.hits, o.Engine.Session.misses, o.Engine.Session.entries,
     st.Engine.Session.declined)
  in
  let probe inputs = Engine.Session.probe s l ~inputs ~fuel in
  check_bool "an unseen input is not stored" true (probe [| "A" |] = None);
  check_bool "the probe counted nothing" true (counts () = (0, 0, 0, 0));
  let first = Engine.Session.run_batch s l ~inputs:[| "A" |] ~fuel in
  check_bool "the first run is still declined" true (counts () = (0, 1, 0, 1));
  check_bool "a declined run is not in memory" true (probe [| "A" |] = None);
  ignore (Engine.Session.run_batch s l ~inputs:[| "A" |] ~fuel);
  check_bool "the second run stores" true (counts () = (0, 2, 1, 1));
  check_bool "a stored input is found" true (probe [| "A" |] = Some first);
  check_bool "a mixed batch is a miss" true (probe [| "A"; "B" |] = None);
  check_bool "probes still counted nothing" true (counts () = (0, 2, 1, 1));
  Engine.Session.count_hits s 1;
  check_bool "count_hits counts hits" true (counts () = (1, 2, 1, 1));
  check_bool "the mixed batch left \"B\" unseen" true
    ((Engine.Session.lookup s l ~inputs:[| "B" |] ~fuel).Engine.Session.admitted
    = [| false |]);
  (* memory only: a fresh session over the same directory is served "A"
     from disk by a lookup, never by a probe *)
  let dir = Filename.temp_file "cds_probe" "" in
  Sys.remove dir;
  let on_disk () =
    let d = Engine.Session.create ~cache_mb:16 ~disk_dir:dir () in
    (d, Engine.Session.link d (Engine.Session.compile d profile0 tp))
  in
  let d1, l1 = on_disk () in
  ignore (Engine.Session.run_batch d1 l1 ~inputs:[| "A" |] ~fuel);
  let d2, l2 = on_disk () in
  ignore (Engine.Session.run_batch d2 l2 ~inputs:[| "A" |] ~fuel);
  check_bool "a disk-only hit is a probe miss" true
    (Engine.Session.probe d2 l2 ~inputs:[| "A" |] ~fuel = None);
  let off = Engine.Session.create ~cache_mb:0 () in
  let loff = Engine.Session.link off (Engine.Session.compile off profile0 tp) in
  ignore (Engine.Session.run_batch off loff ~inputs:[| "A" |] ~fuel);
  ignore (Engine.Session.run_batch off loff ~inputs:[| "A" |] ~fuel);
  check_bool "caching disabled: always a miss" true
    (Engine.Session.probe off loff ~inputs:[| "A" |] ~fuel = None)

(* --- the function-level compile memo ---

   A session compile (shared lowering, memoized passes, no line-table
   rebuild) must be byte-identical to the memo-free compile that skips
   the rebuild, and its tables rebuilt on demand
   ([Pipeline.with_lines]) must give exactly [Pipeline.compile], the
   memo-free lined reference.  Units are compared by their
   [Marshal [No_sharing]] bytes: structural equality of every field,
   whatever the memo and the shared lowering share physically. *)

(* The image cache's weight is an estimate of what a handle keeps
   reachable; measure it on linked Juliet units (two tests per CWE, bad
   and good) and every project target, under every profile. *)
let test_image_weight_tracks_reachable () =
  let programs =
    List.concat_map
      (fun t -> [ Juliet.Testcase.frontend_bad t; Juliet.Testcase.frontend_good t ])
      (Juliet.Suite.quick ~per_cwe:2 ())
    @ List.map Projects.Project.frontend Projects.Registry.all
  in
  let s = Engine.Session.create () in
  let weight = ref 0 and bytes = ref 0 in
  List.iter
    (fun tp ->
      List.iter
        (fun p ->
          let img =
            Engine.Session.image (Engine.Session.link s (Engine.Session.compile s p tp))
          in
          let w = Engine.Session.image_weight img in
          let b = Obj.reachable_words (Obj.repr img) * (Sys.word_size / 8) in
          weight := !weight + w;
          bytes := !bytes + b;
          if w > 2 * b || b > 2 * w then
            Alcotest.failf "image weight %d for %d reachable bytes" w b)
        Cdcompiler.Profiles.all)
    programs;
  check_bool "total within 2x" true (!weight <= 2 * !bytes && !bytes <= 2 * !weight)

let unit_bytes (u : Cdcompiler.Ir.unit_) =
  Marshal.to_string u [ Marshal.No_sharing ]

(* the session's unit is the line-free compile, and lined on demand it
   is [Pipeline.compile] *)
let memo_matches_fresh_unit profile tp u =
  let open Cdcompiler.Pipeline in
  unit_bytes u = unit_bytes (optimize profile (lower profile tp))
  && unit_bytes (with_lines profile tp u) = unit_bytes (compile profile tp)

let memo_matches_fresh s profile tp =
  memo_matches_fresh_unit profile tp (Engine.Session.compile s profile tp)

let image_bytes (img : Cdvm.Image.t) = Marshal.to_string img [ Marshal.No_sharing ]

(* Every per-function stage of a session compile of [tp] equals its
   memo-free counterpart: each unit as [memo_matches_fresh_unit], its
   image as [Image.link] of the same unit by bytes, and its signature
   as [Binsig.signature] without a memo. *)
let stages_match s profiles tp =
  List.for_all2
    (fun p (_, u) ->
      memo_matches_fresh_unit p tp u
      && image_bytes (Engine.Session.image (Engine.Session.link s u))
         = image_bytes (Cdvm.Image.link u)
      && Compdiff.Binsig.signature ?memo:(Engine.Session.facts_memo s u) u
         = Compdiff.Binsig.signature u)
    profiles
    (Engine.Session.compile_profiles s profiles tp)

(* a memo over a table, counting the outputs it computed *)
let table_memo () : 'a Cdcompiler.Fmemo.t * int ref =
  let table = Hashtbl.create 64 and computed = ref 0 in
  ( {
      Cdcompiler.Fmemo.find_or_compute =
        (fun k compute ->
          match Hashtbl.find_opt table k with
          | Some v -> v
          | None ->
            incr computed;
            let v = compute () in
            Hashtbl.add table k v;
            v);
    },
    computed )

(* random UB-free programs, printed and re-parsed so that their line
   tables are real; one small session across all cases, so the memo
   fills, is shared between programs and evicts *)
let prop_memo_matches_pipeline =
  let s = Engine.Session.create ~cache_mb:8 () in
  QCheck.Test.make
    ~name:"memoized compiles = Pipeline.compile on random programs" ~count:25
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let src =
        Minic.Pretty.program_to_string (Gen.Effgen.generate ~seed).Gen.Effgen.prog
      in
      let tp = frontend src in
      stages_match s Cdcompiler.Profiles.extended_with_buggy tp)

let lowered_bytes (l : Cdcompiler.Lower.lowered) =
  Marshal.to_string (l.Cdcompiler.Lower.lfuncs, l.Cdcompiler.Lower.lglobals)
    [ Marshal.No_sharing ]

let stage_misses s name =
  (List.assoc name (Engine.Session.stats s).Engine.Session.stages)
    .Engine.Session.stage_misses

(* The per-function stages through a memo equal the memo-free stages on
   the quick Juliet suite and every Table 4 target: lowerings by bytes
   (through a table memo, where a second lowering of the same program
   computes nothing), and, through one session, units, images and
   signatures ([stages_match]) and the oracle's behaviour classes
   against a caching-disabled session's. *)
let test_memo_stages_match () =
  let open Cdcompiler in
  let programs =
    List.concat_map
      (fun t -> [ Juliet.Testcase.frontend_bad t; Juliet.Testcase.frontend_good t ])
      (Juliet.Suite.quick ())
    @ List.map Projects.Project.frontend Projects.Registry.all
  in
  let s = Engine.Session.create () in
  List.iter
    (fun tp ->
      List.iter
        (fun lw ->
          let memo, computed = table_memo () in
          let memo = { Fmemo.keys = Lower.sources tp; memo } in
          let reference = lowered_bytes (Lower.lower_program lw tp) in
          check_bool "memoized lowering = Lower.lower_program" true
            (lowered_bytes (Lower.lower_program ~memo lw tp) = reference);
          let before = !computed in
          check_bool "second lowering equal" true
            (lowered_bytes (Lower.lower_program ~memo lw tp) = reference);
          check_int "second lowering computes nothing" before !computed)
        (List.sort_uniq compare (List.map Policy.lowering_of Profiles.all));
      check_bool "units, images and signatures" true
        (stages_match s Profiles.extended_with_buggy tp);
      let classes session =
        Compdiff.Oracle.classes (Compdiff.Oracle.create ~session ~jobs:1 tp)
      in
      check_bool "oracle classes" true
        (classes s = classes (Engine.Session.create ~cache_mb:0 ())))
    programs

(* Two programs whose function [f] lowers to the same code, where the
   dropped global moves [b]'s object id: [f] is linked twice, once per
   unit context, and each image equals a fresh link of its unit. *)
let test_link_context () =
  let src globals =
    globals
    ^ " int f() { b = 7; return b; }\n\
       int main() { print(\"%d\\n\", f()); return 0; }"
  in
  let s = Engine.Session.create ~cache_mb:16 () in
  List.iter
    (fun g ->
      check_bool g true
        (stages_match s Cdcompiler.Profiles.all (frontend (src g))))
    [ "int a; int b;"; "int b;"; "int a; int b;" ]

(* A one-statement candidate after its parent and an earlier candidate
   (a function's lowering, link and facts are stored on their second
   request): lowering runs for the edited function only, once per
   distinct lowering policy, and linking and signing run only for
   functions whose final code is new.  Each candidate edits one function
   and keeps the globals, so no other typed function changes. *)
let test_candidate_recomputes_one_function () =
  let open Cdcompiler in
  List.iter
    (fun name ->
      let p = Option.get (Projects.Registry.by_name name) in
      let profiles = Projects.Project.profiles_for p in
      let nlowerings =
        List.length (List.sort_uniq compare (List.map Policy.lowering_of profiles))
      in
      let parent = Projects.Project.frontend p in
      let func_bytes tp =
        List.map (fun f -> Marshal.to_string f [ Marshal.No_sharing ]) tp.Minic.Tast.tfuncs
      in
      let lowered tp =
        lowered_bytes (Lower.lower_program (Policy.lowering_of (List.hd profiles)) tp)
      in
      let edits_one_function tp =
        tp.Minic.Tast.tglobals = parent.Minic.Tast.tglobals
        && List.length tp.Minic.Tast.tfuncs = List.length parent.Minic.Tast.tfuncs
        && List.length
             (List.filter not (List.map2 String.equal (func_bytes tp) (func_bytes parent)))
           = 1
        && lowered tp <> lowered parent
      in
      let earlier, candidate =
        match
          List.of_seq
            (Seq.take 2
               (Seq.filter_map
                  (fun c ->
                    match Minic.Typecheck.check_program_result c with
                    | Ok tp when edits_one_function tp -> Some tp
                    | Ok _ | Error _ -> None)
                  (Compdiff.Reduce.candidates p.Projects.Project.program)))
        with
        | [ earlier; candidate ] -> (earlier, candidate)
        | _ -> Alcotest.fail "two one-function candidates"
      in
      let s = Engine.Session.create ~cache_mb:64 () in
      let link_all tp =
        List.map
          (fun (_, u) ->
            ignore (Engine.Session.link s u);
            ignore (Compdiff.Binsig.signature ?memo:(Engine.Session.facts_memo s u) u);
            u)
          (Engine.Session.compile_profiles ~jobs:1 s profiles tp)
      in
      let parent_units = link_all parent in
      ignore (link_all earlier);
      Engine.Session.reset_stats s;
      let units = link_all candidate in
      check_int (name ^ ": one function lowered per lowering policy") nlowerings
        (stage_misses s "lower");
      (* the functions of each candidate unit whose code the parent's unit
         of the same profile does not have *)
      let changed =
        List.fold_left2
          (fun n (u : Ir.unit_) (pu : Ir.unit_) ->
            n
            + List.length
                (List.filter
                   (fun (fname, f) ->
                     Marshal.to_string f [ Marshal.No_sharing ]
                     <> Marshal.to_string (List.assoc fname pu.Ir.funcs)
                          [ Marshal.No_sharing ])
                   u.Ir.funcs))
          0 units parent_units
      in
      check_bool (name ^ ": some final code changed") true (changed > 0);
      check_bool (name ^ ": links only functions whose code changed") true
        (stage_misses s "link" <= changed);
      (* two facts per function at most *)
      check_bool (name ^ ": signs only functions whose code changed") true
        (stage_misses s "sign" <= 2 * changed))
    [ "exiv2"; "gpac" ]

(* Profiles share one lowering per distinct [Policy.lowering_of].  Two
   profiles with an equal lowering policy lower every program to
   Marshal-identical functions, and [compile_profiles], which lowers once
   per policy, gives each profile the unit of its own lowering.  The
   sharing adds no lookup: the unit counters see one per profile. *)
let test_shared_lowering () =
  let open Cdcompiler in
  let programs =
    List.concat_map
      (fun t -> [ Juliet.Testcase.frontend_bad t; Juliet.Testcase.frontend_good t ])
      (Juliet.Suite.quick ())
    @ List.map Projects.Project.frontend Projects.Registry.all
    @ List.init 25 (fun seed ->
          frontend
            (Minic.Pretty.program_to_string
               (Gen.Effgen.generate ~seed).Gen.Effgen.prog))
  in
  let profiles = Profiles.extended_with_buggy in
  let nprofiles = List.length profiles in
  let func_bytes (l : Lower.lowered) =
    Marshal.to_string l.Lower.lfuncs [ Marshal.No_sharing ]
  in
  let s = Engine.Session.create () in
  List.iter
    (fun tp ->
      let lowered = List.map (fun p -> (p, Pipeline.lower p tp)) profiles in
      List.iter
        (fun (p, lp) ->
          List.iter
            (fun (q, lq) ->
              if Policy.lowering_of p = Policy.lowering_of q then
                check_bool
                  (Printf.sprintf "%s and %s lower alike" p.Policy.pname
                     q.Policy.pname)
                  true
                  (func_bytes lp = func_bytes lq))
            lowered)
        lowered;
      let before = (Engine.Session.stats s).Engine.Session.units in
      List.iter2
        (fun (p, lp) (name, u) ->
          check_bool (name ^ ": the unit of its own lowering") true
            (unit_bytes u = unit_bytes (Pipeline.optimize p lp)))
        lowered
        (Engine.Session.compile_profiles s profiles tp);
      let after = (Engine.Session.stats s).Engine.Session.units in
      check_int "one unit lookup per profile" nprofiles
        (after.Engine.Session.hits + after.Engine.Session.misses
        - before.Engine.Session.hits - before.Engine.Session.misses))
    programs;
  check_bool "four lowerings for the ten implementations" true
    (List.length
       (List.sort_uniq compare (List.map Policy.lowering_of Profiles.all))
     = 4)

(* a reducer's access pattern: a chain of one-step candidates on one
   session, where every function a candidate leaves alone is a memo hit,
   and every stage equals the memo-free one; on an 8 MiB session the
   memo evicts functions the chain meets again *)
let test_memo_reduction_chain () =
  List.iter
    (fun ((p : Projects.Project.t), cache_mb) ->
      let s = Engine.Session.create ~cache_mb () in
      let profiles = Projects.Project.profiles_for p in
      let compiled = ref 0 in
      let cur = ref p.Projects.Project.program in
      for _step = 1 to 4 do
        let typed =
          Seq.filter_map
            (fun c ->
              match Minic.Typecheck.check_program_result c with
              | Ok tp -> Some (c, tp)
              | Error _ -> None)
            (Compdiff.Reduce.candidates !cur)
        in
        let batch = List.of_seq (Seq.take 6 typed) in
        List.iter
          (fun (_, tp) ->
            compiled := !compiled + List.length profiles;
            check_bool
              (Printf.sprintf "%s: memoized stages = fresh" p.Projects.Project.pname)
              true
              (stages_match s profiles tp))
          batch;
        (* step to the last candidate, as an accepted reduction would *)
        match List.rev batch with (c, _) :: _ -> cur := c | [] -> ()
      done;
      check_bool "candidates were compiled" true (!compiled > 0);
      let stats = Engine.Session.stats s in
      let st = stats.Engine.Session.funcs in
      (* a small session evicts functions it meets again; the others are
         served what a candidate leaves alone *)
      if cache_mb <= 8 then
        check_bool "the small session evicts" true (st.Engine.Session.evictions > 0)
      else
        check_bool
          (p.Projects.Project.pname ^ ": unchanged functions hit the memo")
          true
          (st.Engine.Session.hits > st.Engine.Session.misses);
      let json = Cdutil.Json.to_string (Engine.Session.stats_json stats) in
      check_bool "memo counters in the stats JSON" true
        (Suite_gen.contains json
           (Printf.sprintf "\"funcs\": {\"hits\": %d," st.Engine.Session.hits));
      List.iter
        (fun (name, (c : Engine.Session.stage_stats)) ->
          check_bool (name ^ " was looked up") true (c.Engine.Session.stage_hits > 0);
          check_bool (name ^ " counters in the stats JSON") true
            (Suite_gen.contains json
               (Printf.sprintf "\"%s\": {\"hits\": %d, \"misses\": %d}" name
                  c.Engine.Session.stage_hits c.Engine.Session.stage_misses)))
        stats.Engine.Session.stages;
      check_bool "one key per typed function of each program" true
        (stats.Engine.Session.key_calls > 0))
    (match Projects.Registry.all with
    | p0 :: p1 :: _ -> [ (p0, 32); (p1, 32); (p0, 8) ]
    | _ -> assert false)

(* Two programs whose [f] optimizes to the same code from differently
   lined source.  The pass stack's output is shared through the memo;
   each program's on-demand lined unit must still get its own line
   table, so the rebuild may not write into a shared function. *)
let test_memo_line_tables_not_shared () =
  let a =
    "int f(int x) {\n  int y = x * 8;\n  return y + 1;\n}\n\
     int main() { print(\"%d\\n\", f(getchar())); return 0; }"
  and b =
    "int f(int x) {\n\n\n  int y = x * 8;\n\n  return y + 1;\n}\n\
     int main() { print(\"%d\\n\", f(getchar())); return 0; }"
  in
  let s = Engine.Session.create ~cache_mb:16 () in
  let ta = frontend a and tb = frontend b in
  let distinct = ref 0 in
  List.iter
    (fun p ->
      let ua = Engine.Session.compile s p ta in
      let ub = Engine.Session.compile s p tb in
      check_bool "first program = fresh compile" true
        (memo_matches_fresh_unit p ta ua);
      check_bool "second program = fresh compile" true
        (memo_matches_fresh_unit p tb ub);
      let ua = Cdcompiler.Pipeline.with_lines p ta ua
      and ub = Cdcompiler.Pipeline.with_lines p tb ub in
      let fa = Option.get (Cdcompiler.Ir.func ua "f")
      and fb = Option.get (Cdcompiler.Ir.func ub "f") in
      if
        fa.Cdcompiler.Ir.code = fb.Cdcompiler.Ir.code
        && fa.Cdcompiler.Ir.code_lines <> fb.Cdcompiler.Ir.code_lines
      then incr distinct)
    Cdcompiler.Profiles.all;
  (* the premise: same optimized code, different tables, on optimizing
     profiles *)
  check_bool "same code with distinct line tables" true (!distinct > 0)

(* --- the persistent disk cache --- *)

let temp_dir () =
  (* a unique, not-yet-existing directory name; Diskcache.create mkdirs *)
  let f = Filename.temp_file "cdc_test" "" in
  Sys.remove f;
  f

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_whole path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec disk_files dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then disk_files p else [ p ])
    (Array.to_list (Sys.readdir dir))

let test_diskcache_roundtrip () =
  let dir = temp_dir () in
  let d1 = Engine.Diskcache.create ~dir () in
  Engine.Diskcache.put d1 ~kind:"t" "k1" (42, "hello");
  (* a fresh handle over the same directory = a process restart *)
  let d2 = Engine.Diskcache.create ~dir () in
  check_bool "hit across restart" true
    (Engine.Diskcache.get d2 ~kind:"t" "k1" = Some (42, "hello"));
  check_bool "unknown key is a miss" true
    ((Engine.Diskcache.get d2 ~kind:"t" "nope" : (int * string) option) = None);
  check_bool "same key under another kind is a miss" true
    ((Engine.Diskcache.get d2 ~kind:"u" "k1" : (int * string) option) = None);
  let st = Engine.Diskcache.stats d2 in
  check_int "one hit counted" 1 st.Engine.Diskcache.disk_hits;
  check_int "two misses counted" 2 st.Engine.Diskcache.disk_misses

let test_diskcache_corruption_is_miss () =
  let dir = temp_dir () in
  let d = Engine.Diskcache.create ~dir () in
  Engine.Diskcache.put d ~kind:"t" "key" "payload-value";
  let get () : string option = Engine.Diskcache.get d ~kind:"t" "key" in
  check_bool "intact entry hits" true (get () = Some "payload-value");
  let path =
    match disk_files dir with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one entry file, found %d" (List.length l)
  in
  let original = read_whole path in
  (* a crashed writer can only leave a prefix (writes are tmp+rename,
     but the guard must hold for any torn file): every truncation is a
     miss, never a wrong hit *)
  List.iter
    (fun len ->
      write_whole path (String.sub original 0 len);
      check_bool (Printf.sprintf "truncated to %d bytes is a miss" len) true
        (get () = None))
    [ 0; 3; 11; String.length original - 1 ];
  (* one flipped payload byte: the checksum rejects it *)
  let b = Bytes.of_string original in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr ((Char.code (Bytes.get b last) + 1) land 0xff));
  write_whole path (Bytes.to_string b);
  check_bool "corrupt payload is a miss" true (get () = None);
  (* a directory standing at the entry's path is a miss too *)
  Sys.remove path;
  Sys.mkdir path 0o755;
  check_bool "directory at the entry path is a miss" true (get () = None);
  Sys.rmdir path;
  (* restoring the bytes restores the hit: the guard is the content *)
  write_whole path original;
  check_bool "restored entry hits again" true (get () = Some "payload-value")

let test_diskcache_running_counters () =
  let dir = temp_dir () in
  let d1 = Engine.Diskcache.create ~dir () in
  List.iter
    (fun k -> Engine.Diskcache.put d1 ~kind:"t" k ("value-" ^ k))
    [ "a"; "b"; "c" ];
  let on_disk () =
    let files = disk_files dir in
    ( List.length files,
      List.fold_left (fun a p -> a + (Unix.stat p).Unix.st_size) 0 files )
  in
  let entries, bytes = on_disk () in
  let st = Engine.Diskcache.stats d1 in
  check_int "entry count tracks fresh puts" entries
    st.Engine.Diskcache.disk_entries;
  check_int "byte count tracks fresh puts" bytes st.Engine.Diskcache.disk_bytes;
  (* overwriting an existing key must not inflate the running totals *)
  Engine.Diskcache.put d1 ~kind:"t" "b" "value-b";
  let st = Engine.Diskcache.stats d1 in
  check_int "overwrite leaves entry count" entries
    st.Engine.Diskcache.disk_entries;
  check_int "overwrite leaves byte count" bytes st.Engine.Diskcache.disk_bytes;
  check_int "but is still a store" 4 st.Engine.Diskcache.disk_stores;
  (* a fresh handle re-seeds the same totals from the startup scan *)
  let st2 = Engine.Diskcache.stats (Engine.Diskcache.create ~dir ()) in
  check_int "restart seeds entry count" entries
    st2.Engine.Diskcache.disk_entries;
  check_int "restart seeds byte count" bytes st2.Engine.Diskcache.disk_bytes

let test_diskcache_gc_honors_cap () =
  let dir = temp_dir () in
  let cap_bytes = 1024 * 1024 in
  let d = Engine.Diskcache.create ~dir ~cap_mb:1 () in
  (* ~300KB per entry: the 4th put crosses the 1MB cap and must trigger
     GC down to the 3/4 target without any explicit maintenance call *)
  let total = 6 in
  for k = 1 to total do
    Engine.Diskcache.put d ~kind:"big" (string_of_int k)
      (String.make 300_000 (Char.chr (64 + k)))
  done;
  let st = Engine.Diskcache.stats d in
  check_bool "byte count back under the cap" true
    (st.Engine.Diskcache.disk_bytes <= cap_bytes);
  check_bool "entries were evicted" true
    (st.Engine.Diskcache.disk_entries < total);
  check_bool "some entries survive" true
    (st.Engine.Diskcache.disk_entries > 0);
  (* the re-seeded counters agree with what is actually on disk *)
  let files = disk_files dir in
  check_int "entry count re-seeded from disk" (List.length files)
    st.Engine.Diskcache.disk_entries;
  check_int "byte count re-seeded from disk"
    (List.fold_left (fun a p -> a + (Unix.stat p).Unix.st_size) 0 files)
    st.Engine.Diskcache.disk_bytes;
  (* surviving entries still read back intact *)
  let readable = ref 0 in
  for k = 1 to total do
    match
      (Engine.Diskcache.get d ~kind:"big" (string_of_int k) : string option)
    with
    | Some v ->
      check_bool "surviving entry intact" true
        (v = String.make 300_000 (Char.chr (64 + k)));
      incr readable
    | None -> ()
  done;
  check_int "readable entries = counted entries" !readable
    st.Engine.Diskcache.disk_entries

let test_session_disk_restart () =
  let dir = temp_dir () in
  let tp = frontend unstable_src in
  let s1 = Engine.Session.create ~cache_mb:16 ~disk_dir:dir () in
  let l1 = Engine.Session.link s1 (Engine.Session.compile s1 profile0 tp) in
  let o1 = run1 s1 l1 ~input:"A" in
  (* fresh session, same directory: in-memory caches are cold but the
     disk layer serves the compiled unit and the observation *)
  let s2 = Engine.Session.create ~cache_mb:16 ~disk_dir:dir () in
  let l2 = Engine.Session.link s2 (Engine.Session.compile s2 profile0 tp) in
  let o2 = run1 s2 l2 ~input:"A" in
  check_bool "observation identical across restart" true (o1 = o2);
  (match (Engine.Session.stats s2).Engine.Session.disk with
  | None -> Alcotest.fail "expected disk stats"
  | Some d ->
    check_bool "nonzero disk hits after restart" true
      (d.Engine.Session.disk_hits > 0));
  (* a longer batch agrees with one-input batches, duplicates included *)
  let obs =
    Engine.Session.run_batch s2 l2 ~inputs:[| "A"; "B"; "A" |] ~fuel:100_000
  in
  check_bool "batch equals per-input runs" true
    (obs.(0) = o2
    && obs.(2) = obs.(0)
    && obs.(1) = run1 s2 l2 ~input:"B")

(* Admission filters the in-memory store only: a declined first run is
   still written through, and a fresh session over the same directory
   is served it from disk. *)
let test_declined_run_written_through () =
  let dir = temp_dir () in
  let tp = frontend unstable_src in
  let s1 = Engine.Session.create ~cache_mb:16 ~disk_dir:dir () in
  let l1 = Engine.Session.link s1 (Engine.Session.compile s1 profile0 tp) in
  let o1 = run1 s1 l1 ~input:"first" in
  let st1 = Engine.Session.stats s1 in
  check_int "declined in memory" 1 st1.Engine.Session.declined;
  check_int "not stored in memory" 0
    st1.Engine.Session.observations.Engine.Session.entries;
  let s2 = Engine.Session.create ~cache_mb:16 ~disk_dir:dir () in
  let l2 = Engine.Session.link s2 (Engine.Session.compile s2 profile0 tp) in
  let disk_hits () =
    match (Engine.Session.stats s2).Engine.Session.disk with
    | Some d -> d.Engine.Session.disk_hits
    | None -> Alcotest.fail "expected disk stats"
  in
  let before = disk_hits () in
  let o2 = run1 s2 l2 ~input:"first" in
  check_bool "same observation across restart" true (o1 = o2);
  check_int "served from disk" 1 (disk_hits () - before);
  check_int "nothing executed, nothing declined" 0
    (Engine.Session.stats s2).Engine.Session.declined

(* --- QCheck cross-validation properties --- *)

(* same token soup the front-end fuzz and oracle suites use *)
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

let prop_cached_session_matches_disabled =
  QCheck.Test.make
    ~name:"cached session verdicts = caching-disabled session on random programs"
    ~count:60 (QCheck.make gen_soup)
    (fun soup ->
      let src = "int main() { " ^ soup ^ " ; return 0; }" in
      match Minic.frontend_of_source src with
      | Error _ -> true
      | Ok tp ->
        let cached = Engine.Session.create ~cache_mb:32 () in
        let disabled = Engine.Session.create ~cache_mb:0 () in
        let oc =
          Compdiff.Oracle.create ~session:cached ~fuel:20_000 ~max_fuel:80_000 tp
        in
        let od =
          Compdiff.Oracle.create ~session:disabled ~fuel:20_000 ~max_fuel:80_000
            tp
        in
        List.for_all
          (fun input ->
            let vc = Compdiff.Oracle.check oc ~input in
            (* same input twice: the replay must not change the verdict *)
            vc = Compdiff.Oracle.check od ~input
            && vc = Compdiff.Oracle.check oc ~input)
          [ ""; "A"; "zz" ])

(* random behaviour partitions: n implementations, values in 0..n-1 *)
let gen_partitions =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let* nbugs = int_range 0 8 in
  let* parts =
    list_repeat nbugs (array_repeat n (int_range 0 (n - 1)))
  in
  return (n, parts)

let prop_study_matches_reference =
  QCheck.Test.make
    ~name:"partition-cached study = per-subset recomputation reference"
    ~count:200
    (QCheck.make gen_partitions)
    (fun (n, partitions) ->
      Compdiff.Subset.study ~n partitions
      = Compdiff.Subset.study_reference ~n partitions)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "engine.lru",
      [
        tc "find_or_compute" test_lru_basics;
        tc "LRU eviction order" test_lru_eviction_lru_order;
        tc "hash collisions share a bucket" test_lru_bucket_collisions;
        tc "striped, two domains" test_lru_striped_concurrent;
      ] );
    ( "engine.session",
      [
        tc "unit cache" test_unit_cache_hit;
        tc "image cache + observation store" test_image_cache_and_obs_store;
        tc "disabled = passthrough" test_disabled_session_is_passthrough;
        tc "oracles share compiles" test_oracle_shares_session_compiles;
        tc "oracle replay hits the store" test_oracle_replay_hits_obs_store;
        tc "lookup + run_misses = run_batch" test_two_phase_matches_run_batch;
        tc "admission: stored on the second request" test_admission_rule;
        tc "probe: memory only, counts nothing" test_probe_is_memory_only;
        tc "admission: clearing keeps verdicts"
          test_admission_clear_keeps_verdicts;
        tc "image weight tracks reachable bytes" test_image_weight_tracks_reachable;
      ] );
    ( "engine.func_memo",
      [
        QCheck_alcotest.to_alcotest prop_memo_matches_pipeline;
        tc "reduction candidate chain" test_memo_reduction_chain;
        tc "line tables are per program" test_memo_line_tables_not_shared;
        tc "one lowering per lowering policy" test_shared_lowering;
        tc "memoized stages = memo-free stages" test_memo_stages_match;
        tc "a candidate recomputes one function"
          test_candidate_recomputes_one_function;
        tc "global ids are part of the link context" test_link_context;
      ] );
    ( "engine.diskcache",
      [
        tc "round trip across handles" test_diskcache_roundtrip;
        tc "truncated/corrupt entries are misses" test_diskcache_corruption_is_miss;
        tc "running byte/entry counters" test_diskcache_running_counters;
        tc "GC honors the size cap" test_diskcache_gc_honors_cap;
        tc "session restart warm via disk" test_session_disk_restart;
        tc "declined first run written through"
          test_declined_run_written_through;
      ] );
    ( "engine.cross_validation",
      [
        QCheck_alcotest.to_alcotest prop_cached_session_matches_disabled;
        QCheck_alcotest.to_alcotest prop_study_matches_reference;
      ] );
  ]
