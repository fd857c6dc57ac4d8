(* juliet: the Table 3 evaluation ({!Juliet.Eval.evaluate}, reduction on)
   of the whole scaled Juliet suite, dealt by the seed into CWE-stratified
   chunks.  A pass evaluates one chunk over the pool on a fresh 256 MiB
   session; passes cycle through the chunks, so every run covers the
   whole suite at least once and the seed moves only the grouping.

   Chosen because it compiles and links many distinct small programs
   once each (cold cache writes, with binary dedup at work), and it is
   the only workload that runs the static analyzers and the sanitizer
   probes.  Every test is timed; the findings are the bad variants the
   oracle detects.  A full collection runs between passes, untimed, so
   the garbage of one pass does not carry into the next. *)

open Common

let eval_fuel = 100_000

let suite opts =
  if opts.smoke then Juliet.Suite.quick ~per_cwe:1 () else Juliet.Suite.full ()

let nchunks opts = if opts.smoke then 2 else 12

(* Chunk [k] holds, from every CWE, the variants at positions
   [k], [k + nchunks], ... of a seeded shuffle of that CWE's variants. *)
let deal opts (tests : Juliet.Testcase.t list) : Juliet.Testcase.t array array =
  let rng = Cdutil.Rng.create opts.seed in
  let n = nchunks opts in
  let chunks = Array.make n [] in
  List.iter
    (fun (info : Juliet.Cwe.info) ->
      let mine =
        Array.of_list
          (List.filter
             (fun (t : Juliet.Testcase.t) -> t.Juliet.Testcase.cwe = info.Juliet.Cwe.id)
             tests)
      in
      Cdutil.Rng.shuffle rng mine;
      Array.iteri (fun i t -> chunks.(i mod n) <- t :: chunks.(i mod n)) mine)
    Juliet.Cwe.all;
  Array.map (fun ts -> Array.of_list (List.rev ts)) chunks

(* every verdict of a test evaluation; equal on every repetition *)
type verdict = {
  compdiff : bool * bool;
  partition : int array;
  reduction : Compdiff.Reduce.stats option;
  san : (bool * bool) list;     (* asan, ubsan, msan *)
  static : (bool * bool) list;  (* coverity, cppcheck, infer, unstable *)
}

let verdict_of (e : Juliet.Eval.test_eval) =
  {
    compdiff = e.Juliet.Eval.compdiff;
    partition = e.Juliet.Eval.partition;
    reduction = e.Juliet.Eval.reduction;
    san = [ e.Juliet.Eval.asan; e.Juliet.Eval.ubsan; e.Juliet.Eval.msan ];
    static =
      [ e.Juliet.Eval.coverity; e.Juliet.Eval.cppcheck; e.Juliet.Eval.infer;
        e.Juliet.Eval.unstable ];
  }

let product ?validate session t =
  let e = Juliet.Eval.evaluate ~session ?validate ~reduce:true t in
  (verdict_of e, e.Juliet.Eval.oracle_stats)

(* The chunks, and a fixed slice of the suite evaluated once: the first
   evaluations of a process run at half speed (lazy initialisation, heap
   growth), so they belong to set-up. *)
let setup opts =
  let chunks = deal opts (suite opts) in
  let session = Engine.Session.create ~cache_mb:256 () in
  let per_cwe = if opts.smoke then 1 else 4 in
  ignore (Cdutil.Pool.map (product session) (Juliet.Suite.quick ~per_cwe ()));
  chunks

let static_tools =
  Staticcheck.Static_tools.[ Coverity; Cppcheck; Infer; Unstable ]

(* {!Juliet.Eval.evaluate} step by step: front end, per-profile compiles
   and links, the oracle with its reduction, sanitizer builds and
   probes, the four analyzers. *)
let traced session (t : Juliet.Testcase.t) =
  Span.with_ ~item:t.Juliet.Testcase.name "bench.item" (fun () ->
      let category = (Juliet.Cwe.info t.Juliet.Testcase.cwe).Juliet.Cwe.category in
      let bad = Span.with_ "minic.frontend" (fun () -> Juliet.Testcase.frontend_bad t) in
      let good = Span.with_ "minic.frontend" (fun () -> Juliet.Testcase.frontend_good t) in
      let inputs = t.Juliet.Testcase.inputs in
      List.iter
        (fun tp ->
          let units =
            List.map (fun p -> Layers.compile session p tp) Cdcompiler.Profiles.all
          in
          List.iter (Layers.link session) units)
        [ bad; good ];
      let compdiff, partition, reduction, ostats =
        Span.with_ "core.check" (fun () ->
            Juliet.Eval.eval_compdiff ~session ~fuel:eval_fuel ~reduce:true ~bad
              ~good ~inputs ())
      in
      let bad_build, good_build =
        Span.with_ "sanitizers.build" (fun () ->
            (Sanitizers.San.build ~session bad, Sanitizers.San.build ~session good))
      in
      let san =
        List.map
          (fun k ->
            Span.with_ "sanitizers.probe" (fun () ->
                Juliet.Eval.eval_sanitizer ~fuel:eval_fuel k ~bad_build ~good_build
                  ~inputs))
          Sanitizers.San.[ Asan; Ubsan; Msan ]
      in
      let static =
        List.map2
          (fun tool name ->
            Span.with_ ("staticcheck." ^ name) (fun () ->
                Juliet.Eval.eval_static tool t category))
          static_tools Metrics.static_tools
      in
      Layers.add_oracle ostats;
      Option.iter
        (fun (s : Compdiff.Reduce.stats) ->
          Layers.addi "core.reduce_checks" s.Compdiff.Reduce.checks;
          Layers.addi "core.reduced_bytes" s.Compdiff.Reduce.input_after)
        reduction;
      ({ compdiff; partition; reduction; san; static }, ostats))

let validated = 64

let run opts : result =
  let l = ledger () in
  let chunks, setup_s = setup_median ~reps:5 (fun () -> setup opts) in
  let nc = Array.length chunks in
  let first : (string, verdict) Hashtbl.t = Hashtbl.create 2048 in
  let name (t : Juliet.Testcase.t) = t.Juliet.Testcase.name in
  let record t v =
    match Hashtbl.find_opt first (name t) with
    | None ->
        check l (not (snd v.compdiff)) "juliet %s: good variant flagged" (name t);
        Hashtbl.add first (name t) v
    | Some v0 -> check l (v = v0) "juliet %s: verdicts changed between runs" (name t)
  in
  let settle t = function
    | Ok ((v, ostats), dt) ->
        l.attempted <- l.attempted + 1;
        record t v;
        Some (dt, ostats)
    | Error e ->
        l.attempted <- l.attempted + 1;
        fail l "juliet %s: %s" (name t) (Printexc.to_string e);
        None
  in
  let try_timed f = match timed f with r -> Ok r | exception e -> Error e in
  (* a seeded sample re-runs with the naive oracle cross-validating
     every check ({!Juliet.Eval.validate_oracle} raises on a mismatch) *)
  let validate () =
    let all = Array.concat (Array.to_list chunks) in
    let rng = Cdutil.Rng.create (Cdutil.Rng.mix opts.seed validated) in
    Cdutil.Rng.shuffle rng all;
    let session = Engine.Session.create ~cache_mb:256 () in
    Array.iter
      (fun t -> ignore (settle t (try_timed (fun () -> product ~validate:true session t))))
      (Array.sub all 0 (min (Array.length all) validated))
  in
  let findings () =
    Hashtbl.fold (fun _ v a -> if fst v.compdiff then a + 1 else a) first 0
  in
  (* pass [k] evaluates chunk [k mod nc]; a pass only starts when the
     last one suggests it ends in time, and the first cycle always runs *)
  let cycle ~seconds pass =
    let t0 = now () in
    let rec go k last =
      if k < nc || now () -. t0 +. last <= seconds then begin
        let (), dt = timed (fun () -> pass (k mod nc)) in
        go (k + 1) dt
      end
    in
    go 0 0.
  in
  if not opts.trace then begin
    let samples = ref [] and walls = Array.make nc [] and checks = Array.make nc 0 in
    let pass c =
      let session = Engine.Session.create ~cache_mb:256 () in
      let results, wall =
        timed (fun () ->
            Cdutil.Pool.map
              (fun t -> try_timed (fun () -> product session t))
              (Array.to_list chunks.(c)))
      in
      let n = ref 0 in
      List.iteri
        (fun i r ->
          Option.iter
            (fun (dt, (o : Compdiff.Oracle.stats)) ->
              samples := (1000. *. dt) :: !samples;
              n := !n + o.Compdiff.Oracle.checks)
            (settle chunks.(c).(i) r))
        results;
      walls.(c) <- wall :: walls.(c);
      checks.(c) <- !n;
      Gc.compact ()
    in
    cycle ~seconds:opts.seconds pass;
    (* every chunk weighs once, at its median pass time *)
    let busy = sum (Array.to_list (Array.map median walls)) in
    let heap = peak_heap_mb () in
    validate ();
    {
      ledger = l;
      metrics =
        [
          ("setup_s", setup_s);
          ("throughput_per_s", float_of_int (Hashtbl.length first) /. busy);
          ("checks_per_s", float_of_int (sumi (Array.to_list checks)) /. busy);
          ("latency_p50_ms", median !samples);
          ("latency_p95_ms", percentile 0.95 !samples);
          ("findings", float_of_int (findings ()));
          ("peak_heap_mb", heap);
        ];
    }
  end
  else begin
    let untraced = ref 0. and traced_s = ref 0. in
    let pass c =
      let s_product = Engine.Session.create ~cache_mb:256 () in
      let s_traced = Engine.Session.create ~cache_mb:256 () in
      Array.iter
        (fun t ->
          Option.iter
            (fun (dt, _) -> untraced := !untraced +. dt)
            (settle t (try_timed (fun () -> product s_product t)));
          Span.enabled := true;
          Option.iter
            (fun (dt, _) -> traced_s := !traced_s +. dt)
            (settle t (try_timed (fun () -> traced s_traced t)));
          Span.enabled := false)
        chunks.(c);
      Layers.add_session (Engine.Session.stats s_traced);
      Gc.compact ()
    in
    (* one whole cycle, so per-layer values are per suite *)
    Array.iteri (fun c _ -> pass c) chunks;
    validate ();
    Layers.traced_result opts l ~passes:1 ~overhead:((!traced_s /. !untraced) -. 1.)
  end
