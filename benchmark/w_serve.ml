(* serve: the oracle daemon ({!Serve.Server}: 2 executors, quota 64) in
   this process, driven by 2 closed-loop clients over its Unix socket,
   each sending single-input Check requests.

   The sources are Juliet-derived programs drawn by the seed: 90% of the
   requests go to a hot set of 16, 10% walk a cold set of 240, more than
   the 32-entry warm-oracle table holds.  Chosen because reads
   (warm-oracle and session hits) run beside writes (compiles and warm
   table evictions) on one scheduler and one session; the cold tenth
   sets the tail.  Every verdict is compared with the verdict a direct
   oracle gave during set-up. *)

open Common

let fuel = 200_000
let clients = 2
let hot_count opts = if opts.smoke then 4 else 16
let cold_count opts = if opts.smoke then 12 else 240
let sample_every = 64

type pair = { src : int; input : string; truth : string }

type setup = {
  sources : string array;
  oracles : Compdiff.Oracle.t array;  (* the direct reference, kept warm *)
  hot : pair array;
  cold : pair array;
}

(* canonical verdict forms, comparable across the wire and direct paths *)
let canon_direct (v : Compdiff.Oracle.verdict) : string =
  match v with
  | Compdiff.Oracle.Agree o ->
      Printf.sprintf "A|%s|%s"
        (Cdvm.Trap.status_to_string o.Compdiff.Oracle.status)
        o.Compdiff.Oracle.output
  | Compdiff.Oracle.Diverge obs ->
      "D|"
      ^ String.concat "|"
          (List.map
             (fun (name, (o : Compdiff.Oracle.observation)) ->
               Printf.sprintf "%s:%s:%s" name
                 (Cdvm.Trap.status_to_string o.Compdiff.Oracle.status)
                 o.Compdiff.Oracle.output)
             obs)

let canon_proto (v : Serve.Proto.verdict) : string =
  match v with
  | Serve.Proto.V_agree o ->
      Printf.sprintf "A|%s|%s" o.Serve.Proto.ob_status o.Serve.Proto.ob_output
  | Serve.Proto.V_diverge obs ->
      "D|"
      ^ String.concat "|"
          (List.map
             (fun (o : Serve.Proto.obs) ->
               Printf.sprintf "%s:%s:%s" o.Serve.Proto.ob_impl
                 o.Serve.Proto.ob_status o.Serve.Proto.ob_output)
             obs)

let divergent (p : pair) = String.length p.truth > 0 && p.truth.[0] = 'D'

(* Distinct bad-variant sources of seed-shuffled Juliet tests, as their
   printed text, with the direct oracle's verdict on every test input.
   Half of each set diverges on some input and half agrees on all, so the
   seed does not move the share of the larger divergent replies. *)
let setup opts : setup =
  let rng = Cdutil.Rng.create opts.seed in
  let tests = Array.of_list (Juliet.Suite.full ()) in
  Cdutil.Rng.shuffle rng tests;
  let session = Engine.Session.create ~cache_mb:256 () in
  let nhot = hot_count opts and ncold = cold_count opts in
  (* hot diverging, hot agreeing, cold diverging, cold agreeing *)
  let want = [| nhot / 2; nhot - (nhot / 2); ncold / 2; ncold - (ncold / 2) |] in
  let buckets = Array.make 4 [] in
  let full b = List.length buckets.(b) >= want.(b) in
  let seen = Hashtbl.create 512 in
  Array.iter
    (fun (t : Juliet.Testcase.t) ->
      let src = Minic.Pretty.program_to_string t.Juliet.Testcase.bad in
      if not (Array.for_all Fun.id (Array.init 4 full) || Hashtbl.mem seen src) then
        match Minic.frontend_of_source src with
        | Error _ -> ()
        | Ok tp ->
            Hashtbl.add seen src ();
            let o = Compdiff.Oracle.create ~session ~fuel tp in
            let truths =
              List.map
                (fun input -> (input, canon_direct (Compdiff.Oracle.check o ~input)))
                t.Juliet.Testcase.inputs
            in
            let div = List.exists (fun (_, v) -> v.[0] = 'D') truths in
            let b = if div then (if full 0 then 2 else 0) else if full 1 then 3 else 1 in
            if not (full b) then buckets.(b) <- (src, o, truths) :: buckets.(b))
    tests;
  let hot = List.rev buckets.(0) @ List.rev buckets.(1) in
  let picked = Array.of_list (hot @ List.rev buckets.(2) @ List.rev buckets.(3)) in
  let pairs lo hi =
    Array.to_list (Array.sub picked lo (hi - lo))
    |> List.mapi (fun k (_, _, truths) ->
           List.map (fun (input, truth) -> { src = lo + k; input; truth }) truths)
    |> List.concat |> Array.of_list
  in
  let nhot = List.length hot in
  {
    sources = Array.map (fun (s, _, _) -> s) picked;
    oracles = Array.map (fun (_, o, _) -> o) picked;
    hot = pairs 0 nhot;
    cold = pairs nhot (Array.length picked);
  }

(* What one client saw. *)
type tally = {
  mutable requests : int;
  mutable failures : string list;
  mutable latencies : float list;  (* ms *)
  mutable hot_ms : float list;
  mutable cold_ms : float list;
  mutable done_at : float list;  (* completion times *)
  found : (int, unit) Hashtbl.t;  (* sources served a divergent verdict *)
  mutable sample : (pair * Serve.Proto.verdict * float) list;
}

let tally () =
  { requests = 0; failures = []; latencies = []; hot_ms = []; cold_ms = [];
    done_at = []; found = Hashtbl.create 64; sample = [] }

(* A closed loop: the next request leaves when the previous reply is
   in.  Cold requests walk this client's share of the cold set in a
   seeded order, so the set is covered before the loop may stop. *)
let client_loop opts s path ~c ~deadline (t : tally) =
  let cl = Serve.Client.connect path in
  let rng = Cdutil.Rng.create (Cdutil.Rng.mix opts.seed (c + 1)) in
  let mine =
    Array.of_list
      (List.filteri (fun i _ -> i mod clients = c) (Array.to_list s.cold))
  in
  Cdutil.Rng.shuffle rng mine;
  let k = ref 0 in
  Span.with_ ~item:(Printf.sprintf "client-%d" c) "bench.item" (fun () ->
      while now () < deadline || !k < Array.length mine do
        let cold = Array.length mine > 0 && Cdutil.Rng.int rng 10 = 0 in
        let p =
          if cold then begin
            let p = mine.(!k mod Array.length mine) in
            incr k;
            p
          end
          else s.hot.(Cdutil.Rng.int rng (Array.length s.hot))
        in
        let r, dt =
          timed (fun () ->
              Span.with_ ~item:(if cold then "cold" else "hot") "serve.request"
                (fun () ->
                  try
                    Serve.Client.check cl ~fuel ~source:s.sources.(p.src)
                      ~inputs:[ p.input ] ()
                  with e -> Error (Printexc.to_string e)))
        in
        t.requests <- t.requests + 1;
        let ms = 1000. *. dt in
        match r with
        | Ok [ v ] ->
            if canon_proto v <> p.truth then
              t.failures <- Printf.sprintf "verdict mismatch on source %d" p.src :: t.failures
            else begin
              t.latencies <- ms :: t.latencies;
              t.done_at <- now () :: t.done_at;
              if cold then t.cold_ms <- ms :: t.cold_ms else t.hot_ms <- ms :: t.hot_ms;
              if divergent p then Hashtbl.replace t.found p.src ();
              if t.requests mod sample_every = 0 then t.sample <- (p, v, ms) :: t.sample
            end
        | Ok _ -> t.failures <- "wrong verdict count" :: t.failures
        | Error e -> t.failures <- e :: t.failures
      done);
  Serve.Client.close cl

(* Requests per second: the median over twenty equal runs of
   consecutive completions, so a burst of machine noise moves few of
   them. *)
let rate ~wall (tallies : tally list) =
  let stamps = Array.of_list (List.concat_map (fun t -> t.done_at) tallies) in
  Array.sort compare stamps;
  let n = Array.length stamps and blocks = 20 in
  let b = n / blocks in
  if b < 2 then float_of_int n /. wall
  else
    median
      (List.init blocks (fun j ->
           float_of_int (b - 1) /. (stamps.(((j + 1) * b) - 1) -. stamps.(j * b) +. 1e-9)))

(* Run every client until the deadline; the phase's requests per
   second. *)
let phase opts s path ~seconds =
  let tallies = List.init clients (fun _ -> tally ()) in
  let deadline = now () +. seconds in
  let (), wall =
    timed (fun () ->
        List.mapi
          (fun c t -> Thread.create (fun () -> client_loop opts s path ~c ~deadline t) ())
          tallies
        |> List.iter Thread.join)
  in
  (tallies, rate ~wall tallies)

let merge l (tallies : tally list) =
  List.iter
    (fun t ->
      l.attempted <- l.attempted + t.requests;
      List.iter (fun e -> fail l "serve: %s" e) t.failures)
    tallies;
  let found = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.iter (Hashtbl.replace found) t.found) tallies;
  (List.concat_map (fun t -> t.latencies) tallies, Hashtbl.length found)

(* Every pair once, so the measured phase starts from a warm daemon;
   this is set-up work. *)
let warm_up l s path =
  let cl = Serve.Client.connect path in
  Array.iter
    (fun p ->
      l.attempted <- l.attempted + 1;
      match Serve.Client.check cl ~fuel ~source:s.sources.(p.src) ~inputs:[ p.input ] () with
      | Ok [ v ] when canon_proto v = p.truth -> ()
      | _ -> fail l "serve: warm-up request on source %d failed" p.src)
    (Array.append s.hot s.cold);
  Serve.Client.close cl

let codec_us (p, v, _) s =
  let reps = 16 in
  let req =
    Serve.Proto.Check
      {
        Serve.Proto.ck_source = s.sources.(p.src);
        ck_inputs = [ p.input ];
        ck_profiles = [];
        ck_fuel = fuel;
        ck_strip = false;
      }
  in
  let (), dt =
    timed (fun () ->
        for _ = 1 to reps do
          ignore (Serve.Proto.decode_request (Serve.Proto.encode_request ~id:1 req));
          ignore
            (Serve.Proto.decode_response
               (Serve.Proto.encode_response ~id:1 (Serve.Proto.Check_reply [ v ])))
        done)
  in
  1e6 *. dt /. float_of_int reps

let service_ms (p, _, _) s =
  let reps = 4 in
  let (), dt =
    timed (fun () ->
        for _ = 1 to reps do
          ignore (Compdiff.Oracle.check s.oracles.(p.src) ~input:p.input)
        done)
  in
  1000. *. dt /. float_of_int reps

let run opts : result =
  let l = ledger () in
  let s, setup_s = setup_median ~reps:3 (fun () -> setup opts) in
  let path = Printf.sprintf ".bench-serve-%d.sock" (Unix.getpid ()) in
  let srv, start_s =
    timed (fun () ->
        Serve.Server.create
          {
            Serve.Server.socket_path = path;
            sched =
              {
                (Serve.Scheduler.default_config
                   ~session:(Engine.Session.create ~cache_mb:256 ())
                   ())
                with
                Serve.Scheduler.executors = 2;
                quota = 64;
              };
            client_timeout = 0.;
            idle_timeout = 0.;
            quiet = true;
          })
  in
  let server = Thread.create Serve.Server.serve srv in
  let sched () = Serve.Scheduler.sched_stats (Serve.Server.sched srv) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Thread.join server)
    (fun () ->
      let (), warm_s = timed (fun () -> warm_up l s path) in
      let setup_s = setup_s +. start_s +. warm_s in
      if not opts.trace then begin
        let tallies, rps = phase opts s path ~seconds:opts.seconds in
        let lat, found = merge l tallies in
        {
          ledger = l;
          metrics =
            [
              ("setup_s", setup_s);
              ("throughput_per_s", rps);
              ("checks_per_s", rps);
              ("latency_p50_ms", median lat);
              ("latency_p95_ms", percentile 0.95 lat);
              ("findings", float_of_int found);
              ("peak_heap_mb", peak_heap_mb ());
            ];
        }
      end
      else begin
        (* untraced quarter, traced half, untraced quarter: a steady
           drift of the machine's speed cancels out of the overhead *)
        let quarter = opts.seconds /. 4. in
        let untraced () =
          let tallies, rps = phase opts s path ~seconds:quarter in
          ignore (merge l tallies);
          rps
        in
        let before = untraced () in
        let session = Serve.Scheduler.session (Serve.Server.sched srv) in
        Engine.Session.reset_stats session;
        let s0 = sched () in
        Span.enabled := true;
        let traced, traced_rps = phase opts s path ~seconds:(2. *. quarter) in
        Span.enabled := false;
        let s1 = sched () in
        Layers.add_session (Engine.Session.stats session);
        ignore (merge l traced);
        let after = untraced () in
        let sample = List.concat_map (fun t -> t.sample) traced in
        let codec = List.map (fun x -> (x, codec_us x s)) sample in
        let service = List.map (fun (x, c) -> (x, c, service_ms x s)) codec in
        let wait =
          List.map (fun ((_, _, ms), c, sv) -> ms -. sv -. (c /. 1000.)) service
        in
        let d f = float_of_int (f s1 - f s0) in
        let set name v = Layers.add name v in
        set "serve.codec_us" (median (List.map snd codec));
        set "serve.service_ms" (median (List.map (fun (_, _, v) -> v) service));
        set "serve.wait_ms.p50" (median wait);
        set "serve.wait_ms.p99" (percentile 0.99 wait);
        set "serve.hot_p50_ms" (median (List.concat_map (fun t -> t.hot_ms) traced));
        set "serve.cold_p50_ms" (median (List.concat_map (fun t -> t.cold_ms) traced));
        set "serve.flights" (d (fun x -> x.Serve.Proto.sr_flights));
        set "serve.joined" (d (fun x -> x.Serve.Proto.sr_joined));
        set "serve.batching_ratio"
          (Layers.ratio (d (fun x -> x.Serve.Proto.sr_checks)) (d (fun x -> x.Serve.Proto.sr_flights)));
        set "serve.shed" (d (fun x -> x.Serve.Proto.sr_shed));
        set "serve.warm_oracles" (float_of_int s1.Serve.Proto.sr_oracles);
        Layers.traced_result opts l ~passes:1
          ~overhead:(((before +. after) /. 2. /. traced_rps) -. 1.)
      end)
