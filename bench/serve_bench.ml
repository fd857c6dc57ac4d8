(* Serve-daemon benchmark (emits BENCH_serve.json).

   Measures differential-check service throughput (requests/sec) through
   a real daemon — Unix-domain socket, framing, scheduler — under 1, 4
   and 8 concurrent clients, against the process-per-request baseline:
   every request pays a fresh engine session and a fresh oracle (exactly
   the compile work a cold [compdiff diff] invocation performs, minus
   fork/exec — a conservative floor for the per-process cost).

   The workload is a pool of distinct programs times a set of inputs;
   every client walks the full pool, so concurrent clients ask about the
   same programs: the warm oracle table plus session caches turn repeat
   compiles into lookups, and from a pair's third request on its
   observations are stored.  With one client connected the reader thread
   then answers it without an executor flight ([inline] counts those);
   with 4 or 8, more than the scheduler answers inline for, every check
   is an executor flight, and coalesce-on-pop merges same-key checks
   from different clients into one ([joined], batching ratio = checks
   per executor flight).

   Each client scenario runs three trials of a closed loop at least
   [window] seconds long and reports the median rate with its range,
   and, where [/proc/self/status] exists, the context switches per
   request (voluntary and involuntary, summed over the process's
   threads, set-up excluded).

   Soundness gate: every daemon verdict — every client, every trial — is
   compared against the verdict the oracle produces directly for that
   (program, input); any mismatch fails the bench.  Acceptance floor:
   4-client throughput at least 3x the baseline. *)

(* Distinct programs: same shape, different constants, so each is its
   own oracle key and compiles separately.  A mix of stable and unstable
   behaviour (the `+ n` variant of the unguarded store shifts which
   inputs go out of bounds). *)
let program (k : int) : string =
  Printf.sprintf
    "int test_case(void) {\n\
    \  int buf[8];\n\
    \  int i;\n\
    \  i = 0;\n\
    \  while (i < 8) { buf[i] = i * %d; i = i + 1; }\n\
    \  int x = getchar() - 48 + %d;\n\
    \  if (x < 8) {\n\
    \    buf[x] = %d;\n\
    \    print(\"v %%d\\n\", buf[x < 0 ? 0 : x]);\n\
    \  }\n\
    \  print(\"sum %%d\\n\", buf[0] + buf[3] + buf[7] + x * %d);\n\
    \  return 0;\n\
     }\n\
     int main(void) { test_case(); return 0; }\n"
    (k + 1) (k mod 3) (41 + k) (13 + k)

let n_programs = 4
let inputs = [ ""; "0"; "5"; ":" ]

(* (program index, input) work items, in a fixed order every client walks *)
let workload : (int * string) list =
  List.concat_map
    (fun k -> List.map (fun i -> (k, i)) inputs)
    (List.init n_programs (fun k -> k))

let fuel = 200_000

(* canonical verdict form, comparable across the proto and direct paths *)
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

let trials = 3

(* each scenario trial's closed loop runs at least this long *)
let window = 1.0

(* A gate threads wait on without polling: polling would add context
   switches of its own to the counts. *)
type gate = {
  g_mutex : Mutex.t;
  g_cond : Condition.t;
  mutable arrived : int;
  mutable opened : bool;
}

let gate () =
  { g_mutex = Mutex.create (); g_cond = Condition.create (); arrived = 0;
    opened = false }

let with_gate g f =
  Mutex.lock g.g_mutex;
  f ();
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_mutex

let arrive g = with_gate g (fun () -> g.arrived <- g.arrived + 1)
let open_gate g = with_gate g (fun () -> g.opened <- true)

let await_count g n =
  with_gate g (fun () ->
      while g.arrived < n do
        Condition.wait g.g_cond g.g_mutex
      done)

let await_open g =
  with_gate g (fun () ->
      while not g.opened do
        Condition.wait g.g_cond g.g_mutex
      done)

(* Voluntary and involuntary context switches of this process so far,
   or None where [/proc/self/status] does not exist.  That file counts
   only the main thread, so the counters are summed over every thread's
   [/proc/self/task/<tid>/status]; a thread that exits takes its counts
   with it, so callers sample while every thread they measure is
   alive. *)
let ctx_switches () : (int * int) option =
  let field line name =
    let p = String.length name in
    if String.length line > p && String.sub line 0 p = name then
      int_of_string_opt (String.trim (String.sub line p (String.length line - p)))
    else None
  in
  let of_task tid =
    match open_in (Printf.sprintf "/proc/self/task/%s/status" tid) with
    | exception Sys_error _ -> (0, 0)
    | ic ->
        let v = ref 0 and i = ref 0 in
        (try
           while true do
             let line = input_line ic in
             Option.iter (fun x -> v := x) (field line "voluntary_ctxt_switches:");
             Option.iter (fun x -> i := x) (field line "nonvoluntary_ctxt_switches:")
           done
         with End_of_file -> ());
        close_in ic;
        (!v, !i)
  in
  if not (Sys.file_exists "/proc/self/status") then None
  else
    match Sys.readdir "/proc/self/task" with
    | exception Sys_error _ -> None
    | tids ->
        Some
          (Array.fold_left
             (fun (v, i) tid ->
               let v', i' = of_task tid in
               (v + v', i + i'))
             (0, 0) tids)

let run () =
  let sources = Array.init n_programs program in
  (* ground truth, computed directly (one warm session of its own) *)
  let truth_session = Engine.Session.create ~cache_mb:128 () in
  let truth = Hashtbl.create 32 in
  Array.iteri
    (fun k src ->
      let tp =
        match Minic.frontend_of_source src with
        | Ok tp -> tp
        | Error m -> failwith ("serve bench: bad program: " ^ m)
      in
      let o = Compdiff.Oracle.create ~session:truth_session ~fuel tp in
      List.iter
        (fun input ->
          Hashtbl.replace truth (k, input)
            (canon_direct (Compdiff.Oracle.check o ~input)))
        inputs)
    sources;
  (* process-per-request baseline: fresh session + fresh oracle + one
     check, per request (the cold-CLI cost floor) *)
  let baseline_once () =
    List.iter
      (fun (k, input) ->
        let s = Engine.Session.create ~cache_mb:128 () in
        let tp =
          match Minic.frontend_of_source sources.(k) with
          | Ok tp -> tp
          | Error m -> failwith m
        in
        let o = Compdiff.Oracle.create ~session:s ~fuel tp in
        let v = canon_direct (Compdiff.Oracle.check o ~input) in
        if v <> Hashtbl.find truth (k, input) then
          failwith "serve bench: baseline verdict mismatch")
      workload
  in
  ignore (baseline_once ());
  let base_time, () = Record.time baseline_once in
  (* the daemon, served from a sibling thread in this process *)
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "compdiff-bench-%d.sock" (Unix.getpid ()))
  in
  let srv =
    Serve.Server.create
      {
        Serve.Server.socket_path;
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
      }
  in
  let server_thread = Thread.create Serve.Server.serve srv in
  let mismatches = Atomic.make 0 in
  let check_one cl (k, input) =
    match
      Serve.Client.check cl ~fuel ~source:sources.(k) ~inputs:[ input ] ()
    with
    | Ok [ v ] ->
        if canon_proto v <> Hashtbl.find truth (k, input) then
          Atomic.incr mismatches
    | Ok _ | Error _ -> Atomic.incr mismatches
  in
  (* warmup: populate the daemon's caches so every scenario measures the
     steady serving state, not first-compile *)
  (let cl = Serve.Client.connect socket_path in
   List.iter (check_one cl) workload;
   Serve.Client.close cl);
  let scenario n =
    let trial () =
      let ready = gate () and go = gate () and finished = gate () in
      let release = gate () in
      let requests = Atomic.make 0 and deadline = ref 0. in
      (* one connection per client for the whole trial, so every
         thread the counters are summed over lives through it *)
      let client () =
        let cl = Serve.Client.connect socket_path in
        arrive ready;
        await_open go;
        let work = Array.of_list workload in
        let i = ref 0 in
        while Unix.gettimeofday () < !deadline do
          check_one cl work.(!i mod Array.length work);
          incr i
        done;
        ignore (Atomic.fetch_and_add requests !i);
        arrive finished;
        await_open release;
        Serve.Client.close cl
      in
      let ths = List.init n (fun _ -> Thread.create client ()) in
      await_count ready n;
      Gc.full_major ();
      let c0 = ctx_switches () in
      let t0 = Unix.gettimeofday () in
      deadline := t0 +. window;
      open_gate go;
      await_count finished n;
      let wall = Unix.gettimeofday () -. t0 in
      let c1 = ctx_switches () in
      open_gate release;
      List.iter Thread.join ths;
      let csw =
        match (c0, c1) with
        | Some (v0, i0), Some (v1, i1) -> Some (v1 - v0, i1 - i0)
        | _ -> None
      in
      (wall, Atomic.get requests, csw)
    in
    List.init trials (fun _ -> trial ())
  in
  let scenarios = List.map (fun n -> (n, scenario n)) [ 1; 4; 8 ] in
  let sched = Serve.Scheduler.sched_stats (Serve.Server.sched srv) in
  Serve.Server.stop srv;
  Thread.join server_thread;
  let r =
    Record.create ~bench:"serve"
      ~about:
        "requests/s = differential checks served per second through the \
         daemon socket; baseline = fresh session + fresh oracle per request \
         (cold-CLI cost floor); speedup = 4-client daemon vs baseline"
  in
  Record.count r "programs" n_programs;
  Record.count r "inputs_per_program" (List.length inputs);
  Record.rate r "baseline" "requests/s" (List.length workload) base_time;
  List.iter
    (fun (n, trials) ->
      let name = Printf.sprintf "clients_%d" n in
      Record.add r name "requests/s"
        (List.map (fun (wall, reqs, _) -> float_of_int reqs /. wall) trials);
      Record.add r (name ^ ".window") "s" (List.map (fun (wall, _, _) -> wall) trials);
      Record.ratio r (name ^ ".speedup") name "baseline";
      (* context switches per request over all trials, where counted *)
      let reqs = List.fold_left (fun a (_, n, _) -> a + n) 0 trials in
      let per x = float_of_int x /. float_of_int (max 1 reqs) in
      List.fold_left
        (fun acc (_, _, c) ->
          match (acc, c) with
          | Some (v, i), Some (v', i') -> Some (v + v', i + i')
          | _ -> None)
        (Some (0, 0)) trials
      |> Option.iter (fun (v, i) ->
             Record.value r (name ^ ".voluntary_csw") "csw/request" (per v);
             Record.value r (name ^ ".involuntary_csw") "csw/request" (per i)))
    scenarios;
  List.iter
    (fun (name, n) -> Record.count r ("scheduler." ^ name) n)
    [ ("requests", sched.Serve.Proto.sr_requests);
      ("flights", sched.Serve.Proto.sr_flights);
      ("checks", sched.Serve.Proto.sr_checks);
      ("joined", sched.Serve.Proto.sr_joined);
      ("inline", sched.Serve.Proto.sr_inline);
      ("shed", sched.Serve.Proto.sr_shed);
      ("warm_oracles", sched.Serve.Proto.sr_oracles) ];
  Record.value r "batching_ratio" "checks/flight"
    (float_of_int sched.Serve.Proto.sr_checks
    /. float_of_int (max 1 sched.Serve.Proto.sr_flights));
  Record.at_least r "clients_4.speedup" 3.0;
  Record.holds r "verdicts_match" (Atomic.get mismatches = 0);
  Record.emit r
