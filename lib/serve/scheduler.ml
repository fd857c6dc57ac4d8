(* The serve-daemon scheduler (DESIGN.md §13): many client connections,
   one warm engine.

   Work requests from every client land in one FIFO; a small set of
   executor domains drains it.  Executors are domains, not systhreads:
   systhreads of one domain share its runtime lock, so an executor
   serving a check would queue behind the socket readers and the
   clients of an in-process caller, and every hand-off between them
   would be a lock transfer.  On their own domains the executors run a
   check while the readers decode the next frame; the mutex and
   condition below work across domains unchanged.

   The perf core is cross-client batching: when an executor pops a
   differential-check request it also claims every other queued check
   with the same oracle key (same source, profile set, fuel,
   normalization — from ANY client) and serves the whole group through
   ONE {!Compdiff.Oracle.check_batch} flight.  The oracle's binsig
   dedup then executes each behavioural class once per fuel level for
   the union of all riders' inputs, and the engine
   session's observation store serves repeats without executing at all —
   so concurrent clients asking about the same unit/image share one
   execution instead of re-running it per request.  Verdicts are
   positionally identical to per-request [check] calls by
   {!Compdiff.Oracle.check_batch}'s contract, so batching is invisible
   to clients.

   A repeated check needs neither: when its oracle is warm and the
   session's memory holds every class's base-fuel observation of every
   input, with no input needing escalation, the connection's reader
   thread answers it in [submit] ({!Compdiff.Oracle.check_stored}), with
   the verdicts and counter increments of the flight it replaces.  Only
   while few clients are connected, though: the readers share one
   domain (the server's reader domain), so under several busy
   connections the executor domains answer in parallel instead.  Any
   miss, a cold oracle, more than [inline_max_clients] connections or
   held dispatch queues the check as above.  An inline answer is not a flight: [sr_flights],
   [sr_checks] and [sr_joined] count executor work, [sr_inline] the
   inline answers.

   Backpressure is credit-based: each client holds [quota] credits; a
   work request consumes one on acceptance and returns it with the
   response.  A request arriving while the client has no credits is
   answered [Busy] IMMEDIATELY (never queued), so a slow or flooding
   client sheds its own load instead of growing the shared queue and
   stalling the pool for everyone else.  When a client dies or is timed
   out by the server, its queued requests are dropped and its credits
   vanish with it — a wedged client cannot pin queue slots forever.

   Oracles are compiled programs; compiling ten profiles dwarfs a check.
   A warm table keyed by (source, profiles, fuel, strip), defaults
   resolved, keeps recently used oracles alive across requests and
   clients — the daemon's reason to exist.  It is an {!Engine.Lru} with
   an eighth of the session's budget, the unit cache's share, and an
   oracle weighs the session's estimates of the binaries and class
   images it pins, so [--cache-mb] bounds it too.  Heavy requests (fuzz
   campaigns, metacheck sweeps, reductions) run unbatched, one executor
   each, through the same shared session, so their compiles and
   observations warm the same caches. *)

type config = {
  session : Engine.Session.t;
  quota : int;            (* credits per client *)
  executors : int;        (* executor domains draining the queue *)
  default_fuel : int;
  default_profiles : Cdcompiler.Policy.profile list;
}

let default_config ?session () =
  {
    session =
      (match session with
      | Some s -> s
      | None -> Engine.Session.create ~cache_mb:128 ());
    quota = 32;
    executors = 2;
    default_fuel = 200_000;
    default_profiles = Cdcompiler.Profiles.all;
  }

type client = {
  cl_id : int;
  cl_respond : int -> Proto.response -> unit;
      (* invoked from executor domains and from the reader thread
         ([submit]); must be safe to call after the connection died
         (writes there are dropped by the server) *)
  mutable cl_outstanding : int;  (* credits in use; under [mutex] *)
  mutable cl_completed : int;
  mutable cl_shed : int;
  mutable cl_dead : bool;
}

(* An oracle key: the fuel, strip flag and profile names an oracle is
   built with, and its exact source.  Two requests with equal keys are
   served by one oracle with identical verdicts. *)
type okey = int * bool * string list * string

type item = {
  it_client : client;
  it_id : int;                   (* request id, echoed in the response *)
  it_req : Proto.request;
  it_okey : okey option;         (* oracle key for coalescible checks *)
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  cond : Condition.t;
  queue : item Queue.t;
  mutable stopping : bool;
  mutable paused : bool;  (* dispatch held; see [set_paused] *)
  mutable executors : unit Domain.t list;
  mutable next_client : int;
  mutable clients : client list;
  oracles : (okey, Compdiff.Oracle.t) Engine.Lru.t;
  counted : Compdiff.Oracle.counters;
      (* every warm oracle's counters, evicted ones' included *)
  (* counters (atomic: read by the stats path without the mutex) *)
  c_requests : int Atomic.t;
  c_shed : int Atomic.t;
  c_flights : int Atomic.t;
  c_checks : int Atomic.t;
  c_joined : int Atomic.t;
  c_inline : int Atomic.t;
}

(* --- oracle key / construction --- *)

exception Refused of string

let fuel_or cfg fuel = if fuel <= 0 then cfg.default_fuel else fuel

(* An oracle key with the daemon's defaults resolved, so requests that
   spell a default out share an oracle with those that leave it to the
   daemon.  The oracle is built from the key alone ([oracle_for]); an
   unknown name stays in it as given, and building the oracle refuses
   it. *)
let okey cfg ~fuel ~profiles ~strip source : okey =
  let names =
    match profiles with
    | [] -> List.map (fun p -> p.Cdcompiler.Policy.pname) cfg.default_profiles
    | names -> names
  in
  (fuel_or cfg fuel, strip, names, source)

let okey_of_check cfg (k : Proto.check_req) : okey =
  okey cfg ~fuel:k.ck_fuel ~profiles:k.ck_profiles ~strip:k.ck_strip k.ck_source

(* A name is one of the daemon's default profiles, which may be outside
   [Profiles.all] (serve --profiles clangx-Os-buggy), or of [Profiles.all] *)
let profiles_of_names cfg = function
  | [] -> cfg.default_profiles
  | names ->
      let known = cfg.default_profiles @ Cdcompiler.Profiles.all in
      List.map
        (fun n ->
          match List.find_opt (fun p -> p.Cdcompiler.Policy.pname = n) known with
          | Some p -> p
          | None -> raise (Refused (Printf.sprintf "unknown profile %s" n)))
        names

let frontend source =
  match Minic.frontend_of_source source with
  | Ok tp -> tp
  | Error msg -> raise (Refused (Printf.sprintf "parse error: %s" msg))

(* A warm oracle's weight: the session's estimates of what it pins, its
   binaries and its classes' images *)
let oracle_weight o =
  List.fold_left
    (fun acc (_, u) -> acc + Engine.Session.unit_weight u)
    0 (Compdiff.Oracle.binaries o)
  + Array.fold_left
      (fun acc img -> acc + Engine.Session.image_weight img)
      0
      (Compdiff.Oracle.class_images o)

(* The warm oracle of [key], or one built from it and kept warm.  A miss
   compiles outside every lock — oracle construction compiles every
   profile and must not block submit, stats or the other executors.  Two
   executors missing on one key both compile (the session's unit and
   image caches absorb the duplicate) and both get the oracle inserted
   first, so every rider of a key uses one oracle object. *)
let oracle_for t ((fuel, strip, names, source) as key : okey) : Compdiff.Oracle.t =
  Engine.Lru.find_or_compute t.oracles key ~weight:oracle_weight (fun () ->
      let normalize =
        if strip then Compdiff.Normalize.strip_hex_addresses
        else Compdiff.Normalize.identity
      in
      Compdiff.Oracle.create ~session:t.cfg.session
        ~profiles:(profiles_of_names t.cfg names) ~normalize ~fuel
        ~counters:t.counted (frontend source))

(* --- response construction --- *)

let obs_to_proto (name, (o : Compdiff.Oracle.observation)) : Proto.obs =
  {
    Proto.ob_impl = name;
    ob_output = o.Compdiff.Oracle.output;
    ob_status = Cdvm.Trap.status_to_string o.Compdiff.Oracle.status;
    ob_fuel = o.Compdiff.Oracle.fuel_used;
  }

let verdict_to_proto : Compdiff.Oracle.verdict -> Proto.verdict = function
  | Compdiff.Oracle.Agree o -> Proto.V_agree (obs_to_proto ("", o))
  | Compdiff.Oracle.Diverge obs -> Proto.V_diverge (List.map obs_to_proto obs)

let check_reply (vs : Compdiff.Oracle.verdict array) : Proto.response =
  Proto.Check_reply (Array.to_list (Array.map verdict_to_proto vs))

(* respond and return the credit *)
let respond t (it : item) (r : Proto.response) : unit =
  Mutex.lock t.mutex;
  let dead = it.it_client.cl_dead in
  it.it_client.cl_outstanding <- it.it_client.cl_outstanding - 1;
  it.it_client.cl_completed <- it.it_client.cl_completed + 1;
  Mutex.unlock t.mutex;
  if not dead then try it.it_client.cl_respond it.it_id r with _ -> ()

let reply_of_exn = function
  | Refused msg -> Proto.Err msg
  | e -> Proto.Err (Printf.sprintf "internal error: %s" (Printexc.to_string e))

(* run [f], respond to [it] with its reply (or the error) *)
let guarded t it f =
  let reply = try f () with e -> reply_of_exn e in
  respond t it reply

(* --- flight execution (outside the mutex) --- *)

(* One coalesced check flight: the concatenated inputs of every rider
   (all with oracle key [key]) go through a single [check_batch]; the
   verdict array is then split back per rider, in order. *)
let run_check_flight t key (riders : (item * Proto.check_req) list) : unit =
  Atomic.incr t.c_flights;
  let joined = List.length riders - 1 in
  if joined > 0 then ignore (Atomic.fetch_and_add t.c_joined joined);
  match
    let oracle = oracle_for t key in
    let inputs =
      Array.of_list (List.concat_map (fun (_, k) -> k.Proto.ck_inputs) riders)
    in
    ignore (Atomic.fetch_and_add t.c_checks (Array.length inputs));
    let verdicts = Compdiff.Oracle.check_batch oracle ~inputs in
    let pos = ref 0 in
    List.map
      (fun (it, k) ->
        let n = List.length k.Proto.ck_inputs in
        let mine = Array.sub verdicts !pos n in
        pos := !pos + n;
        (it, check_reply mine))
      riders
  with
  | replies -> List.iter (fun (it, r) -> respond t it r) replies
  | exception e ->
      let r = reply_of_exn e in
      List.iter (fun (it, _) -> respond t it r) riders

let run_fuzz t (it : item) (f : Proto.fuzz_req) : unit =
  Atomic.incr t.c_flights;
  guarded t it (fun () ->
      let tp = frontend f.Proto.fz_source in
      let profiles = profiles_of_names t.cfg f.Proto.fz_profiles in
      let config =
        {
          Fuzz.Compdiff_afl.default_config with
          Fuzz.Compdiff_afl.max_execs = max 1 f.Proto.fz_execs;
          rng_seed = f.Proto.fz_seed;
          seeds = (if f.Proto.fz_seeds = [] then [ "" ] else f.Proto.fz_seeds);
          fuel = fuel_or t.cfg f.Proto.fz_fuel;
          profiles;
          session = Some t.cfg.session;
          reduce_on_save = false;
        }
      in
      let c = Fuzz.Compdiff_afl.run ~config tp in
      let reports =
        List.map
          (fun (e : Compdiff.Triage.diff_entry) ->
            ( e.Compdiff.Triage.input,
              Compdiff.Oracle.report_to_string ~input:e.Compdiff.Triage.input
                e.Compdiff.Triage.observations ))
          (Compdiff.Triage.representatives c.Fuzz.Compdiff_afl.diffs)
      in
      Proto.Fuzz_reply
        {
          Proto.fr_execs = c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs;
          fr_divergent = Compdiff.Triage.total_count c.Fuzz.Compdiff_afl.diffs;
          fr_unique = Compdiff.Triage.unique_count c.Fuzz.Compdiff_afl.diffs;
          fr_reports = reports;
        })

let run_metacheck t (it : item) (m : Proto.metacheck_req) : unit =
  Atomic.incr t.c_flights;
  guarded t it (fun () ->
      let tp = frontend m.Proto.mc_source in
      let profiles = profiles_of_names t.cfg m.Proto.mc_profiles in
      let inputs =
        if m.Proto.mc_inputs = [] then [ "" ] else m.Proto.mc_inputs
      in
      let r =
        Metacheck.Driver.analyze ~session:t.cfg.session ~profiles
          ~fuel:(fuel_or t.cfg m.Proto.mc_fuel)
          ~limit:(max 1 m.Proto.mc_limit) ~name:"serve" tp ~inputs
      in
      Proto.Metacheck_reply
        {
          Proto.mr_preserving = r.Metacheck.Driver.mc_preserving;
          mr_eliminating = r.Metacheck.Driver.mc_eliminating;
          mr_retype_failures =
            List.length r.Metacheck.Driver.mc_retype_failures;
          mr_flags =
            List.map
              (fun (f : Metacheck.Driver.flag) ->
                ( f.Metacheck.Driver.fl_tool,
                  f.Metacheck.Driver.fl_rule,
                  Metacheck.Driver.what_to_string f.Metacheck.Driver.fl_what,
                  f.Metacheck.Driver.fl_detail ))
              r.Metacheck.Driver.mc_flags;
        })

let run_reduce t (it : item) (r : Proto.reduce_req) : unit =
  Atomic.incr t.c_flights;
  guarded t it (fun () ->
      let oracle =
        oracle_for t
          (okey t.cfg ~fuel:r.Proto.rd_fuel ~profiles:r.Proto.rd_profiles
             ~strip:false r.Proto.rd_source)
      in
      let input = r.Proto.rd_input in
      Atomic.incr t.c_checks;
      match Compdiff.Oracle.check oracle ~input with
      | Compdiff.Oracle.Agree _ ->
          Proto.Reduce_reply
            {
              Proto.rr_found = false;
              rr_input = input;
              rr_reduced = input;
              rr_checks = 0;
              rr_report = "";
            }
      | Compdiff.Oracle.Diverge obs -> (
          let program =
            match Minic.Parser.parse_program_result r.Proto.rd_source with
            | Ok p -> Some p
            | Error _ -> None
          in
          match
            Compdiff.Reduce.reduce
              ~max_checks:(max 1 r.Proto.rd_max_checks)
              ?program oracle ~input obs
          with
          | Some red ->
              Proto.Reduce_reply
                {
                  Proto.rr_found = true;
                  rr_input = input;
                  rr_reduced = red.Compdiff.Reduce.red_input;
                  rr_checks =
                    red.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks;
                  rr_report =
                    Compdiff.Oracle.report_to_string
                      ~input:red.Compdiff.Reduce.red_input
                      red.Compdiff.Reduce.red_observations;
                }
          | None ->
              Proto.Reduce_reply
                {
                  Proto.rr_found = true;
                  rr_input = input;
                  rr_reduced = input;
                  rr_checks = 0;
                  rr_report = Compdiff.Oracle.report_to_string ~input obs;
                }))

let run_explore t (it : item) (e : Proto.explore_req) : unit =
  Atomic.incr t.c_flights;
  guarded t it (fun () ->
      let oracle =
        oracle_for t
          (okey t.cfg ~fuel:e.Proto.ex_fuel ~profiles:e.Proto.ex_profiles
             ~strip:false e.Proto.ex_source)
      in
      let input = e.Proto.ex_input in
      let limit =
        if e.Proto.ex_limit > 0 then Some e.Proto.ex_limit else None
      in
      Atomic.incr t.c_checks;
      let not_found er_report =
        Proto.Explore_reply
          {
            Proto.er_found = false;
            er_impl_a = "";
            er_impl_b = "";
            er_step_a = -1;
            er_step_b = -1;
            er_line = -1;
            er_probes = 0;
            er_report;
          }
      in
      match Compdiff.Oracle.check oracle ~input with
      | Compdiff.Oracle.Agree _ -> not_found ""
      | Compdiff.Oracle.Diverge obs -> (
          match
            Compdiff.Localize.of_divergence ~level:Cdtrace.Steps ?limit
              oracle obs ~input
          with
          | None -> not_found "divergence held no comparable pair"
          | Some d ->
              let open Compdiff.Localize in
              let step side =
                match side.ds_at with Some p -> p.pr_step | None -> -1
              in
              let line =
                match (d.deep_a.ds_at, d.deep_b.ds_at) with
                | Some { pr_line = Some l; _ }, _
                | _, Some { pr_line = Some l; _ } ->
                    l
                | _ -> -1
              in
              let ta, tb = d.traces in
              Proto.Explore_reply
                {
                  Proto.er_found = true;
                  er_impl_a = ta.Cdtrace.impl;
                  er_impl_b = tb.Cdtrace.impl;
                  er_step_a = step d.deep_a;
                  er_step_b = step d.deep_b;
                  er_line = line;
                  er_probes = d.probes;
                  er_report = to_string d;
                }))

(* --- the executor loop --- *)

(* pop one item; if it is a coalescible check, also claim every queued
   check with the same oracle key (cross-client batching) *)
let claim_flight t :
    [ `Stop | `Checks of okey * (item * Proto.check_req) list | `One of item ]
    =
  Mutex.lock t.mutex;
  let rec wait () =
    if (not (Queue.is_empty t.queue)) && ((not t.paused) || t.stopping) then begin
      let it = Queue.pop t.queue in
      if it.it_client.cl_dead then begin
        (* dropped with its client: return the credit silently *)
        it.it_client.cl_outstanding <- it.it_client.cl_outstanding - 1;
        wait ()
      end
      else
        match (it.it_okey, it.it_req) with
        | Some key, Proto.Check k ->
            (* drain same-key checks, preserving queue order of the rest *)
            let riders = ref [ (it, k) ] in
            let keep = Queue.create () in
            Queue.iter
              (fun other ->
                match (other.it_okey, other.it_req) with
                | Some key', Proto.Check k'
                  when key' = key && not other.it_client.cl_dead ->
                    riders := (other, k') :: !riders
                | _ -> Queue.add other keep)
              t.queue;
            Queue.clear t.queue;
            Queue.transfer keep t.queue;
            `Checks (key, List.rev !riders)
        | _ -> `One it
    end
    else if t.stopping then `Stop
    else begin
      Condition.wait t.cond t.mutex;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock t.mutex;
  r

let rec executor_loop t =
  match claim_flight t with
  | `Stop -> ()
  | `Checks (key, riders) ->
      run_check_flight t key riders;
      executor_loop t
  | `One it ->
      (match it.it_req with
      | Proto.Fuzz f -> run_fuzz t it f
      | Proto.Metacheck m -> run_metacheck t it m
      | Proto.Reduce r -> run_reduce t it r
      | Proto.Explore e -> run_explore t it e
      | Proto.Check _ | Proto.Ping | Proto.Get_stats ->
          (* checks always carry an okey; ping/stats never enqueue *)
          respond t it (Proto.Err "unschedulable request"));
      executor_loop t

(* --- public interface --- *)

let create (cfg : config) : t =
  let t =
    {
      cfg =
        { cfg with quota = max 1 cfg.quota; executors = max 1 cfg.executors };
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      paused = false;
      executors = [];
      next_client = 0;
      clients = [];
      oracles =
        Engine.Lru.create ~budget_bytes:(Engine.Session.budget_bytes cfg.session / 8);
      counted = Compdiff.Oracle.counters ();
      c_requests = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_flights = Atomic.make 0;
      c_checks = Atomic.make 0;
      c_joined = Atomic.make 0;
      c_inline = Atomic.make 0;
    }
  in
  t.executors <-
    List.init t.cfg.executors (fun _ ->
        Domain.spawn (fun () -> executor_loop t));
  t

let session t = t.cfg.session
let quota t = t.cfg.quota

(* Hold or release dispatch.  While held, executors pop nothing, but
   admission runs as usual: each request is still accepted against its
   client's credits or shed [Busy].  So the admission outcome of a burst
   does not depend on how fast an executor would have drained it.  A
   shutdown drains held work. *)
let set_paused t paused =
  Mutex.lock t.mutex;
  t.paused <- paused;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let register_client t ~(respond : int -> Proto.response -> unit) : client =
  Mutex.lock t.mutex;
  let cl =
    {
      cl_id = t.next_client;
      cl_respond = respond;
      cl_outstanding = 0;
      cl_completed = 0;
      cl_shed = 0;
      cl_dead = false;
    }
  in
  t.next_client <- t.next_client + 1;
  t.clients <- cl :: t.clients;
  Mutex.unlock t.mutex;
  cl

(* A dead client's queued items are left in the queue but skipped (and
   their credits returned) when an executor reaches them; in-flight
   items complete and their response write is dropped by the server. *)
let release_client t (cl : client) : unit =
  Mutex.lock t.mutex;
  cl.cl_dead <- true;
  t.clients <- List.filter (fun c -> c != cl) t.clients;
  Mutex.unlock t.mutex

(* what every warm oracle, evicted or resident, has counted *)
let oracle_stats t = Compdiff.Oracle.counted t.counted

(* [warm]: the warm table's counters, when the caller read them to
   print them too, so both show one reading *)
let sched_stats ?warm t : Proto.sched_stats =
  let warm =
    match warm with Some w -> w | None -> Engine.Lru.stats t.oracles
  in
  Mutex.lock t.mutex;
  let depth = Queue.length t.queue in
  let clients =
    List.map
      (fun cl ->
        {
          Proto.cs_id = cl.cl_id;
          cs_outstanding = cl.cl_outstanding;
          cs_completed = cl.cl_completed;
          cs_shed = cl.cl_shed;
        })
      t.clients
  in
  Mutex.unlock t.mutex;
  {
    Proto.sr_requests = Atomic.get t.c_requests;
    sr_shed = Atomic.get t.c_shed;
    sr_flights = Atomic.get t.c_flights;
    sr_checks = Atomic.get t.c_checks;
    sr_joined = Atomic.get t.c_joined;
    sr_inline = Atomic.get t.c_inline;
    sr_queue_depth = depth;
    sr_pool_pending = Cdutil.Pool.pending (Cdutil.Pool.global ());
    sr_oracles = warm.entries;
    sr_clients = clients;
  }

(* [batching_ratio] is checks per executor flight, the cross-client
   coalescing payoff the bench gates on (1 = no coalescing ever
   happened); [inline] counts the checks answered without a flight;
   [warm] is the warm table's cache counters *)
let sched_json (sc : Proto.sched_stats) (warm : Engine.Lru.stats) :
    Cdutil.Json.t =
  let client (c : Proto.client_stat) : Cdutil.Json.t =
    Obj
      [ ("id", Int c.cs_id); ("outstanding", Int c.cs_outstanding);
        ("completed", Int c.cs_completed); ("shed", Int c.cs_shed) ]
  in
  let ratio = float_of_int sc.sr_checks /. float_of_int (max 1 sc.sr_flights) in
  Obj
    [ ("requests", Int sc.sr_requests); ("shed", Int sc.sr_shed);
      ("flights", Int sc.sr_flights); ("checks", Int sc.sr_checks);
      ("joined", Int sc.sr_joined); ("inline", Int sc.sr_inline);
      ("batching_ratio", Float ratio); ("queue_depth", Int sc.sr_queue_depth);
      ("pool_pending", Int sc.sr_pool_pending);
      ("warm", Engine.Session.cache_json warm);
      ("clients", List (List.map client sc.sr_clients)) ]

(* The daemon's statistics: the CLI's --stats object with a
   "scheduler" member.  [serve --stats] prints it at exit, and a
   [Get_stats] request gets it rendered. *)
let stats_json t : Cdutil.Json.t =
  let warm = Engine.Lru.stats t.oracles in
  Obj
    [ ("oracle", Compdiff.Oracle.stats_json (oracle_stats t));
      ("session", Engine.Session.stats_json (Engine.Session.stats t.cfg.session));
      ("localize", Compdiff.Localize.stats_json ());
      ("scheduler", sched_json (sched_stats ~warm t) warm) ]

let stats_reply t : Proto.response =
  Proto.Stats_reply (Cdutil.Json.to_string (stats_json t))

(* Queue an admitted item for the executors.  Under [t.mutex]; false
   once the daemon is stopping, as the executors may have exited. *)
let enqueue_locked t (it : item) : bool =
  if t.stopping then false
  else begin
    Queue.add it t.queue;
    Condition.signal t.cond;
    true
  end

let shutting_down = Proto.Err "daemon shutting down"

(* The fast path's load gate.  Every connection's reader is a systhread
   of one domain, so a check answered on a reader runs one after another
   with every other connection's work while the executor domains idle.
   On two vCPUs, with closed-loop clients answered inline and their
   threads on the readers' domain, that domain had another thread
   waiting to run never under one connection, about half the time under
   two and nine times in ten under four.  Probing it per request cost
   more than inline answers saved (DESIGN.md 13.2), so the gate counts
   open connections: above [inline_max_clients], checks take the
   executor path. *)
let inline_max_clients = 2

(* [submit]: called from the server's per-client reader threads.  Ping
   and stats are answered inline (they must stay responsive when every
   executor is busy); work requests go through admission control.  An
   admitted check whose oracle is warm and whose observations are all in
   the session's memory ({!Compdiff.Oracle.check_stored}) is answered
   here too, on the reader thread, without an executor hand-off, while
   at most [inline_max_clients] clients are connected; everything else
   is queued.  A request counts in [sr_requests] once it is answered
   here or queued.  A daemon that is stopping, or a released client,
   gets [Err]; only a client over its quota gets [Busy]. *)
let submit t (cl : client) ~(id : int) (req : Proto.request) : unit =
  match req with
  | Proto.Ping -> ( try cl.cl_respond id Proto.Pong with _ -> ())
  | Proto.Get_stats -> (
      let r = stats_reply t in
      try cl.cl_respond id r with _ -> ())
  | Proto.Check _ | Proto.Fuzz _ | Proto.Metacheck _ | Proto.Reduce _
  | Proto.Explore _ -> (
      let okey =
        match req with
        | Proto.Check k -> Some (okey_of_check t.cfg k)
        | _ -> None
      in
      let it = { it_client = cl; it_id = id; it_req = req; it_okey = okey } in
      Mutex.lock t.mutex;
      let admission =
        if cl.cl_dead || t.stopping then `Closed
        else if cl.cl_outstanding >= t.cfg.quota then begin
          cl.cl_shed <- cl.cl_shed + 1;
          `Shed
        end
        else begin
          cl.cl_outstanding <- cl.cl_outstanding + 1;
          (* held dispatch answers nothing inline either *)
          let warm =
            match (req, okey) with
            | Proto.Check k, Some key
              when List.compare_length_with t.clients inline_max_clients <= 0
                   && not t.paused ->
                Option.map
                  (fun o -> (o, k))
                  (Engine.Lru.peek_hashed t.oracles (Hashtbl.hash key) key)
            | _ -> None
          in
          match warm with
          | Some w -> `Warm w
          | None ->
              (* not stopping: checked above, under the same lock *)
              ignore (enqueue_locked t it);
              `Queued
        end
      in
      Mutex.unlock t.mutex;
      match admission with
      | `Closed -> ( try cl.cl_respond id shutting_down with _ -> ())
      | `Shed -> (
          Atomic.incr t.c_shed;
          try cl.cl_respond id (Proto.Busy t.cfg.quota) with _ -> ())
      | `Queued -> Atomic.incr t.c_requests
      | `Warm (o, k) -> (
          match
            Compdiff.Oracle.check_stored o
              ~inputs:(Array.of_list k.Proto.ck_inputs)
          with
          | Some vs ->
              (* the warm lookup is counted once it is kept; a fallback's
                 flight counts its own *)
              Engine.Lru.count_hits t.oracles 1;
              Atomic.incr t.c_requests;
              Atomic.incr t.c_inline;
              respond t it (check_reply vs)
          | None ->
              Mutex.lock t.mutex;
              let queued = enqueue_locked t it in
              Mutex.unlock t.mutex;
              if queued then Atomic.incr t.c_requests
              else respond t it shutting_down
          | exception e ->
              Atomic.incr t.c_requests;
              respond t it (reply_of_exn e)))

(* True when no work is queued or executing: the server's idle test. *)
let idle t : bool =
  Mutex.lock t.mutex;
  let idle =
    Queue.is_empty t.queue
    && List.for_all (fun cl -> cl.cl_outstanding = 0) t.clients
  in
  Mutex.unlock t.mutex;
  idle

let shutdown t : unit =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.cond;
  let ds = t.executors in
  t.executors <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ds
