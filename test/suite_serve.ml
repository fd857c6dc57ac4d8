(* Tests for the serve daemon: protocol codecs, end-to-end verdict
   equality against the direct oracle under concurrent clients,
   credit-based backpressure, fault isolation (killed clients, garbage
   frames), heavy request types, and the idle-timeout lifecycle.

   Every daemon here is a real one — Unix-domain socket, reader threads,
   scheduler executors — served from a sibling thread of the test
   process, exactly as the bench runs it. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let stable_src = "int main() { print(\"ok %d\\n\", getchar()); return 0; }"

let unstable_src =
  "int main() {\n\
   \  int l;\n\
   \  int c = getchar();\n\
   \  if (c > 64) { l = c; }\n\
   \  print(\"%d\\n\", l);\n\
   \  return 0;\n\
   }"

(* every implementation exhausts any budget: a deterministic slow check
   (all-hang stops escalation, so cost = the requested base fuel) *)
let slow_src =
  "int main() {\n\
   \  int i;\n\
   \  i = 0;\n\
   \  while (i < 1000000000) { i = i + 1; }\n\
   \  print(\"%d\\n\", i);\n\
   \  return 0;\n\
   }"

let temp_socket () =
  let f = Filename.temp_file "cds_test" ".sock" in
  Sys.remove f;
  f

(* a daemon on a fresh socket; returns (socket path, server, its thread) *)
let start_server ?(quota = 32) ?(executors = 2) ?(idle_timeout = 0.)
    ?(client_timeout = 0.) ?(session = Engine.Session.create ~cache_mb:64 ())
    ?(profiles = Cdcompiler.Profiles.all) () =
  let socket_path = temp_socket () in
  let srv =
    Serve.Server.create
      {
        Serve.Server.socket_path;
        sched =
          {
            (Serve.Scheduler.default_config ~session ())
            with
            Serve.Scheduler.quota;
            executors;
            default_profiles = profiles;
          };
        client_timeout;
        idle_timeout;
        quiet = true;
      }
  in
  let th = Thread.create Serve.Server.serve srv in
  (socket_path, srv, th)

let stop_server (srv, th) =
  Serve.Server.stop srv;
  Thread.join th

(* canonical verdict forms, comparable across the two paths *)
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

(* --- protocol codecs --- *)

let test_proto_roundtrip () =
  let reqs =
    [
      Serve.Proto.Ping;
      Serve.Proto.Get_stats;
      Serve.Proto.Check
        {
          Serve.Proto.ck_source = "int main() { return 0; }";
          ck_inputs = [ ""; "ab\x00\xff"; "z" ];
          ck_profiles = [ "gccx-O0"; "clangx-O3" ];
          ck_fuel = 12345;
          ck_strip = true;
        };
      Serve.Proto.Fuzz
        {
          Serve.Proto.fz_source = "s";
          fz_execs = 7;
          fz_seed = 3;
          fz_seeds = [ "a"; "" ];
          fz_profiles = [];
          fz_fuel = 0;
        };
      Serve.Proto.Metacheck
        {
          Serve.Proto.mc_source = "m";
          mc_inputs = [ "x" ];
          mc_limit = 2;
          mc_profiles = [ "gccx-O2" ];
          mc_fuel = 99;
        };
      Serve.Proto.Reduce
        {
          Serve.Proto.rd_source = "r";
          rd_input = "inp";
          rd_max_checks = 55;
          rd_profiles = [];
          rd_fuel = 1;
        };
      Serve.Proto.Explore
        {
          Serve.Proto.ex_source = "e";
          ex_input = "inp";
          ex_profiles = [ "gccx-O0" ];
          ex_fuel = 9;
          ex_limit = 4096;
        };
    ]
  in
  List.iteri
    (fun i req ->
      let id = i * 7 + 1 in
      let id', req' =
        Serve.Proto.decode_request (Serve.Proto.encode_request ~id req)
      in
      check_int "request id round-trips" id id';
      check_bool "request round-trips" true (req = req'))
    reqs;
  let obs =
    {
      Serve.Proto.ob_impl = "gccx-O2";
      ob_output = "out\n";
      ob_status = "exit(0)";
      ob_fuel = 417;
    }
  in
  let resps =
    [
      Serve.Proto.Pong;
      Serve.Proto.Check_reply
        [ Serve.Proto.V_agree obs; Serve.Proto.V_diverge [ obs; obs ] ];
      Serve.Proto.Busy 32;
      Serve.Proto.Err "nope";
      Serve.Proto.Stats_reply "{\"session\": {\"caching\": true}}";
      Serve.Proto.Fuzz_reply
        {
          Serve.Proto.fr_execs = 10;
          fr_divergent = 2;
          fr_unique = 1;
          fr_reports = [ ("in", "report") ];
        };
      Serve.Proto.Metacheck_reply
        {
          Serve.Proto.mr_preserving = 3;
          mr_eliminating = 1;
          mr_retype_failures = 0;
          mr_flags = [ ("t", "r", "w", "d") ];
        };
      Serve.Proto.Reduce_reply
        {
          Serve.Proto.rr_found = true;
          rr_input = "long";
          rr_reduced = "l";
          rr_checks = 12;
          rr_report = "rep";
        };
      Serve.Proto.Explore_reply
        {
          Serve.Proto.er_found = true;
          er_impl_a = "gccx/O0";
          er_impl_b = "clangx/O3";
          er_step_a = 41;
          er_step_b = 40;
          er_line = 5;
          er_probes = 7;
          er_report = "rep";
        };
      (* the -1 "absent" sentinels must survive the unsigned wire *)
      Serve.Proto.Explore_reply
        {
          Serve.Proto.er_found = false;
          er_impl_a = "";
          er_impl_b = "";
          er_step_a = -1;
          er_step_b = -1;
          er_line = -1;
          er_probes = 0;
          er_report = "";
        };
    ]
  in
  List.iteri
    (fun i r ->
      let id = i + 100 in
      let id', r' =
        Serve.Proto.decode_response (Serve.Proto.encode_response ~id r)
      in
      check_int "response id round-trips" id id';
      check_bool "response round-trips" true (r = r'))
    resps

(* --- ping / stats --- *)

let test_ping_and_stats () =
  let path, srv, th = start_server () in
  let cl = Serve.Client.connect path in
  check_bool "pong" true (Serve.Client.ping cl);
  let sched = Serve.Server.sched srv in
  check_int "one client listed" 1
    (List.length (Serve.Scheduler.sched_stats sched).Serve.Proto.sr_clients);
  (match Serve.Client.stats cl with
  | None -> Alcotest.fail "no stats reply"
  | Some s ->
      check_bool "the reply is the scheduler's stats object" true
        (s = Cdutil.Json.to_string (Serve.Scheduler.stats_json sched)));
  Serve.Client.close cl;
  stop_server (srv, th)

(* --- concurrent clients: verdict equality against the direct oracle --- *)

let test_concurrent_verdict_equality () =
  let sources = [| stable_src; unstable_src |] in
  let inputs = [ ""; "A"; "z" ] in
  (* ground truth from a direct oracle *)
  let session = Engine.Session.create ~cache_mb:64 () in
  let truth = Hashtbl.create 16 in
  Array.iteri
    (fun k src ->
      let o =
        Compdiff.Oracle.create ~session ~fuel:100_000 (frontend src)
      in
      List.iter
        (fun input ->
          Hashtbl.replace truth (k, input)
            (canon_direct (Compdiff.Oracle.check o ~input)))
        inputs)
    sources;
  let path, srv, th = start_server () in
  let mismatches = Atomic.make 0 in
  let client_pass () =
    let cl = Serve.Client.connect path in
    Array.iteri
      (fun k src ->
        List.iter
          (fun input ->
            match
              Serve.Client.check cl ~fuel:100_000 ~source:src
                ~inputs:[ input ] ()
            with
            | Ok [ v ] ->
                if canon_proto v <> Hashtbl.find truth (k, input) then
                  Atomic.incr mismatches
            | _ -> Atomic.incr mismatches)
          inputs)
      sources;
    (* interleave a stats request mid-stream, like a monitoring client *)
    (match Serve.Client.stats cl with
    | Some _ -> ()
    | None -> Atomic.incr mismatches);
    Serve.Client.close cl;
    ()
  in
  let ths = List.init 4 (fun _ -> Thread.create client_pass ()) in
  List.iter Thread.join ths;
  check_int "all daemon verdicts equal direct verdicts" 0
    (Atomic.get mismatches);
  stop_server (srv, th)

(* a multi-input check request comes back positionally aligned *)
let test_multi_input_positions () =
  let path, srv, th = start_server () in
  let session = Engine.Session.create ~cache_mb:64 () in
  let o =
    Compdiff.Oracle.create ~session ~fuel:100_000 (frontend unstable_src)
  in
  let inputs = [ "A"; ""; "q"; "A" ] in
  let want =
    List.map (fun input -> canon_direct (Compdiff.Oracle.check o ~input)) inputs
  in
  let cl = Serve.Client.connect path in
  (match
     Serve.Client.check cl ~fuel:100_000 ~source:unstable_src ~inputs ()
   with
  | Ok vs ->
      check_int "verdict per input" (List.length inputs) (List.length vs);
      List.iter2
        (fun w v -> check_bool "position preserved" true (canon_proto v = w))
        want vs
  | _ -> Alcotest.fail "check failed");
  Serve.Client.close cl;
  stop_server (srv, th)

(* --- backpressure: an over-quota client is shed, others are served --- *)

(* poll [cond] until it holds; fail after [timeout] seconds *)
let wait_until ?(timeout = 60.) what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what;
    Thread.delay 0.002
  done

let test_quota_backpressure () =
  let path, srv, th = start_server ~quota:1 ~executors:1 () in
  let sched = Serve.Server.sched srv in
  (* Dispatch is held while the burst is admitted.  Otherwise the
     accepted check can finish, and return its credit, before the reader
     has admitted the rest of the burst, and a second one is accepted. *)
  Serve.Scheduler.set_paused sched true;
  let flood = Serve.Client.connect path in
  (* pipeline a burst of slow checks without reading responses: the
     first consumes the only credit, the rest must be shed Busy *)
  let burst = 6 in
  let ids =
    List.init burst (fun _ ->
        Serve.Client.send flood
          (Serve.Proto.Check
             {
               Serve.Proto.ck_source = slow_src;
               ck_inputs = [ "" ];
               ck_profiles = [];
               ck_fuel = 5_000_000;
               ck_strip = false;
             }))
  in
  wait_until "burst admitted" (fun () ->
      let st = Serve.Scheduler.sched_stats sched in
      st.Serve.Proto.sr_requests + st.Serve.Proto.sr_shed = burst);
  Serve.Scheduler.set_paused sched false;
  (* a second client is admitted and served despite the flood *)
  let other = Serve.Client.connect path in
  (match
     Serve.Client.check other ~fuel:100_000 ~source:stable_src ~inputs:[ "A" ]
       ()
   with
  | Ok [ Serve.Proto.V_agree _ ] -> ()
  | _ -> Alcotest.fail "victim client was not served during the flood");
  Serve.Client.close other;
  (* drain the flood's responses: one real verdict, the rest Busy *)
  let busy = ref 0 and replies = ref 0 in
  List.iter
    (fun _ ->
      match Serve.Client.recv flood with
      | Some (_, Serve.Proto.Busy _) -> incr busy
      | Some (_, Serve.Proto.Check_reply _) -> incr replies
      | Some _ | None -> Alcotest.fail "unexpected flood response")
    ids;
  check_int "exactly one accepted" 1 !replies;
  check_int "rest shed as Busy" (burst - 1) !busy;
  (* shed requests are visible in the daemon's stats *)
  let st = Serve.Scheduler.sched_stats sched in
  check_int "shed counter" (burst - 1) st.Serve.Proto.sr_shed;
  Serve.Client.close flood;
  stop_server (srv, th)

(* --- fault isolation --- *)

let test_killed_mid_request_client () =
  let path, srv, th = start_server ~executors:1 () in
  (* fire a slow request and vanish without reading the response *)
  let doomed = Serve.Client.connect path in
  ignore
    (Serve.Client.send doomed
       (Serve.Proto.Check
          {
            Serve.Proto.ck_source = slow_src;
            ck_inputs = [ "" ];
            ck_profiles = [];
            ck_fuel = 5_000_000;
            ck_strip = false;
          }));
  Serve.Client.close doomed;
  (* the daemon keeps serving: a fresh client gets a correct verdict *)
  let cl = Serve.Client.connect path in
  (match
     Serve.Client.check cl ~fuel:100_000 ~source:stable_src ~inputs:[ "x" ] ()
   with
  | Ok [ Serve.Proto.V_agree obs ] ->
      check_bool "correct output after killed client" true
        (obs.Serve.Proto.ob_output = "ok 120\n")
  | _ -> Alcotest.fail "daemon did not serve after a killed client");
  check_bool "still pings" true (Serve.Client.ping cl);
  Serve.Client.close cl;
  stop_server (srv, th)

(* A client that shuts down its read side and then sends a check makes
   the reply's write fail with EPIPE.  The daemon retires that
   connection and keeps serving; with SIGPIPE at its default action the
   write would kill the whole process. *)
let test_half_closed_client () =
  let session = Engine.Session.create ~cache_mb:64 () in
  let truth =
    List.concat_map
      (fun src ->
        let o = Compdiff.Oracle.create ~session ~fuel:100_000 (frontend src) in
        List.map
          (fun input ->
            ((src, input), canon_direct (Compdiff.Oracle.check o ~input)))
          [ ""; "A"; "z" ])
      [ stable_src; unstable_src ]
  in
  let path, srv, th = start_server ~executors:1 () in
  let sched = Serve.Server.sched srv in
  let half = Serve.Client.connect path in
  Unix.shutdown half.Serve.Client.fd Unix.SHUTDOWN_RECEIVE;
  ignore
    (Serve.Client.send half
       (Serve.Proto.Check
          {
            Serve.Proto.ck_source = stable_src;
            ck_inputs = [ "A" ];
            ck_profiles = [];
            ck_fuel = 100_000;
            ck_strip = false;
          }));
  (* the one executor has taken the request; any later reply is written
     after this one *)
  wait_until "half-closed request served" (fun () ->
      List.exists
        (fun c -> c.Serve.Proto.cs_completed = 1)
        (Serve.Scheduler.sched_stats sched).Serve.Proto.sr_clients);
  let cl = Serve.Client.connect path in
  List.iter
    (fun ((src, input), want) ->
      match
        Serve.Client.check cl ~fuel:100_000 ~source:src ~inputs:[ input ] ()
      with
      | Ok [ v ] ->
          check_bool
            (Printf.sprintf "verdict on %S after a half-closed client" input)
            true (canon_proto v = want)
      | _ -> Alcotest.fail "daemon did not serve after a half-closed client")
    truth;
  check_bool "still pings" true (Serve.Client.ping cl);
  Serve.Client.close cl;
  Serve.Client.close half;
  stop_server (srv, th)

let test_garbage_frame_is_rejected () =
  let path, srv, th = start_server () in
  (* speak the handshake, then send a syntactically valid frame whose
     payload is garbage: the daemon answers Err and disconnects us *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Serve.Proto.really_write fd (Serve.Proto.hello ());
  (match Serve.Proto.really_read fd Serve.Proto.hello_bytes with
  | Some _ -> ()
  | None -> Alcotest.fail "no hello echo");
  Serve.Proto.write_frame fd "\xee\xee\xee";
  (match Serve.Proto.read_frame fd with
  | Some frame -> (
      match Serve.Proto.decode_response frame with
      | _, Serve.Proto.Err _ -> ()
      | _ -> Alcotest.fail "expected Err for garbage frame")
  | None -> Alcotest.fail "no response to garbage frame");
  check_bool "disconnected after garbage" true
    (Serve.Proto.read_frame fd = None);
  Unix.close fd;
  (* and the daemon is still healthy *)
  let cl = Serve.Client.connect path in
  check_bool "daemon alive after garbage" true (Serve.Client.ping cl);
  Serve.Client.close cl;
  stop_server (srv, th)

(* --- heavy request types through the daemon --- *)

let test_fuzz_metacheck_reduce_requests () =
  let path, srv, th = start_server () in
  let cl = Serve.Client.connect path in
  (match
     Serve.Client.call cl
       (Serve.Proto.Fuzz
          {
            Serve.Proto.fz_source = unstable_src;
            fz_execs = 300;
            fz_seed = 7;
            fz_seeds = [];
            fz_profiles = [];
            fz_fuel = 100_000;
          })
   with
  | Serve.Proto.Fuzz_reply r ->
      check_bool "campaign executed" true (r.Serve.Proto.fr_execs > 0);
      check_bool "divergences found on unstable program" true
        (r.Serve.Proto.fr_unique > 0);
      check_bool "reports rendered" true (r.Serve.Proto.fr_reports <> [])
  | _ -> Alcotest.fail "fuzz request failed");
  (match
     Serve.Client.call cl
       (Serve.Proto.Metacheck
          {
            Serve.Proto.mc_source = stable_src;
            mc_inputs = [ "A" ];
            mc_limit = 2;
            mc_profiles = [];
            mc_fuel = 100_000;
          })
   with
  | Serve.Proto.Metacheck_reply r ->
      check_bool "twins generated" true
        (r.Serve.Proto.mr_preserving + r.Serve.Proto.mr_eliminating > 0)
  | _ -> Alcotest.fail "metacheck request failed");
  (match
     Serve.Client.call cl
       (Serve.Proto.Reduce
          {
            Serve.Proto.rd_source = unstable_src;
            (* first byte <= '@' keeps [l] uninitialized: divergent,
               with trailing bytes the reducer can strip *)
            rd_input = "0 stray bytes the divergence does not need";
            rd_max_checks = 500;
            rd_profiles = [];
            rd_fuel = 100_000;
          })
   with
  | Serve.Proto.Reduce_reply r ->
      check_bool "divergence found" true r.Serve.Proto.rr_found;
      check_bool "input shrank" true
        (String.length r.Serve.Proto.rr_reduced
        <= String.length r.Serve.Proto.rr_input);
      check_bool "report rendered" true (r.Serve.Proto.rr_report <> "")
  | _ -> Alcotest.fail "reduce request failed");
  (match
     Serve.Client.explore cl ~fuel:100_000 ~source:unstable_src ~input:"0" ()
   with
  | Ok e ->
      check_bool "explore found the divergence" true e.Serve.Proto.er_found;
      check_bool "implementations named" true
        (e.Serve.Proto.er_impl_a <> "" && e.Serve.Proto.er_impl_b <> "");
      check_bool "diverging step localized" true
        (e.Serve.Proto.er_step_a >= 0 && e.Serve.Proto.er_step_b >= 0);
      (* the uninitialized read is on the print at line 5 *)
      check_int "line attributed" 5 e.Serve.Proto.er_line;
      check_bool "deep report rendered" true (e.Serve.Proto.er_report <> "")
  | Error m -> Alcotest.failf "explore request failed: %s" m);
  (match
     Serve.Client.explore cl ~fuel:100_000 ~source:stable_src ~input:"A" ()
   with
  | Ok e ->
      check_bool "stable program does not diverge" false
        e.Serve.Proto.er_found
  | Error m -> Alcotest.failf "stable explore failed: %s" m);
  (* an unparsable program is an Err, not a dead daemon *)
  (match
     Serve.Client.check cl ~source:"int main( {" ~inputs:[ "" ] ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error should be an Err");
  check_bool "alive after Err" true (Serve.Client.ping cl);
  Serve.Client.close cl;
  stop_server (srv, th)

(* --- lifecycle: idle timeout exits cleanly --- *)

let test_idle_timeout_shutdown () =
  let path, srv, th = start_server ~idle_timeout:0.4 () in
  ignore srv;
  let cl = Serve.Client.connect path in
  check_bool "served before timeout" true (Serve.Client.ping cl);
  Serve.Client.close cl;
  (* no clients, no work: the daemon must exit by itself *)
  Thread.join th;
  check_bool "socket file removed on shutdown" true
    (not (Sys.file_exists path))

(* A campaign's observations are requested once each, so the daemon's
   session admits almost none of them: a 2000-exec Fuzz request over ten
   profiles used to add up to 10 x 2000 store entries. *)
let test_fuzz_request_keeps_store_small () =
  let session = Engine.Session.create ~cache_mb:64 () in
  let path, srv, th = start_server ~session () in
  let cl = Serve.Client.connect path in
  let entries () =
    (Engine.Session.stats session).Engine.Session.observations
      .Engine.Session.entries
  in
  let before = entries () in
  (match
     Serve.Client.call cl
       (Serve.Proto.Fuzz
          {
            Serve.Proto.fz_source = unstable_src;
            fz_execs = 2000;
            fz_seed = 3;
            fz_seeds = [];
            fz_profiles = [];
            fz_fuel = 100_000;
          })
   with
  | Serve.Proto.Fuzz_reply r ->
      check_int "the whole campaign ran" 2000 r.Serve.Proto.fr_execs
  | _ -> Alcotest.fail "fuzz request failed");
  let grown = entries () - before in
  Serve.Client.close cl;
  stop_server (srv, th);
  check_bool
    (Printf.sprintf "store grew by %d entries, far fewer than 10 x 2000" grown)
    true
    (grown < 2000)

(* --- checks answered on the reader thread --- *)

let sched_stats srv = Serve.Scheduler.sched_stats (Serve.Server.sched srv)

let check_req ?(inputs = [ "A" ]) source : Serve.Proto.request =
  Serve.Proto.Check
    {
      Serve.Proto.ck_source = source;
      ck_inputs = inputs;
      ck_profiles = [];
      ck_fuel = 100_000;
      ck_strip = false;
    }

let direct_verdicts ?(session = Engine.Session.create ~cache_mb:64 ()) src
    inputs =
  let o = Compdiff.Oracle.create ~session ~fuel:100_000 (frontend src) in
  List.map (fun input -> canon_direct (Compdiff.Oracle.check o ~input)) inputs

let verdicts_of what = function
  | Serve.Proto.Check_reply vs -> List.map canon_proto vs
  | _ -> Alcotest.failf "%s: not a check reply" what

(* The first request compiles the oracle and runs every class (its
   observations are declined), the second stores them, and the third is
   answered from the store on the reader thread: no flight, the direct
   oracle's verdict. *)
let test_stored_check_answered_inline () =
  let path, srv, th = start_server ~executors:1 () in
  let cl = Serve.Client.connect path in
  let inputs = [ "A"; "" ] in
  let want = direct_verdicts unstable_src inputs in
  let ask () =
    verdicts_of "check" (Serve.Client.call cl (check_req ~inputs unstable_src))
  in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "request %d = direct" n) true (ask () = want))
    [ 1; 2 ];
  let s2 = sched_stats srv in
  check_int "two flights" 2 s2.Serve.Proto.sr_flights;
  check_int "nothing inline yet" 0 s2.Serve.Proto.sr_inline;
  check_bool "the third request = direct" true (ask () = want);
  let s3 = sched_stats srv in
  check_int "answered inline" 1 s3.Serve.Proto.sr_inline;
  check_int "no executor flight" 2 s3.Serve.Proto.sr_flights;
  check_int "no executor checks" s2.Serve.Proto.sr_checks
    s3.Serve.Proto.sr_checks;
  check_int "an accepted request" 3 s3.Serve.Proto.sr_requests;
  check_bool "its credit returned" true
    (List.for_all
       (fun c -> c.Serve.Proto.cs_outstanding = 0 && c.Serve.Proto.cs_completed = 3)
       s3.Serve.Proto.sr_clients);
  (match Serve.Client.stats cl with
  | Some st ->
      check_bool "Get_stats reports it" true
        (Suite_gen.contains st "\"inline\": 1,")
  | None -> Alcotest.fail "no stats reply");
  Serve.Client.close cl;
  stop_server (srv, th)

(* A warm oracle whose store lacks one class falls back to an executor:
   the flight looks every class up once (the inline attempt counted
   nothing), and the missing class's first request is declined.  The
   store is warmed for every other class through a profile subset on
   the daemon's own session, whose images the daemon's oracle shares. *)
let test_missing_class_falls_back () =
  let session = Engine.Session.create ~cache_mb:64 () in
  let path, srv, th = start_server ~executors:1 ~session () in
  let cl = Serve.Client.connect path in
  (* warm the daemon's oracle on another input *)
  ignore (verdicts_of "warm-up" (Serve.Client.call cl (check_req ~inputs:[ "z" ] unstable_src)));
  let tp = frontend unstable_src in
  let full = Compdiff.Oracle.create ~session ~fuel:100_000 tp in
  let classes = Compdiff.Oracle.classes full in
  let last = classes.(Array.length classes - 1) in
  let sub =
    Compdiff.Oracle.create ~session ~fuel:100_000
      ~profiles:
        (List.filteri (fun i _ -> classes.(i) <> last) Cdcompiler.Profiles.all)
      tp
  in
  ignore (Compdiff.Oracle.check sub ~input:"A");
  ignore (Compdiff.Oracle.check sub ~input:"A");
  let counts () =
    let st = Engine.Session.stats session in
    let o = st.Engine.Session.observations in
    (o.Engine.Session.hits + o.Engine.Session.misses, st.Engine.Session.declined)
  in
  let lookups0, declined0 = counts () in
  let s0 = sched_stats srv in
  let got = verdicts_of "check" (Serve.Client.call cl (check_req unstable_src)) in
  check_bool "verdict = direct" true (got = direct_verdicts unstable_src [ "A" ]);
  let lookups1, declined1 = counts () in
  let s1 = sched_stats srv in
  check_int "not inline" 0 s1.Serve.Proto.sr_inline;
  check_int "one executor flight" (s0.Serve.Proto.sr_flights + 1)
    s1.Serve.Proto.sr_flights;
  check_int "one lookup per class" (Compdiff.Oracle.class_count full)
    (lookups1 - lookups0);
  check_int "the missing class's first request is declined" 1
    (declined1 - declined0);
  (* an input no class has seen falls back too, declined everywhere *)
  ignore (verdicts_of "fresh" (Serve.Client.call cl (check_req ~inputs:[ "fresh" ] unstable_src)));
  let lookups2, declined2 = counts () in
  check_int "fresh: one lookup per class" (Compdiff.Oracle.class_count full)
    (lookups2 - lookups1);
  check_int "fresh: every class declined" (Compdiff.Oracle.class_count full)
    (declined2 - declined1);
  check_int "still nothing inline" 0 (sched_stats srv).Serve.Proto.sr_inline;
  Serve.Client.close cl;
  stop_server (srv, th)

(* Held dispatch holds stored checks too: a paused daemon answers no
   check inline, and the held check is served by an executor once
   dispatch resumes. *)
let test_paused_answers_nothing_inline () =
  let path, srv, th = start_server ~executors:1 () in
  let sched = Serve.Server.sched srv in
  let cl = Serve.Client.connect path in
  let want = direct_verdicts stable_src [ "A" ] in
  for _ = 1 to 2 do
    ignore (Serve.Client.call cl (check_req stable_src))
  done;
  Serve.Scheduler.set_paused sched true;
  let id = Serve.Client.send cl (check_req stable_src) in
  wait_until "held check admitted" (fun () ->
      (sched_stats srv).Serve.Proto.sr_queue_depth = 1);
  check_int "nothing inline while paused" 0 (sched_stats srv).Serve.Proto.sr_inline;
  Serve.Scheduler.set_paused sched false;
  (match Serve.Client.recv cl with
  | Some (id', r) ->
      check_int "the held request's reply" id id';
      check_bool "verdict = direct" true (verdicts_of "held" r = want)
  | None -> Alcotest.fail "no reply after resuming");
  let st = sched_stats srv in
  check_int "served by an executor" 3 st.Serve.Proto.sr_flights;
  check_int "still nothing inline" 0 st.Serve.Proto.sr_inline;
  (* resumed, the same check is answered inline *)
  check_bool "inline after resuming" true
    (verdicts_of "resumed" (Serve.Client.call cl (check_req stable_src)) = want);
  check_int "one inline answer" 1 (sched_stats srv).Serve.Proto.sr_inline;
  Serve.Client.close cl;
  stop_server (srv, th)

(* A scheduler driven through [submit] from this thread, with one
   executor; [client ()] registers a client whose replies are collected
   by id, and [reply id] reads them. *)
let direct_scheduler () =
  let sched =
    Serve.Scheduler.create
      {
        (Serve.Scheduler.default_config
           ~session:(Engine.Session.create ~cache_mb:16 ())
           ())
        with
        Serve.Scheduler.executors = 1;
      }
  in
  let m = Mutex.create () and replies = Hashtbl.create 16 in
  let client () =
    Serve.Scheduler.register_client sched ~respond:(fun id r ->
        Mutex.lock m;
        Hashtbl.replace replies id r;
        Mutex.unlock m)
  in
  let reply id =
    Mutex.lock m;
    let r = Hashtbl.find_opt replies id in
    Mutex.unlock m;
    r
  in
  (sched, client, reply)

(* submit and wait for the reply *)
let ask sched cl reply ~id req =
  Serve.Scheduler.submit sched cl ~id req;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    match reply id with
    | Some r -> r
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "no reply to request %d" id;
        Thread.delay 0.0002;
        wait ()
  in
  wait ()

(* With more clients connected than the fast path allows, stored checks
   go to the executors, with the direct verdict; once enough of them
   leave, they are answered inline again. *)
let test_many_clients_queue_stored_checks () =
  let sched, client, reply = direct_scheduler () in
  let cl = client () in
  let want = direct_verdicts stable_src [ "A" ] in
  let id = ref 0 in
  let check () =
    incr id;
    verdicts_of "check" (ask sched cl reply ~id:!id (check_req stable_src))
  in
  let stats () = Serve.Scheduler.sched_stats sched in
  for _ = 1 to 3 do
    ignore (check ())
  done;
  check_int "the third is answered inline" 1 (stats ()).Serve.Proto.sr_inline;
  let others =
    List.init Serve.Scheduler.inline_max_clients (fun _ -> client ())
  in
  let s0 = stats () in
  check_bool "queued check = direct" true (check () = want);
  let s1 = stats () in
  check_int "not inline" s0.Serve.Proto.sr_inline s1.Serve.Proto.sr_inline;
  check_int "an executor flight" (s0.Serve.Proto.sr_flights + 1)
    s1.Serve.Proto.sr_flights;
  Serve.Scheduler.release_client sched (List.hd others);
  check_bool "inline check = direct" true (check () = want);
  check_int "inline again" (s1.Serve.Proto.sr_inline + 1)
    (stats ()).Serve.Proto.sr_inline;
  check_int "no further flight" s1.Serve.Proto.sr_flights
    (stats ()).Serve.Proto.sr_flights;
  Serve.Scheduler.shutdown sched

(* A released client, or any client of a stopping daemon, is answered
   [Err], not [Busy]: neither is a quota refusal, and neither is
   counted as shed or as an accepted request.  That includes a warm
   check that falls back to the queue after the daemon began stopping:
   its last input is not stored, [check_stored] reaches it only after
   probing the 2000 before it, and another domain shuts the daemon down
   as soon as the check holds its credit.  Whichever side wins, only an
   answered check is counted. *)
let test_refusals_after_release_and_stop () =
  let sched, client, reply = direct_scheduler () in
  let released = client () and open_ = client () in
  let stored = List.init 2000 string_of_int in
  for id = 1 to 2 do
    ignore
      (verdicts_of "warm-up"
         (ask sched open_ reply ~id (check_req ~inputs:stored stable_src)))
  done;
  let holding_credit () =
    List.exists
      (fun c -> c.Serve.Proto.cs_outstanding > 0)
      (Serve.Scheduler.sched_stats sched).Serve.Proto.sr_clients
  in
  let stopper =
    Domain.spawn (fun () ->
        while not (holding_credit () || reply 3 <> None) do
          Unix.sleepf 0.00002
        done;
        Serve.Scheduler.shutdown sched)
  in
  Serve.Scheduler.submit sched open_ ~id:3
    (check_req ~inputs:(stored @ [ "fresh" ]) stable_src);
  Domain.join stopper;
  let answered =
    match reply 3 with
    | Some (Serve.Proto.Check_reply _) -> 3
    | Some (Serve.Proto.Err "daemon shutting down") -> 2
    | Some _ -> Alcotest.fail "racing check: unexpected reply"
    | None -> Alcotest.fail "racing check: no reply"
  in
  Serve.Scheduler.release_client sched released;
  Serve.Scheduler.submit sched released ~id:4 (check_req stable_src);
  Serve.Scheduler.submit sched open_ ~id:5 (check_req stable_src);
  Serve.Scheduler.submit sched open_ ~id:6
    (Serve.Proto.Fuzz
       {
         Serve.Proto.fz_source = stable_src;
         fz_execs = 10;
         fz_seed = 1;
         fz_seeds = [];
         fz_profiles = [];
         fz_fuel = 0;
       });
  check_bool "each refused with Err" true
    (List.for_all
       (fun id -> reply id = Some (Serve.Proto.Err "daemon shutting down"))
       [ 4; 5; 6 ]);
  let st = Serve.Scheduler.sched_stats sched in
  check_int "none shed" 0 st.Serve.Proto.sr_shed;
  check_int "only answered checks accepted" answered st.Serve.Proto.sr_requests;
  check_bool "no client shed count" true
    (List.for_all (fun c -> c.Serve.Proto.cs_shed = 0) st.Serve.Proto.sr_clients)

(* Frames written in pieces that straddle frame boundaries, and in
   pieces larger than a frame, are read back whole and in order; EOF
   after the last is a clean end. *)
let test_frames_read_whole () =
  let payloads =
    [ ""; "a"; String.make 70_000 'b'; "tail"; String.init 300 Char.unsafe_chr ]
  in
  let bytes =
    String.concat ""
      (List.map
         (fun p -> Cdutil.Wire.encode ~size:(4 + String.length p) Cdutil.Wire.string p)
         payloads)
  in
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        let pos = ref 0 and k = ref 0 in
        while !pos < String.length bytes do
          let n = min (String.length bytes - !pos) [| 1; 3; 7; 90_001 |].(!k mod 4) in
          Serve.Proto.really_write w (String.sub bytes !pos n);
          pos := !pos + n;
          incr k
        done;
        Unix.close w)
      ()
  in
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "a %d-byte frame" (String.length p))
        true
        (Serve.Proto.read_frame r = Some p))
    payloads;
  check_bool "clean EOF" true (Serve.Proto.read_frame r = None);
  Thread.join writer;
  Unix.close r

(* --- the warm-oracle table --- *)

let warm_table srv = (Serve.Server.sched srv).Serve.Scheduler.oracles

let juliet_sources n =
  List.filteri
    (fun i _ -> i < n)
    (List.map
       (fun (tc : Juliet.Testcase.t) ->
         (Minic.Pretty.program_to_string tc.Juliet.Testcase.bad, tc.Juliet.Testcase.inputs))
       (Juliet.Suite.quick ~per_cwe:2 ()))

(* The daemon's default fuel and profiles, spelled out or left to the
   daemon, key one warm oracle.  An unknown profile is still refused,
   also one whose name is a warm profile list joined by a comma. *)
let test_equivalent_requests_share_an_oracle () =
  let path, srv, th = start_server ~executors:1 () in
  let cl = Serve.Client.connect path in
  let check ~fuel ~profiles =
    Serve.Client.call cl
      (Serve.Proto.Check
         {
           Serve.Proto.ck_source = unstable_src;
           ck_inputs = [ "A" ];
           ck_profiles = profiles;
           ck_fuel = fuel;
           ck_strip = false;
         })
  in
  let defaults = List.map (fun p -> p.Cdcompiler.Policy.pname) Cdcompiler.Profiles.all in
  let implicit = verdicts_of "implicit" (check ~fuel:0 ~profiles:[]) in
  let explicit = verdicts_of "explicit" (check ~fuel:200_000 ~profiles:defaults) in
  check_bool "one verdict" true (implicit = explicit);
  check_int "one warm oracle" 1 (sched_stats srv).Serve.Proto.sr_oracles;
  let refused profiles =
    match check ~fuel:0 ~profiles with
    | Serve.Proto.Err m ->
        check_bool "names the profile" true
          (Suite_gen.contains m (List.nth profiles (List.length profiles - 1)))
    | _ -> Alcotest.failf "%s was not refused" (String.concat "," profiles)
  in
  refused [ "gccx-O0"; "no-such-cc" ];
  check_int "still one warm oracle" 1 (sched_stats srv).Serve.Proto.sr_oracles;
  ignore (verdicts_of "pair" (check ~fuel:0 ~profiles:[ "gccx-O0"; "clangx-O0" ]));
  refused [ "gccx-O0,clangx-O0" ];
  Serve.Client.close cl;
  stop_server (srv, th)

(* More distinct sources than a 4 MiB session's warm share holds: the
   table stays within its share by evicting, and a source asked again
   after its oracle was evicted gets the direct oracle's verdict.  The
   bytes it accounts are 1-3x what the resident oracles' binaries,
   images and program keep reachable ([Obj.reachable_words]; the session
   each oracle points to is left out), so the share bounds their memory:
   on these 40 sources the ratio is about 2. *)
let test_warm_table_within_share () =
  let session = Engine.Session.create ~cache_mb:4 () in
  let share = Engine.Session.budget_bytes session / 8 in
  let path, srv, th = start_server ~session () in
  let cl = Serve.Client.connect path in
  let sources = juliet_sources 40 in
  let ask (src, inputs) =
    verdicts_of "juliet check" (Serve.Client.call cl (check_req ~inputs src))
  in
  List.iter
    (fun source ->
      ignore (ask source);
      let w = Engine.Lru.stats (warm_table srv) in
      check_bool
        (Printf.sprintf "%d warm bytes within the %d share" w.Engine.Lru.bytes share)
        true (w.Engine.Lru.bytes <= share))
    sources;
  let w = Engine.Lru.stats (warm_table srv) in
  check_bool "evicted" true (w.Engine.Lru.evictions > 0);
  check_bool "fewer resident than asked" true (w.Engine.Lru.entries < List.length sources);
  let key (src, inputs) =
    Serve.Scheduler.okey_of_check (Serve.Server.sched srv).Serve.Scheduler.cfg
      { Serve.Proto.ck_source = src; ck_inputs = inputs; ck_profiles = [];
        ck_fuel = 100_000; ck_strip = false }
  in
  let peek source =
    let k = key source in
    Engine.Lru.peek_hashed (warm_table srv) (Hashtbl.hash k) k
  in
  let resident = List.filter_map peek sources in
  check_int "every resident oracle found" w.Engine.Lru.entries
    (List.length resident);
  let reachable =
    List.fold_left
      (fun acc o ->
        acc
        + Obj.reachable_words
            (Obj.repr
               ( Compdiff.Oracle.binaries o,
                 Compdiff.Oracle.class_images o,
                 Compdiff.Oracle.program o ))
          * (Sys.word_size / 8))
      0 resident
  in
  let ratio = float_of_int w.Engine.Lru.bytes /. float_of_int reachable in
  check_bool
    (Printf.sprintf "accounted / reachable = %.2f, within [1, 3]" ratio)
    true
    (ratio >= 1. && ratio <= 3.);
  let first, inputs = List.hd sources in
  check_bool "the first source was evicted" true (peek (first, inputs) = None);
  check_bool "asked again, it gets the direct verdict" true
    (ask (first, inputs) = direct_verdicts first inputs);
  Serve.Client.close cl;
  stop_server (srv, th)

(* A caching-disabled session leaves the warm table no share: nothing
   stays warm, and every verdict is the direct oracle's.  The oracles'
   counters outlive them: the daemon's [oracle] member counts every
   check its flights served. *)
let test_uncached_daemon_keeps_no_oracle () =
  let path, srv, th =
    start_server ~session:(Engine.Session.create ~cache_mb:0 ()) ()
  in
  let cl = Serve.Client.connect path in
  List.iter
    (fun (src, inputs) ->
      for _ = 1 to 2 do
        check_bool "verdict = direct" true
          (verdicts_of "check" (Serve.Client.call cl (check_req ~inputs src))
          = direct_verdicts src inputs)
      done;
      check_int "no warm oracle" 0 (sched_stats srv).Serve.Proto.sr_oracles)
    (juliet_sources 4 @ [ (unstable_src, [ "A"; "" ]) ]);
  check_int "no warm bytes" 0 (Engine.Lru.stats (warm_table srv)).Engine.Lru.bytes;
  let sched = Serve.Server.sched srv in
  let checks = (Serve.Scheduler.sched_stats sched).Serve.Proto.sr_checks in
  check_bool "checks were served" true (checks > 0);
  check_int "oracle checks = scheduler checks" checks
    (Serve.Scheduler.oracle_stats sched).Compdiff.Oracle.checks;
  Serve.Client.close cl;
  stop_server (srv, th)

(* A daemon's default profiles may include one outside [Profiles.all]
   (serve --profiles gccx-O0,clangx-Os-buggy): a check that leaves the
   profiles to the daemon, or names them, is answered with those
   profiles' verdict from one warm oracle. *)
let test_defaults_outside_the_registry () =
  let profiles =
    [ Option.get (Cdcompiler.Profiles.by_name "gccx-O0");
      Cdcompiler.Profiles.clangx_os_buggy ]
  in
  let path, srv, th = start_server ~profiles () in
  let cl = Serve.Client.connect path in
  let inputs = [ "A"; "" ] in
  let o =
    Compdiff.Oracle.create ~session:(Engine.Session.create ~cache_mb:0 ())
      ~profiles ~fuel:100_000 (frontend unstable_src)
  in
  let want =
    List.map (fun input -> canon_direct (Compdiff.Oracle.check o ~input)) inputs
  in
  let ask names =
    verdicts_of "check"
      (Serve.Client.call cl
         (Serve.Proto.Check
            {
              Serve.Proto.ck_source = unstable_src;
              ck_inputs = inputs;
              ck_profiles = names;
              ck_fuel = 100_000;
              ck_strip = false;
            }))
  in
  check_bool "defaults left to the daemon" true (ask [] = want);
  check_bool "defaults named" true
    (ask (List.map (fun p -> p.Cdcompiler.Policy.pname) profiles) = want);
  check_int "one warm oracle" 1 (sched_stats srv).Serve.Proto.sr_oracles;
  Serve.Client.close cl;
  stop_server (srv, th)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "serve.proto",
      [
        tc "request/response codecs round-trip" test_proto_roundtrip;
        tc "frames are read back whole from pieces" test_frames_read_whole;
      ] );
    ( "serve.daemon",
      [
        tc "ping and stats" test_ping_and_stats;
        tc "concurrent clients match the direct oracle"
          test_concurrent_verdict_equality;
        tc "multi-input positions preserved" test_multi_input_positions;
        tc "quota backpressure sheds only the flooder" test_quota_backpressure;
        tc "killed mid-request client leaves the daemon serving"
          test_killed_mid_request_client;
        tc "half-closed client leaves the daemon serving"
          test_half_closed_client;
        tc "garbage frame rejected, daemon stays up"
          test_garbage_frame_is_rejected;
        tc "fuzz/metacheck/reduce/explore over the wire"
          test_fuzz_metacheck_reduce_requests;
        tc "a Fuzz request keeps the store small"
          test_fuzz_request_keeps_store_small;
        tc "idle timeout shuts down cleanly" test_idle_timeout_shutdown;
      ] );
    ( "serve.inline",
      [
        tc "a stored check is answered inline"
          test_stored_check_answered_inline;
        tc "a missing class falls back to an executor"
          test_missing_class_falls_back;
        tc "a paused daemon answers nothing inline"
          test_paused_answers_nothing_inline;
        tc "many connected clients queue stored checks"
          test_many_clients_queue_stored_checks;
        tc "released and stopping refusals are Err, not shed"
          test_refusals_after_release_and_stop;
      ] );
    ( "serve.warm",
      [
        tc "equivalent requests share one warm oracle"
          test_equivalent_requests_share_an_oracle;
        tc "the warm table stays within its share" test_warm_table_within_share;
        tc "a cache-mb 0 daemon keeps no warm oracle"
          test_uncached_daemon_keeps_no_oracle;
        tc "default profiles outside the registry"
          test_defaults_outside_the_registry;
      ] );
  ]
