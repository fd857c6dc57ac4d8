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
    ?(client_timeout = 0.) () =
  let socket_path = temp_socket () in
  let srv =
    Serve.Server.create
      {
        Serve.Server.socket_path;
        sched =
          {
            (Serve.Scheduler.default_config
               ~session:(Engine.Session.create ~cache_mb:64 ())
               ())
            with
            Serve.Scheduler.quota;
            executors;
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
    resps;
  (* malformed payloads raise Malformed, never a wrong decode *)
  List.iter
    (fun s ->
      check_bool "malformed raises" true
        (match Serve.Proto.decode_request s with
        | exception Serve.Proto.Malformed _ -> true
        | _ -> false))
    [ ""; "\xff"; "\x00\x00\x00\x01\x63" ]

(* --- ping / stats --- *)

let test_ping_and_stats () =
  let path, srv, th = start_server () in
  let cl = Serve.Client.connect path in
  check_bool "pong" true (Serve.Client.ping cl);
  (match Serve.Client.stats cl with
  | None -> Alcotest.fail "no stats reply"
  | Some s ->
      check_int "one client listed" 1
        (List.length s.Serve.Proto.st_sched.Serve.Proto.sr_clients);
      check_bool "session json present" true
        (String.length s.Serve.Proto.st_session > 2));
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

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "serve.proto",
      [ tc "request/response codecs round-trip" test_proto_roundtrip ] );
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
        tc "idle timeout shuts down cleanly" test_idle_timeout_shutdown;
      ] );
  ]
