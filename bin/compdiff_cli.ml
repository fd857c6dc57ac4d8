(* The compdiff command-line tool.

   Subcommands mirror the paper's workflow on MiniC source files:

     compdiff compile FILE -p gccx-O2 --dump-ir
     compdiff run FILE -p clangx-O3 --input 'AB'
     compdiff diff FILE --input 'AB'
     compdiff fuzz FILE --execs 5000
     compdiff juliet --per-cwe 8
     compdiff static FILE --tool unstable
     compdiff projects --name tcpdump --execs 4000
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* an integer option that travels in a u32 protocol field: out-of-range
   values are a usage error, not a crash at encode time *)
let in_u32 n = n >= 0 && n <= 0xFFFF_FFFF

let u32_error str =
  Printf.sprintf "expected an integer in [0, 4294967295], got %S" str

let u32_conv =
  Arg.conv'
    ( (fun str ->
        match int_of_string_opt str with
        | Some n when in_u32 n -> Ok n
        | _ -> Error (u32_error str)),
      Format.pp_print_int )

(* connect to a daemon and run [k] on the connection; a daemon that is
   not there or fails the handshake is reported and exits 2 *)
let with_daemon socket k =
  let refused why =
    Printf.eprintf "cannot connect to %s: %s\n" socket why;
    2
  in
  match Serve.Client.connect socket with
  | cl -> k cl
  | exception Unix.Unix_error (e, _, _) -> refused (Unix.error_message e)
  | exception (Failure m | Serve.Proto.Malformed m) -> refused m
  | exception End_of_file -> refused "connection closed during handshake"

let frontend_of_file path =
  match Minic.frontend_of_source (read_file path) with
  | Ok tp -> tp
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

let ast_of_file path =
  match Minic.Parser.parse_program_result (read_file path) with
  | Ok p -> p
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

let profile_of_name name =
  match Cdcompiler.Profiles.by_name name with
  | Some p -> p
  | None ->
    if name = "clangx-Os-buggy" then Cdcompiler.Profiles.clangx_os_buggy
    else begin
      Printf.eprintf "unknown profile %s; available: %s\n" name
        (String.concat ", "
           (List.map (fun p -> p.Cdcompiler.Policy.pname) Cdcompiler.Profiles.all));
      exit 2
    end

let print_json (j : Cdutil.Json.t) = print_endline (Cdutil.Json.to_string j)

(* --- common args --- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file.")

let profile_arg =
  Arg.(
    value
    & opt string "gccx-O0"
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"Compiler implementation (e.g. gccx-O0, clangx-O3).")

let input_arg =
  Arg.(
    value & opt string ""
    & info [ "input" ] ~docv:"BYTES" ~doc:"Program input (stdin bytes).")

let input_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "input-file" ] ~docv:"PATH"
        ~doc:
          "Read the program input from a file (raw bytes; overrides \
           $(b,--input)).")

let resolve_input input input_file =
  match input_file with Some path -> read_file path | None -> input

let fuel_arg =
  Arg.(
    value & opt int 200_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Execution fuel (instruction budget).")

(* 0 = keep the default (COMPDIFF_JOBS or the domain count heuristic) *)
let apply_jobs n = if n > 0 then Cdutil.Pool.set_default_jobs n

(* --- the shared pipeline block: --jobs/--fuel/--profiles/--cache-mb
   (and --stats), one definition for every differential subcommand
   instead of a copy per subcommand.  Evaluating the term applies the
   job count and opens the engine session. --- *)

type common = {
  co_fuel : int option;       (* None = the subcommand's own default *)
  co_profiles : Cdcompiler.Policy.profile list;
  co_session : Engine.Session.t;
  co_stats : bool;
}

let common_term =
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Execution fuel (instruction budget); default: the \
             subcommand's own budget.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel compilation/execution (default: \
             $(b,Domain.recommended_domain_count()) - 1, or the \
             $(b,COMPDIFF_JOBS) environment variable).")
  in
  let profiles =
    Arg.(
      value
      & opt (some string) None
      & info [ "profiles" ] ~docv:"P1,P2,..."
          ~doc:
            "Comma-separated implementation set (default: all ten; see \
             $(b,compdiff profiles)).")
  in
  let cache_mb =
    Arg.(
      value & opt int 128
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Engine session cache budget in MiB (compiled units, linked \
             images, observations); 0 disables caching.  $(b,serve) keeps \
             its warm oracles in a further eighth of it.")
  in
  let disk_cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "disk-cache" ] ~docv:"DIR"
          ~doc:
            "Persistent on-disk cache directory behind the session's \
             in-memory caches (compiled units and observations survive \
             process restarts); inert with $(b,--cache-mb) 0.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the end-of-run statistics (oracle, engine session, \
             localization and the command's own counters) as one JSON \
             object on the output's last line.")
  in
  let mk fuel jobs profiles cache_mb disk_cache co_stats =
    apply_jobs jobs;
    let co_profiles =
      match profiles with
      | None -> Cdcompiler.Profiles.all
      | Some s ->
        List.map profile_of_name
          (List.filter (fun n -> n <> "") (String.split_on_char ',' s))
    in
    {
      co_fuel = fuel;
      co_profiles;
      co_session = Engine.Session.create ~cache_mb ?disk_dir:disk_cache ();
      co_stats;
    }
  in
  Term.(const mk $ fuel $ jobs $ profiles $ cache_mb $ disk_cache $ stats)

let oracle_stat (s : Compdiff.Oracle.stats) =
  ("oracle", Compdiff.Oracle.stats_json s)

(* The end-of-run statistics, when --stats asked for them: the command's
   own counter sets [own] (member name, counters), then the session's
   and localization's, as one JSON object on one line. *)
let print_stats ?(own = []) (c : common) =
  if c.co_stats then
    let s = Engine.Session.stats c.co_session in
    print_json
      (Obj
         (own
         @ [ ("session", Engine.Session.stats_json s);
             ("localize", Compdiff.Localize.stats_json ()) ]))

(* --- compile --- *)

let compile_cmd =
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Dump the IR of every function.")
  in
  let action file pname dump =
    let tp = frontend_of_file file in
    let u = Cdcompiler.Pipeline.compile (profile_of_name pname) tp in
    Printf.printf "compiled %s with %s: %d functions, %d globals\n" file
      u.Cdcompiler.Ir.impl_name
      (List.length u.Cdcompiler.Ir.funcs)
      (List.length u.Cdcompiler.Ir.globals);
    if dump then
      List.iter
        (fun (_, f) -> print_string (Cdcompiler.Ir.dump_func f))
        u.Cdcompiler.Ir.funcs;
    0
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a MiniC file with one implementation.")
    Term.(const action $ file_arg $ profile_arg $ dump_ir)

(* --- run --- *)

let run_cmd =
  let action file pname input fuel =
    let tp = frontend_of_file file in
    let u = Cdcompiler.Pipeline.compile (profile_of_name pname) tp in
    let config = { Cdvm.Exec.default_config with Cdvm.Exec.input; fuel } in
    let r = Cdvm.Exec.run_linked ~config (Cdvm.Image.link u) in
    print_string r.Cdvm.Exec.stdout;
    Printf.printf "[%s: %s, fuel used %d]\n" pname
      (Cdvm.Trap.status_to_string r.Cdvm.Exec.status)
      r.Cdvm.Exec.fuel_used;
    match r.Cdvm.Exec.status with Cdvm.Trap.Exit c -> c | _ -> 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and execute a MiniC file.")
    Term.(const action $ file_arg $ profile_arg $ input_arg $ fuel_arg)

(* --- vmcheck --- *)

(* Differentially test the two executors against each other: every
   profile, several inputs.  Each input runs twice through the same
   caller-owned arena (arena reuse), then once per profile on the
   domain's arena, so every run after its first is a rebind from
   another profile's image. *)
let vmcheck_cmd =
  let inputs_arg =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"BYTES"
          ~doc:"Input to check (repeatable; default: a small builtin set).")
  in
  let action file inputs fuel =
    let tp = frontend_of_file file in
    let inputs = if inputs = [] then [ ""; "A"; "zz9"; "\x00\xffB" ] else inputs in
    let mismatches = ref 0 in
    let config input = { Cdvm.Exec.default_config with Cdvm.Exec.input; fuel } in
    let images =
      List.map
        (fun (p : Cdcompiler.Policy.profile) ->
          let u = Cdcompiler.Pipeline.compile p tp in
          let want =
            List.map (fun input -> (input, Cdvm.Exec.run ~config:(config input) u)) inputs
          in
          (p.Cdcompiler.Policy.pname, Cdvm.Image.link u, want))
        Cdcompiler.Profiles.all
    in
    let check pname label input want (got : Cdvm.Exec.result) =
      if got <> want then begin
        incr mismatches;
        Printf.printf
          "MISMATCH %s %s input %S:\n  reference: %s, fuel %d, %S\n  %s: %s, fuel %d, %S\n"
          pname label input
          (Cdvm.Trap.status_to_string want.Cdvm.Exec.status)
          want.Cdvm.Exec.fuel_used want.Cdvm.Exec.stdout label
          (Cdvm.Trap.status_to_string got.Cdvm.Exec.status)
          got.Cdvm.Exec.fuel_used got.Cdvm.Exec.stdout
      end
    in
    List.iter
      (fun (pname, img, want) ->
        let arena = Cdvm.Arena.create img in
        List.iter
          (fun (input, want) ->
            let config = config input in
            check pname "linked" input want (Cdvm.Exec.run_linked ~config ~arena img);
            check pname "linked-reused" input want
              (Cdvm.Exec.run_linked ~config ~arena img))
          want)
      images;
    List.iter
      (fun input ->
        List.iter
          (fun (pname, img, want) ->
            check pname "linked-rebound" input (List.assoc input want)
              (Cdvm.Exec.run_linked ~config:(config input) img))
          images)
      inputs;
    if !mismatches = 0 then begin
      Printf.printf "vmcheck %s: %d profiles x %d inputs x 3 runs, all byte-identical\n"
        file
        (List.length Cdcompiler.Profiles.all)
        (List.length inputs);
      0
    end
    else 1
  in
  Cmd.v
    (Cmd.info "vmcheck"
       ~doc:
         "Check that the linked-image executor is byte-identical to the \
          reference interpreter on a MiniC file (all profiles, arena reuse \
          and rebinding between profiles included).")
    Term.(const action $ file_arg $ inputs_arg $ fuel_arg)

(* --- diff --- *)

(* Print one daemon verdict in the exact format of the local [diff]
   path; returns the matching exit code. *)
let print_proto_verdict ~(input : string) ~(nimpls : int)
    (v : Serve.Proto.verdict) : int =
  match v with
  | Serve.Proto.V_agree obs ->
      Printf.printf "all %d implementations agree (%s)\n" nimpls
        obs.Serve.Proto.ob_status;
      print_string obs.Serve.Proto.ob_output;
      0
  | Serve.Proto.V_diverge obs ->
      print_string
        (Compdiff.Oracle.report_of_rows ~input
           (List.map
              (fun (o : Serve.Proto.obs) ->
                (o.Serve.Proto.ob_impl, o.Serve.Proto.ob_output,
                 o.Serve.Proto.ob_status))
              obs));
      1

let daemon_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "daemon" ] ~docv:"SOCKET"
        ~doc:
          "Route the check through a running $(b,compdiff serve) daemon at \
           this Unix-domain socket instead of compiling locally.")

let diff_cmd =
  let strip_addr =
    Arg.(
      value & flag
      & info [ "strip-addresses" ] ~doc:"Normalize 0x... addresses before comparing.")
  in
  let action file input input_file strip daemon (c : common) =
    let input = resolve_input input input_file in
    match daemon with
    | Some _ when not (in_u32 (Option.value c.co_fuel ~default:0)) ->
        (* the shared --fuel takes any int; the daemon's field is a u32,
           so a value outside it is the usage error [connect] reports *)
        Printf.eprintf
          "compdiff: option '--fuel': %s\n\
           Try 'compdiff diff --help' or 'compdiff --help' for more \
           information.\n"
          (u32_error (string_of_int (Option.get c.co_fuel)));
        124
    | Some socket -> (
        let source = read_file file in
        let profiles =
          List.map
            (fun (p : Cdcompiler.Policy.profile) -> p.Cdcompiler.Policy.pname)
            c.co_profiles
        in
        with_daemon socket @@ fun cl ->
        let r =
          Serve.Client.check cl ~profiles
            ~fuel:(Option.value c.co_fuel ~default:0)
            ~strip ~source ~inputs:[ input ] ()
        in
        Serve.Client.close cl;
        match r with
        | Ok [ v ] ->
            print_proto_verdict ~input ~nimpls:(List.length c.co_profiles) v
        | Ok _ ->
            Printf.eprintf "daemon returned the wrong number of verdicts\n";
            2
        | Error m ->
            Printf.eprintf "daemon error: %s\n" m;
            2)
    | None ->
        let tp = frontend_of_file file in
        let normalize =
          if strip then Compdiff.Normalize.strip_hex_addresses
          else Compdiff.Normalize.identity
        in
        let fuel = Option.value c.co_fuel ~default:200_000 in
        let o =
          Compdiff.Oracle.create ~session:c.co_session ~profiles:c.co_profiles
            ~fuel ~normalize tp
        in
        let verdict = Compdiff.Oracle.check o ~input in
        let code =
          match verdict with
          | Compdiff.Oracle.Agree obs ->
            Printf.printf "all %d implementations agree (%s)\n"
              (List.length (Compdiff.Oracle.names o))
              (Cdvm.Trap.status_to_string obs.Compdiff.Oracle.status);
            print_string obs.Compdiff.Oracle.output;
            0
          | Compdiff.Oracle.Diverge obs ->
            print_string (Compdiff.Oracle.report_to_string ~input obs);
            1
        in
        print_stats ~own:[ oracle_stat (Compdiff.Oracle.stats o) ] c;
        code
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Run one input through every implementation and compare outputs.")
    Term.(
      const action $ file_arg $ input_arg $ input_file_arg $ strip_addr
      $ daemon_arg $ common_term)

(* --- localize --- *)

let localize_cmd =
  let action file input (c : common) =
    let tp = frontend_of_file file in
    let fuel = Option.value c.co_fuel ~default:200_000 in
    let o =
      Compdiff.Oracle.create ~session:c.co_session ~profiles:c.co_profiles
        ~fuel tp
    in
    match Compdiff.Oracle.check o ~input with
    | Compdiff.Oracle.Agree _ ->
      Printf.printf "no divergence on this input; nothing to localize\n";
      0
    | Compdiff.Oracle.Diverge obs -> (
      (* no explicit ~fuel: localization replays at the fuel the verdict
         was actually obtained at (it may have been escalated past the
         base budget; replaying at the base would fake a hang) *)
      match
        Compdiff.Localize.of_divergence ~level:Cdtrace.Prints o obs ~input
      with
      | Some l ->
        print_string (Compdiff.Localize.to_string l);
        (match Compdiff.Triage.suggest_root_cause (ast_of_file file) l with
        | Some rc -> print_string (Compdiff.Triage.root_cause_to_string rc)
        | None -> ());
        1
      | None ->
        Printf.eprintf "divergent observations but no divergent pair\n";
        2)
  in
  Cmd.v
    (Cmd.info "localize"
       ~doc:
         "Locate the first divergent observable event between two disagreeing implementations.")
    Term.(const action $ file_arg $ input_arg $ common_term)

(* --- explore --- *)

(* Non-interactive time-travel driver over recorded traces (DESIGN.md
   §15): record the diverging pair under the Steps observer, report the
   first diverging instruction, and replay both sides to any position.
   With one profile, or a stored .ctr trace, there is one side: its
   events are listed and it replays the same way. *)

let probe_json : Compdiff.Localize.probe option -> Cdutil.Json.t = function
  | None -> Null
  | Some p ->
    Obj
      [ ("step", Int p.Compdiff.Localize.pr_step); ("fn", String p.pr_fn);
        ("pc", Int p.pr_pc);
        ("line", match p.pr_line with Some l -> Int l | None -> Null);
        ("kind", String (match p.pr_kind with `Reg -> "reg" | `Mem -> "mem"));
        ("value", String p.pr_value) ]

let saved_json saved : Cdutil.Json.t =
  List (List.map (fun f -> Cdutil.Json.String f) saved)

(* replay to [k] and render; returns (clamped position, state) *)
let replay_state (tr : Cdtrace.t) (k : int) : int * string =
  let c = Cdtrace.cursor tr in
  Cdtrace.seek c k;
  (Cdtrace.pos c, Cdtrace.state_to_string c)

let explore_cmd =
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"MiniC source file (omit when $(b,--load-trace) is given).")
  in
  let at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"K"
          ~doc:
            "Replay position (steps applied) — per-trace indices; default: \
             each side's first diverging instruction.")
  in
  let back_arg =
    Arg.(
      value & opt int 0
      & info [ "back" ] ~docv:"N"
          ~doc:"Step N instructions back from the chosen position.")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Print the full replayed VM state (call stack, registers, \
             written memory) at the chosen position.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object instead of text.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-trace" ] ~docv:"DIR"
          ~doc:
            "Save the recorded trace(s) into DIR as content-addressed .ctr \
             files, replayable later with $(b,--load-trace).")
  in
  let load_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "load-trace" ] ~docv:"PATH"
          ~doc:"Replay a stored .ctr trace instead of compiling and recording.")
  in
  let step_limit_arg =
    let positive =
      Arg.conv'
        ( (fun str ->
            match int_of_string_opt str with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (Printf.sprintf "expected an integer >= 1, got %S" str)),
          Format.pp_print_int )
    in
    Arg.(
      value
      & opt positive Cdtrace.default_limit
      & info [ "step-limit" ] ~docv:"N"
          ~doc:
            "Cap on recorded steps per trace (N >= 1); recording stops \
             there, the run itself continues.")
  in
  (* save the traces when asked, then continue with their files; a
     failed save is reported and exits 2 *)
  let with_saved dir traces k =
    let saves =
      match dir with
      | None -> []
      | Some dir -> List.map (fun tr -> Cdtrace.save tr ~dir) traces
    in
    match List.find_map (function Error e -> Some e | Ok _ -> None) saves with
    | Some e ->
      Printf.eprintf "explore: cannot save trace: %s\n" e;
      2
    | None -> k (List.filter_map Result.to_option saves)
  in
  (* one trace, stored or freshly recorded: events + replay *)
  let explore_one (tr : Cdtrace.t) ~saved at back show_diff json =
    let n = Cdtrace.length tr in
    let base = Option.value at ~default:n in
    let pos, state = replay_state tr (base - back) in
    let events = tr.Cdtrace.events in
    if json then
      print_json
        (Obj
           [ ("impl", String tr.Cdtrace.impl); ("input", String tr.input);
             ("status", String (Cdvm.Trap.status_to_string tr.status));
             ("steps", Int n); ("truncated", Bool tr.truncated);
             ("events", Int (Array.length events)); ("pos", Int pos);
             ("state", String state); ("saved", saved_json saved) ])
    else begin
      Printf.printf "trace: %s on input %S — %s, %d steps%s, %d events\n"
        tr.Cdtrace.impl tr.Cdtrace.input
        (Cdvm.Trap.status_to_string tr.Cdtrace.status)
        n
        (if tr.Cdtrace.truncated then " (truncated)" else "")
        (Array.length events);
      Array.iteri
        (fun i (e : Cdtrace.event) ->
          Printf.printf "%4d  [%s] %S\n" i e.Cdtrace.ev_fn e.Cdtrace.ev_text)
        events;
      List.iter (Printf.printf "saved trace: %s\n") saved;
      Printf.printf "replayed to step %d/%d:\n%s" pos n
        (if show_diff then state
         else String.sub state 0 (String.index state '\n') ^ "\n")
    end;
    0
  in
  let action file input input_file at back show_diff json save load step_limit
      (c : common) =
    let input = resolve_input input input_file in
    let fuel = Option.value c.co_fuel ~default:200_000 in
    match (load, file, c.co_profiles) with
    | Some path, _, _ -> (
      match Cdtrace.load path with
      | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        2
      | Ok tr -> explore_one tr ~saved:[] at back show_diff json)
    | None, None, _ ->
      Printf.eprintf "explore: need a FILE argument or --load-trace\n";
      2
    | None, Some file, [ profile ] ->
      let tp = frontend_of_file file in
      let u = Engine.Session.compile c.co_session profile tp in
      let tr =
        Compdiff.Localize.record c.co_session ~level:Cdtrace.Steps ~fuel
          ~limit:step_limit tp (profile, u) ~input
      in
      with_saved save [ tr ] (fun saved ->
          explore_one tr ~saved at back show_diff json)
    | None, Some file, _ -> (
      let o =
        Compdiff.Oracle.create ~session:c.co_session ~profiles:c.co_profiles
          ~fuel (frontend_of_file file)
      in
      match Compdiff.Oracle.check o ~input with
      | Compdiff.Oracle.Agree _ ->
        if json then print_json (Obj [ ("divergence", Bool false) ])
        else Printf.printf "no divergence on this input; nothing to explore\n";
        0
      | Compdiff.Oracle.Diverge obs -> (
        match
          Compdiff.Localize.of_divergence ~level:Cdtrace.Steps
            ~limit:step_limit o obs ~input
        with
        | None ->
          Printf.eprintf "divergent observations but no divergent pair\n";
          2
        | Some d ->
          let ta, tb = d.Compdiff.Localize.traces in
          with_saved save [ ta; tb ] @@ fun saved ->
          let side_pos (side : Compdiff.Localize.deep_side)
              (tr : Cdtrace.t) =
            let base =
              match (at, side.Compdiff.Localize.ds_at) with
              | Some k, _ -> k
              | None, Some p -> p.Compdiff.Localize.pr_step
              | None, None -> Cdtrace.length tr
            in
            replay_state tr (base - back)
          in
          let pa, sa = side_pos d.Compdiff.Localize.deep_a ta in
          let pb, sb = side_pos d.Compdiff.Localize.deep_b tb in
          if json then begin
            let replay tr pos state : Cdutil.Json.t =
              Obj
                [ ("pos", Int pos); ("steps", Int (Cdtrace.length tr));
                  ("state", String state) ]
            in
            print_json
              (Obj
                 [ ("divergence", Bool true); ("impl_a", String ta.Cdtrace.impl);
                   ("impl_b", String tb.impl);
                   ("anchor_event", Int d.Compdiff.Localize.anchor_event);
                   ( "diverging_event",
                     match d.diverging_event with Some e -> Int e | None -> Null );
                   ("probes", Int d.probes); ("at_a", probe_json d.deep_a.ds_at);
                   ("at_b", probe_json d.deep_b.ds_at); ("diff", String d.diff);
                   ("replay", Obj [ ("a", replay ta pa sa); ("b", replay tb pb sb) ]);
                   ("saved", saved_json saved) ])
          end
          else begin
            print_string (Compdiff.Localize.to_string d);
            List.iter (Printf.printf "saved trace: %s\n") saved;
            let show name tr pos state =
              Printf.printf "%s replayed to step %d/%d:\n" name pos
                (Cdtrace.length tr);
              if show_diff then print_string state
              else
                print_string
                  (String.sub state 0 (String.index state '\n') ^ "\n")
            in
            show ta.Cdtrace.impl ta pa sa;
            show tb.Cdtrace.impl tb pb sb
          end;
          print_stats ~own:[ oracle_stat (Compdiff.Oracle.stats o) ] c;
          1))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Time-travel a divergence: record the diverging pair at \
          instruction granularity, pin the first diverging instruction, \
          and replay either side to any step.  With a single profile \
          ($(b,--profiles) P), record that one implementation and list \
          its observable events.")
    Term.(
      const action $ file_opt_arg $ input_arg $ input_file_arg $ at_arg
      $ back_arg $ diff_arg $ json_arg $ save_arg $ load_arg $ step_limit_arg
      $ common_term)

(* --- reduce --- *)

(* The §5 reporting pipeline: take diverging inputs (given explicitly,
   or found by a short fuzz campaign), shrink each with the
   oracle-validated reducer, and print reduced reproducers + ratios. *)
let reduce_cmd =
  let inputs_arg =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"BYTES"
          ~doc:"A diverging input to reduce (repeatable).")
  in
  let input_files_arg =
    Arg.(
      value & opt_all file []
      & info [ "input-file" ] ~docv:"PATH"
          ~doc:"Read a diverging input from a file (raw bytes; repeatable).")
  in
  let execs =
    Arg.(
      value & opt int 1_500
      & info [ "execs" ] ~docv:"N"
          ~doc:
            "Fuzzing budget used to find divergences when no $(b,--input) \
             is given.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:
            "Write the first reduced input to PATH (raw bytes) and the raw \
             input it came from to PATH.orig.")
  in
  let dump_program =
    Arg.(
      value & flag
      & info [ "dump-program" ]
          ~doc:"Print the structurally reduced program when it shrank.")
  in
  let max_checks =
    Arg.(
      value & opt int 1_000
      & info [ "max-checks" ] ~docv:"N"
          ~doc:"Oracle-validation budget per divergence.")
  in
  let action file inputs input_files execs out dump_program max_checks
      (c : common) =
    let fuel = Option.value c.co_fuel ~default:200_000 in
    let tp = frontend_of_file file in
    let ast = ast_of_file file in
    let explicit = inputs @ List.map read_file input_files in
    (* (oracle, raw input, observations) per divergence *)
    let oracle, divergences =
      if explicit <> [] then begin
        let oracle =
          Compdiff.Oracle.create ~session:c.co_session
            ~profiles:c.co_profiles ~fuel tp
        in
        let divs =
          List.filter_map
            (fun input ->
              match Compdiff.Oracle.check oracle ~input with
              | Compdiff.Oracle.Diverge obs -> Some (input, obs)
              | Compdiff.Oracle.Agree _ ->
                Printf.eprintf "input %S does not diverge; skipping\n" input;
                None)
            explicit
        in
        (oracle, divs)
      end
      else begin
        let camp =
          Fuzz.Compdiff_afl.run
            ~config:
              {
                Fuzz.Compdiff_afl.default_config with
                Fuzz.Compdiff_afl.max_execs = execs;
                fuel;
                profiles = c.co_profiles;
                session = Some c.co_session;
                (* batch-reduce below instead of on save *)
                reduce_on_save = false;
              }
            tp
        in
        Printf.printf "fuzzed %d execs: %d divergent inputs, %d signatures\n"
          camp.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs
          (Compdiff.Triage.total_count camp.Fuzz.Compdiff_afl.diffs)
          (Compdiff.Triage.unique_count camp.Fuzz.Compdiff_afl.diffs);
        ( camp.Fuzz.Compdiff_afl.oracle,
          List.map
            (fun (e : Compdiff.Triage.diff_entry) ->
              (e.Compdiff.Triage.input, e.Compdiff.Triage.observations))
            (Compdiff.Triage.representatives camp.Fuzz.Compdiff_afl.diffs) )
      end
    in
    if divergences = [] then begin
      Printf.printf "no divergence to reduce\n";
      0
    end
    else begin
      (* reductions are independent: one pool task per divergence *)
      let reduce_one (input, obs) =
        (input, Compdiff.Reduce.reduce ~max_checks ~program:ast oracle ~input obs)
      in
      let results =
        if List.length divergences > 1 && Cdutil.Pool.default_jobs () > 1 then
          Cdutil.Pool.map reduce_one divergences
        else List.map reduce_one divergences
      in
      let reduced = List.filter_map (fun (i, r) -> Option.map (fun r -> (i, r)) r) results in
      List.iteri
        (fun i (input, (r : Compdiff.Reduce.result)) ->
          let s = r.Compdiff.Reduce.red_stats in
          Printf.printf
            "divergence %d: input %d -> %d bytes (%.0f%% smaller), %d checks\n"
            (i + 1) s.Compdiff.Reduce.input_before s.Compdiff.Reduce.input_after
            (100. *. Compdiff.Reduce.input_ratio s)
            s.Compdiff.Reduce.checks;
          Printf.printf "  raw input:     %S\n" input;
          Printf.printf "  reduced input: %S\n" r.Compdiff.Reduce.red_input;
          (match r.Compdiff.Reduce.red_class.Compdiff.Reduce.cls_pair with
          | Some (a, b) -> Printf.printf "  diverges between %s and %s\n" a b
          | None -> ());
          (match r.Compdiff.Reduce.red_class.Compdiff.Reduce.cls_fn with
          | Some fn -> Printf.printf "  localized to function '%s'\n" fn
          | None -> ());
          (match r.Compdiff.Reduce.red_program with
          | Some p ->
            Printf.printf "  program: %d -> %d statements\n"
              s.Compdiff.Reduce.stmts_before s.Compdiff.Reduce.stmts_after;
            if dump_program then print_string (Minic.Pretty.program_to_string p)
          | None -> ());
          print_string
            (Compdiff.Oracle.report_to_string ~input:r.Compdiff.Reduce.red_input
               r.Compdiff.Reduce.red_observations))
        reduced;
      (match (out, reduced) with
      | Some path, (raw, (r : Compdiff.Reduce.result)) :: _ ->
        let write p s =
          let oc = open_out_bin p in
          output_string oc s;
          close_out oc
        in
        write path r.Compdiff.Reduce.red_input;
        write (path ^ ".orig") raw
      | _ -> ());
      let s =
        Compdiff.Reduce.summarize
          (List.map (fun (_, r) -> r.Compdiff.Reduce.red_stats) reduced)
      in
      print_stats
        ~own:
          [ ("reduce", Compdiff.Reduce.summary_json s);
            oracle_stat (Compdiff.Oracle.stats oracle) ]
        c;
      1
    end
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Shrink diverging inputs (and the program) into reduced \
          reproducers, validating every step through the oracle.")
    Term.(
      const action $ file_arg $ inputs_arg $ input_files_arg $ execs
      $ out_arg $ dump_program $ max_checks $ common_term)

(* --- fuzz --- *)

let fuzz_cmd =
  let execs =
    Arg.(value & opt int 5_000 & info [ "execs" ] ~docv:"N" ~doc:"Execution budget.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Fuzzer RNG seed.")
  in
  let corpus =
    Arg.(
      value & opt_all string []
      & info [ "i"; "corpus" ] ~docv:"BYTES" ~doc:"Initial seed input (repeatable).")
  in
  let action file execs seed corpus (co : common) =
    let tp = frontend_of_file file in
    let config =
      {
        Fuzz.Compdiff_afl.default_config with
        Fuzz.Compdiff_afl.max_execs = execs;
        rng_seed = seed;
        seeds = (if corpus = [] then [ "" ] else corpus);
        fuel =
          Option.value co.co_fuel
            ~default:Fuzz.Compdiff_afl.default_config.Fuzz.Compdiff_afl.fuel;
        profiles = co.co_profiles;
        session = Some co.co_session;
      }
    in
    let c = Fuzz.Compdiff_afl.run ~config tp in
    Printf.printf "execs:            %d\n" c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.execs;
    Printf.printf "queue entries:    %d\n"
      (List.length c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.queue);
    Printf.printf "edges covered:    %d\n"
      c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.edges_covered;
    Printf.printf "crashes:          %d\n"
      (List.length c.Fuzz.Compdiff_afl.fuzz.Fuzz.Fuzzer.crashes);
    Printf.printf "divergent inputs: %d (%d unique, %d reduced)\n"
      (Compdiff.Triage.total_count c.Fuzz.Compdiff_afl.diffs)
      (Compdiff.Triage.unique_count c.Fuzz.Compdiff_afl.diffs)
      (Compdiff.Triage.reduced_count c.Fuzz.Compdiff_afl.diffs);
    (* report one entry per (localized function, root cause), reduced
       reproducer first when the on-save reducer produced one *)
    List.iter
      (fun ((key, entries) :
             Compdiff.Triage.report_key * Compdiff.Triage.diff_entry list) ->
        let e = List.hd entries in
        print_newline ();
        Printf.printf "bug bucket: %s (%d signature%s)\n"
          (Compdiff.Triage.report_key_to_string key)
          (List.length entries)
          (if List.length entries = 1 then "" else "s");
        match e.Compdiff.Triage.reduced with
        | Some r ->
          Printf.printf "reduced from %d to %d bytes (%d checks)\n"
            (String.length e.Compdiff.Triage.input)
            (String.length r.Compdiff.Triage.red_input)
            r.Compdiff.Triage.red_checks;
          print_string
            (Compdiff.Oracle.report_to_string
               ~input:r.Compdiff.Triage.red_input
               r.Compdiff.Triage.red_observations)
        | None ->
          print_string
            (Compdiff.Oracle.report_to_string ~input:e.Compdiff.Triage.input
               e.Compdiff.Triage.observations))
      (Compdiff.Triage.report_buckets c.Fuzz.Compdiff_afl.diffs
         c.Fuzz.Compdiff_afl.oracle ~program:(ast_of_file file) ());
    print_stats
      ~own:[ oracle_stat (Compdiff.Oracle.stats c.Fuzz.Compdiff_afl.oracle) ]
      co;
    if Compdiff.Triage.total_count c.Fuzz.Compdiff_afl.diffs > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Fuzz a MiniC file with CompDiff-AFL++ (Algorithm 1).")
    Term.(const action $ file_arg $ execs $ seed $ corpus $ common_term)

(* --- juliet --- *)

let juliet_cmd =
  let per_cwe =
    Arg.(
      value & opt int 8
      & info [ "per-cwe" ] ~docv:"N" ~doc:"Variants per CWE (0 = full scaled suite).")
  in
  let action per_cwe (c : common) =
    let tests =
      if per_cwe <= 0 then Juliet.Suite.full () else Juliet.Suite.quick ~per_cwe ()
    in
    Printf.printf "evaluating %d generated Juliet-style tests...\n%!"
      (List.length tests);
    let evals =
      Juliet.Eval.evaluate_suite ~session:c.co_session ?fuel:c.co_fuel tests
    in
    let rows = Juliet.Eval.aggregate evals in
    List.iter
      (fun (r : Juliet.Eval.row) ->
        Printf.printf
          "%-36s n=%-4d CompDiff %3.0f%%  sanitizers %3.0f%%  unique %d  \
           reduce %3.0f%%\n"
          r.Juliet.Eval.label r.Juliet.Eval.total
          (100. *. r.Juliet.Eval.r_compdiff)
          (100. *. r.Juliet.Eval.r_san_total)
          r.Juliet.Eval.unique
          (100. *. r.Juliet.Eval.r_reduction))
      rows;
    let oracle =
      Compdiff.Oracle.sum_stats
        (List.map (fun e -> e.Juliet.Eval.oracle_stats) evals)
    in
    print_stats ~own:[ oracle_stat oracle ] c;
    0
  in
  Cmd.v
    (Cmd.info "juliet" ~doc:"Evaluate tools on the generated benchmark suite.")
    Term.(const action $ per_cwe $ common_term)

(* --- gen: labeled clean/injected corpus --- *)

let gen_cmd =
  let count =
    Arg.(
      value & opt int 20
      & info [ "count"; "n" ] ~docv:"N"
          ~doc:"Number of clean/injected program pairs to generate.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"Base generator seed; pair $(i,i) uses seed S+$(i,i).")
  in
  let cls_arg =
    let cls_conv =
      Arg.enum
        (List.map (fun k -> (Gen.Inject.class_name k, k)) Gen.Inject.all_classes)
    in
    Arg.(
      value
      & opt (some cls_conv) None
      & info [ "class" ] ~docv:"CLASS"
          ~doc:
            "Inject only this defect class (default: cycle through all \
             five). One of $(b,signed-overflow), $(b,uninit-read), \
             $(b,oob-index), $(b,ptr-compare), $(b,div-by-zero).")
  in
  let report_flag =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Sweep every pair through the oracle, the sanitizer models and \
             the static tools, and print the measured per-tool TP/FP/FN \
             table against the injector's ground truth.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write each pair's sources ($(b,clean_S.c), $(b,inj_S.c)) and a \
             ground-truth $(b,labels.tsv) (seed, class, defect line) into \
             DIR.")
  in
  let fuzz_execs =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"M"
          ~doc:
            "Additionally run an M-execution CompDiff-AFL++ campaign on \
             each injected twin, seeded with the pair's structured inputs, \
             and report how many campaigns reach the planted divergence \
             (0 disables).")
  in
  let action count seed cls report_flag out fuzz_execs (c : common) =
    let results =
      List.init (max 0 count) (fun i -> Gen.Corpus.make ?cls ~seed:(seed + i) ())
    in
    let pairs = List.filter_map Result.to_option results in
    let failures =
      List.filter_map (function Error m -> Some m | Ok _ -> None) results
    in
    List.iter (fun m -> Printf.eprintf "generation failure: %s\n" m) failures;
    Printf.printf "generated %d/%d labeled pairs (base seed %d)\n%!"
      (List.length pairs) count seed;
    (match out with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let labels = Buffer.create 256 in
      Buffer.add_string labels "seed\tclass\tline\tclean\tinjected\n";
      List.iter
        (fun (p : Gen.Corpus.pair) ->
          let write name contents =
            let oc = open_out (Filename.concat dir name) in
            output_string oc contents;
            close_out oc
          in
          let cn = Printf.sprintf "clean_%d.c" p.Gen.Corpus.seed in
          let inn = Printf.sprintf "inj_%d.c" p.Gen.Corpus.seed in
          write cn p.Gen.Corpus.clean_src;
          write inn p.Gen.Corpus.inj_src;
          Printf.bprintf labels "%d\t%s\t%d\t%s\t%s\n" p.Gen.Corpus.seed
            (Gen.Inject.class_name p.Gen.Corpus.cls)
            p.Gen.Corpus.line cn inn)
        pairs;
      let oc = open_out (Filename.concat dir "labels.tsv") in
      Buffer.output_buffer oc labels;
      close_out oc;
      Printf.printf "wrote sources and labels.tsv to %s\n%!" dir);
    let clean_divergences =
      if report_flag then begin
        let evals =
          Gen.Corpus.evaluate ~session:c.co_session
            ~jobs:(Cdutil.Pool.default_jobs ()) ?fuel:c.co_fuel pairs
        in
        let r = Gen.Corpus.report ~gen_failures:(List.length failures) evals in
        print_string (Gen.Corpus.report_to_string r);
        r.Gen.Corpus.clean_divergences
      end
      else 0
    in
    if fuzz_execs > 0 then begin
      let found =
        List.length
          (List.filter
             (Gen.Corpus.fuzz_divergence ~max_execs:fuzz_execs)
             pairs)
      in
      Printf.printf
        "fuzz: %d/%d campaigns reached the planted divergence (%d execs \
         each)\n%!"
        found (List.length pairs) fuzz_execs
    end;
    print_stats c;
    if failures <> [] || clean_divergences > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a labeled corpus of UB-free/injected program pairs and \
          score every tool against the ground truth.")
    Term.(
      const action $ count $ seed $ cls_arg $ report_flag $ out_dir
      $ fuzz_execs $ common_term)

(* --- projects --- *)

let projects_cmd =
  let target_name =
    Arg.(
      value & opt (some string) None
      & info [ "name" ] ~docv:"PROJECT" ~doc:"Single target (default: all 23).")
  in
  let execs =
    Arg.(value & opt int 4_000 & info [ "execs" ] ~docv:"N" ~doc:"Budget per target.")
  in
  let action target_name execs (c : common) =
    let targets =
      match target_name with
      | None -> Projects.Registry.all
      | Some n -> (
        match Projects.Registry.by_name n with
        | Some p -> [ p ]
        | None ->
          Printf.eprintf "unknown project %s; available: %s\n" n
            (String.concat ", "
               (List.map (fun p -> p.Projects.Project.pname) Projects.Registry.all));
          exit 2)
    in
    let results =
      List.map
        (fun (p : Projects.Project.t) ->
          let r =
            Projects.Campaign.run_project ~session:c.co_session
              ~max_execs:execs p
          in
          Printf.printf "%-12s seeded=%d found=%d\n%!" p.Projects.Project.pname
            (List.length p.Projects.Project.bugs)
            (List.length r.Projects.Campaign.found);
          List.iter
            (fun (f : Projects.Campaign.found_bug) ->
              Printf.printf "  [%s] %s (input %S)\n"
                (Projects.Project.category_to_string
                   f.Projects.Campaign.bug.Projects.Project.category)
                f.Projects.Campaign.bug.Projects.Project.bug_id
                f.Projects.Campaign.found_input)
            r.Projects.Campaign.found;
          r)
        targets
    in
    let s = Projects.Campaign.summarize_reductions results in
    if s.Compdiff.Reduce.sm_divergences > 0 then
      Printf.printf
        "reduced %d divergence reproducers: %d -> %d bytes, median reduction \
         %.0f%% (%d oracle checks)\n"
        s.Compdiff.Reduce.sm_divergences s.sm_raw_bytes s.sm_reduced_bytes
        (100. *. s.sm_median_ratio) s.sm_checks;
    print_stats c;
    0
  in
  Cmd.v
    (Cmd.info "projects" ~doc:"Fuzz the synthetic real-world targets (Table 5).")
    Term.(const action $ target_name $ execs $ common_term)

(* --- static --- *)

let static_cmd =
  let tool_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tool" ] ~docv:"TOOL"
          ~doc:
            "Run a single analyzer (coverity, cppcheck, infer, unstable); \
             default: all four.")
  in
  let warnings =
    Arg.(
      value & flag
      & info [ "warnings" ] ~doc:"Also print downgraded (warning) findings.")
  in
  let cross =
    Arg.(
      value & flag
      & info [ "cross" ]
          ~doc:
            "Fold identical (line, kind) findings from different tools into \
             one cross-tool row.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit machine-readable JSON findings.")
  in
  let action file tool warnings cross json (_ : common) =
    let p = ast_of_file file in
    let tools =
      match tool with
      | None -> Staticcheck.Static_tools.all
      | Some n -> (
        let norm = String.lowercase_ascii n in
        match
          List.find_opt
            (fun t ->
              let name =
                String.lowercase_ascii (Staticcheck.Static_tools.name t)
              in
              name = norm || String.length norm > 0
                             && String.length name >= String.length norm
                             && String.sub name 0 (String.length norm) = norm)
            Staticcheck.Static_tools.all
        with
        | Some t -> [ t ]
        | None ->
          Printf.eprintf "unknown tool %s; available: %s\n" n
            (String.concat ", "
               (List.map Staticcheck.Static_tools.name
                  Staticcheck.Static_tools.all));
          exit 2)
    in
    let finding_json ?tools (f : Staticcheck.Finding.t) =
      let open Cdutil.Json in
      let agreed_by ts =
        let names = List.map Staticcheck.Static_tools.name ts in
        ("agreed_by", List (List.map (fun n -> String n) names))
      in
      Obj
        ([ ("tool", String f.Staticcheck.Finding.tool);
           ("kind", String (Staticcheck.Finding.kind_to_string f.kind));
           ("line", Int f.line);
           ("severity", String (Staticcheck.Finding.severity_to_string f.severity));
           ("message", String f.message) ]
        @ Option.to_list (Option.map agreed_by tools))
    in
    let errors = ref 0 in
    let json_rows = ref [] in
    if cross then
      (* one row per (kind, line) across every tool *)
      List.iter
        (fun (cx : Staticcheck.Static_tools.cross) ->
          let f = cx.Staticcheck.Static_tools.cx_finding in
          let is_error =
            f.Staticcheck.Finding.severity = Staticcheck.Finding.Error
          in
          if is_error then incr errors;
          if is_error || warnings then
            if json then
              json_rows :=
                finding_json ~tools:cx.Staticcheck.Static_tools.cx_tools f
                :: !json_rows
            else
              print_endline (Staticcheck.Static_tools.cross_to_string cx))
        (Staticcheck.Static_tools.check_all p)
    else
      List.iter
        (fun t ->
          let findings = Staticcheck.Static_tools.check t p in
          List.iter
            (fun (f : Staticcheck.Finding.t) ->
              let is_error =
                f.Staticcheck.Finding.severity = Staticcheck.Finding.Error
              in
              if is_error then incr errors;
              if is_error || warnings then
                if json then json_rows := finding_json f :: !json_rows
                else Format.printf "%a@." Staticcheck.Finding.pp f)
            findings)
        tools;
    if json then
      print_json
        (Obj [ ("file", String file); ("findings", List (List.rev !json_rows)) ])
    else if !errors = 0 then Printf.printf "no detection-grade findings\n";
    if !errors = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "static"
       ~doc:"Run the static analyzers (Table 3 tools) over a MiniC file.")
    Term.(
      const action $ file_arg $ tool_arg $ warnings $ cross $ json
      $ common_term)

(* --- metacheck --- *)

let metacheck_cmd =
  let file_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "MiniC source file to meta-check; when omitted the generated \
             Juliet-style suite is used.")
  in
  let inputs_arg =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"STR"
          ~doc:"Program input for dynamic checking (repeatable; default: one \
                empty input).")
  in
  let per_cwe =
    Arg.(
      value & opt int 1
      & info [ "per-cwe" ] ~docv:"N"
          ~doc:"Juliet mode: variants per CWE (default 1).")
  in
  let limit =
    Arg.(
      value & opt int 2
      & info [ "limit" ] ~docv:"N"
          ~doc:"Preserving twins per transformation rule (default 2).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit machine-readable JSON flags.")
  in
  let flag_json (f : Metacheck.Driver.flag) : Cdutil.Json.t =
    Obj
      [ ("tool", String f.Metacheck.Driver.fl_tool); ("rule", String f.fl_rule);
        ("what", String (Metacheck.Driver.what_to_string f.fl_what));
        ( "kind",
          match f.fl_kind with
          | Some k -> String (Staticcheck.Finding.kind_to_string k)
          | None -> Null );
        ("detail", String f.fl_detail) ]
  in
  let result_json (r : Metacheck.Driver.result) : Cdutil.Json.t =
    Obj
      [ ("name", String r.Metacheck.Driver.mc_name);
        ("preserving", Int r.mc_preserving); ("eliminating", Int r.mc_eliminating);
        ("retype_failures", Int (List.length r.mc_retype_failures));
        ("flags", List (List.map flag_json r.mc_flags)) ]
  in
  let action file_opt inputs per_cwe limit json (c : common) =
    let programs =
      match file_opt with
      | Some file ->
        let inputs = if inputs = [] then [ "" ] else inputs in
        [ (file, frontend_of_file file, inputs) ]
      | None ->
        let tests = Juliet.Suite.quick ~per_cwe:(max 1 per_cwe) () in
        if not json then
          Printf.printf "meta-checking %d generated Juliet-style tests...\n%!"
            (List.length tests);
        List.map
          (fun (t : Juliet.Testcase.t) ->
            ( t.Juliet.Testcase.name,
              Juliet.Testcase.frontend_bad t,
              t.Juliet.Testcase.inputs ))
          tests
    in
    let results =
      List.map
        (fun (name, tp, inputs) ->
          let r =
            Metacheck.Driver.analyze ~session:c.co_session
              ~profiles:c.co_profiles ?fuel:c.co_fuel ~limit ~name tp ~inputs
          in
          if not json then print_string (Metacheck.Driver.result_to_string r);
          r)
        programs
    in
    let tally = Compdiff.Triage.Tally.create () in
    List.iter
      (fun (r : Metacheck.Driver.result) ->
        List.iter
          (fun (f : Metacheck.Driver.flag) ->
            let bucket =
              match f.Metacheck.Driver.fl_kind with
              | Some k -> Compdiff.Triage.table5_label k
              | None -> "(divergence)"
            in
            Compdiff.Triage.Tally.bump tally ~tool:f.Metacheck.Driver.fl_tool
              ~bucket
              (match f.Metacheck.Driver.fl_what with
              | Metacheck.Driver.Fp -> `Fp
              | Metacheck.Driver.Fn_instability -> `Fn
              | Metacheck.Driver.Xval_fn -> `Xfn
              | Metacheck.Driver.Drift -> `Drift))
          r.Metacheck.Driver.mc_flags)
      results;
    let total f = List.fold_left (fun n r -> n + f r) 0 results in
    let preserving = total (fun r -> r.Metacheck.Driver.mc_preserving) in
    let eliminating = total (fun r -> r.Metacheck.Driver.mc_eliminating) in
    let failures =
      total (fun r -> List.length r.Metacheck.Driver.mc_retype_failures)
    in
    if json then
      print_json
        (Obj
           [ ("programs", Int (List.length results)); ("preserving", Int preserving);
             ("eliminating", Int eliminating); ("retype_failures", Int failures);
             ("results", List (List.map result_json results)) ])
    else begin
      Printf.printf "\nprograms: %d\n" (List.length results);
      Printf.printf "preserving twins: %d\n" preserving;
      Printf.printf "eliminating twins: %d\n" eliminating;
      Printf.printf "retype failures: %d\n" failures;
      print_newline ();
      print_string (Compdiff.Triage.Tally.to_string tally);
      let t = Compdiff.Triage.Tally.total tally in
      Printf.printf
        "\ntotals: %d FP, %d FN-instability, %d cross-validated FN, %d drift\n"
        t.Compdiff.Triage.Tally.fp t.Compdiff.Triage.Tally.fn
        t.Compdiff.Triage.Tally.xfn t.Compdiff.Triage.Tally.drift
    end;
    print_stats c;
    if failures > 0 then 2 else 0
  in
  Cmd.v
    (Cmd.info "metacheck"
       ~doc:
         "Metamorphic meta-checking: turn the differential oracle on the \
          sanitizers and static analyzers.")
    Term.(
      const action $ file_opt $ inputs_arg $ per_cwe $ limit $ json
      $ common_term)

(* --- serve / connect --- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let quota =
    Arg.(
      value & opt int 32
      & info [ "quota" ] ~docv:"N"
          ~doc:
            "Max outstanding work requests per client; beyond it requests \
             are answered $(b,busy) immediately (credit-based backpressure).")
  in
  let executors =
    Arg.(
      value & opt int 2
      & info [ "executors" ] ~docv:"N"
          ~doc:"Executor domains draining the request queue.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 0.
      & info [ "idle-timeout" ] ~docv:"SEC"
          ~doc:
            "Exit once the daemon has had no clients and no work for this \
             long (0 = run forever).")
  in
  let client_timeout =
    Arg.(
      value & opt float 0.
      & info [ "client-timeout" ] ~docv:"SEC"
          ~doc:
            "Disconnect clients with no traffic (data or ping) for this \
             long (0 = no limit).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress connection logging.")
  in
  let action socket quota executors idle_timeout client_timeout quiet
      (c : common) =
    let cfg =
      {
        Serve.Server.socket_path = socket;
        sched =
          {
            Serve.Scheduler.session = c.co_session;
            quota;
            executors;
            default_fuel = Option.value c.co_fuel ~default:200_000;
            default_profiles = c.co_profiles;
          };
        client_timeout;
        idle_timeout;
        quiet;
      }
    in
    let srv = Serve.Server.create cfg in
    Serve.Server.serve srv;
    let sched = Serve.Server.sched srv in
    if c.co_stats then print_json (Serve.Scheduler.stats_json sched);
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the differential oracle as a persistent daemon on a \
          Unix-domain socket: concurrent clients share one warm engine \
          session, same-program checks coalesce into batched flights, and \
          per-client quotas shed overload.")
    Term.(
      const action $ socket_arg $ quota $ executors $ idle_timeout
      $ client_timeout $ quiet $ common_term)

(* one request to the daemon: [on_reply] prints the reply it expects
   and returns the exit code, or [None] for a reply of another kind *)
let call_daemon cl req on_reply =
  match Serve.Client.call cl req with
  | Serve.Proto.Err m ->
      Printf.eprintf "daemon error: %s\n" m;
      2
  | Serve.Proto.Busy _ ->
      Printf.eprintf "daemon busy\n";
      2
  | reply -> (
      match on_reply reply with
      | Some code -> code
      | None ->
          Printf.eprintf "unexpected response\n";
          2)

let connect_cmd =
  let file_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"MiniC source file (required except with --ping/--remote-stats).")
  in
  let ping =
    Arg.(
      value & flag
      & info [ "ping" ] ~doc:"Just ping the daemon and report liveness.")
  in
  let remote_stats =
    Arg.(
      value & flag
      & info [ "remote-stats" ]
          ~doc:
            "Print the daemon's live statistics (session caches, warm \
             oracles, scheduler counters, per-client queues) as JSON.")
  in
  let strip_addr =
    Arg.(
      value & flag
      & info [ "strip-addresses" ] ~doc:"Normalize 0x... addresses before comparing.")
  in
  let fuel =
    Arg.(
      value & opt u32_conv 0
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Execution fuel (0 = the daemon's default; N < 2^32).")
  in
  let profiles =
    Arg.(
      value
      & opt (some string) None
      & info [ "profiles" ] ~docv:"P1,P2,..."
          ~doc:"Comma-separated implementation set (default: the daemon's).")
  in
  let fuzz_execs =
    Arg.(
      value & opt u32_conv 0
      & info [ "fuzz-execs" ] ~docv:"N"
          ~doc:"Run a fuzzing campaign of N executions on the daemon.")
  in
  let metacheck =
    Arg.(
      value & flag
      & info [ "metacheck" ]
          ~doc:"Run a metamorphic meta-check of the file on the daemon.")
  in
  let reduce =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:
            "Check $(b,--input) and, if it diverges, reduce it on the \
             daemon.")
  in
  let explore =
    Arg.(
      value & flag
      & info [ "explore" ]
          ~doc:
            "Check $(b,--input) and, if it diverges, localize the first \
             diverging instruction on the daemon (Steps-level trace \
             alignment).")
  in
  let action socket file input input_file strip fuel profiles ping
      remote_stats fuzz_execs metacheck reduce explore =
    let input = resolve_input input input_file in
    let profile_names =
      match profiles with
      | None -> []
      | Some s -> List.filter (fun n -> n <> "") (String.split_on_char ',' s)
    in
    with_daemon socket @@ fun cl ->
    let finally () = Serve.Client.close cl in
    Fun.protect ~finally (fun () ->
        if ping then
          if Serve.Client.ping cl then begin
            print_endline "pong";
            0
          end
          else begin
            Printf.eprintf "no pong\n";
            2
          end
        else if remote_stats then (
          match Serve.Client.stats cl with
          | Some s ->
              print_endline s;
              0
          | None ->
              Printf.eprintf "stats request failed\n";
              2)
        else
          let source =
            match file with
            | Some path -> read_file path
            | None ->
                Printf.eprintf "FILE required (or --ping/--remote-stats)\n";
                exit 2
          in
          if fuzz_execs > 0 then
            call_daemon cl
              (Serve.Proto.Fuzz
                 {
                   Serve.Proto.fz_source = source;
                   fz_execs = fuzz_execs;
                   fz_seed = 1;
                   fz_seeds = (if input = "" then [] else [ input ]);
                   fz_profiles = profile_names;
                   fz_fuel = fuel;
                 })
              (function
                | Serve.Proto.Fuzz_reply r ->
                    Printf.printf "%d execs, %d divergent, %d unique\n"
                      r.Serve.Proto.fr_execs r.Serve.Proto.fr_divergent
                      r.Serve.Proto.fr_unique;
                    List.iter
                      (fun (_, report) -> print_string report)
                      r.Serve.Proto.fr_reports;
                    Some (if r.Serve.Proto.fr_unique > 0 then 1 else 0)
                | _ -> None)
          else if metacheck then
            call_daemon cl
              (Serve.Proto.Metacheck
                 {
                   Serve.Proto.mc_source = source;
                   mc_inputs = (if input = "" then [] else [ input ]);
                   mc_limit = 4;
                   mc_profiles = profile_names;
                   mc_fuel = fuel;
                 })
              (function
                | Serve.Proto.Metacheck_reply r ->
                    Printf.printf
                      "preserving twins: %d\neliminating twins: %d\nretype \
                       failures: %d\n"
                      r.Serve.Proto.mr_preserving r.Serve.Proto.mr_eliminating
                      r.Serve.Proto.mr_retype_failures;
                    List.iter
                      (fun (tool, rule, what, detail) ->
                        Printf.printf "%s %s %s: %s\n" tool rule what detail)
                      r.Serve.Proto.mr_flags;
                    Some 0
                | _ -> None)
          else if reduce then
            call_daemon cl
              (Serve.Proto.Reduce
                 {
                   Serve.Proto.rd_source = source;
                   rd_input = input;
                   rd_max_checks = 2_000;
                   rd_profiles = profile_names;
                   rd_fuel = fuel;
                 })
              (function
                | Serve.Proto.Reduce_reply r when not r.Serve.Proto.rr_found ->
                    Printf.printf "input does not diverge\n";
                    Some 0
                | Serve.Proto.Reduce_reply r ->
                    Printf.printf "reduced %d -> %d bytes in %d checks\n"
                      (String.length r.Serve.Proto.rr_input)
                      (String.length r.Serve.Proto.rr_reduced)
                      r.Serve.Proto.rr_checks;
                    print_string r.Serve.Proto.rr_report;
                    Some 1
                | _ -> None)
          else if explore then (
            match
              Serve.Client.explore cl ~profiles:profile_names ~fuel ~source
                ~input ()
            with
            | Ok e ->
                if not e.Serve.Proto.er_found then begin
                  if e.Serve.Proto.er_report <> "" then
                    print_endline e.Serve.Proto.er_report
                  else Printf.printf "input does not diverge\n";
                  0
                end
                else begin
                  print_string e.Serve.Proto.er_report;
                  1
                end
            | Error m ->
                Printf.eprintf "daemon error: %s\n" m;
                2)
          else
            let nimpls =
              match profile_names with
              | [] -> List.length Cdcompiler.Profiles.all
              | l -> List.length l
            in
            match
              Serve.Client.check cl ~profiles:profile_names ~fuel ~strip
                ~source ~inputs:[ input ] ()
            with
            | Ok [ v ] -> print_proto_verdict ~input ~nimpls v
            | Ok _ ->
                Printf.eprintf "daemon returned the wrong number of verdicts\n";
                2
            | Error m ->
                Printf.eprintf "daemon error: %s\n" m;
                2)
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Send requests to a running $(b,compdiff serve) daemon: \
          differential checks (default), fuzz campaigns, meta-checks, \
          reductions, divergence exploration, pings and live statistics.")
    Term.(
      const action $ socket_arg $ file_opt $ input_arg $ input_file_arg
      $ strip_addr $ fuel $ profiles $ ping $ remote_stats $ fuzz_execs
      $ metacheck $ reduce $ explore)

(* --- profiles --- *)

let profiles_cmd =
  let action () =
    List.iter
      (fun (p : Cdcompiler.Policy.profile) ->
        Printf.printf "%-12s family=%-7s args=%s line=%s\n" p.Cdcompiler.Policy.pname
          p.Cdcompiler.Policy.family
          (match p.Cdcompiler.Policy.arg_order with
          | Cdcompiler.Policy.Left_to_right -> "left-to-right"
          | Cdcompiler.Policy.Right_to_left -> "right-to-left")
          (match p.Cdcompiler.Policy.line with
          | Cdcompiler.Policy.Ltoken -> "token"
          | Cdcompiler.Policy.Lstmt -> "statement"))
      Cdcompiler.Profiles.all;
    0
  in
  Cmd.v
    (Cmd.info "profiles" ~doc:"List the available compiler implementations.")
    Term.(const action $ const ())

let main_cmd =
  let doc = "compiler-driven differential testing for MiniC programs" in
  Cmd.group
    (Cmd.info "compdiff" ~version:"1.0.0" ~doc)
    [ compile_cmd; run_cmd; vmcheck_cmd; diff_cmd; gen_cmd; localize_cmd; explore_cmd; reduce_cmd; fuzz_cmd; juliet_cmd; static_cmd; metacheck_cmd; projects_cmd; serve_cmd; connect_cmd; profiles_cmd ]

let () = exit (Cmd.eval' main_cmd)
