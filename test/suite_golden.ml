(* Golden bytes of every on-disk and on-the-wire format.

   A serve frame, a [.ctr] trace file and a [CDC1] disk-cache entry
   written by one build must be read by the next: peers of a daemon may
   run different builds, and traces and caches outlive the process that
   wrote them.  These tests pin the exact bytes of one frame per request
   and response tag, the handshake blob, one trace file and one cache
   entry, so a refactor of the codecs that moves a single byte fails
   here rather than in the field.  Each frame is also decoded back from
   its pinned bytes, so both directions are held to the same layout. *)

open Serve.Proto

let hex (s : string) : string =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let unhex (h : string) : string =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* the bytes [write_frame] puts on a socket for [payload] *)
let framed (payload : string) : string =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      write_frame w payload;
      let n = 4 + String.length payload in
      let b = Bytes.create n in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.read r b !off (n - !off)
      done;
      Bytes.to_string b)

(* the payload inside a pinned frame: everything after the length *)
let payload_of (frame_hex : string) : string =
  let b = unhex frame_hex in
  String.sub b 4 (String.length b - 4)

let check_hex name ~expect actual =
  Alcotest.(check string) name expect (hex actual)

let obs =
  { ob_impl = "gccx-O2"; ob_output = "7\n"; ob_status = "exit(0)"; ob_fuel = 300 }

let requests =
  [
    ("ping", Ping, "050000000100000000");
    ("get_stats", Get_stats, "050000000200000001");
    ( "check",
      Check
        {
          ck_source = "int main(){}";
          ck_inputs = [ "A"; "" ];
          ck_profiles = [ "gccx-O0" ];
          ck_fuel = 5000;
          ck_strip = true;
        },
      "3600000003000000020c000000696e74206d61696e28297b7d02000000010000\
       0041000000000100000007000000676363782d4f308813000001" );
    ( "fuzz",
      Fuzz
        {
          fz_source = "s";
          fz_execs = 100;
          fz_seed = 7;
          fz_seeds = [ "x" ];
          fz_profiles = [];
          fz_fuel = 0;
        },
      "2300000004000000030100000073640000000700000001000000010000007800\
       00000000000000" );
    ( "metacheck",
      Metacheck
        {
          mc_source = "m";
          mc_inputs = [ "i" ];
          mc_limit = 3;
          mc_profiles = [ "clangx-O3" ];
          mc_fuel = 9;
        },
      "2c0000000500000004010000006d010000000100000069030000000100000009\
       000000636c616e67782d4f3309000000" );
    ( "reduce",
      Reduce
        {
          rd_source = "r";
          rd_input = "long";
          rd_max_checks = 2000;
          rd_profiles = [];
          rd_fuel = 1;
        },
      "1e00000006000000050100000072040000006c6f6e67d0070000000000000100\
       0000" );
    ( "explore",
      Explore
        {
          ex_source = "e";
          ex_input = "in";
          ex_profiles = [ "a"; "b" ];
          ex_fuel = 0xFFFFFFFF;
          ex_limit = 0;
        },
      "260000000700000006010000006502000000696e020000000100000061010000\
       0062ffffffff00000000" );
  ]

let responses =
  [
    ("pong", Pong, "050000006500000000");
    ("stats_reply", Stats_reply "{}", "0b0000006600000001020000007b7d");
    ( "check_reply",
      Check_reply [ V_agree { obs with ob_impl = "" }; V_diverge [ obs; obs ] ],
      "68000000670000000202000000000000000002000000370a0700000065786974\
       2830292c010000010200000007000000676363782d4f3202000000370a070000\
       00657869742830292c01000007000000676363782d4f3202000000370a070000\
       00657869742830292c010000" );
    ( "fuzz_reply",
      Fuzz_reply
        { fr_execs = 64; fr_divergent = 2; fr_unique = 1; fr_reports = [ ("in", "rep") ] },
      "2200000068000000034000000002000000010000000100000002000000696e03\
       000000726570" );
    ( "metacheck_reply",
      Metacheck_reply
        {
          mr_preserving = 5;
          mr_eliminating = 1;
          mr_retype_failures = 0;
          mr_flags = [ ("tool", "rule", "fp", "d") ];
        },
      "3000000069000000040500000001000000000000000100000004000000746f6f\
       6c0400000072756c650200000066700100000064" );
    ( "reduce_reply",
      Reduce_reply
        { rr_found = true; rr_input = "abc"; rr_reduced = "a"; rr_checks = 12; rr_report = "r" },
      "1b0000006a00000005010300000061626301000000610c0000000100000072" );
    ( "explore_reply",
      Explore_reply
        {
          er_found = false;
          er_impl_a = "";
          er_impl_b = "";
          er_step_a = -1;
          er_step_b = 40;
          er_line = -1;
          er_probes = 3;
          er_report = "x";
        },
      "230000006b000000080000000000000000000000000029000000000000000300\
       00000100000078" );
    ("busy", Busy 32, "090000006c0000000620000000");
    ("err", Err "nope", "0d0000006d00000007040000006e6f7065");
  ]

let test_request_frames () =
  List.iteri
    (fun i (name, req, expect) ->
      let id = i + 1 in
      check_hex name ~expect (framed (encode_request ~id req));
      let id', req' = decode_request (payload_of expect) in
      Alcotest.(check int) (name ^ " id decodes") id id';
      Alcotest.(check bool) (name ^ " decodes") true (req = req'))
    requests

let test_response_frames () =
  List.iteri
    (fun i (name, resp, expect) ->
      let id = i + 101 in
      check_hex name ~expect (framed (encode_response ~id resp));
      let id', resp' = decode_response (payload_of expect) in
      Alcotest.(check int) (name ^ " id decodes") id id';
      Alcotest.(check bool) (name ^ " decodes") true (resp = resp'))
    responses

let test_hello () =
  check_hex "hello" ~expect:"4344533104000000" (hello ());
  Alcotest.(check int) "hello version" version
    (parse_hello (unhex "4344533104000000"))

(* --- the trace file --- *)

let trace_src =
  "int main() {\n\
   \  int s = 0;\n\
   \  for (int i = 0; i < 3; i++) { s = s + getchar(); print(\"%d \", s); }\n\
   \  return 0;\n\
   }"

let test_trace_file () =
  let tp =
    match Minic.frontend_of_source trace_src with
    | Ok tp -> tp
    | Error e -> Alcotest.failf "front end: %s" e
  in
  let img =
    Cdvm.Image.link
      (Cdcompiler.Pipeline.compile (Cdcompiler.Profiles.gccx "O2") tp)
  in
  let tr, _ = Cdtrace.record img ~impl:"gccx-O2" ~input:"abc" in
  let dir = Filename.temp_file "golden" ".d" in
  Sys.remove dir;
  match Cdtrace.save tr ~dir with
  | Error e -> Alcotest.failf "save: %s" e
  | Ok file ->
    let bytes = In_channel.with_open_bin file In_channel.input_all in
    let loaded = Cdtrace.load file in
    Sys.remove file;
    Sys.rmdir dir;
    Alcotest.(check string) "content-addressed name"
      "trace-gccx-O2-3e0846dc.ctr" (Filename.basename file);
    check_hex "trace header" ~expect:"43445452319a010000dc46083e"
      (String.sub bytes 0 13);
    Alcotest.(check int) "trace length" 423 (String.length bytes);
    Alcotest.(check string) "trace digest" "8761e3c226bf138288fc34f4df2af724"
      (Digest.to_hex (Digest.string bytes));
    match loaded with
    | Ok tr' -> Alcotest.(check int) "loads back" (Cdtrace.length tr) (Cdtrace.length tr')
    | Error e -> Alcotest.failf "load: %s" e

(* --- the disk-cache entry --- *)

let entry_path = "/obs/90/09/330809902e22dc02"

let entry_hex =
  "4344433131000000f3639e198495a6be0000001d000000060000001500000012\
   a02e6f62733a676f6c64656e2d6b6579b06a2568656c6c6fa041a04240"

let entry_value = (42, "hello", [ 1; 2 ])

let rec remove_tree p =
  if Sys.is_directory p then begin
    Array.iter (fun n -> remove_tree (Filename.concat p n)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let with_cache_dir f =
  let dir = Filename.temp_file "golden" ".cdc" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let test_cache_entry () =
  with_cache_dir (fun dir ->
      let d = Engine.Diskcache.create ~dir () in
      Engine.Diskcache.put d ~kind:"obs" "golden-key" entry_value;
      let file = dir ^ entry_path in
      Alcotest.(check bool) "entry path" true (Sys.file_exists file);
      check_hex "entry bytes" ~expect:entry_hex
        (In_channel.with_open_bin file In_channel.input_all));
  (* the pinned bytes, placed by hand, read back as the value *)
  with_cache_dir (fun dir ->
      let d = Engine.Diskcache.create ~dir () in
      let file = dir ^ entry_path in
      let rec mkdirs p =
        if not (Sys.file_exists p) then begin
          mkdirs (Filename.dirname p);
          Sys.mkdir p 0o755
        end
      in
      mkdirs (Filename.dirname file);
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (unhex entry_hex));
      Alcotest.(check bool) "pinned entry reads back" true
        (Engine.Diskcache.get d ~kind:"obs" "golden-key" = Some entry_value))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "golden.bytes",
      [
        tc "one request frame per tag" test_request_frames;
        tc "one response frame per tag" test_response_frames;
        tc "handshake blob" test_hello;
        tc "trace file" test_trace_file;
        tc "disk-cache entry" test_cache_entry;
      ] );
  ]
