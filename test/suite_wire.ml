(* Tests for Cdutil.Wire, the one codec behind serve frames, trace files
   and disk-cache entries: the primitives refuse bad bytes with
   [Malformed], the sealed envelope refuses damaged blobs with [Error],
   and every decoder that reads bytes from outside the process is total
   on arbitrary input (a value, [Malformed] or [Error]; never another
   exception). *)

open Cdutil

let check_bool = Alcotest.(check bool)

let malformed f =
  match f () with exception Wire.Malformed _ -> true | _ -> false

(* --- primitives --- *)

let test_u32_range () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "u32 %d round-trips" n)
        n
        (Wire.decode Wire.u32 (Wire.encode Wire.u32 n)))
    [ 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF ];
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "u32 %d refused at encode" n)
        true
        (match Wire.encode Wire.u32 n with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ -1; 0x1_0000_0000 ]

let test_bad_payloads () =
  let strings = Wire.(list string) in
  let good = Wire.encode strings [ "ab"; ""; "c" ] in
  check_bool "round-trip" true (Wire.decode strings good = [ "ab"; ""; "c" ]);
  for len = 0 to String.length good - 1 do
    check_bool
      (Printf.sprintf "cut to %d bytes" len)
      true
      (malformed (fun () -> Wire.decode strings (String.sub good 0 len)))
  done;
  check_bool "trailing byte" true
    (malformed (fun () -> Wire.decode strings (good ^ "x")));
  check_bool "bool byte 2" true
    (malformed (fun () -> Wire.decode Wire.bool "\002"));
  (* a count the payload cannot hold is refused before any element *)
  check_bool "huge list count" true
    (malformed (fun () -> Wire.decode strings "\xff\xff\xff\xff\000"));
  check_bool "huge string length" true
    (malformed (fun () -> Wire.decode Wire.string "\xff\xff\xff\x7fabc"));
  check_bool "unknown request tag" true
    (malformed (fun () -> Serve.Proto.decode_request "\001\000\000\000\099"))

(* --- sealed envelope --- *)

let test_seal () =
  let blob = Wire.seal ~magic:"TST1" "payload" in
  check_bool "unseal" true (Wire.unseal ~magic:"TST1" blob = Ok "payload");
  check_bool "other magic" true
    (Result.is_error (Wire.unseal ~magic:"TST2" blob));
  for len = 0 to String.length blob - 1 do
    check_bool
      (Printf.sprintf "cut to %d bytes" len)
      true
      (Result.is_error (Wire.unseal ~magic:"TST1" (String.sub blob 0 len)))
  done;
  let b = Bytes.of_string blob in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
  check_bool "flipped payload byte" true
    (Result.is_error (Wire.unseal ~magic:"TST1" (Bytes.to_string b)))

let test_sealed_files () =
  let root = Filename.temp_file "wire" ".d" in
  Sys.remove root;
  let file = Filename.concat (Filename.concat root "a/b") "entry" in
  let size = Wire.write_sealed ~magic:"TST1" ~file "payload" in
  Alcotest.(check int) "size returned" (4 + 8 + 7) size;
  check_bool "read back" true
    (Wire.read_sealed ~magic:"TST1" file = Ok "payload");
  check_bool "no temp file left" true
    (Sys.readdir (Filename.dirname file) = [| "entry" |]);
  Sys.remove file;
  Sys.rmdir (Filename.dirname file);
  Sys.rmdir (Filename.concat root "a");
  Sys.rmdir root

(* --- decoders are total on bad bytes --- *)

let requests =
  let open Serve.Proto in
  [
    Ping;
    Check
      {
        ck_source = "int main() { return 0; }";
        ck_inputs = [ "A"; "" ];
        ck_profiles = [ "gccx-O0"; "clangx-O3" ];
        ck_fuel = 5000;
        ck_strip = true;
      };
    Explore
      {
        ex_source = "e";
        ex_input = "in";
        ex_profiles = [];
        ex_fuel = 0;
        ex_limit = 9;
      };
  ]

let responses =
  let open Serve.Proto in
  let obs =
    { ob_impl = "gccx-O2"; ob_output = "7\n"; ob_status = "exit(0)"; ob_fuel = 1 }
  in
  [
    Check_reply [ V_agree obs; V_diverge [ obs; obs ] ];
    Explore_reply
      {
        er_found = true;
        er_impl_a = "a";
        er_impl_b = "b";
        er_step_a = -1;
        er_step_b = 4;
        er_line = 2;
        er_probes = 1;
        er_report = "r";
      };
    Err "nope";
  ]

(* well-formed blobs that damage is applied to *)
let valid_blobs =
  List.map (Serve.Proto.encode_request ~id:3) requests
  @ List.map (Serve.Proto.encode_response ~id:4) responses
  @ [
      Serve.Proto.hello ();
      Wire.seal ~magic:"CDC1" (Marshal.to_string ("t:k", 42) []);
      Wire.seal ~magic:"CDTR1" "trace payload";
    ]

(* hand-picked malformed frames, one of the generator's sources *)
let fixed_bad = [ ""; "\xff"; "\x00\x00\x00\x01\x63" ]

let gen_bytes =
  let open QCheck.Gen in
  let random = string_size ~gen:char (int_bound 64) in
  let truncated =
    oneofl valid_blobs >>= fun b ->
    map (fun n -> String.sub b 0 n) (int_bound (String.length b - 1))
  in
  let flipped =
    oneofl valid_blobs >>= fun b ->
    pair (int_bound (String.length b - 1)) (int_range 1 255) >|= fun (i, x) ->
    let b = Bytes.of_string b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
    Bytes.to_string b
  in
  frequency [ (1, oneofl fixed_bad); (3, random); (3, truncated); (3, flipped) ]

(* a decode either yields a value or raises [Malformed] *)
let total f s =
  match f s with
  | _ -> true
  | exception Wire.Malformed _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e)

let prop_decoders_total =
  QCheck.Test.make ~name:"decoders are total on bad bytes" ~count:200
    (QCheck.make ~print:(Printf.sprintf "%S") gen_bytes)
    (fun s ->
      total Serve.Proto.decode_request s
      && total Serve.Proto.decode_response s
      && total Serve.Proto.parse_hello s
      && List.for_all
           (fun magic ->
             match Wire.unseal ~magic s with
             | Ok _ | Error _ -> true
             | exception e ->
               QCheck.Test.fail_reportf "unseal %S raised %s" s
                 (Printexc.to_string e))
           [ "CDC1"; "CDTR1" ])

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "wire.codec",
      [
        tc "u32 range" test_u32_range;
        tc "bad payloads are Malformed" test_bad_payloads;
        tc "sealed envelope" test_seal;
        tc "sealed files" test_sealed_files;
      ] );
    ("wire.props", [ QCheck_alcotest.to_alcotest prop_decoders_total ]);
  ]
