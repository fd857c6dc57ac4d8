(* Bug and benign-code templates for the synthetic projects.

   A project is a tag-dispatched input parser; each handler is generated
   from a template, optionally seeding one ground-truth bug of a Table 5
   category. Templates take a unique prefix [uid] (names stay distinct
   when several instances land in one project) and the dispatch [tag]. *)

open Minic.Ast
open Minic.Builder

type handler = {
  tag : char;
  helpers : func list;
  globals : global list;
  body : stmt list;          (* body of the per-tag handler function *)
  bug : Project.seeded_bug option;
}

let mk_bug ?(sanitizer = None) ~id ~category ~witness ~trigger () =
  Some
    {
      Project.bug_id = id;
      category;
      witness;
      trigger;
      confirmed = false;       (* statuses assigned by the registry *)
      fixed = false;
      sanitizer_visible = sanitizer;
    }

let tag_is tag s = String.length s > 0 && s.[0] = tag

let payload_byte s i = if String.length s > i then Char.code s.[i] else -1

(* --- benign handlers: realistic parsing code with no seeded flaw --- *)

(* checksum over the payload *)
let benign_checksum ~uid ~tag : handler =
  let f = uid ^ "_checksum" in
  {
    tag;
    helpers =
      [
        func Tint f
          ~params:[ (Tint, "len") ]
          [
            decl Tint "sum" ~init:(int 0);
            for_up "i" (int 0) (var "len")
              [ set "sum" (var "sum" +: (call "peek" [ var "i" +: int 1 ] &: int 255)) ];
            ret (var "sum" &: int 65535);
          ];
      ];
    globals = [];
    body =
      [
        decl Tint "n" ~init:(call "input_len" [] -: int 1);
        if_ (var "n" >: int 64) [ set "n" (int 64) ] [];
        print "checksum=%d\n" [ call f [ var "n" ] ];
      ];
    bug = None;
  }

(* length-prefixed field dump with correct bounds checks *)
let benign_fields ~uid ~tag : handler =
  let g = uid ^ "_fieldbuf" in
  {
    tag;
    helpers = [];
    globals = [ global_arr g Tint 16 ];
    body =
      [
        decl Tint "len" ~init:(call "peek" [ int 1 ]);
        if_ (var "len" <: int 0 ||: (var "len" >: int 15)) [ set "len" (int 0) ] [];
        for_up "i" (int 0) (var "len")
          [ set_idx (var g) (var "i") (call "peek" [ var "i" +: int 2 ]) ];
        decl Tint "acc" ~init:(int 0);
        for_up "i" (int 0) (var "len") [ set "acc" (var "acc" +: idx (var g) (var "i")) ];
        print "fields=%d acc=%d\n" [ var "len"; var "acc" ];
      ];
    bug = None;
  }

(* magic validation + version print *)
let benign_magic ~uid ~tag ~magic : handler =
  ignore uid;
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        if_ (call "peek" [ int 1 ] ==: int magic)
          [ print "magic ok version=%d\n" [ call "peek" [ int 2 ] &: int 15 ] ]
          [ print "bad magic\n" [] ];
      ];
    bug = None;
  }

(* a small state machine over payload bytes *)
let benign_statemachine ~uid ~tag : handler =
  ignore uid;
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl Tint "state" ~init:(int 0);
        decl Tint "i" ~init:(int 1);
        while_
          (var "i" <: call "input_len" [] &&: (var "i" <: int 48))
          [
            decl Tint "c" ~init:(call "peek" [ var "i" ]);
            if_ (var "c" ==: int 40) [ set "state" (var "state" +: int 1) ] [];
            if_ (var "c" ==: int 41 &&: (var "state" >: int 0))
              [ set "state" (var "state" -: int 1) ]
              [];
            set "i" (var "i" +: int 1);
          ];
        print "nesting=%d\n" [ var "state" ];
      ];
    bug = None;
  }

(* --- bug templates --- *)

(* EvalOrder: the Tcpdump Listing 3 shape (shared static buffer, %s) *)
let bug_evalorder ~uid ~tag : handler =
  let f = uid ^ "_addr_string" in
  {
    tag;
    helpers =
      [
        func (Tptr Tint) f
          ~params:[ (Tint, "v") ]
          [
            decl_static (Tarr (Tint, 8)) "buffer";
            set_idx (var "buffer") (int 0) (int 48 +: (var "v" /: int 10 %: int 10));
            set_idx (var "buffer") (int 1) (int 48 +: (var "v" %: int 10));
            set_idx (var "buffer") (int 2) (int 0);
            ret (var "buffer");
          ];
      ];
    globals = [];
    body =
      [
        print "who-is %s tell %s\n"
          [
            call f [ call "peek" [ int 1 ] &: int 63 ];
            call f [ call "peek" [ int 2 ] &: int 63 |: int 64 ];
          ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-evalorder") ~category:Project.EvalOrder
        ~witness:(Printf.sprintf "%c12" tag)
        ~trigger:(tag_is tag) ();
  }

(* UninitMem, MSan-visible: the uninitialized value decides a branch *)
let bug_uninit_branch ~uid ~tag : handler =
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl Tint "status";
        decl Tint "marker" ~init:(call "peek" [ int 1 ]);
        if_ (var "marker" ==: int 73) [ set "status" (int 1) ] [];
        if_ (var "status" >: int 0)
          [ print "record valid\n" [] ]
          [ print "record invalid\n" [] ];
      ];
    bug =
      mk_bug
        ~sanitizer:(Some Sanitizers.San.Msan)
        ~id:(uid ^ "-uninit-branch") ~category:Project.UninitMem
        ~witness:(String.make 1 tag)
        ~trigger:(fun s -> tag_is tag s && payload_byte s 1 <> 73)
        ();
  }

(* UninitMem, MSan-invisible: the uninitialized value is only printed
   (the exiv2 Listing 4 shape) *)
let bug_uninit_print ~uid ~tag : handler =
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl Tint "l";
        decl Tint "c" ~init:(call "peek" [ int 1 ]);
        if_ (var "c" >=: int 48 &&: (var "c" <: int 58))
          [ set "l" (var "c" -: int 48) ]
          [];
        print "field value %d\n" [ var "l" ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-uninit-print") ~category:Project.UninitMem
        ~witness:(String.make 1 tag)
        ~trigger:(fun s ->
          tag_is tag s
          && not (payload_byte s 1 >= 48 && payload_byte s 1 < 58))
        ();
  }

(* IntError: widened multiplication (clangx -O1) on a size computation *)
let bug_int_promote ~uid ~tag : handler =
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl Tint "dim" ~init:((call "peek" [ int 1 ] &: int 127) *: int 1000);
        decl Tlong "pixels" ~init:(var "dim" *: var "dim");
        print "need %ld cells\n" [ var "pixels" ];
      ];
    bug =
      mk_bug
        ~sanitizer:(Some Sanitizers.San.Ubsan)
        ~id:(uid ^ "-int-promote") ~category:Project.IntError
        ~witness:(Printf.sprintf "%c%c" tag (Char.chr 100))
        ~trigger:(fun s -> tag_is tag s && payload_byte s 1 land 127 >= 47)
        ();
  }

(* IntError: overflow guard folded away (Listing 1) *)
let bug_int_guard ~uid ~tag : handler =
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl Tint "offset" ~init:(int 2147483000);
        (* record length field is stored in 8-byte units *)
        decl Tint "len" ~init:((call "peek" [ int 1 ] &: int 255) *: int 8);
        if_ (var "offset" +: var "len" <: var "offset")
          [ print "length rejected\n" [] ]
          [ print "dumping at %d\n" [ var "offset" +: var "len" ] ];
      ];
    bug =
      mk_bug
        ~sanitizer:(Some Sanitizers.San.Ubsan)
        ~id:(uid ^ "-int-guard") ~category:Project.IntError
        ~witness:(Printf.sprintf "%c%c" tag (Char.chr 200))
        ~trigger:(fun s ->
          tag_is tag s && (payload_byte s 1 land 255) * 8 > 647)
        ();
  }

(* MemError: off-by-one through a length field, adjacent victim printed *)
let bug_mem_oob ~uid ~tag : handler =
  let f = uid ^ "_copy_record" in
  {
    tag;
    helpers =
      [
        func Tvoid f
          ~params:[ (Tptr Tint, "dst"); (Tint, "cnt") ]
          [
            (* the off-by-one: records hold cnt+1 entries (count byte plus
               payload), the buffer only cnt *)
            for_up "i" (int 0) (var "cnt" +: int 1)
              [ set_idx (var "dst") (var "i") (call "peek" [ var "i" +: int 2 ] &: int 255) ];
          ];
      ];
    globals = [];
    body =
      [
        decl_arr Tint "record" 4;
        decl Tint "kind" ~init:(int 505);
        for_up "i" (int 0) (int 4) [ set_idx (var "record") (var "i") (int 0) ];
        decl Tint "len" ~init:(call "peek" [ int 1 ] -: int 48);
        (* the validation believes the loop writes len entries; it writes
           len+1, so len == 4 overruns the 4-cell record *)
        if_ (var "len" <: int 0 ||: (var "len" >: int 4)) [ set "len" (int 0) ] [];
        expr (call f [ var "record"; var "len" ]);
        print "kind=%d first=%d\n" [ var "kind"; idx (var "record") (int 0) ];
      ];
    bug =
      mk_bug
        ~sanitizer:(Some Sanitizers.San.Asan)
        ~id:(uid ^ "-mem-oob") ~category:Project.MemError
        ~witness:(Printf.sprintf "%c4ABCDE" tag)
        ~trigger:(fun s -> tag_is tag s && payload_byte s 1 = 52)
        ();
  }

(* MemError: stale heap pointer read after reallocation *)
let bug_mem_uaf ~uid ~tag : handler =
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl (Tptr Tint) "hdr" ~init:(call "malloc" [ int 4 ]);
        set_idx (var "hdr") (int 0) (int 1111);
        if_ (call "peek" [ int 1 ] ==: int 82)
          [
            (* "reload" path frees and reallocates, but keeps using hdr *)
            expr (call "free" [ var "hdr" ]);
            decl (Tptr Tint) "fresh" ~init:(call "malloc" [ int 4 ]);
            set_idx (var "fresh") (int 0) (int 2222);
            print "hdr=%d\n" [ idx (var "hdr") (int 0) ];
            expr (call "free" [ var "fresh" ]);
          ]
          [
            print "hdr=%d\n" [ idx (var "hdr") (int 0) ];
            expr (call "free" [ var "hdr" ]);
          ];
      ];
    bug =
      mk_bug
        ~sanitizer:(Some Sanitizers.San.Asan)
        ~id:(uid ^ "-mem-uaf") ~category:Project.MemError
        ~witness:(Printf.sprintf "%cR" tag)
        ~trigger:(fun s -> tag_is tag s && payload_byte s 1 = 82)
        ();
  }

(* PointerCmp: the binutils Listing 2 shape *)
let bug_ptrcmp ~uid ~tag : handler =
  let a = uid ^ "_section_a" and b = uid ^ "_section_b" in
  {
    tag;
    helpers = [];
    globals = [ global_arr a Tint 4; global_arr b Tint 4 ];
    body =
      [
        decl (Tptr Tint) "saved_start" ~init:(var a);
        decl (Tptr Tint) "look_for" ~init:(var b);
        if_ (binop Le (var "look_for") (var "saved_start"))
          [ print "scanning backwards\n" [] ]
          [ print "scanning forwards\n" [] ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-ptrcmp") ~category:Project.PointerCmp
        ~witness:(String.make 1 tag)
        ~trigger:(tag_is tag) ();
  }

(* LINE: a diagnostic printing __LINE__ from a multi-line statement.
   The printer puts a [__LINE__] argument on the line after the print's
   first line, and implementations legally disagree on which of the two
   lines it names. *)
let bug_line ~uid ~tag : handler =
  ignore uid;
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        if_ (call "peek" [ int 1 ] ==: int 63)
          [ print "warning: bad escape at line %d\n" [ e ELine ] ]
          [ print "parsed ok\n" [] ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-line") ~category:Project.Line
        ~witness:(Printf.sprintf "%c?" tag)
        ~trigger:(fun s -> tag_is tag s && payload_byte s 1 = 63)
        ();
  }

(* Misc: floating-point imprecision (pow -> exp2 under clangx -O3) *)
let bug_misc_float ~uid ~tag : handler =
  ignore uid;
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl Tdouble "ratio" ~init:(flt 0.731);
        decl Tdouble "scale" ~init:(call "pow" [ flt 2.0; var "ratio" ]);
        print "window=%f\n" [ var "scale" *: flt 1000000000000.0 ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-misc-float") ~category:Project.Misc
        ~witness:(String.make 1 tag)
        ~trigger:(tag_is tag) ();
  }

(* Misc: printing a pointer instead of the pointed-to value (objdump) *)
let bug_misc_ptrprint ~uid ~tag : handler =
  let g = uid ^ "_symtab" in
  {
    tag;
    helpers = [];
    globals = [ global_arr g Tint 4 ~init:[ 7L; 8L; 9L; 10L ] ];
    body =
      [
        decl (Tptr Tint) "sym" ~init:(var g +: (call "peek" [ int 1 ] &: int 3));
        (* meant to print *sym; prints the pointer *)
        print "symbol value %d\n" [ cast Tint (var "sym") ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-misc-ptrprint") ~category:Project.Misc
        ~witness:(String.make 1 tag)
        ~trigger:(tag_is tag) ();
  }

(* Misc: a "random" session token read from an uninitialized heap cell
   (the libtiff bad-random finding) *)
let bug_misc_rand ~uid ~tag : handler =
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl (Tptr Tint) "scratch" ~init:(call "malloc" [ int 8 ]);
        print "session token %d\n" [ idx (var "scratch") (int 5) ];
        expr (call "free" [ var "scratch" ]);
      ];
    bug =
      mk_bug ~id:(uid ^ "-misc-rand") ~category:Project.Misc
        ~witness:(String.make 1 tag)
        ~trigger:(tag_is tag) ();
  }

(* Misc: a genuine compiler bug -- the known-bad clangx-Os-buggy CSE
   reuses a stale load across a store through an alias (MuJS RQ2) *)
let bug_misc_compiler ~uid ~tag : handler =
  {
    tag;
    helpers = [];
    globals = [];
    body =
      [
        decl Tint "slot" ~init:(int 5);
        decl (Tptr Tint) "alias" ~init:(addr (var "slot"));
        decl Tint "v" ~init:(call "peek" [ int 1 ] &: int 15);
        decl Tint "before" ~init:(var "slot");
        (* the store through the alias must invalidate the loaded value;
           the buggy CSE forgets it and reuses [before] for [after] *)
        set_deref (var "alias") (var "v");
        decl Tint "after" ~init:(var "slot");
        print "reg=%d\n" [ var "before" +: (var "after" *: int 100) ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-misc-compilerbug") ~category:Project.Misc
        ~witness:(Printf.sprintf "%c0" tag)
        ~trigger:(fun s -> tag_is tag s && payload_byte s 1 land 15 <> 5)
        ();
  }

(* Misc: output embeds an address-derived cache key *)
let bug_misc_addrkey ~uid ~tag : handler =
  let g = uid ^ "_cache" in
  {
    tag;
    helpers = [];
    globals = [ global_arr g Tint 8 ];
    body =
      [
        decl Tint "key" ~init:(cast Tint (var g) &: int 65535);
        print "cache key %d\n" [ var "key" ];
      ];
    bug =
      mk_bug ~id:(uid ^ "-misc-addrkey") ~category:Project.Misc
        ~witness:(String.make 1 tag)
        ~trigger:(tag_is tag) ();
  }
