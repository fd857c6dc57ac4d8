(* Tests for the VM substrate: the memory model (layout, provenance,
   allocator policies, stack reuse), value coercions, traps, coverage
   accounting, and builtin semantics. *)

open Cdvm
open Cdcompiler

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let runtime_of profile = profile.Policy.runtime

let mem_of ?(globals = []) profile = Mem.create (runtime_of profile) globals

let gccx_O0 = Profiles.gccx "O0"
let clangx_O0 = Profiles.clangx "O0"

(* --- globals layout --- *)

let two_globals =
  [
    { Ir.g_name = "a"; g_size = 4; g_init = [ 1L; 2L; 3L; 4L ] };
    { Ir.g_name = "b"; g_size = 2; g_init = [ 9L ] };
  ]

let test_globals_zero_init () =
  let m = mem_of ~globals:two_globals gccx_O0 in
  let ids = Mem.global_ids m in
  let b = Hashtbl.find ids "b" in
  (* b[1] has no initializer: C semantics zero-initialize *)
  let o = Option.get (Mem.obj m b) in
  let v, taint = Mem.read_abs m (o.Mem.base + 1) in
  check_bool "zero" true (v = Value.Vint 0L);
  check_bool "globals are initialized memory" false taint

let test_globals_order_policy () =
  let addr_of m name =
    let ids = Mem.global_ids m in
    (Option.get (Mem.obj m (Hashtbl.find ids name))).Mem.base
  in
  let mg = mem_of ~globals:two_globals gccx_O0 in
  let mc = mem_of ~globals:two_globals clangx_O0 in
  check_bool "gccx: a before b" true (addr_of mg "a" < addr_of mg "b");
  check_bool "clangx reverses global order" true (addr_of mc "a" > addr_of mc "b")

let test_oob_global_resolves_to_neighbor () =
  let m = mem_of ~globals:two_globals gccx_O0 in
  let ids = Mem.global_ids m in
  let a = Hashtbl.find ids "a" in
  let oa = Option.get (Mem.obj m a) in
  (* gccx has no global gap: a[4] is b[0] *)
  let v, _ = Mem.read_abs m (oa.Mem.base + 4) in
  check_bool "a[4] lands on b[0]" true (v = Value.Vint 9L)

(* --- heap allocator --- *)

let test_heap_reuse_policy () =
  (* gccx reuses freed blocks LIFO; clangx-O0 does not *)
  let mg = mem_of gccx_O0 in
  let p1 = Mem.malloc mg 4 in
  ignore (Mem.free mg p1);
  let p2 = Mem.malloc mg 4 in
  check_bool "gccx reuses the block" true
    (Mem.addr_of_ptr mg p1 = Mem.addr_of_ptr mg p2);
  let mc = mem_of clangx_O0 in
  let q1 = Mem.malloc mc 4 in
  ignore (Mem.free mc q1);
  let q2 = Mem.malloc mc 4 in
  check_bool "clangx-O0 allocates fresh" true
    (Mem.addr_of_ptr mc q1 <> Mem.addr_of_ptr mc q2)

let test_heap_free_classification () =
  let m = mem_of gccx_O0 in
  let p = Mem.malloc m 4 in
  check_bool "ok" true (Mem.free m p = `Ok);
  check_bool "double" true (Mem.free m p = `Double);
  check_bool "null" true (Mem.free m Value.null = `Null);
  let q = Mem.malloc m 4 in
  check_bool "interior is invalid" true
    (Mem.free m { q with Value.off = 1 } = `Invalid)

let test_heap_uaf_reads_leftover () =
  let m = mem_of clangx_O0 in
  let p = Mem.malloc m 4 in
  Mem.write_abs m (Mem.addr_of_ptr m p) (Value.Vint 77L) ~taint:false;
  ignore (Mem.free m p);
  (* no reuse at clangx-O0: the stale pointer still reads the old cell *)
  let v, _ = Mem.read_abs m (Mem.addr_of_ptr m p) in
  check_bool "leftover value" true (v = Value.Vint 77L)

let test_malloc_limits () =
  let m = mem_of gccx_O0 in
  check_bool "zero-size is null" true (Value.is_null (Mem.malloc m 0));
  check_bool "negative is null" true (Value.is_null (Mem.malloc m (-3)));
  check_bool "huge is null" true (Value.is_null (Mem.malloc m 100_000_000))

(* --- stack frames --- *)

let slots sizes =
  Array.of_list
    (List.mapi (fun i n -> { Ir.slot_name = Printf.sprintf "s%d" i; slot_size = n }) sizes)

let test_stack_reuse_leftovers () =
  let m = mem_of gccx_O0 in
  let ids = Mem.push_frame m (slots [ 2 ]) in
  let o = Option.get (Mem.obj m ids.(0)) in
  Mem.write_abs m o.Mem.base (Value.Vint 4242L) ~taint:false;
  Mem.pop_frame m;
  (* the next frame of the same shape lands on the same cells *)
  let ids2 = Mem.push_frame m (slots [ 2 ]) in
  let o2 = Option.get (Mem.obj m ids2.(0)) in
  check_int "same address reused" o.Mem.base o2.Mem.base;
  let v, taint = Mem.read_abs m o2.Mem.base in
  check_bool "leftover value visible" true (v = Value.Vint 4242L);
  check_bool "but tainted as uninitialized for the new frame" true taint;
  Mem.pop_frame m

let test_slot_order_policy () =
  let layout_of profile =
    let m = mem_of profile in
    let ids = Mem.push_frame m (slots [ 1; 1 ]) in
    let a = (Option.get (Mem.obj m ids.(0))).Mem.base in
    let b = (Option.get (Mem.obj m ids.(1))).Mem.base in
    Mem.pop_frame m;
    compare a b
  in
  check_bool "families lay slots in opposite orders" true
    (layout_of gccx_O0 <> layout_of clangx_O0)

let test_stack_overflow_trap () =
  let m = mem_of gccx_O0 in
  match
    for _ = 1 to 100_000 do
      ignore (Mem.push_frame m (slots [ 8 ]))
    done
  with
  | () -> Alcotest.fail "expected a stack overflow"
  | exception Mem.Trapped Trap.Stack_overflow -> ()

let test_object_at_resolution () =
  let m = mem_of ~globals:two_globals gccx_O0 in
  let ids = Mem.global_ids m in
  let a = Hashtbl.find ids "a" in
  let oa = Option.get (Mem.obj m a) in
  (match Mem.object_at m (oa.Mem.base + 2) with
  | Some (o, off) ->
    check_int "object" a o.Mem.id;
    check_int "offset" 2 off
  | None -> Alcotest.fail "expected to resolve a[2]");
  check_bool "unmapped address resolves to nothing" true
    (Mem.object_at m 0xDEAD00 = None)

let test_wild_pointer_roundtrip () =
  let m = mem_of ~globals:two_globals gccx_O0 in
  let ids = Mem.global_ids m in
  let a = Hashtbl.find ids "a" in
  let oa = Option.get (Mem.obj m a) in
  let p = Mem.ptr_of_addr m (oa.Mem.base + 1) in
  check_bool "forged pointer has provenance" true (p.Value.obj = a && p.Value.off = 1);
  let wild = Mem.ptr_of_addr m 0x777777 in
  check_bool "unmapped forge is wild" true (Value.is_wild wild)

(* --- trap/status signatures --- *)

let test_segfault_signature_ignores_address () =
  check_bool "same signature" true
    (Trap.equal_status (Trap.Trap (Trap.Segfault 1)) (Trap.Trap (Trap.Segfault 2)));
  check_bool "different kinds differ" false
    (Trap.equal_status (Trap.Trap Trap.Null_deref) (Trap.Trap Trap.Div_by_zero));
  check_bool "exit codes compare" false
    (Trap.equal_status (Trap.Exit 0) (Trap.Exit 1))

(* the exit signatures come from a table: the same bytes as rendering
   them, so checksums and partitions do not move *)
let test_exit_signature_table () =
  for c = 0 to 255 do
    Alcotest.(check string) "exit signature" (Printf.sprintf "exit(%d)" c)
      (Trap.signature (Trap.Exit c))
  done

(* --- coverage --- *)

let test_coverage_buckets () =
  check_int "0" 0 (Coverage.bucket 0);
  check_int "1" 1 (Coverage.bucket 1);
  check_int "3" 4 (Coverage.bucket 3);
  check_int "10" 16 (Coverage.bucket 10);
  check_int "200" 128 (Coverage.bucket 200)

let test_coverage_merge () =
  let cov = Coverage.create () in
  let virgin = Bytes.make Coverage.size '\000' in
  Coverage.hit cov 42;
  check_bool "first merge is novel" true (Coverage.merge_into ~virgin cov);
  Coverage.reset cov;
  Coverage.hit cov 42;
  check_bool "same edge same count is stale" false (Coverage.merge_into ~virgin cov);
  (* hitting the same edge more times moves to a new bucket *)
  Coverage.reset cov;
  for _ = 1 to 5 do
    Coverage.hit cov 42;
    Coverage.hit cov 99
  done;
  check_bool "new bucket is novel" true (Coverage.merge_into ~virgin cov)

let test_coverage_edges_differ_by_order () =
  let c1 = Coverage.create () in
  Coverage.hit c1 10;
  Coverage.hit c1 20;
  let c2 = Coverage.create () in
  Coverage.hit c2 20;
  Coverage.hit c2 10;
  check_bool "edge hashing is direction-sensitive" true
    (Coverage.count_nonzero c1 = 2 && c1.Coverage.map <> c2.Coverage.map)

(* The byte-by-byte merge the word-skipping [Coverage.merge_count] must
   reproduce exactly: novelty count and resulting virgin bytes. *)
let reference_merge ~virgin (map : Bytes.t) =
  let novel = ref 0 in
  Bytes.iteri
    (fun i c ->
      let b = Coverage.bucket (Char.code c) in
      let seen = Char.code (Bytes.get virgin i) in
      if b land lnot seen <> 0 then begin
        incr novel;
        Bytes.set virgin i (Char.chr (seen lor b))
      end)
    map;
  !novel

(* Several maps merged in turn into one virgin map.  Positions come
   from a small pool, so maps share positions (repeated merges meet
   earlier bucket bits), and the pool leans on the first and the last
   word; counts include 255; most words of every map stay zero. *)
let prop_merge_count_matches_bytes =
  let size = Coverage.size in
  let gen =
    let open QCheck.Gen in
    let pos =
      oneof
        [
          int_bound (size - 1);
          int_range (size - 8) (size - 1);
          int_bound 7;
        ]
    in
    let* pool = list_size (int_range 1 24) pos in
    let pool = Array.of_list pool in
    let count = oneof [ int_range 1 254; return 255; return 1 ] in
    let cell = pair (int_bound (Array.length pool - 1)) count in
    let* maps = list_size (int_range 1 5) (list_size (int_range 0 16) cell) in
    return
      (List.map (List.map (fun (i, c) -> (pool.(i), c))) maps)
  in
  let print = QCheck.Print.(list (list (pair int int))) in
  QCheck.Test.make ~name:"merge_count = byte-by-byte merge" ~count:300
    (QCheck.make ~print gen)
    (fun maps ->
      let virgin = Bytes.make size '\000' in
      let want_virgin = Bytes.make size '\000' in
      let cov = Coverage.create () in
      List.for_all
        (fun cells ->
          Coverage.reset cov;
          List.iter
            (fun (p, c) -> Bytes.set cov.Coverage.map p (Char.chr c))
            cells;
          let want = reference_merge ~virgin:want_virgin cov.Coverage.map in
          Coverage.merge_count ~virgin cov = want
          && Bytes.equal virgin want_virgin)
        maps)

(* --- builtins through the interpreter --- *)

let run_src ?(input = "") ?(profile = gccx_O0) src =
  match Minic.frontend_of_source src with
  | Error e -> Alcotest.failf "frontend: %s" e
  | Ok tp ->
    let u = Pipeline.compile profile tp in
    Exec.run ~config:{ Exec.default_config with Exec.input } u

let test_builtin_memset_memcpy () =
  let r =
    run_src
      "int main() {\n\
       \  int a[6];\n\
       \  memset(a, 7, 6);\n\
       \  int b[6];\n\
       \  memcpy(b, a, 6);\n\
       \  print(\"%d %d\\n\", b[0], b[5]);\n\
       \  return 0;\n\
       }"
  in
  Alcotest.(check string) "copied" "7 7\n" r.Exec.stdout

let test_builtin_memcpy_direction_policy () =
  (* overlapping copy: the families copy in opposite directions *)
  let src =
    "int main() {\n\
     \  int a[5];\n\
     \  for (int i = 0; i < 5; i++) a[i] = i + 1;\n\
     \  memcpy(a + 1, a, 4);\n\
     \  print(\"%d %d %d %d %d\\n\", a[0], a[1], a[2], a[3], a[4]);\n\
     \  return 0;\n\
     }"
  in
  let g = run_src ~profile:gccx_O0 src in
  let c = run_src ~profile:clangx_O0 src in
  Alcotest.(check string) "forward smears" "1 1 1 1 1\n" g.Exec.stdout;
  Alcotest.(check string) "backward shifts" "1 1 2 3 4\n" c.Exec.stdout

let test_builtin_strlen () =
  let r =
    run_src "int main() { print(\"%d %d\\n\", strlen(\"hello\"), strlen(\"\")); return 0; }"
  in
  Alcotest.(check string) "lengths" "5 0\n" r.Exec.stdout

let test_builtin_peek_input_len () =
  let r =
    run_src ~input:"xyz"
      "int main() { print(\"%d %d %d %d\\n\", input_len(), peek(0), peek(2), peek(9)); return 0; }"
  in
  Alcotest.(check string) "peeks" "3 120 122 -1\n" r.Exec.stdout

let test_builtin_exit_code () =
  let r = run_src "int main() { exit(7); return 0; }" in
  check_bool "exit(7)" true (r.Exec.status = Trap.Exit 7);
  let r2 = run_src "int main() { abort(); return 0; }" in
  check_bool "abort traps" true (r2.Exec.status = Trap.Trap Trap.Abort_called)

let test_output_limit () =
  let r =
    run_src ~profile:gccx_O0
      "int main() { while (1) { print(\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\\n\"); } return 0; }"
  in
  check_bool "output limit trap" true (r.Exec.status = Trap.Trap Trap.Output_limit)

let test_fuel_accounting () =
  let r1 = run_src "int main() { return 0; }" in
  let r2 =
    run_src "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; return s & 0; }"
  in
  check_bool "loops consume more fuel" true (r2.Exec.fuel_used > r1.Exec.fuel_used)

let test_format_specifiers () =
  let r =
    run_src
      "int main() {\n\
       \  print(\"%d %u %x %c %ld %f %%\\n\", -1, -1, 255, 65, 1234567890123L, 1.5);\n\
       \  return 0;\n\
       }"
  in
  Alcotest.(check string) "formats" "-1 4294967295 ff A 1234567890123 1.500000 %\n"
    r.Exec.stdout

(* --- linked-image executor vs reference interpreter --- *)

let triple (r : Exec.result) = (r.Exec.stdout, r.Exec.status, r.Exec.fuel_used)

(* run the reference once and the linked executor twice through the same
   arena (the second run exercises arena reuse after reset) *)
let check_linked ?(input = "") ?(fuel = 200_000) profile src =
  match Minic.frontend_of_source src with
  | Error e -> Alcotest.failf "frontend: %s" e
  | Ok tp ->
    let u = Pipeline.compile profile tp in
    let config = { Exec.default_config with Exec.input; fuel } in
    let want = triple (Exec.run ~config u) in
    let img = Image.link u in
    let arena = Arena.create img in
    let got1 = triple (Exec.run_linked ~config ~arena img) in
    let got2 = triple (Exec.run_linked ~config ~arena img) in
    check_bool "linked matches reference" true (got1 = want);
    check_bool "arena reuse is deterministic" true (got2 = want)

let check_linked_all_profiles ?input ?fuel src =
  List.iter (fun p -> check_linked ?input ?fuel p src) Profiles.all

let test_linked_basic () =
  check_linked_all_profiles
    "int main() {\n\
     \  int s = 0;\n\
     \  for (int i = 0; i < 20; i++) s += i * 3;\n\
     \  print(\"%d\\n\", s);\n\
     \  return s & 1;\n\
     }"

let test_linked_uninit_junk () =
  (* uninitialized reads surface the per-profile junk policy: the linked
     executor must reproduce the exact junk values, and arena reuse must
     not change them (frame_seq and stack leftovers restart per run) *)
  check_linked_all_profiles ~input:"AB"
    "int helper(int x) { int a[3]; a[0] = x; return a[0] + a[2]; }\n\
     int main() {\n\
     \  int v;\n\
     \  print(\"%d %d %d\\n\", v, helper(getchar()), helper(getchar()));\n\
     \  return 0;\n\
     }"

let test_linked_heap_and_memcpy () =
  check_linked_all_profiles ~input:"x"
    "int main() {\n\
     \  int *p = malloc(6);\n\
     \  memset(p, getchar(), 6);\n\
     \  int q[6];\n\
     \  memcpy(q, p, 6);\n\
     \  memcpy(q + 1, q, 4);\n\
     \  free(p);\n\
     \  int *r = malloc(4);\n\
     \  print(\"%d %d %d\\n\", q[1], q[4], r[0]);\n\
     \  return 0;\n\
     }"

let test_linked_traps () =
  check_linked_all_profiles
    "int main() { int a[2]; int i = 5; print(\"%d\\n\", a[i * 7]); return 0; }";
  check_linked_all_profiles "int main() { int z = 0; return 1 / z; }"

let test_linked_hang_fuel () =
  (* fuel exhaustion must happen at the identical instruction count *)
  check_linked_all_profiles ~fuel:5_000
    "int main() { int i = 0; while (1) { i = i + 1; } return i; }"

let test_linked_output_limit () =
  check_linked_all_profiles ~fuel:10_000_000
    "int main() { while (1) { print(\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\\n\"); } return 0; }"

let test_linked_missing_main () =
  (* the frontend requires main, so build the unit directly *)
  let f =
    {
      Ir.name = "f";
      nparams = 0;
      nregs = 1;
      slots = [||];
      code = [| Ir.Iconst (0, Ir.ImmI 1L); Ir.Iret (Some (Ir.Reg 0)) |];
      code_lines = [| 1; 1 |];
    }
  in
  let u =
    {
      Ir.funcs = [ ("f", f) ];
      globals = [];
      runtime = gccx_O0.Policy.runtime;
      impl_name = "test";
    }
  in
  let img = Image.link u in
  check_bool "no entry" true (img.Image.entry < 0);
  match Exec.run_linked img with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_linked_unknown_builtin_deferred () =
  (* linking a unit that calls an unresolvable builtin must succeed —
     the fault is deferred to execution of the call site, exactly like
     the reference interpreter (the frontend never emits one, so build
     the unit directly) *)
  let func name code =
    {
      Ir.name;
      nparams = 0;
      nregs = 1;
      slots = [||];
      code;
      code_lines = Array.map (fun _ -> 1) code;
    }
  in
  let unit_ funcs =
    {
      Ir.funcs;
      globals = [];
      runtime = gccx_O0.Policy.runtime;
      impl_name = "test";
    }
  in
  let bad_call = Ir.Ibuiltin (Some 0, "frobnicate", []) in
  let ret0 = [| Ir.Iconst (0, Ir.ImmI 0L); Ir.Iret (Some (Ir.Reg 0)) |] in
  (* unknown builtin in dead code: links, runs clean *)
  let dead =
    unit_ [ ("dead", func "dead" [| bad_call; Ir.Iret (Some (Ir.Reg 0)) |]);
            ("main", func "main" ret0) ]
  in
  let img = Image.link dead in
  check_bool "dead unknown builtin is inert" true
    (triple (Exec.run_linked img) = triple (Exec.run dead));
  (* unknown builtin actually reached: the deferred fault fires *)
  let live =
    unit_ [ ("main", func "main" [| bad_call; Ir.Iret (Some (Ir.Reg 0)) |]) ]
  in
  let img2 = Image.link live in
  match Exec.run_linked img2 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_arena_wrong_image_rejected () =
  let compile src =
    match Minic.frontend_of_source src with
    | Ok tp -> Image.link (Pipeline.compile gccx_O0 tp)
    | Error e -> Alcotest.failf "frontend: %s" e
  in
  let img1 = compile "int main() { return 0; }" in
  let img2 = compile "int main() { return 1; }" in
  let arena = Arena.create img1 in
  match Exec.run_linked ~arena img2 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* same token soup the other fuzz suites use *)
let gen_soup =
  let open QCheck.Gen in
  let token =
    oneofl
      [
        "int "; "long "; "double "; "if"; "else"; "while"; "return "; "break";
        "print"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "+"; "-"; "*"; "/";
        "%"; "="; "=="; "<"; ">"; "&&"; "||"; "&"; "|"; "^"; "<<"; ">>"; "!";
        "~"; "?"; ":"; "x"; "y"; "foo"; "main"; "0"; "1"; "42"; "2147483647";
        "0x1F"; "7L"; "1.5"; "\"str\""; "'c'"; "__LINE__"; "static "; "for";
        "getchar()"; "malloc"; "free"; " "; "\n"; "//c\n"; "/*c*/";
      ]
  in
  let* n = int_range 0 40 in
  let* parts = list_repeat n token in
  return (String.concat "" parts)

let prop_linked_matches_reference =
  QCheck.Test.make
    ~name:"linked executor = reference interpreter on random programs" ~count:60
    (QCheck.make gen_soup)
    (fun soup ->
      let src = "int main() { " ^ soup ^ " ; return 0; }" in
      match Minic.frontend_of_source src with
      | Error _ -> true
      | Ok tp ->
        List.for_all
          (fun profile ->
            let u = Pipeline.compile profile tp in
            let img = Image.link u in
            let arena = Arena.create img in
            List.for_all
              (fun input ->
                let config =
                  { Exec.default_config with Exec.input; fuel = 20_000 }
                in
                let want = triple (Exec.run ~config u) in
                triple (Exec.run_linked ~config ~arena img) = want
                && triple (Exec.run_linked ~config ~arena img) = want)
              [ ""; "A"; "zz" ])
          Profiles.all)

let prop_run_batch_matches_run_linked =
  QCheck.Test.make
    ~name:"run_batch = map run_linked (shuffled order, arena reuse)" ~count:30
    (QCheck.make QCheck.Gen.(pair gen_soup (int_bound 1000)))
    (fun (soup, salt) ->
      let src = "int main() { " ^ soup ^ " ; return 0; }" in
      match Minic.frontend_of_source src with
      | Error _ -> true
      | Ok tp ->
        List.for_all
          (fun profile ->
            let u = Pipeline.compile profile tp in
            let img = Image.link u in
            let arena = Arena.create img in
            (* duplicated inputs in a salt-rotated order: batching must
               be insensitive to both *)
            let base = [| ""; "A"; "zz"; "A"; "\x00\x01" |] in
            let n = Array.length base in
            let inputs = Array.init n (fun i -> base.((i + salt) mod n)) in
            let config = { Exec.default_config with Exec.fuel = 20_000 } in
            let batch = Exec.run_batch ~config ~arena img ~inputs in
            let seq =
              Array.map
                (fun input ->
                  Exec.run_linked ~config:{ config with Exec.input } ~arena img)
                inputs
            in
            (* and again on the same arena: reuse must not leak state *)
            let batch2 = Exec.run_batch ~config ~arena img ~inputs in
            Array.for_all2 (fun a b -> triple a = triple b) batch seq
            && Array.for_all2 (fun a b -> triple a = triple b) batch batch2)
          Profiles.all)

(* --- the domain arena: one address space rebound from image to image --- *)

(* [Image.link] resolves global ids without building a memory; they must
   be the ids a [Mem.create]d memory for the same unit assigns *)
let sorted_bindings h =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let test_global_ids_match_memory () =
  let g g_name g_size = { Ir.g_name; g_size; g_init = [] } in
  let layouts =
    [
      [];
      [ g "a" 4; g "b" 2; g "a" 1 ];                 (* duplicate name *)
      [ g "z" 0; g "a" 3; g "y" 0; g "b" 0 ];        (* zero-size globals *)
      [ g "x" 0; g "x" 2; g "y" 1; g "x" 0 ];        (* both at once *)
      two_globals;
    ]
  in
  let runtimes = List.map runtime_of Profiles.all in
  let reversed r = r.Policy.layout.Policy.globals_reversed in
  check_bool "both placement orders covered" true
    (List.exists reversed runtimes && List.exists (fun r -> not (reversed r)) runtimes);
  List.iter
    (fun runtime ->
      List.iter
        (fun globals ->
          let u =
            { Ir.funcs = []; globals; runtime; impl_name = "test" }
          in
          let linked = sorted_bindings (Image.link u).Image.global_ids in
          let created = sorted_bindings (Mem.global_ids (Mem.create runtime globals)) in
          check_bool "link ids = create ids" true (linked = created))
        layouts)
    runtimes

(* deterministic shuffle of a list by a seed *)
let shuffle seed l =
  let st = Random.State.make [| seed |] in
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

(* every (unit, input) run twice without [~arena], in a seeded order
   that changes image on every run, against the reference *)
let domain_runs_match ~seed ~fuel (units : Ir.unit_ list) inputs =
  let cases =
    List.concat_map
      (fun u ->
        let img = Image.link u in
        List.map
          (fun input ->
            let config = { Exec.default_config with Exec.input; fuel } in
            (img, config, triple (Exec.run ~config u)))
          inputs)
      units
  in
  let run_pass order =
    List.for_all
      (fun (img, config, want) -> triple (Exec.run_linked ~config img) = want)
      order
  in
  run_pass (shuffle seed cases) && run_pass (shuffle (seed + 1) cases)

let domain_arena_programs =
  [
    (* writes globals, in and out of bounds *)
    "int g[4];\n\
     int h = 7;\n\
     int main() {\n\
     \  g[getchar() & 3] = h;\n\
     \  h = h + 1;\n\
     \  g[5] = 9;\n\
     \  print(\"%d %d %d %d %d\\n\", g[0], g[1], g[3], h, g[4]);\n\
     \  return g[2];\n\
     }";
    (* malloc/free, a heap grown past its initial capacity, a double free *)
    "int main() {\n\
     \  int *p = malloc(8);\n\
     \  p[0] = getchar();\n\
     \  free(p);\n\
     \  int *q = malloc(4);\n\
     \  int *r = malloc(300);\n\
     \  r[299] = 3;\n\
     \  print(\"%d %d %d %d\\n\", q[0], p[0], r[1], r[299]);\n\
     \  free(r);\n\
     \  free(r);\n\
     \  int *s = malloc(2);\n\
     \  print(\"%d\\n\", s[1]);\n\
     \  return 0;\n\
     }";
    (* uninitialized stack reads *)
    "int f(int x) { int a[8]; if (x) a[3] = x; return a[3] + a[5]; }\n\
     int main() {\n\
     \  int v;\n\
     \  int w = f(getchar());\n\
     \  print(\"%d %d %d\\n\", v, w, f(0));\n\
     \  return 0;\n\
     }";
    (* traps mid-run, after output and stack writes *)
    "int g;\n\
     int main() {\n\
     \  int a[2];\n\
     \  a[0] = 1;\n\
     \  g = 3;\n\
     \  print(\"before\\n\");\n\
     \  int z = getchar() - 65;\n\
     \  print(\"%d\\n\", 10 / z);\n\
     \  int *p = malloc(0);\n\
     \  if (z > 1) p[0] = 1;\n\
     \  a[z * 100000] = 1;\n\
     \  return a[0];\n\
     }";
    (* runs out of fuel with dirty globals and stack *)
    "int g;\n\
     int main() {\n\
     \  int i = 0;\n\
     \  int b[3];\n\
     \  while (1) { g = g + 1; b[i % 3] = g; i = i + 1; }\n\
     \  return i;\n\
     }";
  ]

let compile_all src =
  match Minic.frontend_of_source src with
  | Error e -> Alcotest.failf "frontend: %s" e
  | Ok tp -> List.map (fun p -> Pipeline.compile p tp) Profiles.all

let test_domain_arena_programs () =
  let units = List.concat_map compile_all domain_arena_programs in
  (* a stack of another size makes the rebind allocate fresh buffers *)
  let small_stack =
    List.map
      (fun (u : Ir.unit_) ->
        let rt = u.Ir.runtime in
        {
          u with
          Ir.runtime =
            { rt with Policy.layout = { rt.Policy.layout with Policy.stack_size = 0x800 } };
        })
      (compile_all (List.nth domain_arena_programs 2))
  in
  List.iter
    (fun seed ->
      check_bool
        (Printf.sprintf "domain arena = reference (seed %d)" seed)
        true
        (domain_runs_match ~seed ~fuel:20_000 (units @ small_stack)
           [ ""; "A"; "B"; "zz9" ]))
    [ 1; 2; 3 ]

let prop_domain_arena_matches_reference =
  QCheck.Test.make
    ~name:"domain arena rebound across 10 profiles = reference" ~count:40
    (QCheck.make QCheck.Gen.(pair gen_soup (int_bound 10_000)))
    (fun (soup, seed) ->
      let src = "int main() { " ^ soup ^ " ; return 0; }" in
      match Minic.frontend_of_source src with
      | Error _ -> true
      | Ok tp ->
        domain_runs_match ~seed ~fuel:20_000
          (List.map (fun p -> Pipeline.compile p tp) Profiles.all)
          [ ""; "A"; "zz" ])

(* Two systhreads of one domain, both without [~arena]: the second
   starts while the first is suspended mid-run in a print callback, so
   it finds the domain's arena taken and must run on its own.  Had it
   rebound the first one's arena, the first run would resume on the
   second image's globals and stack. *)
let test_domain_arena_two_systhreads () =
  let image_of src =
    match compile_all src with
    | u :: _ -> (u, Image.link u)
    | [] -> assert false
  in
  let ua, ia =
    image_of
      "int g[3] = {5, 6, 7};\n\
       int main() {\n\
       \  int a[4];\n\
       \  a[1] = 11;\n\
       \  g[0] = 1;\n\
       \  print(\"first\\n\");\n\
       \  int *p = malloc(3);\n\
       \  p[2] = a[1] + g[0] + g[2];\n\
       \  print(\"%d %d %d %d\\n\", a[1], g[0], g[2], p[2]);\n\
       \  return a[1];\n\
       }"
  in
  let ub, ib =
    image_of
      "int h[6];\n\
       int main() {\n\
       \  int b[8];\n\
       \  for (int i = 0; i < 8; i++) b[i] = 100 + i;\n\
       \  for (int i = 0; i < 6; i++) h[i] = b[i];\n\
       \  int *q = malloc(5);\n\
       \  q[0] = h[5];\n\
       \  print(\"%d %d\\n\", b[1], q[0]);\n\
       \  return 2;\n\
       }"
  in
  let want_a = triple (Exec.run ua) and want_b = triple (Exec.run ub) in
  let got_b = ref None in
  let cb ~fn:_ text =
    if text = "first\n" then begin
      let t =
        Thread.create (fun () -> got_b := Some (triple (Exec.run_linked ib))) ()
      in
      Thread.join t
    end
  in
  let got_a =
    triple
      (Exec.run_linked
         ~config:{ Exec.default_config with Exec.observer = Observer.prints cb }
         ia)
  in
  check_bool "second thread ran" true (!got_b <> None);
  check_bool "suspended run = reference" true (got_a = want_a);
  check_bool "concurrent run = reference" true (!got_b = Some want_b);
  (* the slot holds one of the two arenas again, rebound as usual *)
  check_bool "later runs = reference" true
    (triple (Exec.run_linked ib) = want_b && triple (Exec.run_linked ia) = want_a)

(* --- Steps observation (the reference interpreter's sink) --- *)

(* hand-built units: the frontend never emits duplicate names, duplicate
   or missing labels, or unknown builtins *)
let steps_func ?(nparams = 0) ?(nregs = 1) name code =
  { Ir.name; nparams; nregs; slots = [||]; code;
    code_lines = Array.map (fun _ -> 1) code }

let steps_unit funcs =
  { Ir.funcs; globals = []; runtime = gccx_O0.Policy.runtime; impl_name = "test" }

type step_ev = Ecall of int | Ereg of int | Estep of int * int | Eret

(* a Steps run of [img], with every call, register write, step and
   return logged in order *)
let run_steps ?(fuel = 10_000) img =
  let log = ref [] in
  let sink =
    {
      Observer.on_step = (fun ~fi ~pc ~depth:_ -> log := Estep (fi, pc) :: !log);
      on_reg_write = (fun ~reg _ -> log := Ereg reg :: !log);
      on_mem_write = (fun ~addr:_ _ -> ());
      on_call = (fun ~fi -> log := Ecall fi :: !log);
      on_ret = (fun () -> log := Eret :: !log);
      on_print_ev = (fun ~fn:_ _ -> ());
    }
  in
  let config =
    { Exec.default_config with Exec.fuel; observer = Observer.steps sink }
  in
  let r = Exec.run_linked ~config img in
  (r, List.rev !log)

let ret_const k = [| Ir.Iconst (0, Ir.ImmI k); Ir.Iret (Some (Ir.Reg 0)) |]

let test_steps_duplicate_names () =
  (* "g" is bound twice: calls resolve to, and steps report, the first
     binding (index 1), exactly as the image linker indexes it *)
  let main =
    steps_func "main"
      [| Ir.Icall (Some 0, "g", [ Ir.ImmI 7L ]); Ir.Iret (Some (Ir.Reg 0)) |]
  in
  let g1 =
    steps_func ~nparams:1 "g"
      [| Ir.Ibin (Ir.Badd, Ir.W32, Ir.Csigned, 0, Ir.Reg 0, Ir.ImmI 1L);
         Ir.Iret (Some (Ir.Reg 0)) |]
  in
  let g2 = steps_func "g" (ret_const 99L) in
  let u = steps_unit [ ("main", main); ("g", g1); ("g", g2) ] in
  let img = Image.link u in
  let r, log = run_steps img in
  check_bool "first binding ran" true (r.Exec.status = Trap.Exit 8);
  check_bool "same result as the threaded executor" true
    (triple r = triple (Exec.run_linked img));
  check_bool "call and steps report the first binding's index" true
    (log
    = [ Ecall 0; Estep (0, 0); Ecall 1; Ereg 0; Estep (1, 0); Ereg 0;
        Estep (1, 1); Eret; Ereg 0; Estep (0, 1); Eret ])

let test_steps_duplicate_label () =
  (* L5 occurs twice: the jump lands on the last occurrence *)
  let main =
    steps_func "main"
      [| Ir.Ijmp 5;
         Ir.Ilabel 5; Ir.Iconst (0, Ir.ImmI 1L); Ir.Iret (Some (Ir.Reg 0));
         Ir.Ilabel 5; Ir.Iconst (0, Ir.ImmI 2L); Ir.Iret (Some (Ir.Reg 0)) |]
  in
  let img = Image.link (steps_unit [ ("main", main) ]) in
  let r, log = run_steps img in
  check_bool "last label wins" true (r.Exec.status = Trap.Exit 2);
  check_bool "same result as the threaded executor" true
    (triple r = triple (Exec.run_linked img));
  let pcs = List.filter_map (function Estep (_, pc) -> Some pc | _ -> None) log in
  check_bool "stepped pcs" true (pcs = [ 0; 4; 5; 6 ])

let invalid_arg_message f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg -> msg

let test_steps_deferred_faults () =
  (* a missing label and an unknown builtin are inert in dead code and
     fault only when executed, with the threaded executor's messages *)
  let bad_jump = Ir.Ijmp 9 in
  let bad_builtin = Ir.Ibuiltin (Some 0, "frobnicate", []) in
  List.iter
    (fun bad ->
      let dead =
        steps_unit
          [ ("dead", steps_func "dead" [| bad; Ir.Iret None |]);
            ("main", steps_func "main" (ret_const 3L)) ]
      in
      let img = Image.link dead in
      let r, _ = run_steps img in
      check_bool "dead fault is inert" true
        (triple r = triple (Exec.run_linked img) && r.Exec.status = Trap.Exit 3);
      let live =
        Image.link
          (steps_unit [ ("main", steps_func "main" [| bad; Ir.Iret None |]) ])
      in
      let want = invalid_arg_message (fun () -> Exec.run_linked live) in
      Alcotest.(check string) "same fault message" want
        (invalid_arg_message (fun () -> run_steps live)))
    [ bad_jump; bad_builtin ];
  let jump_only = steps_unit [ ("main", steps_func "main" [| bad_jump |]) ] in
  Alcotest.(check string) "missing label message"
    "Exec: missing label L9 in main"
    (invalid_arg_message (fun () -> run_steps (Image.link jump_only)))

let test_steps_count_fuel () =
  (* every executed instruction is one step and one unit of fuel *)
  let tp =
    match
      Minic.frontend_of_source
        "int sq(int x) { return x * x; }\n\
         int main() { int a = 0; for (int i = 0; i < 9; i++) a = a + sq(i); \
         print(\"%d\\n\", a); return 0; }"
    with
    | Ok tp -> tp
    | Error e -> Alcotest.failf "frontend: %s" e
  in
  List.iter
    (fun profile ->
      let img = Image.link (Pipeline.compile profile tp) in
      let r, log = run_steps img in
      check_bool "terminated" true (r.Exec.status = Trap.Exit 0);
      check_int
        (Printf.sprintf "steps = fuel_used (%s)" profile.Policy.pname)
        r.Exec.fuel_used
        (List.length (List.filter (function Estep _ -> true | _ -> false) log)))
    Profiles.all

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "vm.globals",
      [
        tc "zero init" test_globals_zero_init;
        tc "order policy" test_globals_order_policy;
        tc "OOB neighbour" test_oob_global_resolves_to_neighbor;
      ] );
    ( "vm.heap",
      [
        tc "reuse policy" test_heap_reuse_policy;
        tc "free classification" test_heap_free_classification;
        tc "UAF leftover" test_heap_uaf_reads_leftover;
        tc "malloc limits" test_malloc_limits;
      ] );
    ( "vm.stack",
      [
        tc "reuse leftovers" test_stack_reuse_leftovers;
        tc "slot order policy" test_slot_order_policy;
        tc "overflow trap" test_stack_overflow_trap;
        tc "object resolution" test_object_at_resolution;
        tc "wild pointers" test_wild_pointer_roundtrip;
      ] );
    ( "vm.trap",
      [
        tc "signatures" test_segfault_signature_ignores_address;
        tc "exit signatures" test_exit_signature_table;
      ] );
    ( "vm.coverage",
      [
        tc "buckets" test_coverage_buckets;
        tc "merge" test_coverage_merge;
        tc "edge direction" test_coverage_edges_differ_by_order;
        QCheck_alcotest.to_alcotest prop_merge_count_matches_bytes;
      ] );
    ( "vm.builtins",
      [
        tc "memset/memcpy" test_builtin_memset_memcpy;
        tc "memcpy direction policy" test_builtin_memcpy_direction_policy;
        tc "strlen" test_builtin_strlen;
        tc "peek/input_len" test_builtin_peek_input_len;
        tc "exit/abort" test_builtin_exit_code;
        tc "output limit" test_output_limit;
        tc "fuel accounting" test_fuel_accounting;
        tc "format specifiers" test_format_specifiers;
      ] );
    ( "vm.linked",
      [
        tc "basic program, all profiles" test_linked_basic;
        tc "uninit junk reproduced" test_linked_uninit_junk;
        tc "heap + memcpy direction" test_linked_heap_and_memcpy;
        tc "traps" test_linked_traps;
        tc "hang at identical fuel" test_linked_hang_fuel;
        tc "output limit" test_linked_output_limit;
        tc "missing main" test_linked_missing_main;
        tc "unknown builtin deferred fault" test_linked_unknown_builtin_deferred;
        tc "arena bound to its image" test_arena_wrong_image_rejected;
        QCheck_alcotest.to_alcotest prop_linked_matches_reference;
        QCheck_alcotest.to_alcotest prop_run_batch_matches_run_linked;
      ] );
    ( "vm.domain_arena",
      [
        tc "link global ids = memory's" test_global_ids_match_memory;
        tc "rebinds = reference" test_domain_arena_programs;
        tc "two systhreads, one domain" test_domain_arena_two_systhreads;
        QCheck_alcotest.to_alcotest prop_domain_arena_matches_reference;
      ] );
    ( "vm.steps",
      [
        tc "duplicate names: first binding" test_steps_duplicate_names;
        tc "duplicate label: last wins" test_steps_duplicate_label;
        tc "deferred faults" test_steps_deferred_faults;
        tc "one step per fuel unit" test_steps_count_fuel;
      ] );
  ]
