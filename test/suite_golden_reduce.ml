(* Golden results of program reduction.

   A reduction is a chain of hundreds of program candidates, each
   compiled under every profile, linked, signed and observed; the
   accepted candidate is the first one in [Reduce.candidates] order
   that stays in the divergence class.  Any change to how a candidate
   is compiled, linked or deduplicated that moves a single verdict
   moves the reduced program.  These tests pin, for the witness
   divergence of two Table 4 targets, the reduced input, the printed
   reduced program (its length and MD5), the partition and the check
   count, on a caching session and on a caching-disabled one. *)

let max_checks = 40

(* the witness of [project]'s first seeded bug, reduced through a
   session with [cache_mb] of cache, rendered one fact a line *)
let reduced ~cache_mb (project : string) : string =
  let p = Option.get (Projects.Registry.by_name project) in
  let input = (List.hd p.Projects.Project.bugs).Projects.Project.witness in
  let oracle =
    Compdiff.Oracle.create
      ~session:(Engine.Session.create ~cache_mb ())
      ~profiles:(Projects.Project.profiles_for p)
      ~normalize:p.Projects.Project.normalize ~fuel:60_000
      (Projects.Project.frontend p)
  in
  match Compdiff.Oracle.check oracle ~input with
  | Compdiff.Oracle.Agree _ -> Alcotest.fail "the witness does not diverge"
  | Compdiff.Oracle.Diverge obs -> (
    match
      Compdiff.Reduce.reduce ~max_checks ~program:p.Projects.Project.program
        oracle ~input obs
    with
    | None -> Alcotest.fail "no reduction"
    | Some r ->
      let program =
        match r.Compdiff.Reduce.red_program with
        | None -> "none"
        | Some prog ->
          let text = Minic.Pretty.program_to_string prog in
          Printf.sprintf "%d bytes, md5 %s" (String.length text)
            (Digest.to_hex (Digest.string text))
      in
      let cls = r.Compdiff.Reduce.red_class in
      let st = r.Compdiff.Reduce.red_stats in
      Printf.sprintf
        "input %S\nprogram %s\nstatements %d -> %d\npartition %s\nchecks %d\n"
        r.Compdiff.Reduce.red_input program st.Compdiff.Reduce.stmts_before
        st.Compdiff.Reduce.stmts_after
        (String.concat ","
           (Array.to_list
              (Array.map string_of_int cls.Compdiff.Reduce.cls_partition)))
        st.Compdiff.Reduce.checks)

let pinned =
  [
    ( "exiv2",
      "input \"C\"\nprogram 2321 bytes, md5 0f868f265669a231c00b73dba9a09b8e\n\
       statements 100 -> 70\npartition 0,1,2,3,4,5,6,7,2,3\nchecks 40\n" );
    ( "gpac",
      "input \"T\"\nprogram 2286 bytes, md5 39e365f7d619bd06b2b2629f89cc68af\n\
       statements 91 -> 66\npartition 0,1,1,1,0,0,0,0,1,1\nchecks 40\n" );
  ]

let test_reduction (project, expect) () =
  Alcotest.(check string) (project ^ " cached") expect
    (reduced ~cache_mb:64 project);
  Alcotest.(check string) (project ^ " at cache_mb 0") expect
    (reduced ~cache_mb:0 project)

let suites =
  [
    ( "golden.reduce",
      List.map
        (fun ((project, _) as pin) ->
          Alcotest.test_case (project ^ " witness") `Quick (test_reduction pin))
        pinned );
  ]
