(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation section, the sections that write a
   BENCH_<section>.json record (overhead oracle vm trace engine serve
   metacheck gen; see record.ml) and the design-choice ablations from
   DESIGN.md.

   Usage:  dune exec bench/main.exe [--jobs N] [section...]
   Sections: table2 table3 figure1 table4 table5 table6 figure2 overhead
             oracle engine serve metacheck vm trace gen ablations
             (default: all).
   Exit status: 2 on an unknown section or a bad --jobs (before anything
   runs), 1 if any gate of a section that ran failed, 0 otherwise. *)

let sections : (string * (unit -> unit)) list =
  [
    ("table2", Table_juliet.table2);
    ("table3", Table_juliet.table3);
    ("figure1", Table_juliet.figure1);
    ("table4", Table_projects.table4);
    ("table5", Table_projects.table5);
    ("table6", Table_projects.table6);
    ("figure2", Table_projects.figure2);
    ("overhead", Overhead.run);
    ("oracle", Overhead.oracle_bench);
    ("engine", Engine_bench.run);
    ("serve", Serve_bench.run);
    ("metacheck", Metacheck_bench.run);
    ("vm", Vm_bench.run);
    ("trace", Trace_bench.run);
    ("gen", Gen_bench.run);
    ("ablations", Ablations.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
          Cdutil.Pool.set_default_jobs n;
          parse acc rest
        | _ ->
          Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
          exit 2)
    | s :: rest -> parse (s :: acc) rest
    | [] -> List.rev acc
  in
  let requested = parse [] args in
  (match List.filter (fun name -> not (List.mem_assoc name sections)) requested with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown section %s (available: %s)\n"
      (String.concat " " unknown)
      (String.concat " " (List.map fst sections));
    exit 2);
  let to_run =
    if requested = [] then List.map snd sections
    else List.map (fun name -> List.assoc name sections) requested
  in
  List.iter (fun f -> f ()) to_run;
  if Record.failed () then exit 1
