(* Ablations for the design choices DESIGN.md calls out:

   A1. comparing (output, status) vs output only;
   A2. output normalization on the timestamped target (RQ5);
   A3. timeout escalation (RQ6) on vs off;
   A4. the recommended 2-subset vs the worst 2-subset (Section 4.2). *)

let sample_tests () = Juliet.Suite.quick ~per_cwe:6 ()

let a1_status_comparison () =
  let tests = sample_tests () in
  let count compare_status =
    List.length
      (List.filter
         (fun (t : Juliet.Testcase.t) ->
           let tp = Juliet.Testcase.frontend_bad t in
           let o = Compdiff.Oracle.create ~compare_status ~fuel:100_000 tp in
           Array.exists Compdiff.Oracle.is_divergence
             (Compdiff.Oracle.check_batch o
                ~inputs:(Array.of_list t.Juliet.Testcase.inputs)))
         tests)
  in
  let with_status = count true in
  let without = count false in
  Printf.printf
    "A1 oracle scope: %d/%d bugs with (output,status), %d/%d with output only\n"
    with_status (List.length tests) without (List.length tests);
  Printf.printf
    "   (crash-kind and exit-code divergences vanish without status comparison)\n\n"

let a2_normalization () =
  let p = Option.get (Projects.Registry.by_name "wireshark") in
  let tp = Projects.Project.frontend p in
  let benign_inputs = [ "TAB0"; "F\003abc"; "" ] in
  let count normalize =
    List.length
      (List.filter
         (fun input ->
           let o = Compdiff.Oracle.create ~normalize ~fuel:60_000 tp in
           Compdiff.Oracle.is_divergence (Compdiff.Oracle.check o ~input))
         benign_inputs)
  in
  let raw = count Compdiff.Normalize.identity in
  let filtered = count p.Projects.Project.normalize in
  Printf.printf
    "A2 normalization (wireshark, benign inputs): %d/%d false divergences raw, %d/%d with the timestamp filter\n\n"
    raw (List.length benign_inputs) filtered (List.length benign_inputs)

let a3_timeout_escalation () =
  (* needs more fuel at -O0 than the base budget; terminates everywhere *)
  let src =
    "int main() {\n\
     \  int s = 0;\n\
     \  for (int i = 0; i < 8000; i++) { s += i % 7; }\n\
     \  print(\"%d\\n\", s);\n\
     \  return 0;\n\
     }"
  in
  let tp = match Minic.frontend_of_source src with Ok tp -> tp | Error e -> failwith e in
  let verdict ~max_fuel =
    let o = Compdiff.Oracle.create ~fuel:100_000 ~max_fuel tp in
    Compdiff.Oracle.is_divergence (Compdiff.Oracle.check o ~input:"")
  in
  Printf.printf
    "A3 timeout escalation: partial-timeout reported as divergence without escalation: %b; with escalation: %b\n\n"
    (verdict ~max_fuel:100_000) (verdict ~max_fuel:4_000_000)

let a4_subset_choice () =
  let tests = sample_tests () in
  let detect profiles (t : Juliet.Testcase.t) =
    let tp = Juliet.Testcase.frontend_bad t in
    Compdiff.Tools.diverges
      (Compdiff.Tools.check ~profiles ~fuel:100_000 tp
         ~inputs:t.Juliet.Testcase.inputs)
  in
  let count profiles = List.length (List.filter (detect profiles) tests) in
  let recommended = [ Cdcompiler.Profiles.gccx "O0"; Cdcompiler.Profiles.clangx "O3" ] in
  let worst = [ Cdcompiler.Profiles.gccx "O2"; Cdcompiler.Profiles.gccx "O3" ] in
  Printf.printf
    "A4 subset choice on %d sampled bugs: full set %d, {gccx-O0, clangx-O3} %d, {gccx-O2, gccx-O3} %d\n\n"
    (List.length tests)
    (count Cdcompiler.Profiles.all)
    (count recommended) (count worst)

(* A5: the Section 5 future-work extension implemented here -- feeding
   new divergence signatures back into the queue as interesting inputs *)
let a5_divergence_feedback () =
  let p = Option.get (Projects.Registry.by_name "libtiff") in
  let tp = Projects.Project.frontend p in
  let unique feedback =
    let c =
      Fuzz.Compdiff_afl.run
        ~config:
          {
            Fuzz.Compdiff_afl.default_config with
            Fuzz.Compdiff_afl.max_execs = 2_000;
            seeds = p.Projects.Project.seeds;
            fuel = 60_000;
            divergence_feedback = feedback;
          }
        tp
    in
    Compdiff.Triage.unique_count c.Fuzz.Compdiff_afl.diffs
  in
  Printf.printf
    "A5 divergence feedback (libtiff, 2000 execs): %d unique signatures without, %d with the NEZHA-style feedback\n\n"
    (unique false) (unique true)

let run () =
  print_endline "Ablations";
  print_endline "=========";
  a1_status_comparison ();
  a2_normalization ();
  a3_timeout_escalation ();
  a4_subset_choice ();
  a5_divergence_feedback ()
