(* The three illustrative examples of Section 2, reproduced:

     dune exec examples/evalorder_tcpdump.exe

   - Listing 2 (binutils): relational comparison of pointers to different
     objects -- each implementation's layout decides the answer.
   - Listing 3 (tcpdump):  two calls sharing a static buffer passed as %s
     arguments -- the evaluation order decides what gets printed.
   - Listing 4 (exiv2):    a variable left uninitialized on the empty
     input -- the junk value is implementation-dependent.

   Each also shows why the matching sanitizer stays silent. *)

let check title source input =
  let tp =
    match Minic.frontend_of_source source with
    | Ok tp -> tp
    | Error msg -> failwith (title ^ ": " ^ msg)
  in
  Printf.printf "=== %s ===\n" title;
  let oracle = Compdiff.Oracle.create tp in
  (match Compdiff.Oracle.check oracle ~input with
  | Compdiff.Oracle.Diverge obs ->
    let by_out = Hashtbl.create 4 in
    List.iter
      (fun (name, (o : Compdiff.Oracle.observation)) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_out o.Compdiff.Oracle.output) in
        Hashtbl.replace by_out o.Compdiff.Oracle.output (name :: prev))
      obs;
    Hashtbl.iter
      (fun out names ->
        Printf.printf "  %-45s <- %s\n"
          (String.trim out)
          (String.concat "," (List.rev names)))
      by_out
  | Compdiff.Oracle.Agree _ -> Printf.printf "  (stable)\n");
  (* sanitizer check *)
  let b = Sanitizers.San.build tp in
  let reporting =
    List.filter
      (fun kind ->
        List.exists Option.is_some
          (Sanitizers.San.reports kind b ~inputs:[ input ]))
      Sanitizers.San.all
  in
  List.iter
    (fun kind -> Printf.printf "  %s: reports\n" (Sanitizers.San.name kind))
    reporting;
  if reporting = [] then Printf.printf "  (no sanitizer detects this)\n";
  print_newline ()

let listing2 =
  {|
int section_a[4];
int section_b[4];
int main() {
  int *saved_start = section_a;
  int *look_for = section_b;
  if (look_for <= saved_start) { print("backward\n"); }
  else { print("forward\n"); }
  return 0;
}
|}

let listing3 =
  {|
int *get_linkaddr_string(int v) {
  static int buffer[8];
  buffer[0] = 48 + v % 10;
  buffer[1] = 0;
  return buffer;
}
int main() {
  print("who-is %s tell %s\n", get_linkaddr_string(1), get_linkaddr_string(2));
  return 0;
}
|}

let listing4 =
  {|
int main() {
  int l;
  int c = getchar();                 // "is >> l" on an empty stream
  if (c >= 48 && c < 58) { l = c - 48; }
  print("0x%x\n", l & 65535);
  return 0;
}
|}

let () =
  check "Listing 2: invalid pointer comparison (binutils)" listing2 "";
  check "Listing 3: evaluation order with conflicting side effects (tcpdump)"
    listing3 "";
  check "Listing 4: use of uninitialized variable (exiv2)" listing4 ""
