(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-out FILE]
     main.exe --smoke

   One workload per process.  The last line of standard output is one
   JSON object: correct, attempted, failed and the metrics (end-to-end
   untraced, per-layer traced), each with its unit.  Exits 1 when a
   correctness check failed, 2 on bad arguments. *)

open Common

let workloads : (string * (opts -> result)) list =
  [
    ("fuzz", W_fuzz.run);
    ("report", W_report.run);
    ("juliet", W_juliet.run);
    ("serve", W_serve.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (fuzz|report|juliet|serve) --seed N --seconds \
     S --trace 0|1 [--trace-out FILE]\n\
    \       main.exe --smoke";
  exit 2

let number s = Printf.sprintf "%.17g" s

let to_json (r : result) ~trace =
  let units = Metrics.expected ~trace in
  let metric (name, v) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string name)
      (number v)
      (Span.json_string (List.assoc name units))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.ledger.attempted r.ledger.failed
    (String.concat ", " (List.map metric r.metrics))

(* Run one workload; its metric set must be exactly the declared one,
   every value a finite number. *)
let run_one name opts =
  Cdutil.Pool.set_default_jobs 2;
  Layers.reset ();
  let r = (List.assoc name workloads) opts in
  let declared = List.sort compare (List.map fst (Metrics.expected ~trace:opts.trace)) in
  let printed = List.sort compare (List.map fst r.metrics) in
  if declared <> printed then
    r.ledger.errors <-
      Printf.sprintf "%s: metric set differs from the declared one" name
      :: r.ledger.errors;
  List.iter
    (fun (m, v) ->
      if not (Float.is_finite v) then
        r.ledger.errors <- Printf.sprintf "%s: %s is not finite" name m :: r.ledger.errors)
    r.metrics;
  let r =
    { r with metrics = List.map (fun (m, v) -> (m, if Float.is_finite v then v else 0.)) r.metrics }
  in
  List.iter (fun e -> Printf.eprintf "%s: %s\n" name e) (List.rev r.ledger.errors);
  r

(* Every workload, untraced and traced, at smoke size. *)
let smoke () =
  let ok = ref true in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          let opts = { seed = 1; seconds = 0.; trace; smoke = true; trace_out = None } in
          let r, dt = timed (fun () -> run_one name opts) in
          let line = to_json r ~trace in
          Printf.printf "%s trace=%b %.2fs %s\n%!" name trace dt line;
          if not (correct r) || r.ledger.attempted < 1 then ok := false)
        [ false; true ])
    workloads;
  exit (if !ok then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--smoke" ] then smoke ();
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "--workload" in
  if not (List.mem_assoc name workloads) then usage ();
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-out" ])
      then usage ())
    kv;
  let opts =
    {
      seed = int "--seed";
      seconds = float_of_int seconds;
      trace;
      smoke = false;
      trace_out = List.assoc_opt "--trace-out" kv;
    }
  in
  let r = run_one name opts in
  print_endline (to_json r ~trace);
  exit (if correct r then 0 else 1)
