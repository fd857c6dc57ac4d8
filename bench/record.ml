(* One bench record: how a bench/ number is measured, stored, printed
   and gated.  A section opens a record, times its configurations with
   [time] (or [alternate]), adds rows, declares its floors, and calls
   [emit], which writes BENCH_<bench>.json in the repo root, prints the
   rows as one table and one line per gate, and notes a failed gate for
   [failed] (bench/main.exe turns it into its exit code).  Every
   BENCH_*.json has the same shape:

     { "bench": ..., "about": ...,
       "rows":  [ { "name", "unit", "trials", "median", "min", "max" } ],
       "gates": [ { "name", "floor", "value", "ok" } ] }

   A row is a name, a unit and its samples: one per trial for a timed
   configuration, a single one for a count, a ratio or context.  Gates
   read a row's median.  Wall-clock noise on a shared machine is
   one-sided (runs only ever get slower), so a single trial says little;
   the median of a few is the typical run, where the minimum would be
   the luckiest one. *)

type row = { name : string; unit_ : string; samples : float list }
type floor = At_least of float | At_most of float | Holds of bool

type t = {
  bench : string;
  about : string;
  mutable rows : row list; (* newest first *)
  mutable gates : (string * floor) list; (* newest first *)
}

let create ~bench ~about = { bench; about; rows = []; gates = [] }

(* Run each thunk of [fs] [rounds] times per trial, in turn, timing
   every call; a trial's sample for a thunk is the sum over its rounds.
   The first round starts each thunk from a collected heap (so no timed
   run pays the major-GC debt of an earlier one's garbage).  Returns,
   per thunk, its seconds in trial order and its result.  Every trial of
   a thunk must return the same result.  Alternating puts
   configurations that are compared with each other under the same
   machine noise; more rounds alternate them at a finer grain. *)
let alternate ?(trials = 3) ?(rounds = 1) fs =
  let fs = Array.of_list fs in
  let n = Array.length fs in
  let secs = Array.make n [] and first = Array.make n None in
  for _ = 1 to trials do
    let spent = Array.make n 0. and last = Array.make n None in
    for round = 1 to rounds do
      Array.iteri
        (fun i f ->
          if round = 1 then Gc.full_major ();
          let t0 = Unix.gettimeofday () in
          last.(i) <- Some (f ());
          spent.(i) <- spent.(i) +. (Unix.gettimeofday () -. t0))
        fs
    done;
    for i = 0 to n - 1 do
      secs.(i) <- spent.(i) :: secs.(i);
      match first.(i) with
      | None -> first.(i) <- last.(i)
      | Some _ -> if last.(i) <> first.(i) then failwith "bench: trial results differ"
    done
  done;
  List.init n (fun i -> (List.rev secs.(i), Option.get first.(i)))

let time ?trials f = List.hd (alternate ?trials [ f ])

let add t name unit_ samples = t.rows <- { name; unit_; samples } :: t.rows
let value t name unit_ v = add t name unit_ [ v ]
let count t name n = value t name "count" (float_of_int n)

(* [n] operations per second, one sample per trial of [secs] *)
let rate t name unit_ n secs =
  add t name unit_ (List.map (fun s -> float_of_int n /. s) secs)

let median t name =
  match List.find_opt (fun r -> r.name = name) t.rows with
  | Some r -> (Cdutil.Stats.box_of r.samples).Cdutil.Stats.median
  | None -> nan

(* [a]'s median over [b]'s, a single-sample row *)
let ratio t name a b = value t name "x" (median t a /. median t b)

let at_least t name floor = t.gates <- (name, At_least floor) :: t.gates
let at_most t name ceiling = t.gates <- (name, At_most ceiling) :: t.gates
let holds t name ok = t.gates <- (name, Holds ok) :: t.gates

(* JSON number; a missing or undefined value is null *)
let num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 32 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* floor text, value text, verdict; a gate over a missing row fails *)
let judge t (name, floor) =
  match floor with
  | At_least f ->
    let v = median t name in
    (">= " ^ num f, num v, v >= f)
  | At_most f ->
    let v = median t name in
    ("<= " ^ num f, num v, v <= f)
  | Holds ok -> ("holds", string_of_bool ok, ok)

let any_failed = ref false
let failed () = !any_failed

let emit t =
  let rows = List.rev t.rows and gates = List.rev t.gates in
  let boxes = List.map (fun r -> (r, Cdutil.Stats.box_of r.samples)) rows in
  let verdicts = List.map (fun g -> (fst g, judge t g)) gates in
  let path = Printf.sprintf "BENCH_%s.json" t.bench in
  let oc = open_out path in
  let list items = String.concat ",\n    " items in
  Printf.fprintf oc
    "{\n  \"bench\": %s,\n  \"about\": %s,\n  \"rows\": [\n    %s\n  ],\n  \
     \"gates\": [\n    %s\n  ]\n}\n"
    (json_string t.bench) (json_string t.about)
    (list
       (List.map
          (fun (r, (b : Cdutil.Stats.box)) ->
            Printf.sprintf
              "{ \"name\": %s, \"unit\": %s, \"trials\": %d, \"median\": %s, \
               \"min\": %s, \"max\": %s }"
              (json_string r.name) (json_string r.unit_) b.count
              (num b.median) (num b.minimum) (num b.maximum))
          boxes))
    (list
       (List.map
          (fun (name, (floor, v, ok)) ->
            Printf.sprintf
              "{ \"name\": %s, \"floor\": %s, \"value\": %s, \"ok\": %b }"
              (json_string name) (json_string floor) v ok)
          verdicts));
  close_out oc;
  Printf.printf "== %s bench (%s)\n%s\n\n" t.bench t.about
    (Cdutil.Tablefmt.render
       ~aligns:Cdutil.Tablefmt.[ Left; Left; Right; Right; Right; Right ]
       ~header:[ "row"; "unit"; "trials"; "median"; "min"; "max" ]
       (List.map
          (fun (r, (b : Cdutil.Stats.box)) ->
            [ r.name; r.unit_; string_of_int b.count; num b.median;
              num b.minimum; num b.maximum ])
          boxes));
  List.iter
    (fun (name, (floor, v, ok)) ->
      if not ok then any_failed := true;
      Printf.printf "%s gate: %s %s = %s (floor %s)\n"
        (if ok then "ok  " else "FAIL")
        t.bench name v floor)
    verdicts;
  Printf.printf "wrote %s\n\n%!" path
