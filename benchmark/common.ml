(* Shared plumbing of the workloads: options, clocks, sample statistics,
   the correctness ledger and the result record main prints. *)

type opts = {
  seed : int;
  seconds : float;  (* length of the measured phase *)
  trace : bool;     (* traced run: per-layer metrics instead of end-to-end *)
  smoke : bool;     (* smallest sizes, for the runtest smoke *)
  trace_out : string option;  (* spans as JSONL, traced runs only *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let percentile p = function
  | [] -> 0.
  | xs -> Cdutil.Stats.percentile p xs

let median xs = percentile 0.5 xs
let sum = List.fold_left ( +. ) 0.
let sumi = List.fold_left ( + ) 0

(* Peak major heap of the whole process so far (every domain). *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Set-up runs several times and reports the median, so one slow
   repetition does not move the metric; the last result is kept.  An
   untimed compaction after each, with the result of an earlier one
   already dropped, keeps its garbage out of the next repetition and out
   of the measured phase's heap. *)
let setup_median ~reps f =
  let rec go k times =
    let r, dt = timed f in
    if k < reps then begin
      Gc.compact ();
      go (k + 1) (dt :: times)
    end
    else begin
      Gc.compact ();
      (r, median (dt :: times))
    end
  in
  go 1 []

(* Repeat [pass] until the deadline, at least once.  A further pass only
   starts when the previous one suggests it ends before the deadline, so
   a run overshoots [seconds] by at most the spread of one pass. *)
let passes ~seconds pass =
  let t0 = now () in
  let rec go acc last =
    let elapsed = now () -. t0 in
    if acc <> [] && elapsed +. last > seconds then List.rev acc
    else
      let r, dt = timed pass in
      go (r :: acc) dt
  in
  go [] 0.

(* --- correctness ledger --- *)

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* newest first *)
}

let ledger () = { attempted = 0; failed = 0; errors = [] }

(* A failed operation also breaks correctness: the workloads are chosen
   so that none fails. *)
let fail l fmt =
  Printf.ksprintf
    (fun msg ->
      l.failed <- l.failed + 1;
      l.errors <- msg :: l.errors)
    fmt

let check l cond fmt =
  Printf.ksprintf (fun msg -> if not cond then l.errors <- msg :: l.errors) fmt

(* --- result --- *)

type result = {
  ledger : ledger;
  metrics : (string * float) list;  (* units come from {!Metrics} *)
}

let correct r = r.ledger.errors = [] && r.ledger.failed = 0
