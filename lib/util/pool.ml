(* Caller-helps domain pool.

   A batch ([map]/[run]) is a shared claim counter over an array of
   items.  The submitting domain enqueues up to [workers] helper tasks
   (each a loop that claims items until the batch is drained), then
   claims items itself.  Because the caller always drains the batch it
   submitted, a pool of size 1 runs everything inline, and a task that
   submits a nested batch makes progress even if every worker is busy.

   Results and errors are written to per-index slots before the atomic
   increment of the completion counter, so the submitter (which waits
   for the counter to reach the batch size) reads them race-free. *)

type t = {
  mutex : Mutex.t;
  cond : Condition.t;                  (* queue activity + batch completion *)
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable stopping : bool;
  total : int;                         (* parallelism incl. the caller *)
}

let jobs t = t.total

let auto_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let forced_jobs : int option Atomic.t = Atomic.make None

let default_jobs () =
  match Atomic.get forced_jobs with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt "COMPDIFF_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | _ -> auto_jobs ())
      | None -> auto_jobs ())

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.stopping then None
    else begin
      Condition.wait t.cond t.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t

let create ?jobs () =
  let total = max 1 (match jobs with Some n -> n | None -> default_jobs ()) in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      workers = [];
      stopping = false;
      total;
    }
  in
  (* a new domain does not record backtraces; the workers inherit the
     creator's setting, so a task's exception keeps its backtrace *)
  let record = Printexc.backtrace_status () in
  t.workers <-
    List.init (total - 1) (fun _ ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record;
            worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.cond;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ws

(* Shared global pool, built on first use. *)
let global_lock = Mutex.create ()
let global_pool : t option ref = ref None
let exit_hooked = ref false

let global () =
  Mutex.lock global_lock;
  let t =
    match !global_pool with
    | Some t -> t
    | None ->
        let t = create () in
        global_pool := Some t;
        if not !exit_hooked then begin
          exit_hooked := true;
          at_exit (fun () ->
              Mutex.lock global_lock;
              let p = !global_pool in
              global_pool := None;
              Mutex.unlock global_lock;
              Option.iter shutdown p)
        end;
        t
  in
  Mutex.unlock global_lock;
  t

let quiesce () =
  Mutex.lock global_lock;
  let p = !global_pool in
  global_pool := None;
  Mutex.unlock global_lock;
  Option.iter shutdown p

(* queued-but-unclaimed helper tasks: a utilization signal for the serve
   daemon's stats endpoint (0 means the pool is keeping up) *)
let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let set_default_jobs n =
  let n = max 1 n in
  Atomic.set forced_jobs (Some n);
  Mutex.lock global_lock;
  let stale =
    match !global_pool with
    | Some t when t.total <> n ->
        global_pool := None;
        Some t
    | _ -> None
  in
  Mutex.unlock global_lock;
  Option.iter shutdown stale

type 'b slot = Empty | Ok_ of 'b | Err of exn * Printexc.raw_backtrace

let map_array ?pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if n = 1 then [| f xs.(0) |]
  else begin
    let t = match pool with Some p -> p | None -> global () in
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let step () =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then false
      else begin
        (results.(i) <-
           (try Ok_ (f xs.(i))
            with e -> Err (e, Printexc.get_raw_backtrace ())));
        if Atomic.fetch_and_add completed 1 = n - 1 then begin
          (* wake the submitter (and any idle worker, harmlessly) *)
          Mutex.lock t.mutex;
          Condition.broadcast t.cond;
          Mutex.unlock t.mutex
        end;
        true
      end
    in
    let nhelpers = min (n - 1) (t.total - 1) in
    if nhelpers > 0 then begin
      Mutex.lock t.mutex;
      for _ = 1 to nhelpers do
        Queue.add (fun () -> while step () do () done) t.queue
      done;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    end;
    (* the submitting domain helps drain its own batch *)
    while step () do () done;
    (* wait for items claimed by workers that are still in flight *)
    if Atomic.get completed < n then begin
      Mutex.lock t.mutex;
      while Atomic.get completed < n do
        Condition.wait t.cond t.mutex
      done;
      Mutex.unlock t.mutex
    end;
    Array.map
      (function
        | Ok_ v -> v
        | Err (e, bt) -> Printexc.raise_with_backtrace e bt
        | Empty -> assert false)
      results
  end

let map ?pool f xs = Array.to_list (map_array ?pool f (Array.of_list xs))
let run ?pool thunks = map ?pool (fun f -> f ()) thunks

(* A promise is one task with a claim flag.  [async] queues a claim
   attempt for the workers; whoever claims first runs the thunk, so the
   submitter can always take back a task no worker has started.  [await]
   does exactly that, and otherwise helps drain the queue (the nested
   batches of the task it waits for among them) until a worker finishes
   it.  The result is written before [finished] is set, so the awaiter
   reads it race-free. *)
type 'a promise = {
  p_pool : t;
  thunk : unit -> 'a;
  claimed : bool Atomic.t;
  finished : bool Atomic.t;
  mutable result : 'a slot;
}

let execute p =
  if Atomic.compare_and_set p.claimed false true then begin
    p.result <-
      (try Ok_ (p.thunk ()) with e -> Err (e, Printexc.get_raw_backtrace ()));
    Atomic.set p.finished true;
    let t = p.p_pool in
    Mutex.lock t.mutex;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  end

let async ?pool thunk =
  let t = match pool with Some p -> p | None -> global () in
  let p =
    {
      p_pool = t;
      thunk;
      claimed = Atomic.make false;
      finished = Atomic.make false;
      result = Empty;
    }
  in
  (* a pool without workers (size 1, or shut down) leaves the task to
     [await] *)
  Mutex.lock t.mutex;
  if t.workers <> [] then begin
    Queue.add (fun () -> execute p) t.queue;
    Condition.broadcast t.cond
  end;
  Mutex.unlock t.mutex;
  p

let await p =
  let t = p.p_pool in
  execute p;
  while not (Atomic.get p.finished) do
    Mutex.lock t.mutex;
    if Atomic.get p.finished then Mutex.unlock t.mutex
    else if not (Queue.is_empty t.queue) then begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      task ()
    end
    else begin
      Condition.wait t.cond t.mutex;
      Mutex.unlock t.mutex
    end
  done;
  match p.result with
  | Ok_ v -> v
  | Err (e, bt) -> Printexc.raise_with_backtrace e bt
  | Empty -> assert false
