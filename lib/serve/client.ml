(* Client side of the serve protocol: connect, handshake, and a
   request/response demultiplexer.

   The daemon tags every response with the id of the request it answers
   and may deliver them out of submission order (coalesced check flights
   complete together; pings overtake queued work).  [call] therefore
   demuxes: whichever caller thread is idle performs the blocking frame
   read, parks responses for other ids in a pending table, and wakes
   their waiters — so one connection is safely shared by any number of
   threads, each with its own outstanding request.

   [send]/[recv] expose the raw pipelined layer for callers that want
   many requests in flight on one thread (the backpressure tests flood
   the daemon this way and count [Busy] replies). *)

exception Closed
(** The connection died (EOF or I/O error) while a reply was pending. *)

type t = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;                       (* serializes request frames *)
  rmutex : Mutex.t;                       (* pending / reading / closed *)
  rcond : Condition.t;
  pending : (int, Proto.response) Hashtbl.t;
  mutable reading : bool;       (* a thread is inside the blocking read *)
  mutable next_id : int;
  mutable closed : bool;
}

let connect (path : string) : t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  (* handshake: we speak first, the daemon echoes *)
  (try
     Proto.really_write fd (Proto.hello ());
     match Proto.really_read fd Proto.hello_bytes with
     | None -> failwith "server closed during handshake"
     | Some h ->
         let v = Proto.parse_hello h in
         if v <> Proto.version then
           failwith
             (Printf.sprintf "server protocol version %d (want %d)" v
                Proto.version)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  {
    fd;
    wmutex = Mutex.create ();
    rmutex = Mutex.create ();
    rcond = Condition.create ();
    pending = Hashtbl.create 16;
    reading = false;
    next_id = 1;
    closed = false;
  }

let close (t : t) : unit =
  Mutex.lock t.rmutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.rcond;
  Mutex.unlock t.rmutex;
  if not was_closed then begin
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
    try Unix.close t.fd with _ -> ()
  end

(* Fire one request; returns the id its response will carry. *)
let send (t : t) (req : Proto.request) : int =
  Mutex.lock t.wmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.wmutex)
    (fun () ->
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      Proto.write_frame t.fd (Proto.encode_request ~id req);
      id)

(* Read the next response frame off the wire, bypassing the demux.  Only
   for single-threaded pipelined use; do not mix with [call]. *)
let recv (t : t) : (int * Proto.response) option =
  match Proto.read_frame t.fd with
  | None -> None
  | Some frame -> Some (Proto.decode_response frame)

(* Wait for the response to [id], reading frames on behalf of everyone. *)
let wait (t : t) (id : int) : Proto.response =
  Mutex.lock t.rmutex;
  let rec loop () =
    match Hashtbl.find_opt t.pending id with
    | Some r ->
        Hashtbl.remove t.pending id;
        Mutex.unlock t.rmutex;
        r
    | None ->
        if t.closed then begin
          Mutex.unlock t.rmutex;
          raise Closed
        end
        else if t.reading then begin
          (* someone else is on the wire; they will wake us *)
          Condition.wait t.rcond t.rmutex;
          loop ()
        end
        else begin
          t.reading <- true;
          Mutex.unlock t.rmutex;
          let result = try recv t with _ -> None in
          Mutex.lock t.rmutex;
          t.reading <- false;
          (match result with
          | Some (rid, r) -> Hashtbl.replace t.pending rid r
          | None -> t.closed <- true);
          Condition.broadcast t.rcond;
          loop ()
        end
  in
  loop ()

let call (t : t) (req : Proto.request) : Proto.response =
  wait t (send t req)

(* --- convenience wrappers --- *)

let ping (t : t) : bool = match call t Proto.Ping with
  | Proto.Pong -> true
  | _ -> false

(* the daemon's stats object ({!Scheduler.stats_json}), as one JSON line *)
let stats (t : t) : string option =
  match call t Proto.Get_stats with
  | Proto.Stats_reply s -> Some s
  | _ -> None

let check (t : t) ?(profiles = []) ?(fuel = 0) ?(strip = false) ~source
    ~(inputs : string list) () : (Proto.verdict list, string) result =
  match
    call t
      (Proto.Check
         {
           Proto.ck_source = source;
           ck_inputs = inputs;
           ck_profiles = profiles;
           ck_fuel = fuel;
           ck_strip = strip;
         })
  with
  | Proto.Check_reply vs -> Ok vs
  | Proto.Busy q -> Error (Printf.sprintf "busy (quota %d)" q)
  | Proto.Err m -> Error m
  | _ -> Error "unexpected response"

let explore (t : t) ?(profiles = []) ?(fuel = 0) ?(limit = 0) ~source
    ~(input : string) () : (Proto.explore_reply, string) result =
  match
    call t
      (Proto.Explore
         {
           Proto.ex_source = source;
           ex_input = input;
           ex_profiles = profiles;
           ex_fuel = fuel;
           ex_limit = limit;
         })
  with
  | Proto.Explore_reply e -> Ok e
  | Proto.Busy q -> Error (Printf.sprintf "busy (quota %d)" q)
  | Proto.Err m -> Error m
  | _ -> Error "unexpected response"
