(* The serve daemon's socket layer: a Unix-domain listener, one reader
   thread per connection, and a housekeeping thread for timeouts.

   Each connection gets a dedicated reader thread that performs the
   handshake, then loops decoding frames and handing requests to the
   {!Scheduler}.  Responses are written by whichever thread produced
   them (reader for inline ping/stats, executor domains for work),
   serialized per-connection by a write mutex so interleaved frames
   cannot corrupt the stream.  A client that disconnects — cleanly or
   mid-request — is released from the scheduler: its queued requests are
   dropped, its in-flight responses discarded, and the daemon keeps
   serving everyone else.  A client that sends a malformed frame is
   answered [Err] once and disconnected.

   Fd discipline: only the connection's reader thread ever closes its
   fd, and only after its read loop has returned.  Every other party
   (timeout enforcement, daemon drain) retires a connection with
   [kill_conn] — mark dead + [Unix.shutdown] — which wakes the blocked
   reader with EOF; closing from another thread would race fd-number
   reuse against the in-flight read.  [send] checks the dead mark under
   the write mutex, so no response is ever written to a retired fd.

   Lifecycle: [client_timeout] drops connections with no traffic (data
   or ping) for that many seconds; [idle_timeout] exits the accept loop
   once the daemon has had no connections AND no scheduled work for that
   long, so scripted runs (bench, CI smoke) terminate by themselves
   instead of leaking daemons. *)

type config = {
  socket_path : string;
  sched : Scheduler.config;
  client_timeout : float;  (* seconds without traffic; 0 = no limit *)
  idle_timeout : float;    (* seconds without clients or work; 0 = run forever *)
  quiet : bool;
}

let default_config ?session ~socket_path () =
  {
    socket_path;
    sched = Scheduler.default_config ?session ();
    client_timeout = 0.;
    idle_timeout = 0.;
    quiet = false;
  }

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;               (* serializes response frames *)
  mutable alive : bool;           (* under [wmutex] *)
  mutable last_seen : float;      (* Unix.gettimeofday of last frame *)
}

type t = {
  cfg : config;
  sched : Scheduler.t;
  listen_fd : Unix.file_descr;
  mutex : Mutex.t;                (* conns / stopping / last_active *)
  mutable conns : conn list;
  mutable stopping : bool;
  mutable last_active : float;
  mutable threads : Thread.t list;
}

let logf t fmt =
  if t.cfg.quiet then Printf.ifprintf stderr fmt else Printf.eprintf fmt

(* Send one response frame; drops silently once the connection died. *)
let send (c : conn) (id : int) (r : Proto.response) : unit =
  Mutex.lock c.wmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.wmutex)
    (fun () ->
      if c.alive then
        try Proto.write_frame c.fd (Proto.encode_response ~id r)
        with _ -> c.alive <- false)

(* Retire a connection: no further sends, and a reader blocked in
   [read_frame] wakes with EOF.  Does NOT close the fd (see header). *)
let kill_conn (c : conn) : unit =
  Mutex.lock c.wmutex;
  c.alive <- false;
  Mutex.unlock c.wmutex;
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ()

(* Per-connection reader: handshake, then frame-decode loop.  Owns the
   fd: closes it exactly once, after the loop returns. *)
let reader_loop t (c : conn) : unit =
  let cl =
    Scheduler.register_client t.sched ~respond:(fun id r -> send c id r)
  in
  let bye reason =
    Scheduler.release_client t.sched cl;
    kill_conn c;
    (try Unix.close c.fd with _ -> ());
    Mutex.lock t.mutex;
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    t.last_active <- Unix.gettimeofday ();
    Mutex.unlock t.mutex;
    logf t "[serve] client %d disconnected (%s)\n%!" cl.Scheduler.cl_id reason
  in
  match
    (* handshake: client speaks first *)
    match Proto.really_read c.fd Proto.hello_bytes with
    | None -> `Closed
    | Some h ->
        let v = Proto.parse_hello h in
        if v <> Proto.version then
          `Bad (Printf.sprintf "protocol version %d (want %d)" v Proto.version)
        else begin
          Proto.really_write c.fd (Proto.hello ());
          `Ok
        end
  with
  | exception Proto.Malformed m -> bye (Printf.sprintf "bad hello: %s" m)
  | exception _ -> bye "handshake i/o error"
  | `Closed -> bye "closed before handshake"
  | `Bad m ->
      send c 0 (Proto.Err m);
      bye m
  | `Ok ->
      logf t "[serve] client %d connected\n%!" cl.Scheduler.cl_id;
      let rec loop () =
        match Proto.read_frame c.fd with
        | None -> bye "eof"
        | exception Proto.Malformed m ->
            send c 0 (Proto.Err (Printf.sprintf "malformed frame: %s" m));
            bye "malformed frame"
        | exception _ -> bye "read error"
        | Some frame -> (
            c.last_seen <- Unix.gettimeofday ();
            Mutex.lock t.mutex;
            t.last_active <- c.last_seen;
            Mutex.unlock t.mutex;
            match Proto.decode_request frame with
            | exception Proto.Malformed m ->
                send c 0 (Proto.Err (Printf.sprintf "malformed request: %s" m));
                bye "malformed request"
            | id, req ->
                Scheduler.submit t.sched cl ~id req;
                loop ())
      in
      loop ()

(* Wake a blocked [Unix.accept]: neither close nor shutdown reliably
   interrupts it across platforms, but a throwaway self-connection
   always does. *)
let wake_accept t : unit =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception _ -> ()
  | fd ->
      (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path) with _ -> ());
      (try Unix.close fd with _ -> ())

(* Housekeeping: enforce client and daemon idle timeouts. *)
let housekeeping_loop t : unit =
  let tick = 0.2 in
  let rec loop () =
    Thread.delay tick;
    Mutex.lock t.mutex;
    let stopping = t.stopping in
    let conns = t.conns in
    let last_active = t.last_active in
    Mutex.unlock t.mutex;
    if stopping then ()
    else begin
      let now = Unix.gettimeofday () in
      if t.cfg.client_timeout > 0. then
        List.iter
          (fun c ->
            if now -. c.last_seen > t.cfg.client_timeout then kill_conn c)
          conns;
      if
        t.cfg.idle_timeout > 0.
        && conns = []
        && Scheduler.idle t.sched
        && now -. last_active > t.cfg.idle_timeout
      then begin
        Mutex.lock t.mutex;
        t.stopping <- true;
        Mutex.unlock t.mutex;
        wake_accept t
      end
      else loop ()
    end
  in
  loop ()

let create (cfg : config) : t =
  (* A reply written to a client that shut down its read side, or that
     closed between the reply and its reader's EOF, fails.  With SIGPIPE
     at its default action that failure kills the whole daemon; ignored,
     the write raises EPIPE and [send] retires the connection. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* a stale socket file from a dead daemon would fail the bind *)
  (try Unix.unlink cfg.socket_path with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  {
    cfg;
    sched = Scheduler.create cfg.sched;
    listen_fd;
    mutex = Mutex.create ();
    conns = [];
    stopping = false;
    last_active = Unix.gettimeofday ();
    threads = [];
  }

let sched t = t.sched

(* Blocking accept loop; returns when the daemon shuts down (idle
   timeout or [stop]).  Call from the main thread after [create]. *)
let serve (t : t) : unit =
  let hk = Thread.create housekeeping_loop t in
  t.threads <- hk :: t.threads;
  let rec accept_loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception _ ->
        Mutex.lock t.mutex;
        let stopping = t.stopping in
        Mutex.unlock t.mutex;
        if not stopping then failwith "serve: accept failed"
    | fd, _ ->
        Mutex.lock t.mutex;
        let stopping = t.stopping in
        Mutex.unlock t.mutex;
        if stopping then (try Unix.close fd with _ -> ())
        else begin
          let c =
            {
              fd;
              wmutex = Mutex.create ();
              alive = true;
              last_seen = Unix.gettimeofday ();
            }
          in
          Mutex.lock t.mutex;
          t.conns <- c :: t.conns;
          t.last_active <- c.last_seen;
          Mutex.unlock t.mutex;
          let th = Thread.create (fun () -> reader_loop t c) () in
          Mutex.lock t.mutex;
          t.threads <- th :: t.threads;
          Mutex.unlock t.mutex;
          accept_loop ()
        end
  in
  logf t "[serve] listening on %s\n%!" t.cfg.socket_path;
  accept_loop ();
  (* drain: retire remaining connections (their readers close the fds),
     join every thread, stop the scheduler *)
  Mutex.lock t.mutex;
  let conns = t.conns in
  Mutex.unlock t.mutex;
  List.iter kill_conn conns;
  Mutex.lock t.mutex;
  let ths = t.threads in
  t.threads <- [];
  Mutex.unlock t.mutex;
  let self = Thread.id (Thread.self ()) in
  List.iter (fun th -> if Thread.id th <> self then Thread.join th) ths;
  Scheduler.shutdown t.sched;
  (try Unix.close t.listen_fd with _ -> ());
  (try Unix.unlink t.cfg.socket_path with _ -> ());
  logf t "[serve] shut down\n%!"

(* Request shutdown from another thread (tests). *)
let stop (t : t) : unit =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Mutex.unlock t.mutex;
  wake_accept t
