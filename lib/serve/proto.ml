(* Wire protocol of the CompDiff oracle daemon (DESIGN.md §13).

   Transport: a Unix-domain stream socket.  After a fixed-size
   handshake ("CDS1" + u32 protocol version from the client, echoed by
   the server), the connection carries length-prefixed frames in both
   directions:

     u32 payload-length | payload

   Every payload starts with a u32 request id (chosen by the client,
   echoed verbatim in the matching response — responses to one client
   may be reordered by the scheduler, the id is what correlates them)
   followed by a u8 message tag and tag-specific fields.  All integers
   are little-endian u32 unless noted; strings and lists are
   length/count-prefixed.  The codecs are hand-rolled rather than
   [Marshal]: the payload layout is part of the versioned protocol
   surface, independent of the OCaml runtime on either end, and a
   malformed frame can never reach the unmarshaller of a long-running
   server.

   Versioning: [version] covers the whole request/response surface.  A
   server refuses a handshake whose version differs from its own (the
   reply carries the server's version, so the client can report the
   mismatch precisely); unknown message tags inside an accepted
   connection raise {!Malformed}, which the server answers with an
   [Err] response rather than dying. *)

exception Malformed of string

let version = 3
let hello_magic = "CDS1"
let hello_bytes = 8  (* magic + u32 version *)

(* frames above this are refused before allocation: a garbage length
   prefix must not make the server allocate gigabytes *)
let max_frame_bytes = 64 * 1024 * 1024

(* --- requests --- *)

type check_req = {
  ck_source : string;        (* MiniC source text; compiled server-side *)
  ck_inputs : string list;   (* one verdict per input, in order *)
  ck_profiles : string list; (* [] = the server's default (all ten) *)
  ck_fuel : int;             (* 0 = the server's default budget *)
  ck_strip : bool;           (* strip 0x... addresses before comparing *)
}

type fuzz_req = {
  fz_source : string;
  fz_execs : int;
  fz_seed : int;
  fz_seeds : string list;
  fz_profiles : string list;
  fz_fuel : int;
}

type metacheck_req = {
  mc_source : string;
  mc_inputs : string list;
  mc_limit : int;            (* preserving twins per transformation rule *)
  mc_profiles : string list;
  mc_fuel : int;
}

type reduce_req = {
  rd_source : string;
  rd_input : string;         (* the diverging input to shrink *)
  rd_max_checks : int;
  rd_profiles : string list;
  rd_fuel : int;
}

type explore_req = {
  ex_source : string;
  ex_input : string;         (* the (ideally reduced) diverging input *)
  ex_profiles : string list;
  ex_fuel : int;
  ex_limit : int;            (* step-recording cap; 0 = server default *)
}

type request =
  | Ping                     (* heartbeat: keeps the idle timers at bay *)
  | Get_stats
  | Check of check_req
  | Fuzz of fuzz_req
  | Metacheck of metacheck_req
  | Reduce of reduce_req
  | Explore of explore_req

(* --- responses --- *)

type obs = {
  ob_impl : string;
  ob_output : string;        (* normalized stdout *)
  ob_status : string;        (* Trap.status_to_string rendering *)
  ob_fuel : int;
}

type verdict =
  | V_agree of obs           (* ob_impl = "" : shared by every impl *)
  | V_diverge of obs list    (* per-implementation, in impl order *)

type client_stat = {
  cs_id : int;
  cs_outstanding : int;      (* queued + executing requests (credits used) *)
  cs_completed : int;
  cs_shed : int;             (* requests refused with Busy *)
}

type sched_stats = {
  sr_requests : int;         (* work requests accepted *)
  sr_shed : int;             (* work requests refused (quota exceeded) *)
  sr_flights : int;          (* executor runs: check flights, heavy requests *)
  sr_checks : int;           (* check inputs served by executor flights *)
  sr_joined : int;           (* check requests that rode an existing flight *)
  sr_inline : int;           (* check requests answered on the reader
                                thread from the observation store *)
  sr_queue_depth : int;      (* work items waiting for an executor *)
  sr_pool_pending : int;     (* Cdutil.Pool backlog *)
  sr_oracles : int;          (* warm oracles resident *)
  sr_clients : client_stat list;
}

type stats_reply = {
  st_session : string;       (* Engine.Session.stats_to_json *)
  st_oracle : string;        (* aggregate Oracle.stats_to_json *)
  st_sched : sched_stats;
}

type fuzz_reply = {
  fr_execs : int;
  fr_divergent : int;
  fr_unique : int;
  fr_reports : (string * string) list;  (* (input, divergence report) *)
}

type metacheck_reply = {
  mr_preserving : int;
  mr_eliminating : int;
  mr_retype_failures : int;
  mr_flags : (string * string * string * string) list;
      (* (tool, rule, what, detail) *)
}

type reduce_reply = {
  rr_found : bool;           (* false: the input did not diverge *)
  rr_input : string;
  rr_reduced : string;
  rr_checks : int;
  rr_report : string;
}

type explore_reply = {
  er_found : bool;           (* false: the input did not diverge *)
  er_impl_a : string;        (* "" when not found *)
  er_impl_b : string;
  er_step_a : int;           (* first diverging step per side; -1 = none *)
  er_step_b : int;
  er_line : int;             (* attributed source line; -1 = unknown *)
  er_probes : int;           (* bisection probes spent on alignment *)
  er_report : string;        (* Localize.to_string rendering *)
}

type response =
  | Pong
  | Stats_reply of stats_reply
  | Check_reply of verdict list
  | Fuzz_reply of fuzz_reply
  | Metacheck_reply of metacheck_reply
  | Reduce_reply of reduce_reply
  | Explore_reply of explore_reply
  | Busy of int              (* backpressure: the client's quota *)
  | Err of string

(* --- primitive codecs --- *)

let put_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let put_u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Proto.put_u32: %d out of range" n);
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let put_bool buf b = put_u8 buf (if b then 1 else 0)

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_list buf put xs =
  put_u32 buf (List.length xs);
  List.iter (put buf) xs

(* a decode cursor over one payload *)
type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then
    raise (Malformed "truncated payload")

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let b i = Char.code c.data.[c.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  c.pos <- c.pos + 4;
  v

let get_bool c = get_u8 c <> 0

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_list c get =
  let n = get_u32 c in
  List.init n (fun _ -> get c)

let finished c =
  if c.pos <> String.length c.data then
    raise (Malformed "trailing bytes in payload")

(* --- request codec --- *)

let tag_ping = 0
let tag_stats = 1
let tag_check = 2
let tag_fuzz = 3
let tag_metacheck = 4
let tag_reduce = 5
let tag_explore = 6

let encode_request ~(id : int) (r : request) : string =
  let buf = Buffer.create 128 in
  put_u32 buf id;
  (match r with
  | Ping -> put_u8 buf tag_ping
  | Get_stats -> put_u8 buf tag_stats
  | Check k ->
      put_u8 buf tag_check;
      put_str buf k.ck_source;
      put_list buf put_str k.ck_inputs;
      put_list buf put_str k.ck_profiles;
      put_u32 buf k.ck_fuel;
      put_bool buf k.ck_strip
  | Fuzz f ->
      put_u8 buf tag_fuzz;
      put_str buf f.fz_source;
      put_u32 buf f.fz_execs;
      put_u32 buf f.fz_seed;
      put_list buf put_str f.fz_seeds;
      put_list buf put_str f.fz_profiles;
      put_u32 buf f.fz_fuel
  | Metacheck m ->
      put_u8 buf tag_metacheck;
      put_str buf m.mc_source;
      put_list buf put_str m.mc_inputs;
      put_u32 buf m.mc_limit;
      put_list buf put_str m.mc_profiles;
      put_u32 buf m.mc_fuel
  | Reduce r ->
      put_u8 buf tag_reduce;
      put_str buf r.rd_source;
      put_str buf r.rd_input;
      put_u32 buf r.rd_max_checks;
      put_list buf put_str r.rd_profiles;
      put_u32 buf r.rd_fuel
  | Explore e ->
      put_u8 buf tag_explore;
      put_str buf e.ex_source;
      put_str buf e.ex_input;
      put_list buf put_str e.ex_profiles;
      put_u32 buf e.ex_fuel;
      put_u32 buf e.ex_limit);
  Buffer.contents buf

let decode_request (payload : string) : int * request =
  let c = { data = payload; pos = 0 } in
  let id = get_u32 c in
  let tag = get_u8 c in
  let r =
    if tag = tag_ping then Ping
    else if tag = tag_stats then Get_stats
    else if tag = tag_check then begin
      let ck_source = get_str c in
      let ck_inputs = get_list c get_str in
      let ck_profiles = get_list c get_str in
      let ck_fuel = get_u32 c in
      let ck_strip = get_bool c in
      Check { ck_source; ck_inputs; ck_profiles; ck_fuel; ck_strip }
    end
    else if tag = tag_fuzz then begin
      let fz_source = get_str c in
      let fz_execs = get_u32 c in
      let fz_seed = get_u32 c in
      let fz_seeds = get_list c get_str in
      let fz_profiles = get_list c get_str in
      let fz_fuel = get_u32 c in
      Fuzz { fz_source; fz_execs; fz_seed; fz_seeds; fz_profiles; fz_fuel }
    end
    else if tag = tag_metacheck then begin
      let mc_source = get_str c in
      let mc_inputs = get_list c get_str in
      let mc_limit = get_u32 c in
      let mc_profiles = get_list c get_str in
      let mc_fuel = get_u32 c in
      Metacheck { mc_source; mc_inputs; mc_limit; mc_profiles; mc_fuel }
    end
    else if tag = tag_reduce then begin
      let rd_source = get_str c in
      let rd_input = get_str c in
      let rd_max_checks = get_u32 c in
      let rd_profiles = get_list c get_str in
      let rd_fuel = get_u32 c in
      Reduce { rd_source; rd_input; rd_max_checks; rd_profiles; rd_fuel }
    end
    else if tag = tag_explore then begin
      let ex_source = get_str c in
      let ex_input = get_str c in
      let ex_profiles = get_list c get_str in
      let ex_fuel = get_u32 c in
      let ex_limit = get_u32 c in
      Explore { ex_source; ex_input; ex_profiles; ex_fuel; ex_limit }
    end
    else raise (Malformed (Printf.sprintf "unknown request tag %d" tag))
  in
  finished c;
  (id, r)

(* --- response codec --- *)

let rtag_pong = 0
let rtag_stats = 1
let rtag_check = 2
let rtag_fuzz = 3
let rtag_metacheck = 4
let rtag_reduce = 5
let rtag_busy = 6
let rtag_err = 7
let rtag_explore = 8

let put_obs buf (o : obs) =
  put_str buf o.ob_impl;
  put_str buf o.ob_output;
  put_str buf o.ob_status;
  put_u32 buf o.ob_fuel

let get_obs c : obs =
  let ob_impl = get_str c in
  let ob_output = get_str c in
  let ob_status = get_str c in
  let ob_fuel = get_u32 c in
  { ob_impl; ob_output; ob_status; ob_fuel }

let put_verdict buf = function
  | V_agree o ->
      put_u8 buf 0;
      put_obs buf o
  | V_diverge os ->
      put_u8 buf 1;
      put_list buf put_obs os

let get_verdict c =
  match get_u8 c with
  | 0 -> V_agree (get_obs c)
  | 1 -> V_diverge (get_list c get_obs)
  | n -> raise (Malformed (Printf.sprintf "unknown verdict tag %d" n))

let put_client_stat buf (s : client_stat) =
  put_u32 buf s.cs_id;
  put_u32 buf s.cs_outstanding;
  put_u32 buf s.cs_completed;
  put_u32 buf s.cs_shed

let get_client_stat c : client_stat =
  let cs_id = get_u32 c in
  let cs_outstanding = get_u32 c in
  let cs_completed = get_u32 c in
  let cs_shed = get_u32 c in
  { cs_id; cs_outstanding; cs_completed; cs_shed }

let put_pair buf (a, b) =
  put_str buf a;
  put_str buf b

let get_pair c =
  let a = get_str c in
  let b = get_str c in
  (a, b)

let encode_response ~(id : int) (r : response) : string =
  let buf = Buffer.create 128 in
  put_u32 buf id;
  (match r with
  | Pong -> put_u8 buf rtag_pong
  | Stats_reply s ->
      put_u8 buf rtag_stats;
      put_str buf s.st_session;
      put_str buf s.st_oracle;
      let h = s.st_sched in
      put_u32 buf h.sr_requests;
      put_u32 buf h.sr_shed;
      put_u32 buf h.sr_flights;
      put_u32 buf h.sr_checks;
      put_u32 buf h.sr_joined;
      put_u32 buf h.sr_inline;
      put_u32 buf h.sr_queue_depth;
      put_u32 buf h.sr_pool_pending;
      put_u32 buf h.sr_oracles;
      put_list buf put_client_stat h.sr_clients
  | Check_reply vs ->
      put_u8 buf rtag_check;
      put_list buf put_verdict vs
  | Fuzz_reply f ->
      put_u8 buf rtag_fuzz;
      put_u32 buf f.fr_execs;
      put_u32 buf f.fr_divergent;
      put_u32 buf f.fr_unique;
      put_list buf put_pair f.fr_reports
  | Metacheck_reply m ->
      put_u8 buf rtag_metacheck;
      put_u32 buf m.mr_preserving;
      put_u32 buf m.mr_eliminating;
      put_u32 buf m.mr_retype_failures;
      put_list buf
        (fun buf (a, b, c, d) ->
          put_str buf a;
          put_str buf b;
          put_str buf c;
          put_str buf d)
        m.mr_flags
  | Reduce_reply r ->
      put_u8 buf rtag_reduce;
      put_bool buf r.rr_found;
      put_str buf r.rr_input;
      put_str buf r.rr_reduced;
      put_u32 buf r.rr_checks;
      put_str buf r.rr_report
  | Explore_reply e ->
      put_u8 buf rtag_explore;
      put_bool buf e.er_found;
      put_str buf e.er_impl_a;
      put_str buf e.er_impl_b;
      (* -1 sentinels ride the wire shifted by one: u32 is unsigned *)
      put_u32 buf (e.er_step_a + 1);
      put_u32 buf (e.er_step_b + 1);
      put_u32 buf (e.er_line + 1);
      put_u32 buf e.er_probes;
      put_str buf e.er_report
  | Busy quota ->
      put_u8 buf rtag_busy;
      put_u32 buf quota
  | Err msg ->
      put_u8 buf rtag_err;
      put_str buf msg);
  Buffer.contents buf

let decode_response (payload : string) : int * response =
  let c = { data = payload; pos = 0 } in
  let id = get_u32 c in
  let tag = get_u8 c in
  let r =
    if tag = rtag_pong then Pong
    else if tag = rtag_stats then begin
      let st_session = get_str c in
      let st_oracle = get_str c in
      let sr_requests = get_u32 c in
      let sr_shed = get_u32 c in
      let sr_flights = get_u32 c in
      let sr_checks = get_u32 c in
      let sr_joined = get_u32 c in
      let sr_inline = get_u32 c in
      let sr_queue_depth = get_u32 c in
      let sr_pool_pending = get_u32 c in
      let sr_oracles = get_u32 c in
      let sr_clients = get_list c get_client_stat in
      Stats_reply
        {
          st_session;
          st_oracle;
          st_sched =
            {
              sr_requests;
              sr_shed;
              sr_flights;
              sr_checks;
              sr_joined;
              sr_inline;
              sr_queue_depth;
              sr_pool_pending;
              sr_oracles;
              sr_clients;
            };
        }
    end
    else if tag = rtag_check then Check_reply (get_list c get_verdict)
    else if tag = rtag_fuzz then begin
      let fr_execs = get_u32 c in
      let fr_divergent = get_u32 c in
      let fr_unique = get_u32 c in
      let fr_reports = get_list c get_pair in
      Fuzz_reply { fr_execs; fr_divergent; fr_unique; fr_reports }
    end
    else if tag = rtag_metacheck then begin
      let mr_preserving = get_u32 c in
      let mr_eliminating = get_u32 c in
      let mr_retype_failures = get_u32 c in
      let mr_flags =
        get_list c (fun c ->
            let a = get_str c in
            let b = get_str c in
            let w = get_str c in
            let d = get_str c in
            (a, b, w, d))
      in
      Metacheck_reply { mr_preserving; mr_eliminating; mr_retype_failures; mr_flags }
    end
    else if tag = rtag_reduce then begin
      let rr_found = get_bool c in
      let rr_input = get_str c in
      let rr_reduced = get_str c in
      let rr_checks = get_u32 c in
      let rr_report = get_str c in
      Reduce_reply { rr_found; rr_input; rr_reduced; rr_checks; rr_report }
    end
    else if tag = rtag_explore then begin
      let er_found = get_bool c in
      let er_impl_a = get_str c in
      let er_impl_b = get_str c in
      let er_step_a = get_u32 c - 1 in
      let er_step_b = get_u32 c - 1 in
      let er_line = get_u32 c - 1 in
      let er_probes = get_u32 c in
      let er_report = get_str c in
      Explore_reply
        {
          er_found;
          er_impl_a;
          er_impl_b;
          er_step_a;
          er_step_b;
          er_line;
          er_probes;
          er_report;
        }
    end
    else if tag = rtag_busy then Busy (get_u32 c)
    else if tag = rtag_err then Err (get_str c)
    else raise (Malformed (Printf.sprintf "unknown response tag %d" tag))
  in
  finished c;
  (id, r)

(* --- framed socket IO --- *)

let really_write fd (s : string) : unit =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise End_of_file;
    off := !off + w
  done

(* [None] on a clean EOF at a frame boundary; [End_of_file] mid-frame *)
let really_read fd n : string option =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> if !off = 0 then eof := true else raise End_of_file
    | r -> off := !off + r
  done;
  if !eof then None else Some (Bytes.unsafe_to_string b)

let write_frame fd (payload : string) : unit =
  let buf = Buffer.create (4 + String.length payload) in
  put_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  really_write fd (Buffer.contents buf)

let u32_of_header (s : string) : int =
  Char.code s.[0]
  lor (Char.code s.[1] lsl 8)
  lor (Char.code s.[2] lsl 16)
  lor (Char.code s.[3] lsl 24)

let read_frame fd : string option =
  match really_read fd 4 with
  | None -> None
  | Some hdr ->
      let len = u32_of_header hdr in
      if len > max_frame_bytes then
        raise (Malformed (Printf.sprintf "frame of %d bytes refused" len));
      (match really_read fd len with
      | None -> raise End_of_file
      | Some payload -> Some payload)

(* --- handshake --- *)

let hello () : string =
  let buf = Buffer.create hello_bytes in
  Buffer.add_string buf hello_magic;
  put_u32 buf version;
  Buffer.contents buf

(* parse a hello blob; the version it carries (ours or not) *)
let parse_hello (s : string) : int =
  if String.length s <> hello_bytes || String.sub s 0 4 <> hello_magic then
    raise (Malformed "bad handshake magic");
  u32_of_header (String.sub s 4 4)
