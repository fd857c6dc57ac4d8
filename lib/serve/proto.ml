(* Wire protocol of the CompDiff oracle daemon (DESIGN.md §13).

   Transport: a Unix-domain stream socket.  After a fixed-size
   handshake ("CDS1" + u32 protocol version from the client, echoed by
   the server), the connection carries length-prefixed frames in both
   directions:

     u32 payload-length | payload

   Every payload starts with a u32 request id (chosen by the client,
   echoed verbatim in the matching response — responses to one client
   may be reordered by the scheduler, the id is what correlates them)
   followed by a u8 message tag and tag-specific fields, laid out with
   the primitives of [Cdutil.Wire] (wire.mli describes them).  Each
   message's layout is one codec value below, from which both its
   encoder and its decoder come.  The codecs are not [Marshal]: the
   payload layout is part of the versioned protocol surface,
   independent of the OCaml runtime on either end, and a malformed
   frame can never reach the unmarshaller of a long-running server.

   Versioning: [version] covers the whole request/response surface.  A
   server refuses a handshake whose version differs from its own (the
   reply carries the server's version, so the client can report the
   mismatch precisely); unknown message tags inside an accepted
   connection raise {!Malformed}, which the server answers with an
   [Err] response rather than dying. *)

exception Malformed = Cdutil.Wire.Malformed

let version = 4
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

(* the scheduler's counters ({!Scheduler.sched_stats}); they cross the
   wire only inside the rendered stats JSON of a [Stats_reply] *)
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
  | Stats_reply of string     (* Scheduler.stats_json, rendered *)
  | Check_reply of verdict list
  | Fuzz_reply of fuzz_reply
  | Metacheck_reply of metacheck_reply
  | Reduce_reply of reduce_reply
  | Explore_reply of explore_reply
  | Busy of int              (* backpressure: the client's quota *)
  | Err of string

(* --- codecs: each layout once, both directions from it (Cdutil.Wire) --- *)

open Cdutil.Wire

let strings = list string

let check_req =
  wrap
    (fun (ck_source, ck_inputs, ck_profiles, (ck_fuel, ck_strip)) ->
      { ck_source; ck_inputs; ck_profiles; ck_fuel; ck_strip })
    (fun k ->
      (k.ck_source, k.ck_inputs, k.ck_profiles, (k.ck_fuel, k.ck_strip)))
    (tup4 string strings strings (pair u32 bool))

let fuzz_req =
  wrap
    (fun ((fz_source, fz_execs, fz_seed), (fz_seeds, fz_profiles, fz_fuel))
       -> { fz_source; fz_execs; fz_seed; fz_seeds; fz_profiles; fz_fuel })
    (fun f ->
      ( (f.fz_source, f.fz_execs, f.fz_seed),
        (f.fz_seeds, f.fz_profiles, f.fz_fuel) ))
    (pair (tup3 string u32 u32) (tup3 strings strings u32))

let metacheck_req =
  wrap
    (fun (mc_source, mc_inputs, mc_limit, (mc_profiles, mc_fuel)) ->
      { mc_source; mc_inputs; mc_limit; mc_profiles; mc_fuel })
    (fun m ->
      (m.mc_source, m.mc_inputs, m.mc_limit, (m.mc_profiles, m.mc_fuel)))
    (tup4 string strings u32 (pair strings u32))

let reduce_req =
  wrap
    (fun (rd_source, rd_input, rd_max_checks, (rd_profiles, rd_fuel)) ->
      { rd_source; rd_input; rd_max_checks; rd_profiles; rd_fuel })
    (fun r ->
      (r.rd_source, r.rd_input, r.rd_max_checks, (r.rd_profiles, r.rd_fuel)))
    (tup4 string string u32 (pair strings u32))

let explore_req =
  wrap
    (fun (ex_source, ex_input, ex_profiles, (ex_fuel, ex_limit)) ->
      { ex_source; ex_input; ex_profiles; ex_fuel; ex_limit })
    (fun e ->
      (e.ex_source, e.ex_input, e.ex_profiles, (e.ex_fuel, e.ex_limit)))
    (tup4 string string strings (pair u32 u32))

(* a payload is a u32 request id, then a u8 tag = the case's position *)
let request_frame =
  pair u32
    (union ~what:"request"
       [
         const Ping;
         const Get_stats;
         case check_req
           (fun k -> Check k)
           (function Check k -> Some k | _ -> None);
         case fuzz_req
           (fun f -> Fuzz f)
           (function Fuzz f -> Some f | _ -> None);
         case metacheck_req
           (fun m -> Metacheck m)
           (function Metacheck m -> Some m | _ -> None);
         case reduce_req
           (fun r -> Reduce r)
           (function Reduce r -> Some r | _ -> None);
         case explore_req
           (fun e -> Explore e)
           (function Explore e -> Some e | _ -> None);
       ])

let encode_request ~(id : int) (r : request) : string =
  encode request_frame (id, r)

let decode_request (payload : string) : int * request =
  decode request_frame payload

let obs =
  wrap
    (fun (ob_impl, ob_output, ob_status, ob_fuel) ->
      { ob_impl; ob_output; ob_status; ob_fuel })
    (fun o -> (o.ob_impl, o.ob_output, o.ob_status, o.ob_fuel))
    (tup4 string string string u32)

let verdict =
  union ~what:"verdict"
    [
      case obs (fun o -> V_agree o) (function V_agree o -> Some o | _ -> None);
      case (list obs)
        (fun os -> V_diverge os)
        (function V_diverge os -> Some os | _ -> None);
    ]

let fuzz_reply =
  wrap
    (fun (fr_execs, fr_divergent, fr_unique, fr_reports) ->
      { fr_execs; fr_divergent; fr_unique; fr_reports })
    (fun f -> (f.fr_execs, f.fr_divergent, f.fr_unique, f.fr_reports))
    (tup4 u32 u32 u32 (list (pair string string)))

let metacheck_reply =
  wrap
    (fun (mr_preserving, mr_eliminating, mr_retype_failures, mr_flags) ->
      { mr_preserving; mr_eliminating; mr_retype_failures; mr_flags })
    (fun m ->
      (m.mr_preserving, m.mr_eliminating, m.mr_retype_failures, m.mr_flags))
    (tup4 u32 u32 u32 (list (tup4 string string string string)))

let reduce_reply =
  wrap
    (fun (rr_found, rr_input, rr_reduced, (rr_checks, rr_report)) ->
      { rr_found; rr_input; rr_reduced; rr_checks; rr_report })
    (fun r ->
      (r.rr_found, r.rr_input, r.rr_reduced, (r.rr_checks, r.rr_report)))
    (tup4 bool string string (pair u32 string))

(* -1 sentinels ride the wire shifted by one: u32 is unsigned *)
let shifted = wrap (fun n -> n - 1) (fun n -> n + 1) u32

let explore_reply =
  wrap
    (fun ( (er_found, er_impl_a, er_impl_b),
           (er_step_a, er_step_b, er_line),
           (er_probes, er_report) ) ->
      { er_found; er_impl_a; er_impl_b; er_step_a; er_step_b; er_line;
        er_probes; er_report })
    (fun e ->
      ( (e.er_found, e.er_impl_a, e.er_impl_b),
        (e.er_step_a, e.er_step_b, e.er_line),
        (e.er_probes, e.er_report) ))
    (tup3 (tup3 bool string string) (tup3 shifted shifted shifted)
       (pair u32 string))

let response_frame =
  pair u32
    (union ~what:"response"
       [
         const Pong;
         case string
           (fun s -> Stats_reply s)
           (function Stats_reply s -> Some s | _ -> None);
         case (list verdict)
           (fun v -> Check_reply v)
           (function Check_reply v -> Some v | _ -> None);
         case fuzz_reply
           (fun f -> Fuzz_reply f)
           (function Fuzz_reply f -> Some f | _ -> None);
         case metacheck_reply
           (fun m -> Metacheck_reply m)
           (function Metacheck_reply m -> Some m | _ -> None);
         case reduce_reply
           (fun r -> Reduce_reply r)
           (function Reduce_reply r -> Some r | _ -> None);
         case u32 (fun q -> Busy q) (function Busy q -> Some q | _ -> None);
         case string (fun m -> Err m) (function Err m -> Some m | _ -> None);
         case explore_reply
           (fun e -> Explore_reply e)
           (function Explore_reply e -> Some e | _ -> None);
       ])

let encode_response ~(id : int) (r : response) : string =
  encode response_frame (id, r)

let decode_response (payload : string) : int * response =
  decode response_frame payload

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

(* a frame is the payload as a length-prefixed string, sized exactly *)
let write_frame fd (payload : string) : unit =
  really_write fd (encode ~size:(4 + String.length payload) string payload)

let read_frame fd : string option =
  match really_read fd 4 with
  | None -> None
  | Some hdr ->
      let len = decode u32 hdr in
      if len > max_frame_bytes then
        raise (Malformed (Printf.sprintf "frame of %d bytes refused" len));
      (match really_read fd len with
      | None -> raise End_of_file
      | Some payload -> Some payload)

(* --- handshake --- *)

let hello () : string = hello_magic ^ encode u32 version

(* parse a hello blob; the version it carries (ours or not) *)
let parse_hello (s : string) : int =
  if
    String.length s <> hello_bytes
    || not (String.starts_with ~prefix:hello_magic s)
  then raise (Malformed "bad handshake magic");
  decode u32 (String.sub s 4 4)
