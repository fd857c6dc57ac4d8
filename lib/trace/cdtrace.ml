(* Recorded executions: the trace store (DESIGN.md §15).

   A trace captures one observed run of a linked image.  A [Prints]
   recording keeps only the observable events (executed prints, with
   their enclosing function) and costs what a [Prints]-observed run on
   the linked executor costs: event-level localization needs no more.
   A [Steps] recording adds the instruction stream as an append-only
   byte stream: per instruction a zigzag-varint pc delta followed by
   the instruction's *effects* -- register writes, absolute memory
   writes, call/return boundaries and print events -- as tagged
   items.  The stream is pure replay data: applying the items of steps
   [0..k-1] in order reconstructs the registers of every live frame and
   the written memory cells exactly as they stood when instruction [k]
   was about to execute.

   Seeking is O(sqrt n)-ish rather than O(n): every [snapshot_every]
   steps the recorder deep-copies its replay mirror (frame stack +
   written-cell table) together with the byte offset of the upcoming
   step record; a cursor seeks by restoring the nearest snapshot at or
   below the target and decoding forward.

   On disk a trace is a marshalled payload in a [Cdutil.Wire] sealed
   envelope with magic "CDTR1" (wire.mli has the layout), so a
   truncated or bit-flipped file is detected before the unmarshaller
   ever sees it.  Files are content-addressed by payload hash,
   alongside the engine's Diskcache entries in spirit: same trace,
   same name. *)

open Cdcompiler
module Value = Cdvm.Value
module Trap = Cdvm.Trap

exception Corrupt of string

(* --- the recorder's byte sink --- *)

(* A hand-rolled growable byte array instead of [Buffer]: the recorder
   appends a handful of bytes per executed instruction, so the per-byte
   cost must be an inlined bounds check and an unsafe store, not a
   cross-module call.  Only the recorder writes through it; decoding
   reads plain strings. *)
type obuf = { mutable ob : Bytes.t; mutable olen : int }

let ob_create n = { ob = Bytes.create (max 16 n); olen = 0 }

let ob_grow (b : obuf) : unit =
  let nb = Bytes.create (2 * Bytes.length b.ob) in
  Bytes.blit b.ob 0 nb 0 b.olen;
  b.ob <- nb

let[@inline] ob_char (b : obuf) (c : char) : unit =
  if b.olen >= Bytes.length b.ob then ob_grow b;
  Bytes.unsafe_set b.ob b.olen c;
  b.olen <- b.olen + 1

let ob_contents (b : obuf) : string = Bytes.sub_string b.ob 0 b.olen

(* room for [k] more bytes; doubling until it fits keeps this amortized *)
let rec ob_reserve_slow (b : obuf) (k : int) : unit =
  ob_grow b;
  if b.olen + k > Bytes.length b.ob then ob_reserve_slow b k

let[@inline] ob_reserve (b : obuf) (k : int) : unit =
  if b.olen + k > Bytes.length b.ob then ob_reserve_slow b k

(* --- varint codecs --- *)

(* unsigned LEB128 over native non-negative ints *)
let put_uv_slow buf n =
  if n < 0 then invalid_arg "Cdtrace.put_uv: negative";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      ob_char buf (Char.unsafe_chr b);
      continue := false
    end
    else ob_char buf (Char.unsafe_chr (b lor 0x80))
  done

(* register numbers, pc deltas and small values are almost always one
   7-bit group: keep that case on an inlined straight line *)
let[@inline] put_uv buf n =
  if n >= 0 && n < 0x80 then ob_char buf (Char.unsafe_chr n)
  else put_uv_slow buf n

(* zigzag for signed native ints (pc deltas, wild addresses) *)
let[@inline] put_sv buf n =
  put_uv buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let put_uv64 buf (n : int64) =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = Int64.to_int (Int64.logand !n 0x7fL) in
    n := Int64.shift_right_logical !n 7;
    if !n = 0L then begin
      ob_char buf (Char.unsafe_chr b);
      continue := false
    end
    else ob_char buf (Char.unsafe_chr (b lor 0x80))
  done

(* The boxed-int64 loop above allocates per 7-bit group; values that
   fit comfortably in a native int (|v| < 2^61, i.e. everything the VM
   produces short of deliberate 64-bit-boundary arithmetic) take the
   unboxed native path, which emits byte-identical LEB128: for those v
   the native zigzag equals the 64-bit zigzag. *)
let put_sv64 buf (v : int64) =
  if v >= -0x2000000000000000L && v < 0x2000000000000000L then
    put_sv buf (Int64.to_int v)
  else
    put_uv64 buf (Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63))

let get_byte (s : string) (pos : int ref) : int =
  if !pos >= String.length s then raise (Corrupt "truncated trace stream");
  let b = Char.code s.[!pos] in
  incr pos;
  b

let get_uv s pos : int =
  let shift = ref 0 and acc = ref 0 and continue = ref true in
  while !continue do
    let b = get_byte s pos in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
    else if !shift > 70 then raise (Corrupt "overlong varint")
  done;
  !acc

let get_sv s pos : int =
  let u = get_uv s pos in
  (u lsr 1) lxor (- (u land 1))

let get_uv64 s pos : int64 =
  let shift = ref 0 and acc = ref 0L and continue = ref true in
  while !continue do
    let b = get_byte s pos in
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
    else if !shift > 70 then raise (Corrupt "overlong varint")
  done;
  !acc

let get_sv64 s pos : int64 =
  let u = get_uv64 s pos in
  Int64.logxor
    (Int64.shift_right_logical u 1)
    (Int64.neg (Int64.logand u 1L))

(* --- value codec --- *)

let put_value buf (v : Value.t) =
  match v with
  | Value.Vint x ->
    ob_char buf '\000';
    put_sv64 buf x
  | Value.Vfloat f ->
    ob_char buf '\001';
    put_uv64 buf (Int64.bits_of_float f)
  | Value.Vptr p ->
    ob_char buf '\002';
    put_sv buf p.Value.obj;
    put_sv buf p.Value.off

let get_value s pos : Value.t =
  match get_byte s pos with
  | 0 -> Value.Vint (get_sv64 s pos)
  | 1 -> Value.Vfloat (Int64.float_of_bits (get_uv64 s pos))
  | 2 ->
    let obj = get_sv s pos in
    let off = get_sv s pos in
    Value.Vptr { Value.obj; off }
  | n -> raise (Corrupt (Printf.sprintf "bad value tag %d" n))

(* --- step items --- *)

(* One recorded effect.  A step's items are everything that happened
   while its instruction executed: because the recorder appends to the
   most recent step record, a call's argument writes ride the caller's
   call step and the return-value write rides the callee's ret step --
   replay applies them in arrival order against the frame stack, which
   is exactly where the VM put them. *)
type item =
  | Wreg of int * Value.t   (* register write in the current top frame *)
  | Wmem of int * Value.t   (* absolute-address store, builtins included *)
  | Call of int             (* frame pushed for function index fi *)
  | Ret                     (* frame popped *)
  | Print of int            (* index into the events table *)

let tag_end = '\000'

let put_item buf (it : item) =
  match it with
  | Wreg (r, v) ->
    ob_char buf '\001';
    put_uv buf r;
    put_value buf v
  | Wmem (a, v) ->
    ob_char buf '\002';
    put_sv buf a;
    put_value buf v
  | Call fi ->
    ob_char buf '\003';
    put_uv buf fi
  | Ret -> ob_char buf '\004'
  | Print ev ->
    ob_char buf '\005';
    put_uv buf ev

(* [None] is the group terminator *)
let get_item s pos : item option =
  match get_byte s pos with
  | 0 -> None
  | 1 ->
    let r = get_uv s pos in
    let v = get_value s pos in
    Some (Wreg (r, v))
  | 2 ->
    let a = get_sv s pos in
    let v = get_value s pos in
    Some (Wmem (a, v))
  | 3 -> Some (Call (get_uv s pos))
  | 4 -> Some Ret
  | 5 -> Some (Print (get_uv s pos))
  | n -> raise (Corrupt (Printf.sprintf "bad item tag %d" n))

(* --- the trace --- *)

type snapshot = {
  sn_step : int;       (* replay position the snapshot captures *)
  sn_off : int;        (* byte offset of step [sn_step]'s record *)
  sn_last_pc : int;    (* delta-decoder state at that offset *)
  sn_frames : (int * (int, Value.t) Hashtbl.t) list;  (* top first *)
  sn_mem : (int, Value.t) Hashtbl.t;
}

type func_info = {
  fn_name : string;
  fn_lines : int array;  (* pc -> source line; empty when stripped *)
}

(* one executed print; same block layout as the (step, fn, text)
   triple earlier traces stored, so their files still load *)
type event = {
  ev_step : int;     (* step the print ran in; -1 at the [Prints] level *)
  ev_fn : string;    (* enclosing function *)
  ev_text : string;  (* rendered output *)
}

type t = {
  impl : string;                           (* implementation / profile *)
  input : string;
  fuel : int;
  status : Trap.status;
  stdout : string;
  fuel_used : int;
  nsteps : int;                            (* steps recorded *)
  total_steps : int;                       (* steps executed; 0 at [Prints] *)
  truncated : bool;                        (* recording hit its cap *)
  funcs : func_info array;                 (* indexed by fi *)
  events : event array;
  code : string;                           (* the encoded step stream *)
  snaps : snapshot array;                  (* ascending sn_step *)
}

let length (tr : t) = tr.nsteps

let func_name (tr : t) (fi : int) : string =
  if fi >= 0 && fi < Array.length tr.funcs then tr.funcs.(fi).fn_name else "?"

let line_of (tr : t) ~(fi : int) ~(pc : int) : int option =
  if fi < 0 || fi >= Array.length tr.funcs then None
  else begin
    let lines = tr.funcs.(fi).fn_lines in
    if pc >= 0 && pc < Array.length lines then Some lines.(pc) else None
  end

(* --- recorder --- *)

type level = Prints | Steps

(* step cap of a [Steps] recording *)
let default_limit = 1_000_000

(* Event cap of a [Prints] recording.  Output-heavy fuzz finds can emit
   one event per instruction; the cap keeps a trace proportional to
   what a human (or the aligner) will ever look at.  Generous: a
   200k-fuel run cannot exceed 200k prints. *)
let event_limit = 100_000

(* sqrt of [default_limit], the O(sqrt n) balance point: seeks replay
   at most one stride, the recorder copies its mirror once per stride *)
let default_snapshot_every = 1024

(* Live frame mirror: a flat register array instead of the hashtable
   the snapshots carry.  Register writes are the recorder's hottest
   callback (most instructions perform one), so the per-write cost must
   be an array store; the hashtable form is only materialized when a
   snapshot is actually taken, every [snapshot_every] steps. *)
type rframe = {
  rf_fi : int;
  rf_regs : Value.t array;
  rf_written : bool array;
}

type recorder_state = {
  buf : obuf;
  mutable rsteps : int;                    (* recorded steps *)
  mutable tsteps : int;                    (* executed steps *)
  mutable rlast_pc : int;
  mutable snap_in : int;                   (* steps until next snapshot *)
  mutable rframes : rframe list;
  mutable rmem : (int, Value.t) Hashtbl.t;
  mutable rsnaps : snapshot list;          (* newest first *)
  mutable revents : event list;
  mutable nevents : int;
  mutable dropped : bool;                  (* events past [event_limit] *)
}

(* The observer to run [img] under and the function turning the run's
   result into its trace.  At the [Steps] level, [limit] caps the
   recorded steps and [snapshot_every] spaces the snapshots.  At the
   [Prints] level only events are kept, up to [event_limit], with step
   -1; the step stream is the empty prologue group, so cursors and
   [iter] see a zero-step trace.

   The trace's pc -> line tables ({!line_of}) are those of [lines], a
   unit with the same functions as [img]'s (default: [img]'s own unit).
   Only [Steps] traces have pcs to map; a [Prints] trace needs no
   tables, so its caller may pass a unit without them. *)
let recorder ?(level = Steps) ?(limit = default_limit)
    ?(snapshot_every = default_snapshot_every) ?lines (img : Cdvm.Image.t)
    ~(impl : string) ~(input : string) ~(fuel : int) :
    Cdvm.Observer.t * (Cdvm.Exec.result -> t) =
  if limit < 1 then invalid_arg "Cdtrace.recorder: limit < 1";
  if snapshot_every < 1 then invalid_arg "Cdtrace.recorder: snapshot_every < 1";
  let r =
    {
      buf = ob_create (match level with Steps -> 4096 | Prints -> 1);
      rsteps = 0;
      tsteps = 0;
      rlast_pc = 0;
      snap_in = 0;
      rframes = [];
      rmem = Hashtbl.create 64;
      rsnaps = [];
      revents = [];
      nevents = 0;
      dropped = false;
    }
  in
  (* recording stops at [limit] steps; the run continues untouched *)
  let live = ref true in
  let frame_table (f : rframe) : (int, Value.t) Hashtbl.t =
    let h = Hashtbl.create 16 in
    Array.iteri
      (fun i w -> if w then Hashtbl.replace h i f.rf_regs.(i))
      f.rf_written;
    h
  in
  let snapshot () =
    {
      sn_step = r.rsteps;
      sn_off = r.buf.olen;
      sn_last_pc = r.rlast_pc;
      sn_frames = List.map (fun f -> (f.rf_fi, frame_table f)) r.rframes;
      sn_mem = Hashtbl.copy r.rmem;
    }
  in
  let on_step ~fi:_ ~pc ~depth:_ =
    r.tsteps <- r.tsteps + 1;
    if !live then begin
      if r.rsteps >= limit then begin
        (* close the last recorded group and go dead *)
        ob_char r.buf tag_end;
        live := false
      end
      else begin
        if r.snap_in = 0 then begin
          (* the group terminator belongs to the snapshot's offset *)
          ob_char r.buf tag_end;
          r.rsnaps <- snapshot () :: r.rsnaps;
          r.snap_in <- snapshot_every;
          put_sv r.buf (pc - r.rlast_pc)
        end
        else begin
          (* hot case: terminator + a one-byte pc delta, bounds-checked
             once (the same bytes [ob_char] + [put_sv] would emit) *)
          let d = pc - r.rlast_pc in
          let z = (d lsl 1) lxor (d asr (Sys.int_size - 1)) in
          if z >= 0 && z < 0x80 then begin
            let b = r.buf in
            ob_reserve b 2;
            Bytes.unsafe_set b.ob b.olen tag_end;
            Bytes.unsafe_set b.ob (b.olen + 1) (Char.unsafe_chr z);
            b.olen <- b.olen + 2
          end
          else begin
            ob_char r.buf tag_end;
            put_sv r.buf d
          end
        end;
        r.snap_in <- r.snap_in - 1;
        r.rlast_pc <- pc;
        r.rsteps <- r.rsteps + 1
      end
    end
  in
  (* the write callbacks inline [put_item]'s encoding: no [item] block
     is allocated on the recording path *)
  let on_reg_write ~reg v =
    if !live then begin
      (match v with
      | Value.Vint x
        when reg < 0x80 && x >= -0x2000000000000000L
             && x < 0x2000000000000000L ->
        (* hot case: small register number, native-range int value --
           one bounds check, then the whole record (tag, reg, value
           tag, zigzag LEB128) as unsafe stores; same bytes as the
           slow path *)
        let n = Int64.to_int x in
        let z = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
        let b = r.buf in
        ob_reserve b 13;
        let o = ref b.olen in
        Bytes.unsafe_set b.ob !o '\001';
        Bytes.unsafe_set b.ob (!o + 1) (Char.unsafe_chr reg);
        Bytes.unsafe_set b.ob (!o + 2) '\000';
        o := !o + 3;
        while !z >= 0x80 do
          Bytes.unsafe_set b.ob !o (Char.unsafe_chr (!z land 0x7f lor 0x80));
          incr o;
          z := !z lsr 7
        done;
        Bytes.unsafe_set b.ob !o (Char.unsafe_chr !z);
        b.olen <- !o + 1
      | _ ->
        ob_char r.buf '\001';
        put_uv r.buf reg;
        put_value r.buf v);
      match r.rframes with
      | f :: _ when reg < Array.length f.rf_regs ->
        f.rf_regs.(reg) <- v;
        f.rf_written.(reg) <- true
      | _ -> ()
    end
  in
  let on_mem_write ~addr v =
    if !live then begin
      ob_char r.buf '\002';
      put_sv r.buf addr;
      put_value r.buf v;
      Hashtbl.replace r.rmem addr v
    end
  in
  let on_call ~fi =
    if !live then begin
      ob_char r.buf '\003';
      put_uv r.buf fi;
      let nregs = max 1 img.Cdvm.Image.funcs.(fi).Cdvm.Image.l_nregs in
      r.rframes <-
        {
          rf_fi = fi;
          rf_regs = Array.make nregs Value.zero;
          rf_written = Array.make nregs false;
        }
        :: r.rframes
    end
  in
  let on_ret () =
    if !live then begin
      ob_char r.buf '\004';
      match r.rframes with _ :: rest -> r.rframes <- rest | [] -> ()
    end
  in
  let on_print_ev ~fn text =
    if !live then begin
      ob_char r.buf '\005';
      put_uv r.buf r.nevents;
      r.revents <-
        { ev_step = r.rsteps - 1; ev_fn = fn; ev_text = text } :: r.revents;
      r.nevents <- r.nevents + 1
    end
  in
  let observer =
    match level with
    | Steps ->
      Cdvm.Observer.steps
        { Cdvm.Observer.on_step; on_reg_write; on_mem_write; on_call; on_ret;
          on_print_ev }
    | Prints ->
      Cdvm.Observer.prints (fun ~fn text ->
          if r.nevents < event_limit then begin
            r.revents <- { ev_step = -1; ev_fn = fn; ev_text = text } :: r.revents;
            r.nevents <- r.nevents + 1
          end
          else r.dropped <- true)
  in
  (* pc -> line via [lines]: the image's function array is
     positionally parallel to its unit's list, and so to that of any
     unit with the same functions *)
  let lines = Option.value lines ~default:img.Cdvm.Image.unit_ in
  let src = Array.of_list lines.Ir.funcs in
  let funcs =
    Array.init (Array.length img.Cdvm.Image.funcs) (fun i ->
        let lf = img.Cdvm.Image.funcs.(i) in
        let fn_lines =
          if i < Array.length src then (snd src.(i)).Ir.code_lines else [||]
        in
        { fn_name = lf.Cdvm.Image.l_name; fn_lines })
  in
  let finish (res : Cdvm.Exec.result) : t =
    if !live then ob_char r.buf tag_end;
    live := false;
    {
      impl;
      input;
      fuel;
      status = res.Cdvm.Exec.status;
      stdout = res.Cdvm.Exec.stdout;
      fuel_used = res.Cdvm.Exec.fuel_used;
      nsteps = r.rsteps;
      total_steps = r.tsteps;
      truncated = r.tsteps > r.rsteps || r.dropped;
      funcs;
      events = Array.of_list (List.rev r.revents);
      code = ob_contents r.buf;
      snaps = Array.of_list (List.rev r.rsnaps);
    }
  in
  (observer, finish)

(* record + run in one call, for callers without an engine session *)
let record ?level ?limit ?snapshot_every ?(fuel = 200_000) (img : Cdvm.Image.t)
    ~(impl : string) ~(input : string) : t * Cdvm.Exec.result =
  let observer, finish =
    recorder ?level ?limit ?snapshot_every img ~impl ~input ~fuel
  in
  let res =
    Cdvm.Exec.run_linked
      ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input; fuel; observer }
      img
  in
  (finish res, res)

(* --- replay cursor --- *)

type cursor = {
  trace : t;
  mutable pos : int;                       (* steps applied *)
  mutable off : int;                       (* offset of step [pos]'s record *)
  mutable last_pc : int;
  mutable cframes : (int * (int, Value.t) Hashtbl.t) list;
  mutable cmem : (int, Value.t) Hashtbl.t;
}

let apply_item c (it : item) =
  match it with
  | Wreg (r, v) -> (
    match c.cframes with (_, h) :: _ -> Hashtbl.replace h r v | [] -> ())
  | Wmem (a, v) -> Hashtbl.replace c.cmem a v
  | Call fi -> c.cframes <- (fi, Hashtbl.create 16) :: c.cframes
  | Ret -> (
    match c.cframes with _ :: rest -> c.cframes <- rest | [] -> ())
  | Print _ -> ()

let apply_group c (pos : int ref) =
  let rec go () =
    match get_item c.trace.code pos with
    | Some it ->
      apply_item c it;
      go ()
    | None -> ()
  in
  go ()

(* back to position 0: empty state plus the prologue (the entry call
   and its argument writes, recorded before step 0) *)
let rewind (c : cursor) : unit =
  c.cframes <- [];
  c.cmem <- Hashtbl.create 64;
  let pos = ref 0 in
  apply_group c pos;
  c.pos <- 0;
  c.off <- !pos;
  c.last_pc <- 0

let cursor (tr : t) : cursor =
  let c =
    { trace = tr; pos = 0; off = 0; last_pc = 0; cframes = [];
      cmem = Hashtbl.create 64 }
  in
  rewind c;
  c

let pos (c : cursor) = c.pos

(* apply one step's record; requires [pos < nsteps] *)
let step_forward (c : cursor) : unit =
  if c.pos >= c.trace.nsteps then invalid_arg "Cdtrace.step_forward: at end";
  let p = ref c.off in
  let dpc = get_sv c.trace.code p in
  c.last_pc <- c.last_pc + dpc;
  apply_group c p;
  c.off <- !p;
  c.pos <- c.pos + 1

let restore (c : cursor) (sn : snapshot) : unit =
  c.pos <- sn.sn_step;
  c.off <- sn.sn_off;
  c.last_pc <- sn.sn_last_pc;
  c.cframes <- List.map (fun (fi, h) -> (fi, Hashtbl.copy h)) sn.sn_frames;
  c.cmem <- Hashtbl.copy sn.sn_mem

(* seek by restoring the nearest snapshot at or below [k] -- unless the
   cursor already sits in (snapshot, k], in which case walking forward
   from where it is is strictly cheaper *)
let seek (c : cursor) (k : int) : unit =
  let k = max 0 (min k c.trace.nsteps) in
  let best = ref None in
  Array.iter
    (fun sn -> if sn.sn_step <= k then best := Some sn)
    c.trace.snaps;
  (match !best with
  | Some sn ->
    if not (c.pos >= sn.sn_step && c.pos <= k) then restore c sn
  | None -> if c.pos > k then rewind c);
  while c.pos < k do
    step_forward c
  done

(* linear replay from the start, ignoring snapshots: the test oracle
   [seek] is checked against *)
let seek_slow (c : cursor) (k : int) : unit =
  let k = max 0 (min k c.trace.nsteps) in
  rewind c;
  while c.pos < k do
    step_forward c
  done

(* (fi, pc, depth) of the instruction about to execute, [None] at end *)
let peek (c : cursor) : (int * int * int) option =
  if c.pos >= c.trace.nsteps then None
  else begin
    let p = ref c.off in
    let dpc = get_sv c.trace.code p in
    let pc = c.last_pc + dpc in
    match c.cframes with
    | (fi, _) :: _ -> Some (fi, pc, List.length c.cframes)
    | [] -> None
  end

let regs (c : cursor) : (int * Value.t) list =
  match c.cframes with
  | (_, h) :: _ ->
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
  | [] -> []

let mem_cells (c : cursor) : (int * Value.t) list =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.cmem [])

(* call stack, outermost first *)
let frames (c : cursor) : int list = List.rev_map fst c.cframes

(* canonical rendering of the full replay state; two cursors over equal
   traces agree on it iff they reconstruct identical states *)
let state_to_string (c : cursor) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "pos=%d" c.pos);
  (match peek c with
  | Some (fi, pc, depth) ->
    Buffer.add_string buf
      (Printf.sprintf " next=%s@%d depth=%d" (func_name c.trace fi) pc depth)
  | None -> Buffer.add_string buf " next=<end>");
  Buffer.add_string buf "\nstack:";
  List.iter
    (fun fi -> Buffer.add_string buf (Printf.sprintf " %s" (func_name c.trace fi)))
    (frames c);
  Buffer.add_string buf "\nregs:";
  List.iter
    (fun (r, v) ->
      Buffer.add_string buf (Printf.sprintf " r%d=%s" r (Value.to_string v)))
    (regs c);
  Buffer.add_string buf "\nmem:";
  List.iter
    (fun (a, v) ->
      Buffer.add_string buf (Printf.sprintf " [%d]=%s" a (Value.to_string v)))
    (mem_cells c);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- sequential decoding (the aligner's path) --- *)

type step_view = {
  sv_ix : int;
  sv_fi : int;
  sv_pc : int;
  sv_depth : int;
  sv_items : item list;
}

(* visit every recorded step in order without materializing state; the
   frame stack is tracked with function indices only *)
let iter (tr : t) (f : step_view -> unit) : unit =
  let s = tr.code in
  let p = ref 0 in
  let stack = ref [] in
  let group () =
    let rec go acc =
      match get_item s p with
      | Some it ->
        (match it with
        | Call fi -> stack := fi :: !stack
        | Ret -> (match !stack with _ :: r -> stack := r | [] -> ())
        | Wreg _ | Wmem _ | Print _ -> ());
        go (it :: acc)
      | None -> List.rev acc
    in
    go []
  in
  ignore (group ());  (* prologue *)
  let last_pc = ref 0 in
  for ix = 0 to tr.nsteps - 1 do
    let dpc = get_sv s p in
    let pc = !last_pc + dpc in
    last_pc := pc;
    let fi, depth =
      match !stack with fi :: _ -> (fi, List.length !stack) | [] -> (-1, 0)
    in
    let items = group () in
    f { sv_ix = ix; sv_fi = fi; sv_pc = pc; sv_depth = depth; sv_items = items }
  done

(* --- disk format: a Cdutil.Wire sealed envelope around [Marshal] --- *)

let magic = "CDTR1"

let save_to (tr : t) ~(file : string) : unit =
  ignore (Cdutil.Wire.write_sealed ~magic ~file (Marshal.to_string tr []))

(* Content-addressed save into [dir], made if missing: same trace bytes,
   same filename.  A directory that cannot be made or a file that
   cannot be written is an [Error], not an exception. *)
let save (tr : t) ~(dir : string) : (string, string) result =
  let payload = Marshal.to_string tr [] in
  let sanitized =
    String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ch
        | _ -> '-')
      tr.impl
  in
  let name =
    Printf.sprintf "trace-%s-%08lx.ctr" sanitized
      (Cdutil.Murmur3.hash32 payload)
  in
  let file = Filename.concat dir name in
  match Cdutil.Wire.write_sealed ~magic ~file payload with
  | _ -> Ok file
  | exception Sys_error e -> Error e

(* the envelope is checked before the unmarshaller sees a byte *)
let load (file : string) : (t, string) result =
  match Cdutil.Wire.read_sealed ~magic file with
  | Error e -> Error e
  | Ok payload -> (
    match (Marshal.from_string payload 0 : t) with
    | tr -> Ok tr
    | exception _ -> Error "trace payload unreadable")
