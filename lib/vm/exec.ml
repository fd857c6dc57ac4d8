(* The IR interpreter ("running a binary").

   Execution is total over arbitrary (even UB-riddled) programs: type
   confusions introduced by uninitialized junk or memory punning are
   resolved by deterministic coercions, so two binaries never differ by
   accident of the VM -- only through their compiled code and their
   run-time policies.

   Fuel plays the role of AFL++'s execution timeout: when it runs out the
   status is [Hang], which the oracle treats with timeout escalation
   rather than as an output.

   Two executors share every semantic helper in this file:

   - [run] is the tree-walking *reference*: it interprets [Ir.instr]
     directly, allocating a fresh address space and register files per
     run, resolving labels and call targets through per-run tables.  It
     is also the one observable executor: a [Steps] observer is fed
     from here, with [fi]/[pc] the source [Ir] function index (first
     binding of a name wins, as in {!Image.index_funcs}) and pc.
   - [run_linked] executes the threaded opstream of a pre-resolved
     {!Image.t}, reusing an {!Arena.t} across runs -- the caller's, or
     the calling domain's, rebound from image to image (Silent and Prints
     levels; a Steps run of an image goes to the reference on
     [img.unit_]).  It exists for throughput; the reference exists to
     check it (mirroring [Oracle.check_naive]): both must produce
     byte-identical [(stdout, status, fuel_used)].  Because the reference
     sits on the [Ir] side of {!Image.link}, that check covers the
     linker's label/call resolution, global ids and frame layouts as
     well as superinstruction fusion. *)

open Cdcompiler
open Ir

exception Exit_program of int
exception Fuel_out
exception Output_limit_exc

type config = {
  fuel : int;
  max_output : int;
  coverage : Coverage.t option;
  input : string;
  observer : Observer.t;
      (* what the run exposes: sanitizer hooks plus an observation level
         (Silent / Prints / Steps).  The Prints level feeds the
         fault-localization prototype (paper Section 5); Steps feeds the
         trace recorder. *)
}

let default_config =
  {
    fuel = 200_000;
    max_output = 1 lsl 20;
    coverage = None;
    input = "";
    observer = Observer.silent;
  }

type result = {
  stdout : string;
  status : Trap.status;
  fuel_used : int;
}

(* mutable per-run state shared by both executors.  [hooks], [notify]
   and [sink] are resolved from the observer once per run so the
   per-instruction paths never re-match on the observation level. *)
type state = {
  mem : Mem.t;
  runtime : Policy.runtime;
  global_ids : (string, int) Hashtbl.t;
  cfg : config;
  hooks : Hooks.t;
  notify : (fn:string -> string -> unit) option;
  sink : Observer.step_sink option;  (* Steps level only *)
  out : Buffer.t;
  mutable fuel_left : int;
  mutable in_pos : int;
  mutable depth : int;
  mutable frame_seq : int;
  uninit_reg : Policy.uninit_policy;
}

let make_state ~mem ~(runtime : Policy.runtime) ~global_ids ~(cfg : config)
    ~out : state =
  {
    mem;
    runtime;
    global_ids;
    cfg;
    hooks = cfg.observer.Observer.hooks;
    notify = Observer.print_cb cfg.observer;
    sink =
      (match cfg.observer.Observer.level with
      | Observer.Steps s -> Some s
      | Observer.Silent | Observer.Prints _ -> None);
    out;
    fuel_left = cfg.fuel;
    in_pos = 0;
    depth = 0;
    frame_seq = 0;
    uninit_reg = runtime.Policy.uninit_reg;
  }

let max_depth = Arena.max_depth

(* --- coercions: make every value usable at every type --- *)

let as_int st (v : Value.t) : int64 =
  match v with
  | Value.Vint x -> x
  | Value.Vfloat f -> Int64.bits_of_float f
  | Value.Vptr p ->
    if Value.is_null p then 0L else Int64.of_int (Mem.addr_of_ptr st.mem p)

and as_float (v : Value.t) : float =
  match v with
  | Value.Vfloat f -> f
  | Value.Vint x -> Int64.float_of_bits x
  | Value.Vptr _ -> 0.

and as_ptr st (v : Value.t) : Value.ptr =
  match v with
  | Value.Vptr p -> p
  | Value.Vint x -> Mem.ptr_of_addr st.mem (Int64.to_int x)
  | Value.Vfloat f -> Mem.ptr_of_addr st.mem (int_of_float f)

(* --- registers --- *)

(* junk depends only on (frame sequence number, register index): frame
   1 of run N sees the same junk as frame 1 of run 1 *)
let reg_junk st fseq r =
  match st.uninit_reg with
  | Policy.Uzero -> Value.Vint 0L
  | Policy.Upattern _ as p ->
    Value.Vint (Policy.uninit_value p ~addr:((fseq * 131) + r))

(* reference per-call frame *)
type frame = {
  func : ifunc;
  fi : int;                                (* index in [unit_.funcs] *)
  regs : Value.t array;
  rtaint : bool array;
  rwritten : bool array;
  slot_ids : int array;
  fseq : int;
}

let read_reg st fr r : Value.t * bool =
  if fr.rwritten.(r) then (fr.regs.(r), fr.rtaint.(r))
  else (reg_junk st fr.fseq r, true)

let write_reg st fr r (v : Value.t) (taint : bool) =
  (match st.sink with Some s -> s.Observer.on_reg_write ~reg:r v | None -> ());
  fr.regs.(r) <- v;
  fr.rtaint.(r) <- taint;
  fr.rwritten.(r) <- true

let eval_operand st fr (o : operand) : Value.t * bool =
  match o with
  | Reg r -> read_reg st fr r
  | ImmI v -> (Value.Vint v, false)
  | ImmF f -> (Value.Vfloat f, false)
  | Nullptr -> (Value.Vptr Value.null, false)

(* --- integer semantics --- *)

let bits = function W32 -> 32 | W64 -> 64

let norm w v = match w with W32 -> Value.norm32 v | W64 -> v

(* Hardware-style evaluation: shifts mask their count (x86), division by
   zero and INT_MIN/-1 trap. The compiler's constant folder made different
   choices for UB shifts -- that asymmetry is intentional. *)
let eval_ibin op w (a : int64) (b : int64) : int64 =
  match op with
  | Badd -> norm w (Int64.add a b)
  | Bsub -> norm w (Int64.sub a b)
  | Bmul -> norm w (Int64.mul a b)
  | Bdiv ->
    if b = 0L then raise (Mem.Trapped Trap.Div_by_zero)
    else if b = -1L && a = (match w with W32 -> -2147483648L | W64 -> Int64.min_int)
    then raise (Mem.Trapped Trap.Div_by_zero) (* x86 #DE covers both *)
    else norm w (Int64.div a b)
  | Bmod ->
    if b = 0L then raise (Mem.Trapped Trap.Div_by_zero)
    else if b = -1L && a = (match w with W32 -> -2147483648L | W64 -> Int64.min_int)
    then raise (Mem.Trapped Trap.Div_by_zero)
    else norm w (Int64.rem a b)
  | Bshl ->
    let c = Int64.to_int b land (bits w - 1) in
    norm w (Int64.shift_left a c)
  | Bshr ->
    let c = Int64.to_int b land (bits w - 1) in
    norm w (Int64.shift_right a c)
  | Band -> Int64.logand a b
  | Bor -> Int64.logor a b
  | Bxor -> Int64.logxor a b

let cmp_holds c (a : int64) (b : int64) : bool =
  match c with
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b
  | Ceq -> a = b
  | Cne -> a <> b

let eval_cmp c (a : int64) (b : int64) : int64 =
  if cmp_holds c a b then 1L else 0L

let fcmp_holds c (a : float) (b : float) : bool =
  match c with
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b
  | Ceq -> a = b
  | Cne -> a <> b

let eval_fcmp c (a : float) (b : float) : int64 =
  if fcmp_holds c a b then 1L else 0L

(* shared result boxes: comparison results never allocate *)
let value_one = Value.Vint 1L

(* Small-constant box table: 32-bit results in [0, 4096) reuse a
   preallocated box, so counter-style arithmetic in the threaded
   executor allocates nothing at all. *)
let small_boxes = Array.init 4096 (fun i -> Value.Vint (Int64.of_int i))

let box_i32 (x : int) : Value.t =
  if x >= 0 && x < 4096 then Array.unsafe_get small_boxes x
  else Value.Vint (Int64.of_int x)

(* Sign-extend the low 32 bits of a native int.  Every stored W32 value
   is norm32-sign-extended, so both operands of a 32-bit binop fit a
   native 63-bit int; add/sub/shift cannot overflow it, and the one
   multiply corner that wraps mod 2^63 (|a*b| = 2^62) preserves the low
   32 bits, which is all [Value.norm32] keeps.  Taking the low 32 bits
   of the native result is therefore exactly the Int64 semantics. *)
let wrap32 (x : int) : int = (x lsl 31) asr 31

(* Native-int fast path for the threaded executor's integer binops:
   bit-for-bit [eval_ibin] with the Int64 boxing removed.  Division and
   remainder keep the trapping slow path. *)
let eval_bin_boxed op w (ia : int64) (ib : int64) : Value.t =
  match w with
  | W64 -> Value.Vint (eval_ibin op w ia ib)
  | W32 -> (
    let a = Int64.to_int ia and b = Int64.to_int ib in
    match op with
    | Badd -> box_i32 (wrap32 (a + b))
    | Bsub -> box_i32 (wrap32 (a - b))
    | Bmul -> box_i32 (wrap32 (a * b))
    | Band -> box_i32 (a land b)
    | Bor -> box_i32 (a lor b)
    | Bxor -> box_i32 (a lxor b)
    | Bshl -> box_i32 (wrap32 (a lsl (b land 31)))
    | Bshr -> box_i32 (a asr (b land 31))
    | Bdiv | Bmod -> Value.Vint (eval_ibin op w ia ib))

(* --- memory access with hooks --- *)

(* hooks run before the hardware consequence so a sanitizer can turn a
   would-be trap (or a silent corruption) into a report *)
let load st (p : Value.ptr) ~(ptaint : bool) : Value.t * bool =
  st.hooks.Hooks.on_deref_taint ~taint:ptaint;
  st.hooks.Hooks.on_access st.mem p Hooks.Aread;
  if Value.is_null p then raise (Mem.Trapped Trap.Null_deref);
  Mem.read_abs st.mem (Mem.addr_of_ptr st.mem p)

(* every store funnels through here (builtins included), so recording
   the write for a Steps observer in one place catches them all *)
let store st (p : Value.ptr) ~(ptaint : bool) (v : Value.t) (taint : bool) =
  st.hooks.Hooks.on_deref_taint ~taint:ptaint;
  st.hooks.Hooks.on_access st.mem p Hooks.Awrite;
  if Value.is_null p then raise (Mem.Trapped Trap.Null_deref);
  let addr = Mem.addr_of_ptr st.mem p in
  Mem.write_abs st.mem addr v ~taint;
  match st.sink with Some s -> s.Observer.on_mem_write ~addr v | None -> ()

(* Hook-free pointer resolution for the threaded executor: when a run is
   uninstrumented ([hooks == Hooks.none]) the only observable effects of
   [load]/[store] are the null trap and the cell access itself, so the
   no-op closure calls and the result tuple can be dropped. *)
let[@inline] plain_addr st (p : Value.ptr) : int =
  if Value.is_null p then raise (Mem.Trapped Trap.Null_deref);
  Mem.addr_of_ptr st.mem p

(* --- output --- *)

let put st s =
  Buffer.add_string st.out s;
  if Buffer.length st.out > st.cfg.max_output then raise Output_limit_exc

let read_cstring st (p : Value.ptr) : string =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= 4096 then ()
    else begin
      let v, _ = load st { p with Value.off = p.Value.off + i } ~ptaint:false in
      let c = Int64.to_int (as_int st v) land 0xff in
      if c = 0 then ()
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents buf

(* [value] abstracts over which register file the executor reads *)
let print_item st (value : operand -> Value.t) (item : fmt_item) =
  match item with
  | Flit s -> put st s
  | Fint o ->
    put st (Int32.to_string (Int64.to_int32 (as_int st (value o))))
  | Flong o -> put st (Int64.to_string (as_int st (value o)))
  | Fuint o ->
    put st (Printf.sprintf "%Lu" (Int64.logand (as_int st (value o)) 0xFFFFFFFFL))
  | Fhex o ->
    put st (Printf.sprintf "%Lx" (Int64.logand (as_int st (value o)) 0xFFFFFFFFL))
  | Fchar o ->
    put st (String.make 1 (Char.chr (Int64.to_int (as_int st (value o)) land 0xff)))
  | Fstr o -> put st (read_cstring st (as_ptr st (value o)))
  | Ffloat o -> put st (Printf.sprintf "%f" (as_float (value o)))
  | Fptr o ->
    let p = as_ptr st (value o) in
    let addr = if Value.is_null p then 0 else Mem.addr_of_ptr st.mem p in
    put st (Printf.sprintf "0x%x" addr)

(* --- pointer comparison / casts --- *)

let eval_pcmp st c (a : Value.ptr) (b : Value.ptr) : int64 =
  let abs p = if Value.is_null p then 0 else Mem.addr_of_ptr st.mem p in
  match c with
  | Ceq -> if abs a = abs b then 1L else 0L
  | Cne -> if abs a <> abs b then 1L else 0L
  | Clt | Cle | Cgt | Cge ->
    let xa, xb =
      match st.runtime.Policy.ptrcmp with
      | Policy.Pabs -> (abs a, abs b)
      | Policy.Pobjseq ->
        (* compare by allocation sequence, then offset; encode as a pair *)
        ((a.Value.obj * 1_000_000) + a.Value.off, (b.Value.obj * 1_000_000) + b.Value.off)
    in
    eval_cmp c (Int64.of_int xa) (Int64.of_int xb)

let eval_cast st k (v : Value.t) : Value.t =
  match k with
  | Sext3264 -> Value.Vint (as_int st v) (* W32 already sign-extended *)
  | Trunc6432 -> Value.Vint (Value.norm32 (as_int st v))
  | I2F _ -> Value.Vfloat (Int64.to_float (as_int st v))
  | F2I w ->
    let f = as_float v in
    let x =
      if Float.is_nan f || f >= 9.22e18 || f <= -9.22e18 then Int64.min_int
      else Int64.of_float f
    in
    Value.Vint (norm w x)
  | P2I w -> Value.Vint (norm w (as_int st v))
  | I2P -> Value.Vptr (as_ptr st v)

(* --- builtins --- *)

(* builtins only look at argument *values* and always return untainted
   results, so one core serves both executors *)
let exec_builtin_v st (b : Image.builtin) (argv : Value.t array) : Value.t =
  let int_arg i = as_int st argv.(i) in
  let ptr_arg i = as_ptr st argv.(i) in
  let float_arg i = as_float argv.(i) in
  match b with
  | Image.Bgetchar ->
    if st.in_pos < String.length st.cfg.input then begin
      let c = Char.code st.cfg.input.[st.in_pos] in
      st.in_pos <- st.in_pos + 1;
      Value.Vint (Int64.of_int c)
    end
    else Value.Vint (-1L)
  | Image.Binput_len -> Value.Vint (Int64.of_int (String.length st.cfg.input))
  | Image.Bpeek ->
    let i = Int64.to_int (int_arg 0) in
    if i >= 0 && i < String.length st.cfg.input then
      Value.Vint (Int64.of_int (Char.code st.cfg.input.[i]))
    else Value.Vint (-1L)
  | Image.Bmalloc ->
    let n = Int64.to_int (int_arg 0) in
    Value.Vptr (Mem.malloc st.mem n)
  | Image.Bfree ->
    let p = ptr_arg 0 in
    let cls = Mem.free st.mem p in
    st.hooks.Hooks.on_free st.mem p cls;
    (match cls with
    | `Invalid -> raise (Mem.Trapped Trap.Invalid_free)
    | `Ok | `Double | `Null -> ());
    Value.zero
  | Image.Bmemset ->
    let p = ptr_arg 0 and v = int_arg 1 and n = Int64.to_int (int_arg 2) in
    for i = 0 to n - 1 do
      store st { p with Value.off = p.Value.off + i } ~ptaint:false
        (Value.Vint (Value.norm32 v)) false
    done;
    Value.zero
  | Image.Bmemcpy ->
    (* copy direction is unspecified for overlapping regions; each libc
       (i.e. each implementation's runtime) picks its own *)
    let d = ptr_arg 0 and s = ptr_arg 1 and n = Int64.to_int (int_arg 2) in
    let copy i =
      let v, t = load st { s with Value.off = s.Value.off + i } ~ptaint:false in
      store st { d with Value.off = d.Value.off + i } ~ptaint:false v t
    in
    if st.runtime.Policy.memcpy_backward then
      for i = n - 1 downto 0 do copy i done
    else
      for i = 0 to n - 1 do copy i done;
    Value.zero
  | Image.Bstrlen ->
    let p = ptr_arg 0 in
    let rec go i =
      if i >= 4096 then i
      else begin
        let v, _ = load st { p with Value.off = p.Value.off + i } ~ptaint:false in
        if as_int st v = 0L then i else go (i + 1)
      end
    in
    Value.Vint (Int64.of_int (go 0))
  | Image.Bexit -> raise (Exit_program (Int64.to_int (int_arg 0) land 0xff))
  | Image.Babort -> raise (Mem.Trapped Trap.Abort_called)
  | Image.Bpow -> Value.Vfloat (Float.pow (float_arg 0) (float_arg 1))
  | Image.Bsqrt -> Value.Vfloat (Float.sqrt (float_arg 0))
  | Image.Bexp2 ->
    (* deliberately computed as e^(x ln 2): bit-level different from
       pow(2,x), the floating-point divergence of RQ2 *)
    Value.Vfloat (Float.exp (float_arg 0 *. Float.log 2.))
  | Image.Bfloor -> Value.Vfloat (Float.floor (float_arg 0))
  | Image.Bunknown name -> invalid_arg ("Exec: unknown builtin " ^ name)

(* ===== reference executor ===== *)

(* per-run function table: name -> (index, ifunc, eagerly linked label
   map).  The first binding of a name wins and labels use [replace] so
   the last duplicate wins, both matching the image linker. *)
type ftab = (string, int * ifunc * (int, int) Hashtbl.t) Hashtbl.t

let build_ftab (u : unit_) : ftab =
  let h = Hashtbl.create 16 in
  List.iteri
    (fun fi (name, f) ->
      if not (Hashtbl.mem h name) then begin
        let labels = Hashtbl.create 16 in
        Array.iteri
          (fun i ins ->
            match ins with Ilabel l -> Hashtbl.replace labels l i | _ -> ())
          f.code;
        Hashtbl.add h name (fi, f, labels)
      end)
    u.funcs;
  h

let rec call st (tab : ftab) (fname : string) (args : (Value.t * bool) list) :
    Value.t * bool =
  let fi, f, labels =
    match Hashtbl.find_opt tab fname with
    | Some fl -> fl
    | None -> invalid_arg ("Exec: unknown function " ^ fname)
  in
  if st.depth >= max_depth then raise (Mem.Trapped Trap.Stack_overflow);
  st.depth <- st.depth + 1;
  st.frame_seq <- st.frame_seq + 1;
  let slot_ids = Mem.push_frame st.mem f.slots in
  let fr =
    {
      func = f;
      fi;
      regs = Array.make (max 1 f.nregs) Value.zero;
      rtaint = Array.make (max 1 f.nregs) false;
      rwritten = Array.make (max 1 f.nregs) false;
      slot_ids;
      fseq = st.frame_seq;
    }
  in
  (* the call record precedes the argument writes, so a replayer knows
     they land in the callee's frame *)
  (match st.sink with Some s -> s.Observer.on_call ~fi | None -> ());
  List.iteri
    (fun i (v, t) -> if i < f.nregs then write_reg st fr i v t)
    args;
  (match st.cfg.coverage with
  | Some cov -> Coverage.hit cov (Coverage.block_id ~fname ~label:(-1))
  | None -> ());
  let result = run_code st tab fr labels in
  Mem.pop_frame st.mem;
  st.depth <- st.depth - 1;
  (match st.sink with Some s -> s.Observer.on_ret () | None -> ());
  result

and run_code st tab fr labels : Value.t * bool =
  let code = fr.func.code in
  let n = Array.length code in
  let sink = st.sink in
  let pc = ref 0 in
  let jump l =
    match Hashtbl.find_opt labels l with
    | Some i -> pc := i
    | None -> invalid_arg (Printf.sprintf "Exec: missing label L%d in %s" l fr.func.name)
  in
  let return_value = ref (Value.zero, false) in
  let running = ref true in
  while !running do
    if !pc >= n then begin
      (* fell off the end of a function with no return: void epilogue *)
      running := false
    end
    else begin
      st.fuel_left <- st.fuel_left - 1;
      if st.fuel_left <= 0 then raise Fuel_out;
      (match sink with
      | Some s -> s.Observer.on_step ~fi:fr.fi ~pc:!pc ~depth:st.depth
      | None -> ());
      let ins = code.(!pc) in
      incr pc;
      match ins with
      | Ilabel l ->
        (match st.cfg.coverage with
        | Some cov ->
          Coverage.hit cov (Coverage.block_id ~fname:fr.func.name ~label:l)
        | None -> ())
      | Iconst (r, o) | Imov (r, o) ->
        let v, t = eval_operand st fr o in
        write_reg st fr r v t
      | Ibin (op, w, sem, r, a, b) ->
        let va, ta = eval_operand st fr a in
        let vb, tb = eval_operand st fr b in
        let ia = as_int st va and ib = as_int st vb in
        if sem = Csigned then st.hooks.Hooks.on_signed_arith op w ia ib;
        write_reg st fr r (Value.Vint (eval_ibin op w ia ib)) (ta || tb)
      | Ineg (w, sem, r, a) ->
        let va, ta = eval_operand st fr a in
        let ia = as_int st va in
        if sem = Csigned then st.hooks.Hooks.on_signed_arith Bsub w 0L ia;
        write_reg st fr r (Value.Vint (norm w (Int64.neg ia))) ta
      | Inot (w, r, a) ->
        let va, ta = eval_operand st fr a in
        write_reg st fr r (Value.Vint (norm w (Int64.lognot (as_int st va)))) ta
      | Ifbin (op, r, a, b) ->
        let va, ta = eval_operand st fr a in
        let vb, tb = eval_operand st fr b in
        let x = as_float va and y = as_float vb in
        let z =
          match op with
          | FAdd -> x +. y
          | FSub -> x -. y
          | FMul -> x *. y
          | FDiv -> x /. y
        in
        write_reg st fr r (Value.Vfloat z) (ta || tb)
      | Ifma (r, a, b, c) ->
        let va, ta = eval_operand st fr a in
        let vb, tb = eval_operand st fr b in
        let vc, tc = eval_operand st fr c in
        write_reg st fr r
          (Value.Vfloat (Float.fma (as_float va) (as_float vb) (as_float vc)))
          (ta || tb || tc)
      | Ifneg (r, a) ->
        let va, ta = eval_operand st fr a in
        write_reg st fr r (Value.Vfloat (-.as_float va)) ta
      | Icmp (c, _w, r, a, b) ->
        let va, ta = eval_operand st fr a in
        let vb, tb = eval_operand st fr b in
        write_reg st fr r (Value.Vint (eval_cmp c (as_int st va) (as_int st vb))) (ta || tb)
      | Ifcmp (c, r, a, b) ->
        let va, ta = eval_operand st fr a in
        let vb, tb = eval_operand st fr b in
        write_reg st fr r (Value.Vint (eval_fcmp c (as_float va) (as_float vb))) (ta || tb)
      | Ipcmp (c, r, a, b) ->
        let va, ta = eval_operand st fr a in
        let vb, tb = eval_operand st fr b in
        let pa = as_ptr st va and pb = as_ptr st vb in
        write_reg st fr r (Value.Vint (eval_pcmp st c pa pb)) (ta || tb)
      | Ipadd (r, p, off) ->
        let vp, tp = eval_operand st fr p in
        let voff, toff = eval_operand st fr off in
        let pp = as_ptr st vp in
        let d = Int64.to_int (as_int st voff) in
        write_reg st fr r (Value.Vptr { pp with Value.off = pp.Value.off + d }) (tp || toff)
      | Ipdiff (r, a, b) ->
        let va, ta = eval_operand st fr a in
        let vb, tb = eval_operand st fr b in
        let pa = as_ptr st va and pb = as_ptr st vb in
        let aa = if Value.is_null pa then 0 else Mem.addr_of_ptr st.mem pa in
        let ab = if Value.is_null pb then 0 else Mem.addr_of_ptr st.mem pb in
        write_reg st fr r (Value.Vint (Value.norm32 (Int64.of_int (aa - ab)))) (ta || tb)
      | Icast (k, r, a) ->
        let va, ta = eval_operand st fr a in
        write_reg st fr r (eval_cast st k va) ta
      | Ilea (r, Sglobal g) ->
        (match Hashtbl.find_opt st.global_ids g with
        | Some id -> write_reg st fr r (Value.Vptr { Value.obj = id; off = 0 }) false
        | None -> invalid_arg ("Exec: unknown global " ^ g))
      | Ilea (r, Sslot i) ->
        write_reg st fr r (Value.Vptr { Value.obj = fr.slot_ids.(i); off = 0 }) false
      | Iload (r, p) ->
        let vp, tp = eval_operand st fr p in
        let v, t = load st (as_ptr st vp) ~ptaint:tp in
        write_reg st fr r v t
      | Istore (p, x) ->
        let vp, tp = eval_operand st fr p in
        let vx, tx = eval_operand st fr x in
        store st (as_ptr st vp) ~ptaint:tp vx tx
      | Icall (dest, fname, args) ->
        let argv = List.map (eval_operand st fr) args in
        let v, t = call st tab fname argv in
        (match dest with Some r -> write_reg st fr r v t | None -> ())
      | Ibuiltin (dest, bname, args) ->
        let argv = Array.of_list (List.map (fun o -> fst (eval_operand st fr o)) args) in
        let v = exec_builtin_v st (Image.builtin_of_name bname) argv in
        (match dest with Some r -> write_reg st fr r v false | None -> ())
      | Iprint items ->
        let value o = fst (eval_operand st fr o) in
        (match st.notify with
        | None -> List.iter (print_item st value) items
        | Some notify ->
          let before = Buffer.length st.out in
          List.iter (print_item st value) items;
          let text =
            Buffer.sub st.out before (Buffer.length st.out - before)
          in
          notify ~fn:fr.func.name text)
      | Ijmp l -> jump l
      | Ibr (c, lt, lf) ->
        let vc, tc = eval_operand st fr c in
        st.hooks.Hooks.on_branch ~taint:tc;
        if Value.truthy vc then jump lt else jump lf
      | Iret None ->
        return_value := (Value.zero, false);
        running := false
      | Iret (Some o) ->
        return_value := eval_operand st fr o;
        running := false
      | Itrap _ -> raise (Mem.Trapped Trap.Abort_called)
    end
  done;
  !return_value

(* --- entry points --- *)

let status_of_run (st : state) (body : unit -> Value.t * bool) : Trap.status =
  try
    let v, _ = body () in
    Trap.Exit (Int64.to_int (as_int st v) land 0xff)
  with
  | Exit_program code -> Trap.Exit code
  | Mem.Trapped t -> Trap.Trap t
  | Fuel_out -> Trap.Hang
  | Output_limit_exc -> Trap.Trap Trap.Output_limit
  | Hooks.Report msg -> Trap.San_report msg

let run ?(config = default_config) (u : Ir.unit_) : result =
  let mem = Mem.create u.runtime u.globals in
  let st =
    make_state ~mem ~runtime:u.runtime ~global_ids:(Mem.global_ids mem)
      ~cfg:config ~out:(Buffer.create 256)
  in
  let tab = build_ftab u in
  let status = status_of_run st (fun () -> call st tab "main" []) in
  {
    stdout = Buffer.contents st.out;
    status;
    fuel_used = config.fuel - st.fuel_left;
  }

(* ===== threaded linked executor ===== *)

(* Operand evaluation is split into a value read and a taint read so the
   hot loop never allocates an intermediate [(value, taint)] tuple --
   that tuple was the single largest allocation source of the previous
   linked executor.  Immediates ([Tval]) are boxed once at link time. *)
let tev_v st (sc : Arena.scratch) (fseq : int) (o : Image.topnd) : Value.t =
  match o with
  | Image.Treg r ->
    if sc.Arena.s_written.(r) then sc.Arena.s_regs.(r) else reg_junk st fseq r
  | Image.Tval v -> v

let tev_t (sc : Arena.scratch) (o : Image.topnd) : bool =
  match o with
  | Image.Treg r -> (not sc.Arena.s_written.(r)) || sc.Arena.s_taint.(r)
  | Image.Tval _ -> false

(* make the depth's scratch usable for [lf]: grow if needed, and clear
   the written flags (values and taint are only read through them) *)
let acquire_scratch (sc : Arena.scratch) (lf : Image.lfunc) =
  let n = max 1 lf.Image.l_nregs in
  if Array.length sc.Arena.s_regs < n then begin
    sc.Arena.s_regs <- Array.make n Value.zero;
    sc.Arena.s_taint <- Array.make n false;
    sc.Arena.s_written <- Array.make n false
  end
  else Array.fill sc.Arena.s_written 0 n false;
  let k = Array.length lf.Image.l_slots in
  if Array.length sc.Arena.s_slots < k then
    sc.Arena.s_slots <- Array.make k 0

(* [caller]/[caller_fseq] evaluate the argument operands; the entry call
   passes an arbitrary scratch (its argument array is empty) *)
let rec lcall st (arena : Arena.t) (img : Image.t) (fi : int)
    (args : Image.topnd array) (caller : Arena.scratch) (caller_fseq : int) :
    Value.t * bool =
  let lf = img.Image.funcs.(fi) in
  if st.depth >= max_depth then raise (Mem.Trapped Trap.Stack_overflow);
  let sc = arena.Arena.scratch.(st.depth) in
  st.depth <- st.depth + 1;
  st.frame_seq <- st.frame_seq + 1;
  let fseq = st.frame_seq in
  acquire_scratch sc lf;
  let nregs = lf.Image.l_nregs in
  for i = 0 to Array.length args - 1 do
    if i < nregs then begin
      sc.Arena.s_regs.(i) <- tev_v st caller caller_fseq args.(i);
      sc.Arena.s_taint.(i) <- tev_t caller args.(i);
      sc.Arena.s_written.(i) <- true
    end
  done;
  Mem.push_frame_laid st.mem lf.Image.l_slots lf.Image.l_frame sc.Arena.s_slots;
  (match st.cfg.coverage with
  | Some cov -> Coverage.hit cov lf.Image.l_entry_block
  | None -> ());
  let result = trun st arena img lf sc fseq in
  Mem.pop_frame st.mem;
  st.depth <- st.depth - 1;
  result

and trun st (arena : Arena.t) (img : Image.t) (lf : Image.lfunc)
    (sc : Arena.scratch) (fseq : int) : Value.t * bool =
  let code = lf.Image.l_ops in
  let n = Array.length code in
  let hooks = st.hooks in
  let plain = hooks == Hooks.none in
  let coverage = st.cfg.coverage in
  let regs = sc.Arena.s_regs in
  let rtaint = sc.Arena.s_taint in
  let rwritten = sc.Arena.s_written in
  let slot_ids = sc.Arena.s_slots in
  (* register indices were validated against [l_nregs] when the image
     was linked and the arena arrays are sized from it, so the register
     file can skip bounds checks *)
  let wr r v t =
    Array.unsafe_set regs r v;
    Array.unsafe_set rtaint r t;
    Array.unsafe_set rwritten r true
  in
  (* split value/taint reads: no tuple allocation per operand *)
  let ev_v (o : Image.topnd) =
    match o with
    | Image.Treg r ->
      if Array.unsafe_get rwritten r then Array.unsafe_get regs r
      else reg_junk st fseq r
    | Image.Tval v -> v
  in
  let ev_t (o : Image.topnd) =
    match o with
    | Image.Treg r ->
      (not (Array.unsafe_get rwritten r)) || Array.unsafe_get rtaint r
    | Image.Tval _ -> false
  in
  let pc = ref 0 in
  (* negative targets encode a label the linker could not resolve; fault
     only when taken, with the reference's message *)
  let jump t =
    if t >= 0 then pc := t
    else
      invalid_arg
        (Printf.sprintf "Exec: missing label L%d in %s" (-1 - t) lf.Image.l_name)
  in
  (* a fused op covers two source instructions; the second one's fuel
     tick happens between the halves, exactly where the reference's
     per-instruction check sits *)
  let fuel_tick () =
    st.fuel_left <- st.fuel_left - 1;
    if st.fuel_left <= 0 then raise Fuel_out
  in
  let return_value = ref (Value.zero, false) in
  let running = ref true in
  while !running do
    if !pc >= n then running := false
    else begin
      st.fuel_left <- st.fuel_left - 1;
      if st.fuel_left <= 0 then raise Fuel_out;
      (* pc stays within [0, n): the loop guard covers fall-off and every
         linker-resolved jump target is an in-range index *)
      let ins = Array.unsafe_get code !pc in
      incr pc;
      match ins with
      | Image.Tlabel blk ->
        (match coverage with
        | Some cov -> Coverage.hit cov blk
        | None -> ())
      | Image.Tconst (r, o) -> wr r (ev_v o) (ev_t o)
      | Image.Tconst2 (r1, v1, r2, v2) ->
        wr r1 v1 false;
        fuel_tick ();
        wr r2 v2 false;
        incr pc (* the fused op consumed the slot at pc+1 *)
      | Image.Tbin (op, w, sem, r, a, b) ->
        let va = ev_v a in
        let vb = ev_v b in
        let ia = as_int st va and ib = as_int st vb in
        if sem = Csigned then hooks.Hooks.on_signed_arith op w ia ib;
        wr r (eval_bin_boxed op w ia ib) (ev_t a || ev_t b)
      | Image.Tneg (w, sem, r, a) ->
        let ia = as_int st (ev_v a) in
        if sem = Csigned then hooks.Hooks.on_signed_arith Bsub w 0L ia;
        let v =
          match w with
          | W32 -> box_i32 (wrap32 (-Int64.to_int ia))
          | W64 -> Value.Vint (Int64.neg ia)
        in
        wr r v (ev_t a)
      | Image.Tnot (w, r, a) ->
        wr r (Value.Vint (norm w (Int64.lognot (as_int st (ev_v a))))) (ev_t a)
      | Image.Tfbin (op, r, a, b) ->
        let x = as_float (ev_v a) and y = as_float (ev_v b) in
        let z =
          match op with
          | FAdd -> x +. y
          | FSub -> x -. y
          | FMul -> x *. y
          | FDiv -> x /. y
        in
        wr r (Value.Vfloat z) (ev_t a || ev_t b)
      | Image.Tfma (r, a, b, c) ->
        wr r
          (Value.Vfloat
             (Float.fma (as_float (ev_v a)) (as_float (ev_v b))
                (as_float (ev_v c))))
          (ev_t a || ev_t b || ev_t c)
      | Image.Tfneg (r, a) -> wr r (Value.Vfloat (-.as_float (ev_v a))) (ev_t a)
      | Image.Tcmp (c, r, a, b) ->
        let res = cmp_holds c (as_int st (ev_v a)) (as_int st (ev_v b)) in
        wr r (if res then value_one else Value.zero) (ev_t a || ev_t b)
      | Image.Tcmp_br (c, r, a, b, lt, lf_) ->
        (* cmp half *)
        let res = cmp_holds c (as_int st (ev_v a)) (as_int st (ev_v b)) in
        let t = ev_t a || ev_t b in
        wr r (if res then value_one else Value.zero) t;
        (* branch half (reads the register just written) *)
        fuel_tick ();
        if not plain then hooks.Hooks.on_branch ~taint:t;
        if res then jump lt else jump lf_
      | Image.Tfcmp (c, r, a, b) ->
        let res = fcmp_holds c (as_float (ev_v a)) (as_float (ev_v b)) in
        wr r (if res then value_one else Value.zero) (ev_t a || ev_t b)
      | Image.Tpcmp (c, r, a, b) ->
        let pa = as_ptr st (ev_v a) and pb = as_ptr st (ev_v b) in
        wr r (Value.Vint (eval_pcmp st c pa pb)) (ev_t a || ev_t b)
      | Image.Tpadd (r, p, off) ->
        let pp = as_ptr st (ev_v p) in
        let d = Int64.to_int (as_int st (ev_v off)) in
        wr r
          (Value.Vptr { pp with Value.off = pp.Value.off + d })
          (ev_t p || ev_t off)
      | Image.Tpdiff (r, a, b) ->
        let pa = as_ptr st (ev_v a) and pb = as_ptr st (ev_v b) in
        let aa = if Value.is_null pa then 0 else Mem.addr_of_ptr st.mem pa in
        let ab = if Value.is_null pb then 0 else Mem.addr_of_ptr st.mem pb in
        wr r (Value.Vint (Value.norm32 (Int64.of_int (aa - ab)))) (ev_t a || ev_t b)
      | Image.Tcast (k, r, a) -> wr r (eval_cast st k (ev_v a)) (ev_t a)
      | Image.Tlea_global (r, id) ->
        wr r (Value.Vptr { Value.obj = id; off = 0 }) false
      | Image.Tlea_slot (r, i) ->
        wr r (Value.Vptr { Value.obj = slot_ids.(i); off = 0 }) false
      | Image.Tload (r, p) ->
        let vp = ev_v p in
        if plain then begin
          let addr = plain_addr st (as_ptr st vp) in
          wr r (Mem.read_abs_v st.mem addr) (Mem.read_abs_taint st.mem addr)
        end
        else begin
          let v, t = load st (as_ptr st vp) ~ptaint:(ev_t p) in
          wr r v t
        end
      | Image.Tload_bin (r1, p, op, w, sem, r2, b) ->
        if plain then begin
          (* load half, hook-free *)
          let addr = plain_addr st (as_ptr st (ev_v p)) in
          let v = Mem.read_abs_v st.mem addr in
          let t = Mem.read_abs_taint st.mem addr in
          wr r1 v t;
          (* binop half: its left operand is the register just written *)
          fuel_tick ();
          let vb = ev_v b in
          let ia = as_int st v and ib = as_int st vb in
          wr r2 (eval_bin_boxed op w ia ib) (t || ev_t b);
          incr pc (* the fused op consumed the slot at pc+1 *)
        end
        else begin
          (* load half *)
          let vp = ev_v p in
          let v, t = load st (as_ptr st vp) ~ptaint:(ev_t p) in
          wr r1 v t;
          (* binop half: its left operand is the register just written *)
          fuel_tick ();
          let vb = ev_v b in
          let ia = as_int st v and ib = as_int st vb in
          if sem = Csigned then hooks.Hooks.on_signed_arith op w ia ib;
          wr r2 (eval_bin_boxed op w ia ib) (t || ev_t b);
          incr pc (* the fused op consumed the slot at pc+1 *)
        end
      | Image.Tstore (p, x) ->
        let vp = ev_v p in
        let vx = ev_v x in
        if plain then
          Mem.write_abs st.mem (plain_addr st (as_ptr st vp)) vx ~taint:(ev_t x)
        else store st (as_ptr st vp) ~ptaint:(ev_t p) vx (ev_t x)
      | Image.Tload_slot (r, i) ->
        (* lea half: the pointer register is link-proven dead, so its
           write is elided; only the fuel tick remains *)
        fuel_tick ();
        let sid = Array.unsafe_get slot_ids i in
        if plain then begin
          let addr = Mem.base_of_obj st.mem sid in
          wr r (Mem.read_abs_v st.mem addr) (Mem.read_abs_taint st.mem addr)
        end
        else begin
          (* lea-produced pointers carry taint [false] *)
          let v, t = load st { Value.obj = sid; Value.off = 0 } ~ptaint:false in
          wr r v t
        end;
        incr pc (* the fused op consumed the slot at pc+1 *)
      | Image.Tstore_slot (i, x) ->
        fuel_tick ();
        let vx = ev_v x in
        let sid = Array.unsafe_get slot_ids i in
        if plain then
          Mem.write_abs st.mem (Mem.base_of_obj st.mem sid) vx ~taint:(ev_t x)
        else store st { Value.obj = sid; Value.off = 0 } ~ptaint:false vx (ev_t x);
        incr pc
      | Image.Tload_global (r, gid) ->
        fuel_tick ();
        if plain then begin
          let addr = Mem.base_of_obj st.mem gid in
          wr r (Mem.read_abs_v st.mem addr) (Mem.read_abs_taint st.mem addr)
        end
        else begin
          let v, t = load st { Value.obj = gid; Value.off = 0 } ~ptaint:false in
          wr r v t
        end;
        incr pc
      | Image.Tstore_global (gid, x) ->
        fuel_tick ();
        let vx = ev_v x in
        if plain then
          Mem.write_abs st.mem (Mem.base_of_obj st.mem gid) vx ~taint:(ev_t x)
        else store st { Value.obj = gid; Value.off = 0 } ~ptaint:false vx (ev_t x);
        incr pc
      | Image.Tcall (dest, fi, args) ->
        let v, t = lcall st arena img fi args sc fseq in
        if dest >= 0 then wr dest v t
      | Image.Tcall_unknown (fname, args) ->
        Array.iter (fun o -> ignore (ev_v o)) args;
        invalid_arg ("Exec: unknown function " ^ fname)
      | Image.Tbuiltin (dest, b, args) ->
        let argv = Array.map ev_v args in
        let v = exec_builtin_v st b argv in
        if dest >= 0 then wr dest v false
      | Image.Tprint items ->
        let value (o : operand) =
          match o with
          | Reg r -> if rwritten.(r) then regs.(r) else reg_junk st fseq r
          | ImmI v -> Value.Vint v
          | ImmF f -> Value.Vfloat f
          | Nullptr -> Value.Vptr Value.null
        in
        (match st.notify with
        | None -> List.iter (print_item st value) items
        | Some notify ->
          let before = Buffer.length st.out in
          List.iter (print_item st value) items;
          let text =
            Buffer.sub st.out before (Buffer.length st.out - before)
          in
          notify ~fn:lf.Image.l_name text)
      | Image.Tjmp t -> jump t
      | Image.Tbr (c, lt, lf_) ->
        let vc = ev_v c in
        if not plain then hooks.Hooks.on_branch ~taint:(ev_t c);
        if Value.truthy vc then jump lt else jump lf_
      | Image.Tret None ->
        return_value := (Value.zero, false);
        running := false
      | Image.Tret (Some o) ->
        return_value := (ev_v o, ev_t o);
        running := false
      | Image.Tfail msg -> invalid_arg msg
      | Image.Ttrap -> raise (Mem.Trapped Trap.Abort_called)
    end
  done;
  !return_value

(* --- linked entry point --- *)

(* One run of [img] on an arena already bound to it and reset. *)
let exec_linked (config : config) (a : Arena.t) (img : Image.t) : result =
  let st =
    make_state ~mem:a.Arena.mem ~runtime:img.Image.runtime
      ~global_ids:img.Image.global_ids ~cfg:config ~out:a.Arena.out
  in
  let status =
    status_of_run st (fun () ->
        if img.Image.entry < 0 then invalid_arg "Exec: unknown function main";
        lcall st a img img.Image.entry [||] a.Arena.scratch.(0) 0)
  in
  {
    stdout = Buffer.contents st.out;
    status;
    fuel_used = config.fuel - st.fuel_left;
  }

let check_bound fn (a : Arena.t) (img : Image.t) =
  if a.Arena.image != img then
    invalid_arg (fn ^ ": arena was created for a different image")

(* Run a linked image.  With [?arena] (from {!Arena.create} for [img]),
   that arena is reset and reused.  Without it, the run takes the
   calling domain's arena ({!Arena.with_domain}), rebinding it to [img]
   if it last ran another image, so no address space is allocated per
   image or per run.  Either way the result equals a run on a fresh
   memory.  A [Steps] observer runs the reference on the image's source
   unit instead ([fi]/[pc] are the same either way: the image's function
   table and opstream are positionally parallel to the unit), with a
   fresh memory: stepped runs are observation tools, never the
   throughput path. *)
let run_linked ?(config = default_config) ?arena (img : Image.t) : result =
  match config.observer.Observer.level with
  | Observer.Steps _ -> run ~config img.Image.unit_
  | Observer.Silent | Observer.Prints _ -> (
    match arena with
    | Some a ->
      check_bound "Exec.run_linked" a img;
      Arena.reset a;
      exec_linked config a img
    | None -> Arena.with_domain img (fun a -> exec_linked config a img))

(* Run many inputs against one image through one arena -- [?arena], or
   the calling domain's, taken once for the whole batch -- without
   re-validating or re-creating per-run structure.  [Arena.reset]
   between runs is the only per-input setup; the globals blit inside it
   is skipped when the previous run never wrote a global ({!Mem.reset}'s
   dirty gate).  [on_each i r] fires after input [i] completes, before
   the next run starts -- the fuzzer uses it to harvest coverage between
   runs.  Results are positionally identical to mapping {!run_linked}
   over [inputs] with the same config and arena. *)
let run_batch ?(config = default_config) ?arena ?on_each (img : Image.t)
    ~(inputs : string array) : result array =
  let batch a =
    Array.mapi
      (fun i input ->
        let r = run_linked ~config:{ config with input } ~arena:a img in
        (match on_each with Some f -> f i r | None -> ());
        r)
      inputs
  in
  match arena with
  | Some a ->
    check_bound "Exec.run_batch" a img;
    batch a
  | None -> Arena.with_domain img batch
