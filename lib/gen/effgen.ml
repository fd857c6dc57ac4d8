(* Effect-typed program generation (the efftester approach applied to
   MiniC): read the type-and-effect relation bottom-up, goal-directed,
   so that every generated program is well typed and free of undefined
   behaviour *by construction*.

   The effects tracked are exactly the ones whose violation the oracle's
   ten implementations are free to resolve differently (the Table 5
   unspecified/undefined behaviours of the compiler model):

   - {b value ranges}: every integer expression carries a static
     interval; operands of overflow-prone operations are masked
     ([e & m] is well defined on any int) so no signed operation can
     exceed int range. Division and modulus denominators are rewritten
     to [(e & 15) + 1], which is positive and nonzero. Shift counts are
     small constants, shift operands are masked nonnegative.
   - {b init-state}: every variable is declared with an initializer;
     every local array is filled before it can be read. (Globals are
     zero-initialized by the language.)
   - {b pointer provenance}: arrays are only indexed, with the index
     masked to a power of two no larger than the length, so every
     access stays inside its object; pointers are never compared,
     cast, subtracted or printed, so object layout cannot leak.
   - {b divergence and output}: the only loops are counted loops with
     constant trip counts, so every program terminates with bounded
     output under every implementation.
   - {b evaluation order}: all generated expressions are pure ([peek]
     reads the input without consuming it); the one effectful builtin
     used, [getchar ()], appears only as the whole right-hand side of a
     dedicated declaration, so argument- and operand-order differences
     between implementations are unobservable.

   Statements generated inside a branch or loop body only assign masked
   values; a scalar's interval is widened to the hull of its old range
   and the mask range at the assignment, which stays sound on the path
   that skips or repeats the assignment.

   The generator additionally records {b injection sites}: empty block
   statements [{ }] placed between top-level statements of [main]
   (always-executed positions), each with a snapshot of the variables in
   scope. {!Inject} later replaces exactly one marker with a labeled
   defect; the clean twin keeps the markers, which are no-ops. *)

open Minic
module B = Minic.Builder
module Rng = Cdutil.Rng

type interval = { lo : int; hi : int }

let itv lo hi = { lo; hi }
let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
let within a b = a.lo >= b.lo && a.hi <= b.hi

(* global invariant: every expression interval stays inside [big];
   masked assignments stay inside [masked] *)
let big = itv (-0x400000) 0x400000 (* +-2^22 *)
let masked = itv 0 4095

type scalar = {
  sname : string;
  mutable srange : interval;
  sconst : bool; (* not an assignment target (loop counters) *)
}
type array_ = { aname : string; alen : int }

type site = {
  site_id : int;
  site_scalars : (string * interval) list; (* in-scope ints, snapshot *)
  site_arrays : (string * int) list;       (* in-scope int arrays *)
}

type result = {
  prog : Ast.program;
  sites : site list; (* marker order: the n-th empty block in [main] *)
}

type g = {
  rng : Rng.t;
  mutable scalars : scalar list;
  mutable arrays : array_ list;
  mutable fresh : int;
  mutable sites_rev : site list;
  mutable helper : (string * interval) option; (* pure int(int,int) helper *)
}

let fresh g prefix =
  let n = g.fresh in
  g.fresh <- n + 1;
  Printf.sprintf "%s%d" prefix n

(* ---------- expressions ---------- *)

(* [e & m]: well defined for any int operand, lands in [0, m] *)
let mask_to (e, iv) m =
  if within iv (itv 0 m) then (e, iv) else (B.( &: ) e (B.int m), itv 0 m)

let lit g =
  let k = Rng.int_in g.rng (-64) 256 in
  (B.int k, itv k k)

let leaf g =
  let scalars = g.scalars in
  match Rng.int g.rng 4 with
  | 0 | 1 when scalars <> [] ->
    let s = Rng.choose_list g.rng scalars in
    (B.var s.sname, s.srange)
  | 2 ->
    (* peek is pure: it reads an input byte without consuming it, so it
       is safe in any expression position (no evaluation-order effect) *)
    let i = Rng.int g.rng 8 in
    (B.call "peek" [ B.int i ], itv (-1) 255)
  | _ -> lit g

let rec gen_expr g depth : Ast.expr * interval =
  if depth <= 0 then leaf g
  else
    match Rng.int g.rng 12 with
    | 0 | 1 -> leaf g
    | 2 ->
      let a, ia = gen_expr g (depth - 1) in
      (match Rng.int g.rng 3 with
      | 0 -> (B.neg a, itv (-ia.hi) (-ia.lo))
      | 1 -> (B.lnot a, itv 0 1)
      | _ -> (B.bnot a, itv (-ia.hi - 1) (-ia.lo - 1)))
    | 3 | 4 | 5 -> gen_binop g depth
    | 6 when g.arrays <> [] ->
      (* in-bounds read: index masked to a power of two <= length *)
      let a = Rng.choose_list g.rng g.arrays in
      let i, _ = mask_to (gen_expr g (depth - 1)) (a.alen - 1) in
      (B.idx (B.var a.aname) i, masked)
    | 7 ->
      let c, _ = gen_expr g (depth - 1) in
      let t, it = gen_expr g (depth - 1) in
      let f, if_ = gen_expr g (depth - 1) in
      (B.cond c t f, hull it if_)
    | 8 -> (
      match g.helper with
      | Some (fname, ret) ->
        let a, _ = mask_to (gen_expr g (depth - 1)) 255 in
        let b, _ = mask_to (gen_expr g (depth - 1)) 255 in
        (B.call fname [ a; b ], ret)
      | None -> gen_binop g depth)
    | _ -> gen_binop g depth

and gen_binop g depth : Ast.expr * interval =
  let a, ia = gen_expr g (depth - 1) in
  let b, ib = gen_expr g (depth - 1) in
  match Rng.int g.rng 9 with
  | 0 ->
    let r = itv (ia.lo + ib.lo) (ia.hi + ib.hi) in
    if within r big then (B.( +: ) a b, r)
    else
      let a, ia = mask_to (a, ia) 0xffff and b, ib = mask_to (b, ib) 0xffff in
      (B.( +: ) a b, itv (ia.lo + ib.lo) (ia.hi + ib.hi))
  | 1 ->
    let r = itv (ia.lo - ib.hi) (ia.hi - ib.lo) in
    if within r big then (B.( -: ) a b, r)
    else
      let a, ia = mask_to (a, ia) 0xffff and b, ib = mask_to (b, ib) 0xffff in
      (B.( -: ) a b, itv (ia.lo - ib.hi) (ia.hi - ib.lo))
  | 2 ->
    (* masked multiply: products stay far below int range even after
       operand intervals later widen to the masked hull *)
    let a, _ = mask_to (a, ia) 255 and b, _ = mask_to (b, ib) 255 in
    (B.( *: ) a b, itv 0 (255 * 255))
  | 3 ->
    let d = B.( +: ) (fst (mask_to (b, ib) 15)) (B.int 1) in
    let m = max (abs ia.lo) (abs ia.hi) in
    (B.( /: ) a d, itv (-m) m)
  | 4 ->
    let d = B.( +: ) (fst (mask_to (b, ib) 15)) (B.int 1) in
    (B.( %: ) a d, itv (-15) 15)
  | 5 ->
    let a, _ = mask_to (a, ia) 1023 in
    let k = Rng.int g.rng 5 in
    (B.( <<: ) a (B.int k), itv 0 (1023 lsl k))
  | 6 ->
    let a, _ = mask_to (a, ia) 4095 in
    let k = Rng.int g.rng 5 in
    (B.( >>: ) a (B.int k), itv 0 4095)
  | 7 ->
    let a, _ = mask_to (a, ia) 4095 and b, _ = mask_to (b, ib) 4095 in
    let op = Rng.choose_list g.rng [ B.( &: ); B.( |: ); B.( ^: ) ] in
    (op a b, itv 0 4095)
  | _ ->
    let op =
      Rng.choose_list g.rng
        [ B.( <: ); B.( <=: ); B.( >: ); B.( >=: ); B.( ==: ); B.( <>: );
          B.( &&: ); B.( ||: ) ]
    in
    (op a b, itv 0 1)

let gen_cond g = fst (gen_expr g 2)

(* ---------- statements ---------- *)

(* [guarded] is true inside a branch or loop body: assignments there
   must be masked and only widen the target's interval *)
let assign_scalar g ~guarded =
  (* loop counters are readable but never assignment targets: a body
     write to its own counter could defeat the constant trip count and
     the termination argument with it *)
  match List.filter (fun s -> not s.sconst) g.scalars with
  | [] -> None
  | scalars ->
    let s = Rng.choose_list g.rng scalars in
    let e, iv = gen_expr g (Rng.int_in g.rng 1 3) in
    if guarded then begin
      let e, iv = mask_to (e, iv) 4095 in
      s.srange <- hull s.srange iv;
      Some (B.set s.sname e)
    end
    else begin
      (* always-executed straight-line assignment: the new interval
         replaces the old one *)
      let e, iv = if within iv big then (e, iv) else mask_to (e, iv) 0xffff in
      s.srange <- iv;
      Some (B.set s.sname e)
    end

let decl_scalar g =
  let name = fresh g "v" in
  let e, iv = gen_expr g (Rng.int_in g.rng 1 3) in
  let e, iv = if within iv big then (e, iv) else mask_to (e, iv) 0xffff in
  g.scalars <- { sname = name; srange = iv; sconst = false } :: g.scalars;
  B.decl Ast.Tint name ~init:e

let decl_getchar g =
  (* the only effectful builtin used, and only as a whole statement-level
     right-hand side: one consumption per statement, order-independent *)
  let name = fresh g "c" in
  g.scalars <- { sname = name; srange = itv 0 255; sconst = false } :: g.scalars;
  B.decl Ast.Tint name ~init:(B.( &: ) (B.call "getchar" []) (B.int 255))

(* fill loop: every cell written before any read is possible *)
let decl_array g =
  let name = fresh g "buf" in
  let len = Rng.choose_list g.rng [ 4; 8; 16 ] in
  let i = fresh g "i" in
  let c = Rng.int_in g.rng 1 31 and d = Rng.int_in g.rng 0 255 in
  let fill =
    B.for_up i (B.int 0) (B.int len)
      [
        B.set_idx (B.var name) (B.var i)
          (B.( &: ) (B.( +: ) (B.( *: ) (B.var i) (B.int c)) (B.int d)) (B.int 255));
      ]
  in
  g.arrays <- { aname = name; alen = len } :: g.arrays;
  [ B.decl_arr Ast.Tint name len; fill ]

let store_array g =
  match g.arrays with
  | [] -> None
  | arrays ->
    let a = Rng.choose_list g.rng arrays in
    let i, _ = mask_to (gen_expr g 2) (a.alen - 1) in
    let e, _ = mask_to (gen_expr g (Rng.int_in g.rng 1 3)) 4095 in
    Some (B.set_idx (B.var a.aname) i e)

let gen_print g =
  match Rng.int g.rng 3 with
  | 0 ->
    let e, _ = gen_expr g 2 in
    B.print (Printf.sprintf "t%d %%d\n" (Rng.int g.rng 10)) [ e ]
  | 1 ->
    (* two arguments, both pure: evaluation order cannot show *)
    let a, _ = gen_expr g 2 and b, _ = gen_expr g 2 in
    B.print (Printf.sprintf "p%d %%d %%d\n" (Rng.int g.rng 10)) [ a; b ]
  | _ -> B.print (Printf.sprintf "m%d\n" (Rng.int g.rng 10)) []

(* enter a nested scope: new declarations vanish on exit, interval
   widenings on pre-existing scalars persist (they are record mutations) *)
let scoped g f =
  let saved_scalars = g.scalars and saved_arrays = g.arrays in
  let r = f () in
  g.scalars <- saved_scalars;
  g.arrays <- saved_arrays;
  r

let rec gen_stmts g ~guarded ~depth n : Ast.stmt list =
  List.concat (List.init n (fun _ -> gen_stmt g ~guarded ~depth))

and gen_stmt g ~guarded ~depth : Ast.stmt list =
  match Rng.int g.rng 12 with
  | 0 | 1 -> [ decl_scalar g ]
  | 2 when not guarded -> decl_array g
  | 3 -> [ decl_getchar g ]
  | 4 | 5 -> (
    match assign_scalar g ~guarded with
    | Some s -> [ s ]
    | None -> [ decl_scalar g ])
  | 6 -> (
    match store_array g with
    | Some s -> [ s ]
    | None -> [ gen_print g ])
  | 7 | 8 when depth > 0 ->
    let c = gen_cond g in
    let thn =
      scoped g (fun () -> gen_stmts g ~guarded:true ~depth:(depth - 1)
                            (Rng.int_in g.rng 1 2))
    in
    let els =
      if Rng.bool g.rng then
        scoped g (fun () -> gen_stmts g ~guarded:true ~depth:(depth - 1)
                              (Rng.int_in g.rng 1 2))
      else []
    in
    [ B.if_ c thn els ]
  | 9 when depth > 0 ->
    (* counted loop, constant trip count: terminates everywhere.
       Pre-widen every mutable scalar to the masked hull so intervals
       are loop-invariant (assignments in the body are masked). *)
    let trip = Rng.int_in g.rng 1 8 in
    let i = fresh g "i" in
    List.iter (fun s -> s.srange <- hull s.srange masked) g.scalars;
    let body =
      scoped g (fun () ->
          g.scalars <- { sname = i; srange = itv 0 trip; sconst = true } :: g.scalars;
          gen_stmts g ~guarded:true ~depth:(depth - 1) (Rng.int_in g.rng 1 2))
    in
    [ B.for_up i (B.int 0) (B.int trip) body ]
  | _ -> [ gen_print g ]

(* ---------- injection-site markers ---------- *)

let marker g =
  let id = List.length g.sites_rev in
  g.sites_rev <-
    {
      site_id = id;
      site_scalars = List.map (fun s -> (s.sname, s.srange)) g.scalars;
      site_arrays = List.map (fun a -> (a.aname, a.alen)) g.arrays;
    }
    :: g.sites_rev;
  B.block []

(* ---------- programs ---------- *)

let gen_globals g =
  let garrs =
    List.init (Rng.int g.rng 2) (fun _ ->
        let name = fresh g "gbuf" in
        let len = Rng.choose_list g.rng [ 4; 8 ] in
        let init =
          List.init len (fun _ -> Int64.of_int (Rng.int g.rng 256))
        in
        g.arrays <- { aname = name; alen = len } :: g.arrays;
        B.global_arr name Ast.Tint len ~init)
  in
  let gints =
    List.init (Rng.int g.rng 2) (fun _ ->
        let name = fresh g "gv" in
        let v = Rng.int g.rng 256 in
        g.scalars <- { sname = name; srange = itv v v; sconst = false } :: g.scalars;
        B.global name Ast.Tint ~init:[ Int64.of_int v ])
  in
  garrs @ gints

let gen_helper g =
  if Rng.bool g.rng then None
  else begin
    let fname = fresh g "f" in
    let body_g =
      {
        g with
        scalars =
          [ { sname = "a"; srange = itv 0 255; sconst = false };
            { sname = "b"; srange = itv 0 255; sconst = false } ];
        arrays = [];
      }
    in
    let e, iv = gen_expr body_g (Rng.int_in g.rng 2 3) in
    let e, iv = if within iv big then (e, iv) else mask_to (e, iv) 0xffff in
    g.helper <- Some (fname, iv);
    Some
      (B.func Ast.Tint fname
         ~params:[ (Ast.Tint, "a"); (Ast.Tint, "b") ]
         [ B.ret e ])
  end

let generate ~seed : result =
  let g =
    {
      rng = Rng.create (Rng.mix seed 0x9e11);
      scalars = [];
      arrays = [];
      fresh = 0;
      sites_rev = [];
      helper = None;
    }
  in
  let globals = gen_globals g in
  let helper = gen_helper g in
  let n = Rng.int_in g.rng 4 10 in
  let body = ref [] in
  for _ = 1 to n do
    body := List.rev_append (gen_stmt g ~guarded:false ~depth:2) !body;
    if Rng.int g.rng 2 = 0 then body := marker g :: !body
  done;
  (* a final always-reachable site, so every program has at least one *)
  body := marker g :: !body;
  (* epilogue: print every live scalar and the fringe of every array, so
     the oracle compares the whole final state *)
  let prints =
    List.map (fun s -> B.print (s.sname ^ " %d\n") [ B.var s.sname ]) g.scalars
    @ List.map
        (fun a ->
          B.print (a.aname ^ " %d %d\n")
            [ B.idx (B.var a.aname) (B.int 0);
              B.idx (B.var a.aname) (B.int (a.alen - 1)) ])
        g.arrays
  in
  let main_body = List.rev !body @ prints @ [ B.ret (B.int 0) ] in
  let funcs = Option.to_list helper @ [ B.func Ast.Tint "main" main_body ] in
  { prog = B.program ~globals funcs; sites = List.rev g.sites_rev }
