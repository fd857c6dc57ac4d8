(* The compiler driver: front end once, then one backend run per profile.

   A backend run has three stages: {!lower} (typed AST -> IR, reading
   only the profile's {!Policy.lowering}), {!optimize} (stamp the
   profile's run-time policies and name, run its pass stack) and
   {!restore_lines} (rebuild the line tables the passes dropped).
   [compile profile tprogram] runs all three and produces the "binary"
   (an {!Ir.unit_}) that the VM executes; [compile_all] builds the full
   differential set.  A caller that compiles many programs under many
   profiles (an engine session) runs the stages itself: one lowering per
   distinct lowering policy, every per-function stage behind a memo
   ({!Fmemo}), and line tables only where a source line is read. *)

open Ir

(* passes renumber instructions, so the lowering's line table is stale
   the moment any of them ran *)
let strip_lines (f : ifunc) : ifunc =
  if Array.length f.code_lines = 0 then f else { f with code_lines = [||] }

let apply_func_passes (flags : Policy.opt_flags) (f : ifunc) : ifunc =
  let ( |>? ) f (cond, pass) = if cond then pass f else f in
  let f' =
    f
  |>? (flags.Policy.constfold, Opt_constfold.run)
  |>? (flags.Policy.copyprop, Opt_copyprop.run)
  |>? (flags.Policy.cse, Opt_cse.run ~unsafe:flags.Policy.unsafe_copyprop)
  |>? ( flags.Policy.ub_branch_fold || flags.Policy.null_deref_trap,
        Opt_ubfold.run ~null_trap:flags.Policy.null_deref_trap
          ~null_fold:flags.Policy.null_check_fold )
  |>? (flags.Policy.constfold, Opt_constfold.run)
  |>? (flags.Policy.copyprop, Opt_copyprop.run)
  |>? (flags.Policy.promote_mul, Opt_peephole.promote_mul)
  |>? (flags.Policy.strength, Opt_peephole.strength)
  |>? (flags.Policy.fp_contract, Opt_peephole.fp_contract)
  |>? (flags.Policy.pow_to_exp2, Opt_peephole.pow_to_exp2)
  |>? (flags.Policy.dce, Opt_dce.run)
  in
  if f' == f then f else strip_lines f'

(* --- line-table reconstruction ---

   Passes drop the line table ({!strip_lines}); diagnostics that run on
   optimized code (UnstableCheck's replay, divergence localization)
   would then fall back to raw pcs. After the pass stack settles,
   {!restore_lines} rebuilds an approximate table by aligning the
   optimized instruction stream against the unoptimized lowering of the
   same function (whose table is exact) with an LCS over
   register/label-insensitive instruction keys: matched instructions
   take the reference line, inserted ones inherit the nearest preceding
   match. Inlined bodies thus read as the call site's line — the right
   answer for a source-level report. *)

let op_key = function
  | Reg _ -> 1 (* registers are renumbered freely; identity is noise *)
  | ImmI v -> Hashtbl.hash v
  | ImmF f -> Hashtbl.hash f
  | Nullptr -> 2

let instr_key (i : instr) : int =
  let k x = Hashtbl.hash x in
  match i with
  | Iconst (_, o) -> k ("const", op_key o)
  | Imov (_, o) -> k ("mov", op_key o)
  | Ibin (b, w, c, _, x, y) -> k ("bin", b, w, c, op_key x, op_key y)
  | Ineg (w, c, _, x) -> k ("neg", w, c, op_key x)
  | Inot (w, _, x) -> k ("not", w, op_key x)
  | Ifbin (b, _, x, y) -> k ("fbin", b, op_key x, op_key y)
  | Ifma (_, a, b, c) -> k ("fma", op_key a, op_key b, op_key c)
  | Ifneg (_, x) -> k ("fneg", op_key x)
  | Icmp (c, w, _, x, y) -> k ("cmp", c, w, op_key x, op_key y)
  | Ifcmp (c, _, x, y) -> k ("fcmp", c, op_key x, op_key y)
  | Ipcmp (c, _, x, y) -> k ("pcmp", c, op_key x, op_key y)
  | Ipadd (_, x, y) -> k ("padd", op_key x, op_key y)
  | Ipdiff (_, x, y) -> k ("pdiff", op_key x, op_key y)
  | Icast (c, _, x) -> k ("cast", c, op_key x)
  | Ilea (_, s) -> k ("lea", s)
  | Iload (_, x) -> k ("load", op_key x)
  | Istore (x, y) -> k ("store", op_key x, op_key y)
  | Icall (_, fn, args) -> k ("call", fn, List.length args)
  | Ibuiltin (_, fn, args) -> k ("builtin", fn, List.length args)
  | Iprint items ->
    k ("print", List.map (function Flit s -> s | _ -> "%") items)
  | Ijmp _ -> k "jmp"
  | Ibr (x, _, _) -> k ("br", op_key x)
  | Iret x -> k ("ret", Option.map op_key x)
  | Ilabel _ -> k "label"
  | Itrap m -> k ("trap", m)

(* [f] with a line table aligned against [reference]; a fresh record,
   never a write into [f], which a memo may share between units *)
let rebuild_lines ~(reference : ifunc) (f : ifunc) : ifunc =
  let ref_lines = reference.code_lines in
  let m = min (Array.length reference.code) (Array.length ref_lines) in
  let n = Array.length f.code in
  (* quadratic DP: skip degenerate and absurdly large inputs *)
  if m = 0 || n = 0 || n * m > 4_000_000 then f
  else begin
    let a = Array.map instr_key f.code in
    let b = Array.init m (fun j -> instr_key reference.code.(j)) in
    (* dp.(i).(j) = LCS length of a[i..) vs b[j..) *)
    let dp = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        dp.(i).(j) <-
          (if a.(i) = b.(j) then 1 + dp.(i + 1).(j + 1) else 0)
          |> max dp.(i + 1).(j)
          |> max dp.(i).(j + 1)
      done
    done;
    let lines = Array.make n ref_lines.(0) in
    let cur = ref ref_lines.(0) in
    let i = ref 0 and j = ref 0 in
    while !i < n && !j < m do
      if a.(!i) = b.(!j) && dp.(!i).(!j) = 1 + dp.(!i + 1).(!j + 1) then begin
        cur := ref_lines.(!j);
        lines.(!i) <- !cur;
        incr i;
        incr j
      end
      else if dp.(!i + 1).(!j) >= dp.(!i).(!j + 1) then begin
        lines.(!i) <- !cur; (* inserted by optimization *)
        incr i
      end
      else incr j (* deleted by optimization *)
    done;
    while !i < n do
      lines.(!i) <- !cur;
      incr i
    done;
    { f with code_lines = lines }
  end

(* --- the per-function memo ---

   The pass stack is a pure function of one function's data and
   dominates a compile.  A caller that compiles many near-identical
   programs (a reducer's candidates differ in one statement of one
   function) supplies a memo ({!Fmemo}), and every function it did not
   change is served from it.  A pass stack's key derives from the key of
   its input function, so a function is never serialized to look it up.
   A function the stack changes is keyed by its own bytes
   ({!Fmemo.of_func}), computed once, when it is first produced: the
   memo stores each output with its key.  An output the stack left
   unchanged is the input itself and keeps the input's key.  Keys of
   content, rather than of the derivation that produced it, let inputs
   that converge share their outputs: two lowerings that the first
   round optimizes to the same code share the rest of the pipeline, and
   a function at its fixpoint keeps its key through every round.  Memo
   values are shared between units, profiles and domains, which is why
   no stage writes into an [ifunc]. *)

(* a store of pass-stack outputs, each with its key *)
type memo = (ifunc * Fmemo.key) Fmemo.t

(** The projection of [flags] that {!apply_func_passes} reads: [flags]
    with [inline_limit] (read by the inliner) and [promote_scalars] (read
    by lowering) zeroed.  Profiles with equal projections run the same
    per-function pass stack, so keying the memo on the projection lets
    them share entries: gccx-O2 and gccx-O3 differ only in
    [inline_limit]. *)
let pass_flags (flags : Policy.opt_flags) : Policy.opt_flags =
  { flags with Policy.inline_limit = 0; promote_scalars = false }

(* A unit's functions in order, each with its key when compiled through
   a memo. *)
type kfunc = { fname : string; func : ifunc; fkey : Fmemo.key option }

(* [flags]' pass stack over every function of [fs], through [memo] when
   there is one *)
let passes ?memo (flags : Policy.opt_flags) (fs : kfunc list) : kfunc list =
  match memo with
  | None -> List.map (fun kf -> { kf with func = apply_func_passes flags kf.func }) fs
  | Some (m : memo) ->
    let ctx = Fmemo.context (pass_flags flags) in
    List.map
      (fun kf ->
        let input =
          match kf.fkey with Some k -> k | None -> Fmemo.of_func kf.func
        in
        let key = Fmemo.derive ~stage:"passes" ~ctx input in
        let func, fkey =
          m.Fmemo.find_or_compute key (fun () ->
              let f = apply_func_passes flags kf.func in
              (f, if f == kf.func then input else Fmemo.of_func f))
        in
        { kf with func; fkey = Some fkey })
      fs

(* [kf] without a line table; a function that had one is a new value,
   keyed by derivation *)
let strip_kfunc (kf : kfunc) : kfunc =
  let func = strip_lines kf.func in
  if func == kf.func then kf
  else
    {
      kf with
      func;
      fkey =
        Option.map (Fmemo.derive ~stage:"strip lines" ~ctx:Fmemo.no_context) kf.fkey;
    }

(* --- the stages --- *)

let lower (profile : Policy.profile) (tp : Minic.Tast.tprogram) : Lower.lowered =
  Lower.lower_program (Policy.lowering_of profile) tp

(* [profile]'s unit over the lowering [l], with the keys of its
   functions when [memo] is given: its run-time policies and name
   stamped on, then its pass stack. *)
let optimize_funcs ?memo (profile : Policy.profile) (l : Lower.lowered) :
    unit_ * Fmemo.key option list =
  let flags = profile.Policy.flags in
  let u_of fs =
    {
      funcs = List.map (fun kf -> (kf.fname, kf.func)) fs;
      globals = l.Lower.lglobals;
      runtime = profile.Policy.runtime;
      impl_name = profile.Policy.pname;
    }
  in
  let keys =
    if Option.is_none memo || l.Lower.lkeys = [] then
      List.map (fun _ -> None) l.Lower.lfuncs
    else List.map Option.some l.Lower.lkeys
  in
  let fs0 =
    List.map2 (fun (fname, func) fkey -> { fname; func; fkey }) l.Lower.lfuncs keys
  in
  let fs =
    (* with no pass enabled nothing runs and no line table is stripped,
       so the lowering's functions and keys are the unit's *)
    if pass_flags flags = pass_flags Policy.no_opt then fs0
    else begin
      (* first round of local optimization *)
      let fs1 = passes ?memo flags fs0 in
      (* inlining, then a local round to clean the inlined bodies; a
         second inline+cleanup round resolves call chains (an inlined
         body may itself contain calls that only now become
         inlinable/foldable) *)
      if flags.Policy.inline_limit > 0 then begin
        let round fs =
          let u' = Opt_inline.run ~limit:flags.Policy.inline_limit (u_of fs) in
          let inlined =
            List.map2
              (fun kf (_, f') ->
                if f' == kf.func then kf else { kf with func = f'; fkey = None })
              fs u'.funcs
          in
          List.map strip_kfunc (passes ?memo flags inlined)
        in
        round (round fs1)
      end
      else fs1
    end
  in
  (u_of fs, List.map (fun kf -> kf.fkey) fs)

(* [profile]'s unit over the lowering [l]: its run-time policies and
   name stamped on, then its pass stack.  Functions the passes changed
   carry no line table.  [l] is only read, so one lowering may serve
   several profiles, also from several domains.  [?memo] changes the
   cost, never the result. *)
let optimize ?memo (profile : Policy.profile) (l : Lower.lowered) : unit_ =
  fst (optimize_funcs ?memo profile l)

(* [optimize] through [memo], with the key of every function of the
   unit, in order: the inputs of {!Fmemo.keyed} memos for the stages
   after it (linking, signatures). *)
let optimize_keyed (memo : memo) (profile : Policy.profile) (l : Lower.lowered) :
    unit_ * Fmemo.key list =
  let u, keys = optimize_funcs ~memo profile l in
  ( u,
    List.map2
      (fun (_, f) k -> match k with Some k -> k | None -> Fmemo.of_func f)
      u.funcs keys )

(* every stripped table of [u] rebuilt from the lowering [l] it was
   optimized from *)
let restore_lines (l : Lower.lowered) (u : unit_) : unit_ =
  let restore (n, f) =
    if Array.length f.code_lines > 0 then (n, f)
    else
      match List.assoc_opt n l.Lower.lfuncs with
      | Some reference -> (n, rebuild_lines ~reference f)
      | None -> (n, f)
  in
  { u with funcs = List.map restore u.funcs }

(* [u], a compile of [tp] under [profile] that skipped {!restore_lines},
   with its line tables rebuilt against a fresh lowering: equal to
   [compile profile tp].  Only instruction-level localization reads
   these tables, so a session compiles without them and a [Steps]
   recording asks for them here. *)
let with_lines (profile : Policy.profile) (tp : Minic.Tast.tprogram) (u : unit_) :
    unit_ =
  restore_lines (lower profile tp) u

(* The memo-free reference: every stage recomputes, line tables
   included.  The memoized, line-free session compile is tested against
   it. *)
let compile (profile : Policy.profile) (tp : Minic.Tast.tprogram) : unit_ =
  let l = lower profile tp in
  restore_lines l (optimize profile l)

(* Compile one front-end result with every profile in the list. *)
let compile_all ?(profiles = Profiles.all) (tp : Minic.Tast.tprogram) : unit_ list =
  List.map (fun p -> compile p tp) profiles
