(* Keys of the per-function memo (DESIGN.md 10.5).

   Every per-function stage of a compile -- lowering, the pass stack,
   linking, the signature's dataflow facts -- is a pure function of one
   function's data and a small context shared by its unit.  A caller
   that compiles many near-identical programs (a reducer's candidates
   differ in one statement of one function) supplies a memo, and each
   stage runs only for the functions whose inputs changed.

   A key names a stage output exactly.  It is a path of strings: the
   stage's tag and the exact [Marshal] bytes of its context, followed by
   the key of its input, down to a root that holds the exact bytes of a
   function: a typed function (serialized once per program), or an IR
   function ({!of_func}).  Every stage is deterministic, so equal paths
   name equal outputs, and the memo compares whole paths: a hit can only
   return the output computed for an identical input, with no collision
   argument.  The pass stack stores each function it changes with its
   {!of_func} key, computed once when the function is first produced,
   so later stages key it by content without serializing it again, and
   inputs that converge to the same code share everything after.
   Deriving a key conses two strings onto its input's path: the stages
   of one function share its root bytes, and a context's bytes are
   shared by every function of a unit.

   [hash] is computed once per key from its input's hash, the tag and
   the context's hash, so hashing a derived key never re-reads the root
   bytes.  It only picks the bucket; equality is on the path. *)

type key = { hash : int; path : string list }

(* A store for one stage's outputs: [find_or_compute k compute] is the
   output stored under [k], or [compute ()], stored.  [compute] must be
   the stage applied to the input [k] names. *)
type 'a t = { find_or_compute : key -> (unit -> 'a) -> 'a }

(* A memo for a stage that runs per function of one unit (or program):
   the keys of its functions, in order, and the store. *)
type 'a keyed = { keys : key list; memo : 'a t }

(* exact bytes of a stage input or context *)
let bytes (v : 'a) : string = Marshal.to_string v [ Marshal.No_sharing ]

let root ~(stage : string) (bytes : string) : key =
  { hash = Hashtbl.hash (stage, bytes); path = [ stage; bytes ] }

(* A stage's context: its exact bytes, hashed once for all the
   functions of a unit. *)
type ctx = { ctx_bytes : string; ctx_hash : int }

let context (v : 'a) : ctx =
  let ctx_bytes = bytes v in
  { ctx_bytes; ctx_hash = Hashtbl.hash ctx_bytes }

let no_context = context ()

let derive ~(stage : string) ~(ctx : ctx) (k : key) : key =
  {
    hash = Hashtbl.hash (k.hash, stage, ctx.ctx_hash);
    path = stage :: ctx.ctx_bytes :: k.path;
  }

(* the exact bytes at the root of [k] *)
let root_bytes (k : key) : string = List.nth k.path (List.length k.path - 1)

(* an IR function keyed by its own bytes *)
let of_func (f : Ir.ifunc) : key = root ~stage:"ifunc" (bytes f)

(* The bytes a store entry keeps alive through [k], besides the ones it
   shares: the path's cells, the tag and the context (a context is
   shared by the functions of one unit, but a unit usually adds one or
   two entries), and a root's bytes when [k] is a root.  A derived key
   shares its root with the entry that created it. *)
let weight (k : key) : int =
  let cells = 24 * (List.length k.path + 1) in
  match k.path with
  | stage :: bytes :: _ -> cells + String.length stage + String.length bytes
  | _ -> cells
