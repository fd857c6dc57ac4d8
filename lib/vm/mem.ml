(* The simulated address space.

   Three flat regions -- globals, heap, stack -- whose cells are addressed
   absolutely; an object table supplies provenance (bounds, liveness) on
   top. The region bases, inter-object gaps, slot order and allocator
   reuse strategy all come from the producing implementation's
   {!Cdcompiler.Policy.layout}, so the same store performed by two
   binaries can land on different victims -- the MemError/UninitMem
   divergence mechanism.

   Out-of-bounds or dangling accesses are resolved by absolute address:
   inside a mapped region they silently read/write whatever is there;
   outside, they trap. Uninitialized stack cells read deterministic
   "junk" derived from the implementation's stack seed, and are never
   cleared between frames (stack reuse), so uninitialized locals see
   leftovers exactly like real stacks do. *)

open Cdcompiler

exception Trapped of Trap.t

(* Taint/written flag vectors are [Bytes.t] rather than [bool array]: a
   bool array costs a full word per element and is scanned on every
   major-GC mark pass, which made each arena ~192 KiB of live marked set
   (the engine's image cache once retained an arena per image).  Bytes
   cost one byte per flag and the collector skips their contents.
   The unsafe accessors are justified because every index has already
   passed the same region bounds check as the adjacent value-array
   access. *)
module Flags = struct
  let make n (v : bool) = Bytes.make n (if v then '\001' else '\000')
  let[@inline] get (b : Bytes.t) i = Bytes.unsafe_get b i <> '\000'

  let[@inline] set (b : Bytes.t) i (v : bool) =
    Bytes.unsafe_set b i (if v then '\001' else '\000')

  let fill (b : Bytes.t) pos len (v : bool) =
    Bytes.fill b pos len (if v then '\001' else '\000')
end

type obj_kind = Kglobal | Kstack | Kheap

type obj = {
  id : int;
  kind : obj_kind;
  base : int;              (* absolute address of cell 0 *)
  size : int;              (* cells *)
  mutable alive : bool;
  oname : string;          (* diagnostics: global/slot name or "heap" *)
}

type t = {
  layout : Policy.layout;
  uninit_heap : Policy.uninit_policy;
  stack_seed : int;
  (* object table *)
  mutable objects : obj array;        (* id -> obj; id 0 unused (null) *)
  mutable nobjects : int;
  (* globals region *)
  globals_mem : Value.t array;
  globals_taint : Bytes.t;
  globals_init : Value.t array;       (* post-create snapshot, for [reset] *)
  globals_len : int;                  (* mapped extent in cells *)
  mutable globals_dirty : bool;       (* any global write since reset? *)
  globals_by_base : (int * int) array; (* (base, id), sorted by base *)
  initial_nobjects : int;             (* object-table size right after create *)
  (* stack region: cells persist across frames (stack reuse) *)
  stack_mem : Value.t array;
  stack_taint : Bytes.t;
  stack_written : Bytes.t;            (* lazily materialized junk *)
  mutable stack_wlo : int;            (* dirty range of stack_written/taint, *)
  mutable stack_whi : int;            (* inclusive indices; wlo > whi = clean *)
  mutable sp : int;                   (* next free address (grows down) *)
  mutable frames : frame list;        (* innermost first *)
  (* heap region *)
  mutable heap_mem : Value.t array;
  mutable heap_taint : Bytes.t;
  mutable heap_break : int;           (* next fresh absolute address *)
  mutable free_list : (int * int * int) list; (* (base, size, old_id), LIFO *)
  mutable heap_by_base : (int, int) Hashtbl.t; (* base -> id, live or freed *)
}

and frame = {
  f_base : int;                       (* lowest address of the frame *)
  f_size : int;
  f_slots : (int * int) array;        (* (slot offset within frame, obj id) *)
}

let stack_top m = m.layout.Policy.stack_base + m.layout.Policy.stack_size

let fresh_obj m kind base size oname =
  let id = m.nobjects in
  let o = { id; kind; base; size; alive = true; oname } in
  if id >= Array.length m.objects then begin
    let bigger = Array.make (max 16 (2 * Array.length m.objects)) o in
    Array.blit m.objects 0 bigger 0 (Array.length m.objects);
    m.objects <- bigger
  end;
  m.objects.(id) <- o;
  m.nobjects <- id + 1;
  o

let obj m id =
  if id > 0 && id < m.nobjects then Some m.objects.(id) else None

(* --- construction --- *)

(* Global placement, the one source of global object ids: folds
   [f acc g ~off ~id] over the globals in placement order, where [off] is
   the global's first cell within the globals region and [id] its object
   id (1, 2, ... in placement order; id 0 is null).  {!create} builds
   the object table from it and {!Image.link} resolves [Ilea] from it
   without building a memory, so the two cannot drift. *)
let fold_globals (layout : Policy.layout) (globals : Ir.iglobal list) f init =
  let gap = layout.Policy.global_gap in
  let placement =
    if layout.Policy.globals_reversed then List.rev globals else globals
  in
  let acc, _, _ =
    List.fold_left
      (fun (acc, off, id) (g : Ir.iglobal) ->
        (f acc g ~off ~id, off + g.Ir.g_size + gap, id + 1))
      (init, 0, 1) placement
  in
  acc

(* name -> object id; a later duplicate name wins *)
let global_ids_of (layout : Policy.layout) (globals : Ir.iglobal list) :
    (string, int) Hashtbl.t =
  let h = Hashtbl.create 16 in
  fold_globals layout globals
    (fun () (g : Ir.iglobal) ~off:_ ~id -> Hashtbl.replace h g.Ir.g_name id)
    ();
  h

(* Lay out [globals] under [runtime] over [m]'s stack, heap and object
   buffers, which must be clean (fresh, or after {!reset_scratch}): only
   the per-image part of a memory, the globals region and the object
   table, is built here. *)
let with_globals (m : t) (runtime : Policy.runtime) (globals : Ir.iglobal list)
    : t =
  let layout = runtime.Policy.layout in
  let gap = layout.Policy.global_gap in
  let total =
    List.fold_left (fun acc g -> acc + g.Ir.g_size + gap) 0 globals
  in
  let globals_mem = Array.make (max 1 total) Value.zero in
  let m =
    {
      m with
      layout;
      uninit_heap = runtime.Policy.uninit_heap;
      stack_seed = runtime.Policy.stack_seed;
      nobjects = 1;
      globals_mem;
      globals_taint = Flags.make (max 1 total) false;
      globals_len = total;
      globals_dirty = false;
      sp = layout.Policy.stack_base + layout.Policy.stack_size;
      heap_break = layout.Policy.heap_base;
    }
  in
  let by_base =
    fold_globals layout globals
      (fun acc (g : Ir.iglobal) ~off ~id ->
        let base = layout.Policy.globals_base + off in
        let o = fresh_obj m Kglobal base g.Ir.g_size g.Ir.g_name in
        assert (o.id = id);
        List.iteri
          (fun i v ->
            if i < g.Ir.g_size then globals_mem.(off + i) <- Value.Vint v)
          g.Ir.g_init;
        (base, id) :: acc)
      []
  in
  {
    m with
    globals_by_base = Array.of_list (List.rev by_base);
    globals_init = Array.copy globals_mem;
    initial_nobjects = m.nobjects;
  }

let create (runtime : Policy.runtime) (globals : Ir.iglobal list) : t =
  let layout = runtime.Policy.layout in
  let null = { id = 0; kind = Kglobal; base = 0; size = 0; alive = false; oname = "<null>" } in
  with_globals
    {
      layout;
      uninit_heap = runtime.Policy.uninit_heap;
      stack_seed = runtime.Policy.stack_seed;
      objects = Array.make 64 null;
      nobjects = 1;
      globals_mem = [||];
      globals_taint = Bytes.empty;
      globals_init = [||];
      globals_len = 0;
      globals_dirty = false;
      globals_by_base = [||];
      initial_nobjects = 1;
      stack_mem = Array.make layout.Policy.stack_size Value.zero;
      stack_taint = Flags.make layout.Policy.stack_size true;
      stack_written = Flags.make layout.Policy.stack_size false;
      stack_wlo = max_int;
      stack_whi = -1;
      sp = 0;
      frames = [];
      heap_mem = Array.make 256 Value.zero;
      heap_taint = Flags.make 256 true;
      heap_break = 0;
      free_list = [];
      heap_by_base = Hashtbl.create 16;
    }
    runtime globals

(* Return the shared scratch (stack, heap, object table) to its
   post-[create] state; the globals region is {!reset}'s business.
   Equivalence argument (per region):
   - stack: values are never cleared between frames even in a fresh
     memory (stack reuse), and a cell with [stack_written = false] reads
     deterministic junk derived only from [(stack_seed, addr)] — so
     clearing the written/taint flags over the dirtied range makes every
     cell read exactly what a fresh stack would;
   - heap: the break returns to [heap_base] and the free list empties,
     so every future [malloc] takes the fresh-block path (which
     re-junks its cells); the used prefix is re-zeroed because
     inter-block gap cells are readable and a fresh memory holds zeros
     there;
   - objects: ids restart at the post-create count, so allocation
     sequence numbers (Pobjseq ordering) replay identically. *)
let reset_scratch (m : t) : unit =
  if m.stack_wlo <= m.stack_whi then begin
    let len = m.stack_whi - m.stack_wlo + 1 in
    Flags.fill m.stack_written m.stack_wlo len false;
    Flags.fill m.stack_taint m.stack_wlo len true;
    m.stack_wlo <- max_int;
    m.stack_whi <- -1
  end;
  m.sp <- stack_top m;
  m.frames <- [];
  let heap_used = m.heap_break - m.layout.Policy.heap_base in
  if heap_used > 0 then begin
    Array.fill m.heap_mem 0 heap_used Value.zero;
    Flags.fill m.heap_taint 0 heap_used true
  end;
  m.heap_break <- m.layout.Policy.heap_base;
  m.free_list <- [];
  Hashtbl.reset m.heap_by_base;
  m.nobjects <- m.initial_nobjects

(* Return the address space to its post-[create] state, reusing every
   allocation: {!reset_scratch}, plus the globals restored from the
   snapshot with taint cleared and the global objects revived. *)
let reset (m : t) : unit =
  (* only [write_abs] mutates the globals region after [create], so a
     run that never stored to a global leaves it in post-create state
     and the snapshot restore can be skipped entirely *)
  if m.globals_dirty then begin
    Array.blit m.globals_init 0 m.globals_mem 0 (Array.length m.globals_init);
    Flags.fill m.globals_taint 0 (Bytes.length m.globals_taint) false;
    m.globals_dirty <- false
  end;
  reset_scratch m;
  for id = 1 to m.initial_nobjects - 1 do
    m.objects.(id).alive <- true
  done

(* A memory for another unit over [m]'s scratch, equal to
   [create runtime globals]: [m]'s stack and heap are returned to their
   clean state ({!reset_scratch}, under [m]'s own layout), and only the
   globals region and the object table are built anew.  Clean stack and
   heap scratch hold nothing a run can observe -- a stack cell reads
   junk from [(stack_seed, addr)] of the new runtime until written, the
   heap prefix is zero with taint set, and object ids restart after the
   new globals -- so the result is a fresh memory in all but
   allocation.  A different stack size needs differently sized buffers:
   then this is [create].  [m] must not be used afterwards. *)
let rebind (m : t) (runtime : Policy.runtime) (globals : Ir.iglobal list) : t =
  if runtime.Policy.layout.Policy.stack_size <> m.layout.Policy.stack_size then
    create runtime globals
  else begin
    reset_scratch m;
    with_globals m runtime globals
  end

(* name -> object id, for Ilea *)
let global_ids (m : t) : (string, int) Hashtbl.t =
  let h = Hashtbl.create 16 in
  Array.iter
    (fun (_, id) ->
      match obj m id with Some o -> Hashtbl.replace h o.oname id | None -> ())
    m.globals_by_base;
  h

(* --- junk values --- *)

let stack_junk m addr =
  Value.Vint (Policy.uninit_value (Policy.Upattern m.stack_seed) ~addr)

let heap_junk m addr = Value.Vint (Policy.uninit_value m.uninit_heap ~addr)

(* --- absolute-address cell access --- *)

(* Region dispatch is inlined into each accessor (rather than shared
   through a [cell_ref] variant) so the hot path never allocates: the
   executor performs several cell accesses per interpreted instruction
   and a 2-word box per access dominated its GC traffic. *)

let[@inline] bad_addr addr = raise (Trapped (Trap.Segfault addr))

(* allocation-free value read; taint lives in [read_abs_taint] *)
let read_abs_v m addr : Value.t =
  let l = m.layout in
  if addr >= l.Policy.globals_base && addr < l.Policy.globals_base + m.globals_len
  then m.globals_mem.(addr - l.Policy.globals_base)
  else if addr >= l.Policy.stack_base && addr < stack_top m then begin
    let i = addr - l.Policy.stack_base in
    if Flags.get m.stack_written i then m.stack_mem.(i) else stack_junk m addr
  end
  else if addr >= l.Policy.heap_base && addr < m.heap_break then
    m.heap_mem.(addr - l.Policy.heap_base)
  else bad_addr addr

let read_abs_taint m addr : bool =
  let l = m.layout in
  if addr >= l.Policy.globals_base && addr < l.Policy.globals_base + m.globals_len
  then Flags.get m.globals_taint (addr - l.Policy.globals_base)
  else if addr >= l.Policy.stack_base && addr < stack_top m then
    Flags.get m.stack_taint (addr - l.Policy.stack_base)
  else if addr >= l.Policy.heap_base && addr < m.heap_break then
    Flags.get m.heap_taint (addr - l.Policy.heap_base)
  else bad_addr addr

let read_abs m addr : Value.t * bool = (read_abs_v m addr, read_abs_taint m addr)

let write_abs m addr (v : Value.t) ~(taint : bool) =
  let l = m.layout in
  if addr >= l.Policy.globals_base && addr < l.Policy.globals_base + m.globals_len
  then begin
    let i = addr - l.Policy.globals_base in
    m.globals_mem.(i) <- v;
    Flags.set m.globals_taint i taint;
    m.globals_dirty <- true
  end
  else if addr >= l.Policy.stack_base && addr < stack_top m then begin
    let i = addr - l.Policy.stack_base in
    m.stack_mem.(i) <- v;
    Flags.set m.stack_written i true;
    Flags.set m.stack_taint i taint;
    if i < m.stack_wlo then m.stack_wlo <- i;
    if i > m.stack_whi then m.stack_whi <- i
  end
  else if addr >= l.Policy.heap_base && addr < m.heap_break then begin
    let i = addr - l.Policy.heap_base in
    m.heap_mem.(i) <- v;
    Flags.set m.heap_taint i taint
  end
  else bad_addr addr

(* --- pointer resolution --- *)

let addr_of_ptr m (p : Value.ptr) : int =
  if Value.is_wild p then p.Value.off
  else
    match obj m p.Value.obj with
    | Some o -> o.base + p.Value.off
    | None -> raise (Trapped (Trap.Segfault p.Value.off))

(* Base address of an object, for the executor's fused slot/global
   accesses: equivalent to [addr_of_ptr] on [{obj = id; off = 0}]
   (object ids start at 1, so such a pointer is never null or wild). *)
let base_of_obj m id : int =
  match obj m id with
  | Some o -> o.base
  | None -> raise (Trapped (Trap.Segfault 0))

(* absolute address -> (object, offset), if any object contains it *)
let object_at m addr : (obj * int) option =
  let l = m.layout in
  if addr >= l.Policy.globals_base && addr < l.Policy.globals_base + m.globals_len
  then begin
    (* binary search over globals_by_base *)
    let arr = m.globals_by_base in
    let n = Array.length arr in
    let rec search lo hi acc =
      if lo > hi then acc
      else begin
        let mid = (lo + hi) / 2 in
        let base, _ = arr.(mid) in
        if base <= addr then search (mid + 1) hi (Some mid) else search lo (mid - 1) acc
      end
    in
    match search 0 (n - 1) None with
    | Some i ->
      let base, id = arr.(i) in
      let o = m.objects.(id) in
      if addr < base + o.size then Some (o, addr - base) else None
    | None -> None
  end
  else if addr >= l.Policy.stack_base && addr < stack_top m then begin
    let rec in_frames = function
      | [] -> None
      | f :: rest ->
        if addr >= f.f_base && addr < f.f_base + f.f_size then begin
          let found = ref None in
          Array.iter
            (fun (off, id) ->
              let o = m.objects.(id) in
              let b = f.f_base + off in
              if addr >= b && addr < b + o.size then found := Some (o, addr - b))
            f.f_slots;
          !found
        end
        else in_frames rest
    in
    in_frames m.frames
  end
  else if addr >= l.Policy.heap_base && addr < m.heap_break then begin
    (* scan heap blocks by base: base <= addr < base+size *)
    let found = ref None in
    Hashtbl.iter
      (fun base id ->
        let o = m.objects.(id) in
        if addr >= base && addr < base + o.size then found := Some (o, addr - base))
      m.heap_by_base;
    !found
  end
  else None

(* forge a pointer from an integer address (int-to-pointer cast) *)
let ptr_of_addr m addr : Value.ptr =
  if addr = 0 then Value.null
  else
    match object_at m addr with
    | Some (o, off) -> { Value.obj = o.id; off }
    | None -> Value.wild addr

(* --- stack frames --- *)

let grow_gap n = n (* identity; kept for clarity *)

(* Frame placement depends only on the layout policy and the slot sizes,
   so it can be computed once per function at link time: total frame size
   (gaps and alignment applied) plus per-slot offsets in slot-index
   order.  Slot *object ids* are allocation sequence numbers and must
   still be drawn at push time, in layout order. *)
type frame_layout = {
  fl_size : int;
  fl_offsets : int array;              (* slot-index order *)
}

let layout_frame (l : Policy.layout) (slots : Ir.frame_slot array) :
    frame_layout =
  let n = Array.length slots in
  let gap = grow_gap l.Policy.slot_gap in
  let raw =
    Array.fold_left (fun acc (s : Ir.frame_slot) -> acc + s.Ir.slot_size + gap) 0 slots
  in
  let align = max 1 l.Policy.frame_align in
  let size = max align ((raw + align - 1) / align * align) in
  let offsets = Array.make n 0 in
  let cursor = ref 0 in
  let place k =
    offsets.(k) <- !cursor;
    cursor := !cursor + slots.(k).Ir.slot_size + gap
  in
  if l.Policy.slots_reversed then
    for k = n - 1 downto 0 do place k done
  else
    for k = 0 to n - 1 do place k done;
  { fl_size = size; fl_offsets = offsets }

(* Push a frame with a precomputed placement, filling [ids] (length >= n,
   slot-index order) with the fresh slot object ids. *)
let push_frame_laid m (slots : Ir.frame_slot array) (fl : frame_layout)
    (ids : int array) : unit =
  let l = m.layout in
  let n = Array.length slots in
  let base = m.sp - fl.fl_size in
  if base < l.Policy.stack_base then raise (Trapped Trap.Stack_overflow);
  m.sp <- base;
  let alloc k =
    let s = slots.(k) in
    let o = fresh_obj m Kstack (base + fl.fl_offsets.(k)) s.Ir.slot_size s.Ir.slot_name in
    ids.(k) <- o.id
  in
  (* ids are sequence numbers: allocate in layout order, like placement *)
  if l.Policy.slots_reversed then
    for k = n - 1 downto 0 do alloc k done
  else
    for k = 0 to n - 1 do alloc k done;
  (* mark the frame's cells as uninitialized for taint purposes, but do NOT
     clear values: stack reuse *)
  let lo = base - l.Policy.stack_base in
  Flags.fill m.stack_taint lo fl.fl_size true;
  let f_slots = Array.init n (fun i -> (fl.fl_offsets.(i), ids.(i))) in
  m.frames <- { f_base = base; f_size = fl.fl_size; f_slots } :: m.frames

(* Compute a frame layout for [slots] (size list in slot-index order) and
   push it. Returns the slot object ids in slot-index order. *)
let push_frame m (slots : Ir.frame_slot array) : int array =
  let fl = layout_frame m.layout slots in
  let ids = Array.make (Array.length slots) 0 in
  push_frame_laid m slots fl ids;
  ids

let pop_frame m =
  match m.frames with
  | [] -> invalid_arg "Mem.pop_frame: no frame"
  | f :: rest ->
    Array.iter (fun (_, id) -> m.objects.(id).alive <- false) f.f_slots;
    m.sp <- f.f_base + f.f_size;
    m.frames <- rest

(* --- heap --- *)

let ensure_heap_capacity m needed =
  let cap = Array.length m.heap_mem in
  if needed > cap then begin
    let ncap = max needed (2 * cap) in
    let nm = Array.make ncap Value.zero in
    let nt = Flags.make ncap true in
    Array.blit m.heap_mem 0 nm 0 cap;
    Bytes.blit m.heap_taint 0 nt 0 cap;
    m.heap_mem <- nm;
    m.heap_taint <- nt
  end

let heap_limit_cells = 1 lsl 20

let malloc m (n : int) : Value.ptr =
  if n <= 0 || n > heap_limit_cells then Value.null
  else begin
    let l = m.layout in
    let reuse =
      if l.Policy.heap_reuse then begin
        let rec take acc = function
          | [] -> None
          | (base, size, old_id) :: rest when size >= n ->
            m.free_list <- List.rev_append acc rest;
            Some (base, size, old_id)
          | entry :: rest -> take (entry :: acc) rest
        in
        take [] m.free_list
      end
      else None
    in
    match reuse with
    | Some (base, _size, old_id) ->
      (* the old block's identity dies; its cells keep their contents but
         become uninitialized-for-taint *)
      Hashtbl.remove m.heap_by_base base;
      (match obj m old_id with Some o -> o.alive <- false | None -> ());
      let o = fresh_obj m Kheap base n "heap" in
      Hashtbl.replace m.heap_by_base base o.id;
      let lo = base - l.Policy.heap_base in
      Flags.fill m.heap_taint lo n true;
      { Value.obj = o.id; off = 0 }
    | None ->
      let base = m.heap_break in
      let o = fresh_obj m Kheap base n "heap" in
      m.heap_break <- base + n + l.Policy.heap_gap;
      ensure_heap_capacity m (m.heap_break - l.Policy.heap_base);
      Hashtbl.replace m.heap_by_base base o.id;
      (* fresh block: junk contents per policy *)
      let lo = base - l.Policy.heap_base in
      Flags.fill m.heap_taint lo n true;
      for i = 0 to n - 1 do
        m.heap_mem.(lo + i) <- heap_junk m (base + i)
      done;
      { Value.obj = o.id; off = 0 }
  end

(* Returns what kind of free this was, so sanitizer hooks can classify it:
   [`Ok], [`Double] or [`Invalid]. Without a sanitizer, a double free
   corrupts the free list exactly like a real allocator; an invalid free
   aborts like glibc. *)
let free m (p : Value.ptr) : [ `Ok | `Double | `Invalid | `Null ] =
  if Value.is_null p then `Null
  else if Value.is_wild p then `Invalid
  else
    match obj m p.Value.obj with
    | None -> `Invalid
    | Some o ->
      if o.kind <> Kheap || p.Value.off <> 0 then `Invalid
      else if not o.alive then begin
        (* double free: push the block again (allocator corruption) *)
        m.free_list <- (o.base, o.size, o.id) :: m.free_list;
        `Double
      end
      else begin
        o.alive <- false;
        m.free_list <- (o.base, o.size, o.id) :: m.free_list;
        `Ok
      end
