(* Persistent execution arenas.

   A fresh run of the reference interpreter allocates an entire address
   space ({!Mem.create}: several stack-sized arrays plus global
   placement), an output buffer, and three register-file arrays per
   call.  An arena owns all of that scratch state and is *reset* between
   runs instead of reallocated:

   - the memory returns to its post-create state via {!Mem.reset}
     (see the soundness argument there);
   - the output buffer is cleared but keeps its backing storage;
   - register files live in a per-call-depth scratch pool.  A frame at
     depth [d] always uses [scratch.(d)], so caller and callee never
     alias; acquisition clears only the written-flags (values and taint
     are gated by them), and the junk a never-written register reads is
     derived from [(frame_seq, reg)] alone, which {!Exec.run_linked}
     restarts at 0 every run -- so reused scratch is indistinguishable
     from fresh arrays.

   An arena is bound to one image at a time.  One made by {!create} for
   a caller stays bound to that image ({!Exec.run_linked} rejects any
   other).  Each domain also owns one arena ({!with_domain}) that
   {!Exec.run_linked} uses when no arena is passed; it is {e rebound}
   from image to image: {!Mem.rebind} rebuilds only the globals region
   and object table over the same stack and heap buffers, and the
   output buffer and register scratch carry over as they do between
   runs of one image.  A run on a rebound arena is therefore the same
   as a run on a fresh one, and the address space is allocated once per
   domain instead of once per image.

   Arenas are single-domain scratch: never share one across concurrent
   runs. *)

type scratch = {
  mutable s_regs : Value.t array;
  mutable s_taint : bool array;
  mutable s_written : bool array;
  mutable s_slots : int array;     (* slot object ids, slot-index order *)
}

type t = {
  mutable image : Image.t;
  mutable mem : Mem.t;
  out : Buffer.t;
  scratch : scratch array;         (* indexed by call depth *)
}

(* call-depth limit; [Trap.Stack_overflow] past this *)
let max_depth = 256

let create (image : Image.t) : t =
  {
    image;
    mem = Mem.create image.Image.runtime image.Image.globals;
    out = Buffer.create 256;
    scratch =
      Array.init max_depth (fun _ ->
          { s_regs = [||]; s_taint = [||]; s_written = [||]; s_slots = [||] });
  }

let reset (a : t) : unit =
  Mem.reset a.mem;
  Buffer.clear a.out

(* Bind [a] to [img], ready for a run: a reset when it already is, a
   {!Mem.rebind} otherwise. *)
let rebind (a : t) (img : Image.t) : unit =
  if a.image == img then reset a
  else begin
    a.mem <- Mem.rebind a.mem img.Image.runtime img.Image.globals;
    a.image <- img;
    Buffer.clear a.out
  end

(* The domain's arena slot.  It is taken (emptied) for the duration of
   a use, so a second systhread of the same domain finds it empty and
   runs on an arena of its own instead of sharing one. *)
let domain_slot : t option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

(* [with_domain img f]: [f] on the calling domain's arena, bound to
   [img] and reset. *)
let with_domain (img : Image.t) (f : t -> 'a) : 'a =
  let slot = Domain.DLS.get domain_slot in
  let a =
    match Atomic.exchange slot None with
    | Some a ->
        rebind a img;
        a
    | None -> create img
  in
  Fun.protect ~finally:(fun () -> Atomic.set slot (Some a)) (fun () -> f a)
