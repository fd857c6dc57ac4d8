(* An engine session: the compile -> link -> observe pipeline behind
   content-addressed caches.

   Every consumer of the pipeline (oracle, reduction, localization,
   fuzzing, sanitizer builds, benchmarks, CLI) used to re-run each stage
   ad hoc; a session makes the three stages shared services:

     compile : typed program  -> per-profile binary   (unit cache)
     link    : binary         -> executable image     (image cache)
     run     : image x inputs -> raw observations     (observation store)

   Cache keys are content hashes: a typed program or compiled unit is
   keyed by (length, murmur3 seed A, murmur3 seed B) of its [Marshal]
   serialization (a program's as its globals and each typed function,
   length-prefixed, so the function bytes also root the function memo's
   keys).  Both types are pure data (no closures, no custom
   blocks), so equal serializations imply structural equality, which
   implies behavioural equality of everything derived from them — a hit
   can only substitute an identical artefact, up to the ~2^-64 residual
   collision probability of the double 32-bit hash over equal lengths.

   The observation store memoizes [run_batch] keyed by (image key, fuel,
   input), the image key in its stable rendering, the one the disk tier
   addresses observations by.  The VM is deterministic: a linked image
   run on a given input under a given fuel budget produces exactly one
   (stdout, status, fuel_used) triple, so replaying from the store is
   observationally identical to re-executing.  Two restrictions keep this sound:
   - observations are stored RAW (pre-normalization); callers apply
     their own output filter on retrieval, so oracles with different
     normalizers can share a store;
   - only plain runs go through [run_batch].  Executions that differ in more
     than (image, input, fuel) — sanitizer hooks, coverage, print
     tracing — must call the VM directly ([image] exposes the linked
     image for exactly that).

   The store admits an observation on its key's second request (the
   doorkeeper below): most executions of a fuzzing campaign are never
   requested again, and keeping them only fed the GC.

   An image evicted from the cache and re-linked later has the same key,
   a function of the unit that produced it, so its stored observations
   stay valid with no table of ids.

   Below the unit cache sits the function memo ({!Cdcompiler.Fmemo}):
   every per-function stage -- lowering, the pass stack, linking and the
   signature's dataflow facts -- is looked up per function, so a
   unit-cache miss recomputes only the functions the program does not
   share with an earlier compile.  Each typed function is serialized
   once per program; those bytes root its keys and derive the unit key.
   Memo keys are exact paths, so the memo needs no collision argument at
   all.  Units skip the line-table rebuild, which only instruction-level
   localization reads and asks for itself ({!Pipeline.with_lines}).

   Bounded memory: each cache is an {!Lru} bounded in bytes; the
   [cache_mb] budget is split 12.5% units / 12.5% function memo / 25%
   images / 50% observations.  [cache_mb = 0] disables caching entirely —
   every unit is a fresh, lined {!Pipeline.compile} and no memo is
   consulted, which is the reference behaviour cross-validation
   compares against. *)

open Cdcompiler

type cache_stats = Lru.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type disk_stats = Diskcache.stats = {
  disk_hits : int;
  disk_misses : int;
  disk_stores : int;
  disk_bytes : int;
  disk_entries : int;
}

(* lookups of one per-function stage in the function memo *)
type stage_stats = { stage_hits : int; stage_misses : int }

type stats = {
  units : cache_stats;
  funcs : cache_stats;   (* the per-function memo, every stage *)
  stages : (string * stage_stats) list;  (* lower, passes, link, sign *)
  images : cache_stats;
  observations : cache_stats;
  budget_bytes : int;
  caching : bool;
  key_calls : int;       (* serializations for keys: one per typed function
                            of a program, one per unit keyed by content *)
  key_seconds : float;   (* wall time spent computing content keys *)
  declined : int;        (* executed observations the doorkeeper kept out *)
  disk : disk_stats option;  (* None when no --disk-cache directory *)
}

(* content key: serialization length + two independent 32-bit hashes *)
type key = int * int * int

(* image key: the compiled unit is already content-addressed by the
   (program key, profile) pair that produced it, so the link stage can
   reuse that identity instead of re-serializing the whole unit.  Units
   linked directly (never seen by [compile]) fall back to their own
   content key with an empty profile tag. *)
type ikey = key * string

type linked = {
  image : Cdvm.Image.t;
  skey : string;
      (* stable (cross-process) rendering of the image key, which keys
         its observations in memory and on disk; "" for the detached
         images of a caching-disabled session, which store nothing *)
}

(* A bounded identity memo: physical value -> key, so re-keying the same
   program/unit costs a pointer scan instead of a Marshal of the whole
   structure (the engine cold-pass regression: every lookup used to
   serialize + double-hash its argument).  Linear scan over a small ring
   is cheap (<= 64 physical-equality tests) and the ring bound keeps
   evicted-value references from pinning memory forever. *)
module Memo = struct
  type 'a t = {
    mutex : Mutex.t;
    keys : Obj.t array;
    values : 'a option array;
    mutable cursor : int;
  }

  let size = 64
  let nothing = Obj.repr (ref ())  (* unique sentinel, never a user value *)

  let create () =
    {
      mutex = Mutex.create ();
      keys = Array.make size nothing;
      values = Array.make size None;
      cursor = 0;
    }

  let find t (v : Obj.t) : 'a option =
    Mutex.lock t.mutex;
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < size do
      if t.keys.(!i) == v then found := t.values.(!i);
      incr i
    done;
    Mutex.unlock t.mutex;
    !found

  let add t (v : Obj.t) (x : 'a) : unit =
    Mutex.lock t.mutex;
    t.keys.(t.cursor) <- v;
    t.values.(t.cursor) <- Some x;
    t.cursor <- (t.cursor + 1) mod size;
    Mutex.unlock t.mutex
end

(* The observation store's admission filter (TinyLFU's doorkeeper): a
   bitmap of key fingerprints, two probes per key.  [admit] answers
   whether a key's fingerprint was recorded before and records it if
   not, so a key is admitted on its second request.  Bits are set and
   cleared without a lock: a lost or cleared bit only makes a repeated
   key look new, which costs one extra execution and never changes a
   result (DESIGN.md 10.6). *)
module Doorkeeper = struct
  type t = {
    bits : Bytes.t;
    mask : int;                 (* bit count - 1; the count is a power of 2 *)
    recorded : int Atomic.t;    (* fingerprints recorded since the last clear *)
    limit : int;                (* clear at an eighth of the bits *)
  }

  let create ~nbits =
    let n = ref 8 in
    while !n < nbits do n := !n * 2 done;
    {
      bits = Bytes.make (!n / 8) '\000';
      mask = !n - 1;
      recorded = Atomic.make 0;
      limit = !n / 8;
    }

  let clear t =
    Atomic.set t.recorded 0;
    Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

  let get t h =
    let i = h land t.mask in
    Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set t h =
    let i = h land t.mask in
    let b = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) in
    Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (b lor (1 lsl (i land 7))))

  let seen t h1 h2 = get t h1 && get t h2

  let admit t h1 h2 =
    if seen t h1 h2 then true
    else begin
      set t h1;
      set t h2;
      if Atomic.fetch_and_add t.recorded 1 + 1 >= t.limit then clear t;
      false
    end
end

(* [compute ()], computed by the first call and shared by every later
   one.  Nothing blocks: calls that race on an empty cell each compute,
   and all but the first to store drop theirs, so [compute] must be
   deterministic. *)
let once (compute : unit -> 'a) : unit -> 'a =
  let v = Atomic.make None in
  fun () ->
    match Atomic.get v with
    | Some x -> x
    | None ->
        let x = compute () in
        if Atomic.compare_and_set v None (Some x) then x
        else Option.get (Atomic.get v)

(* A function-memo entry: the output of one per-function stage.  Keys
   of different stages differ in their tag, so a key always finds the
   constructor of its own stage. *)
type fvalue =
  | Lowered of Ir.ifunc             (* lowering *)
  | Passed of Ir.ifunc * Fmemo.key  (* a pass stack: the function and its
                                       key (its bytes', or the input's
                                       when unchanged) *)
  | Lfunc of Cdvm.Image.lfunc       (* linking *)
  | Fact of bool                    (* a signature's per-function fact *)

type counter = { c_hits : int Atomic.t; c_misses : int Atomic.t }

(* a program as the stores see it: its unit-store key and the root keys
   of its functions *)
type source = { pkey : key; sources : Fmemo.key list }

type t = {
  caching : bool;
  budget_bytes : int;
  unit_cache : (ikey, Ir.unit_) Lru.t;
  func_cache : (Fmemo.key, fvalue) Lru.t;  (* every per-function stage *)
  counters : (string * counter) list;  (* per stage, in [stage_names] order *)
  lower_memo : Ir.ifunc Fmemo.t;
  pass_memo : Pipeline.memo;
  link_memo : Cdvm.Image.lfunc Fmemo.t;
  sign_memo : bool Fmemo.t;
  image_cache : (ikey, linked) Lru.t;
  obs_cache : (string * int * string, Cdvm.Exec.result) Lru.t;
      (* (skey, fuel, input) -> raw, NOT normalized *)
  door : Doorkeeper.t;          (* admission to [obs_cache] *)
  declined : int Atomic.t;
  prog_memo : source Memo.t;    (* tprogram (by identity) -> its keys *)
  unit_memo : (ikey * Fmemo.key list option) Memo.t;
      (* unit (by identity) -> image key, and its function keys when
         this session compiled it *)
  key_calls : int Atomic.t;
  key_micros : int Atomic.t;
  disk : Diskcache.t option;
}

let key_seed_b = 0x9747b28cl

let key_of_string (s : string) : key =
  ( String.length s,
    Cdutil.Murmur3.hash s,
    Cdutil.Murmur3.hash ~seed:key_seed_b s )

(* [key_of_string] of the parts, each prefixed by its length so the
   encoding is injective, without building the concatenation *)
let key_of_parts (parts : string list) : key =
  let framed =
    List.concat_map (fun p -> [ string_of_int (String.length p) ^ ":"; p ]) parts
  in
  let h seed = Int32.to_int (Cdutil.Murmur3.hash32_parts ?seed framed) land 0x3FFFFFFF in
  ( List.fold_left (fun n p -> n + String.length p) 0 framed,
    h None,
    h (Some key_seed_b) )

(* [f ()]'s value, counted as key work: its wall time, and the number of
   serializations it reports *)
let timed t (f : unit -> 'a * int) : 'a =
  let t0 = Unix.gettimeofday () in
  let x, calls = f () in
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Atomic.fetch_and_add t.key_calls calls);
  ignore (Atomic.fetch_and_add t.key_micros (int_of_float (dt *. 1e6)));
  x

let timed_key t (serialize : unit -> string) : key =
  timed t (fun () -> (key_of_string (serialize ()), 1))

(* [tp]'s function keys, each typed function serialized once, and its
   unit-store key: a content key of the globals and those bytes *)
let source_of (tp : Minic.Tast.tprogram) : source =
  let sources = Lower.sources tp in
  {
    pkey =
      key_of_parts
        (Fmemo.bytes tp.Minic.Tast.tglobals :: List.map Fmemo.root_bytes sources);
    sources;
  }

(* the smallest weight of a stored observation (see [obs_weight]) *)
let obs_overhead_bytes = 64

let func_weight (f : Ir.ifunc) : int =
  160
  + (Array.length f.Ir.code * 120)
  + (Array.length f.Ir.slots * 48)
  + (Array.length f.Ir.code_lines * 8)

(* as a function's share of [image_weight] below *)
let lfunc_weight (lf : Cdvm.Image.lfunc) : int =
  128
  + (Array.length lf.Cdvm.Image.l_ops * 128)
  + (Array.length lf.Cdvm.Image.l_slots * 48)

let fvalue_weight = function
  | Lowered f -> func_weight f
  | Passed (f, k) -> func_weight f + Fmemo.weight k
  | Lfunc lf -> lfunc_weight lf
  | Fact _ -> 16

let stage_names = [ "lower"; "passes"; "link"; "sign" ]

(* the smallest weight of a function-memo entry: a fact and its key *)
let func_overhead_bytes = 128

(* the doorkeeper's second probe of a function-memo key *)
let func_door_seed = 0x2545f491

(* One stage's view of the function memo, counting its own hits and
   misses.  An entry weighs its value and its key ([Fmemo.weight]);
   [roots] adds the bytes of the root its key derives from, for the
   lowering, whose entries hold the program's serialized functions.
   With [door], a key is admitted on its second request, as in the
   observation store: its first is computed, counted as a miss, and
   neither looked up nor stored. *)
let stage_memo ?(roots = false) ?door func_cache (c : counter)
    (wrap : 'a -> fvalue) (unwrap : fvalue -> 'a option) : 'a Fmemo.t =
  let admitted (key : Fmemo.key) =
    match door with
    | None -> true
    | Some door ->
        Doorkeeper.admit (door ()) key.Fmemo.hash
          (Hashtbl.hash (key.Fmemo.hash lxor func_door_seed))
  in
  let stored key compute =
    let fresh = ref false in
    let key_weight =
      Fmemo.weight key + if roots then String.length (Fmemo.root_bytes key) else 0
    in
    let v =
      Lru.find_or_compute_hashed func_cache key.Fmemo.hash key
        ~weight:(fun v -> key_weight + fvalue_weight v)
        (fun () ->
          fresh := true;
          wrap (compute ()))
    in
    Atomic.incr (if !fresh then c.c_misses else c.c_hits);
    match unwrap v with
    | Some x -> x
    | None -> invalid_arg "Session: a function-memo key of another stage"
  in
  {
    Fmemo.find_or_compute =
      (fun key compute ->
        if admitted key then stored key compute
        else begin
          Lru.count_miss func_cache;
          Atomic.incr c.c_misses;
          compute ()
        end);
  }

let create ?(cache_mb = 128) ?disk_dir ?(disk_mb = 512) () : t =
  let cache_mb = max 0 cache_mb in
  let budget_bytes = cache_mb * 1024 * 1024 in
  let caching = cache_mb > 0 in
  (* looked up from every pool domain for every function: striped, so
     the domains do not queue on one mutex *)
  let func_cache =
    Lru.create_striped ~stripes:16 ~budget_bytes:(budget_bytes / 8)
  in
  let counters =
    List.map
      (fun n -> (n, { c_hits = Atomic.make 0; c_misses = Atomic.make 0 }))
      stage_names
  in
  (* the stages after the pass stack admit on the second request; the
     bitmap is made on first use, so a session that never compiles pays
     nothing for it *)
  let door =
    once (fun () -> Doorkeeper.create ~nbits:(budget_bytes / 8 / func_overhead_bytes))
  in
  let memo ?roots ?door name =
    stage_memo ?roots ?door func_cache (List.assoc name counters)
  in

  {
    caching;
    budget_bytes;
    unit_cache = Lru.create ~budget_bytes:(budget_bytes / 8);
    func_cache;
    counters;
    lower_memo =
      memo ~roots:true ~door "lower"
        (fun f -> Lowered f)
        (function Lowered f -> Some f | _ -> None);
    pass_memo =
      memo "passes"
        (fun (f, k) -> Passed (f, k))
        (function Passed (f, k) -> Some (f, k) | _ -> None);
    link_memo =
      memo ~door "link" (fun lf -> Lfunc lf) (function Lfunc lf -> Some lf | _ -> None);
    sign_memo =
      memo ~door "sign" (fun x -> Fact x) (function Fact x -> Some x | _ -> None);
    image_cache = Lru.create ~budget_bytes:(budget_bytes / 4);
    obs_cache = Lru.create ~budget_bytes:(budget_bytes / 2);
    (* one bit per smallest entry the observation budget holds *)
    door = Doorkeeper.create ~nbits:(budget_bytes / 2 / obs_overhead_bytes);
    declined = Atomic.make 0;
    prog_memo = Memo.create ();
    unit_memo = Memo.create ();
    key_calls = Atomic.make 0;
    key_micros = Atomic.make 0;
    disk =
      (* the disk layer sits behind the LRUs; with caching disabled the
         session is the recompute-everything reference and must not be
         served from any store *)
      (match disk_dir with
      | Some dir when caching -> Some (Diskcache.create ~dir ~cap_mb:disk_mb ())
      | Some _ | None -> None);
  }

let caching t = t.caching
let budget_bytes t = t.budget_bytes

(* Cheap structural size estimates (bytes).  [Obj.reachable_words] was
   accurate but traversed the whole artefact on every insert — on a cold
   pass that traversal rivalled the compile it was accounting for.  The
   constants approximate observed reachable sizes per instruction. *)
let unit_weight (u : Ir.unit_) : int =
  List.fold_left
    (fun acc (_, (f : Ir.ifunc)) ->
      acc + 160 + (Array.length f.Ir.code * 120) + (Array.length f.Ir.slots * 48))
    (512 + (List.length u.Ir.globals * 64))
    u.Ir.funcs

(* An image-cache entry is a [linked] handle, which pins the threaded
   ops, the pre-boxed immediates, the global-id table and the source unit
   ([Image.unit_]).  It holds no execution scratch: runs use the domain's
   arena.  The constants are fitted to [Obj.reachable_words] of linked
   images: on the Juliet units and the project targets, every profile,
   the estimate is 0.76-1.52x the measured bytes, with a median of 1.01
   on both (DESIGN.md 10.3; [suite_engine] checks it stays within 2x). *)
let image_weight (img : Cdvm.Image.t) : int =
  Array.fold_left (fun acc lf -> acc + lfunc_weight lf) 1024 img.Cdvm.Image.funcs

(* stable rendering of an image key for cross-process disk addressing *)
let skey_of_ikey (((len, h1, h2), pname) : ikey) : string =
  Printf.sprintf "%d.%x.%x.%s" len h1 h2 pname

(* --- compile --- *)

(* [tp]'s keys, remembered by identity: a program is serialized once
   however many profiles and lookups ask for it *)
let source_memo t (tp : Minic.Tast.tprogram) : source =
  let r = Obj.repr tp in
  match Memo.find t.prog_memo r with
  | Some src -> src
  | None ->
      let src =
        timed t (fun () ->
            let src = source_of tp in
            (src, List.length src.sources))
      in
      Memo.add t.prog_memo r src;
      src

(* [tp] lowered under [lw], each function through the memo *)
let lower_memoized t (src : source) lw tp : Lower.lowered =
  Lower.lower_program ~memo:{ Fmemo.keys = src.sources; memo = t.lower_memo } lw tp

let unit_disk_kind = "unit"

(* The unit of [profile] from the store, the disk cache, or compiled
   from [lowering ()] (a lowering of the program [src] keys under
   [profile]'s lowering policy) through the function memo.  Session
   units carry no rebuilt line tables ({!Pipeline.with_lines} adds them
   on demand).  Caching sessions only: a caching-disabled one compiles
   with the lined reference {!Pipeline.compile}. *)
let compile_keyed t (src : source) (profile : Policy.profile)
    ~(lowering : unit -> Lower.lowered) : Ir.unit_ =
  let ik = (src.pkey, profile.Policy.pname) in
  let fkeys = ref None in
  let u =
    Lru.find_or_compute t.unit_cache ik ~weight:unit_weight (fun () ->
        let dkey = skey_of_ikey ik in
        let from_disk =
          match t.disk with
          | Some d -> (Diskcache.get d ~kind:unit_disk_kind dkey : Ir.unit_ option)
          | None -> None
        in
        match from_disk with
        | Some u -> u
        | None ->
            let u, keys = Pipeline.optimize_keyed t.pass_memo profile (lowering ()) in
            fkeys := Some keys;
            (match t.disk with
            | Some d -> Diskcache.put d ~kind:unit_disk_kind dkey u
            | None -> ());
            u)
  in
  (* the unit's image key is known here for free, and its function keys
     when it was just compiled: remember them so [link] never has to
     serialize the unit, and links and signs it through the memo.  A
     stored unit no longer remembered here, or read from disk, has no
     function keys and is linked and signed without the memo. *)
  (match Memo.find t.unit_memo (Obj.repr u) with
  | Some _ -> ()
  | None -> Memo.add t.unit_memo (Obj.repr u) (ik, !fkeys));
  u

let compile t (profile : Policy.profile) (tp : Minic.Tast.tprogram) : Ir.unit_ =
  if not t.caching then Pipeline.compile profile tp
  else
    let src = source_memo t tp in
    compile_keyed t src profile
      ~lowering:(fun () -> lower_memoized t src (Policy.lowering_of profile) tp)

(* Lowering reads only a profile's {!Policy.lowering}, so the profiles
   share one lowering per distinct policy (the ten implementations have
   four).  It is computed by the first compile that needs it, so a
   profile whose unit is stored in memory or on disk never lowers, and
   the unit counters see exactly one lookup per profile.  Lowering on
   demand inside the one parallel map, rather than in a parallel phase of
   its own, costs no extra pool round trip per program, and a domain
   never waits for another's lowering: two compiles that need the same
   policy at the same moment both lower it (DESIGN.md 10.5). *)
let compile_profiles ?(jobs = Cdutil.Pool.default_jobs ()) t
    (profiles : Policy.profile list) (tp : Minic.Tast.tprogram) :
    (string * Ir.unit_) list =
  let one =
    if not t.caching then fun p -> (p.Policy.pname, Pipeline.compile p tp)
    else begin
      (* serialize the program once for all profiles *)
      let src = source_memo t tp in
      let lowerings =
        List.map
          (fun lw -> (lw, once (fun () -> lower_memoized t src lw tp)))
          (List.sort_uniq compare (List.map Policy.lowering_of profiles))
      in
      fun p ->
        let lowering = List.assoc (Policy.lowering_of p) lowerings in
        (p.Policy.pname, compile_keyed t src p ~lowering)
    end
  in
  if jobs > 1 then Cdutil.Pool.map one profiles else List.map one profiles

(* --- link --- *)

(* [u]'s image key and, when this session compiled it, its function
   keys *)
let unit_keys t (u : Ir.unit_) : ikey * Fmemo.key list option =
  let r = Obj.repr u in
  match Memo.find t.unit_memo r with
  | Some keys -> keys
  | None ->
      (* a unit that never went through [compile]: key it by its own
         content, tagged with an empty profile name so it cannot collide
         with a (program, profile) key *)
      let keys = ((timed_key t (fun () -> Marshal.to_string u []), ""), None) in
      Memo.add t.unit_memo r keys;
      keys

let link t (u : Ir.unit_) : linked =
  if not t.caching then { image = Cdvm.Image.link u; skey = "" }
  else
    let key, fkeys = unit_keys t u in
    Lru.find_or_compute t.image_cache key
      ~weight:(fun l -> image_weight l.image)
      (fun () ->
        let memo = Option.map (fun keys -> { Fmemo.keys; memo = t.link_memo }) fkeys in
        { image = Cdvm.Image.link ?memo u; skey = skey_of_ikey key })

(* The signature memo for [u]: its function keys and the session's
   store of per-function facts, when this session compiled [u]. *)
let facts_memo t (u : Ir.unit_) : bool Fmemo.keyed option =
  if not t.caching then None
  else
    match Memo.find t.unit_memo (Obj.repr u) with
    | Some (_, Some keys) -> Some { Fmemo.keys; memo = t.sign_memo }
    | Some (_, None) | None -> None

let image (l : linked) = l.image

(* --- run --- *)

let obs_weight input (o : Cdvm.Exec.result) =
  String.length o.Cdvm.Exec.stdout + String.length input + obs_overhead_bytes

let obs_disk_kind = "obs"

(* the disk observation key: stable image key + fuel + exact input *)
let obs_dkey (l : linked) ~(fuel : int) ~(input : string) : string =
  Printf.sprintf "%s|%d|%s" l.skey fuel input

(* a caching-disabled session has no disk tier, so a detached image
   never reaches one *)
let disk_get t (l : linked) ~fuel input : Cdvm.Exec.result option =
  match t.disk with
  | None -> None
  | Some d -> Diskcache.get d ~kind:obs_disk_kind (obs_dkey l ~fuel ~input)

let disk_put t (l : linked) ~fuel input (o : Cdvm.Exec.result) =
  match t.disk with
  | Some d -> Diskcache.put d ~kind:obs_disk_kind (obs_dkey l ~fuel ~input) o
  | None -> ()

(* the doorkeeper's second probe; the first is the LRU's own hash *)
let door_seed = 0x2545f491

(* An input's observation key, its LRU hash, and whether the doorkeeper
   has seen the key; [record] also records an unseen one (admission). *)
let door_key t (l : linked) ~fuel ~record input =
  let mkey = (l.skey, fuel, input) in
  let h = Hashtbl.hash mkey in
  let h2 = Hashtbl.seeded_hash door_seed mkey in
  ( mkey,
    h,
    if record then Doorkeeper.admit t.door h h2 else Doorkeeper.seen t.door h h2
  )

(* The one cached-execution path, in two phases.  [lookup] asks the
   stores for every input and counts each as one hit or one miss;
   [run_misses] executes what they lacked -- all misses as ONE VM batch
   on the calling domain's arena ({!Cdvm.Exec.run_batch}) instead of an
   acquire/validate/reset cycle per input -- and writes it back.
   [run_batch] is the two phases back to back.  A single run is the
   one-input batch, so the loops below avoid per-call closures.

   Admission: the in-memory store only holds keys requested at least
   twice.  A key the doorkeeper has not seen is recorded there and
   counted as a miss without touching the LRU; once executed, its
   observation is returned but not stored ([declined]).  A key seen
   before is looked up, and stored on a miss.  The disk tier is not
   filtered: a memory miss still consults it, and every execution is
   written through, so cross-process reuse is as before. *)
type lookup = {
  found : Cdvm.Exec.result option array;
  misses : int array;
  admitted : bool array;
}

let lookup t (l : linked) ~(inputs : string array) ~(fuel : int) : lookup =
  let n = Array.length inputs in
  if not t.caching then
    {
      found = Array.make n None;
      misses = Array.init n Fun.id;
      admitted = Array.make n false;
    }
  else begin
    let found = Array.make n None
    and misses = ref []
    and admitted = ref [] in
    for i = 0 to n - 1 do
      let input = inputs.(i) in
      let mkey, h, seen = door_key t l ~fuel ~record:true input in
      let o =
        if seen then
          match Lru.find_hashed t.obs_cache h mkey with
          | Some _ as hit -> hit
          | None ->
              (* a disk hit of an admitted key is promoted into memory *)
              let o = disk_get t l ~fuel input in
              Option.iter
                (fun o ->
                  Lru.put t.obs_cache mkey o ~weight:(obs_weight input o))
                o;
              o
        else begin
          Lru.count_miss t.obs_cache;
          disk_get t l ~fuel input
        end
      in
      match o with
      | None ->
          misses := i :: !misses;
          admitted := seen :: !admitted
      | hit -> found.(i) <- hit
    done;
    {
      found;
      misses = Array.of_list (List.rev !misses);
      admitted = Array.of_list (List.rev !admitted);
    }
  end

let run_misses t (l : linked) ~(inputs : string array) ~(fuel : int)
    (lk : lookup) : Cdvm.Exec.result array =
  let out = Array.copy lk.found in
  if Array.length lk.misses > 0 then begin
    (* the misses run in input order *)
    let config = { Cdvm.Exec.default_config with Cdvm.Exec.fuel } in
    let fresh =
      Cdvm.Exec.run_batch ~config l.image
        ~inputs:(Array.map (fun i -> inputs.(i)) lk.misses)
    in
    (* counted once per batch: batches of several domains share it *)
    let declined = ref 0 in
    Array.iteri
      (fun j i ->
        let input = inputs.(i) and o = fresh.(j) in
        if t.caching then begin
          if lk.admitted.(j) then
            Lru.put t.obs_cache (l.skey, fuel, input) o
              ~weight:(obs_weight input o)
          else incr declined;
          disk_put t l ~fuel input o
        end;
        out.(i) <- Some o)
      lk.misses;
    if !declined > 0 then ignore (Atomic.fetch_and_add t.declined !declined)
  end;
  Array.map Option.get out

let run_batch t (l : linked) ~(inputs : string array) ~(fuel : int) :
    Cdvm.Exec.result array =
  run_misses t l ~inputs ~fuel (lookup t l ~inputs ~fuel)

(* The memory-only probe: every input's observation from the in-memory
   store, or [None] at the first one it lacks.  It counts nothing and
   records nothing in the doorkeeper, so a caller that falls back to
   [lookup] still counts each input once and a key's first request is
   still declined.  A key whose fingerprint is absent is a miss even if
   it is stored, as [lookup] would not consult memory for it.  A caller
   that keeps the results counts them with [count_hits]. *)
let probe t (l : linked) ~(inputs : string array) ~(fuel : int) :
    Cdvm.Exec.result array option =
  if not t.caching then None
  else
    let stored input =
      let mkey, h, seen = door_key t l ~fuel ~record:false input in
      if not seen then raise_notrace Exit;
      match Lru.peek_hashed t.obs_cache h mkey with
      | Some o -> o
      | None -> raise_notrace Exit
    in
    match Array.map stored inputs with
    | found -> Some found
    | exception Exit -> None

let count_hits t n = Lru.count_hits t.obs_cache n

(* --- stats --- *)

let stats t =
  {
    units = Lru.stats t.unit_cache;
    funcs = Lru.stats t.func_cache;
    stages =
      List.map
        (fun (n, c) ->
          (n, { stage_hits = Atomic.get c.c_hits; stage_misses = Atomic.get c.c_misses }))
        t.counters;
    images = Lru.stats t.image_cache;
    observations = Lru.stats t.obs_cache;
    budget_bytes = t.budget_bytes;
    caching = t.caching;
    key_calls = Atomic.get t.key_calls;
    key_seconds = float_of_int (Atomic.get t.key_micros) /. 1e6;
    declined = Atomic.get t.declined;
    disk = Option.map Diskcache.stats t.disk;
  }

let reset_stats t =
  Lru.reset_stats t.unit_cache;
  Lru.reset_stats t.func_cache;
  List.iter
    (fun (_, c) ->
      Atomic.set c.c_hits 0;
      Atomic.set c.c_misses 0)
    t.counters;
  Lru.reset_stats t.image_cache;
  Lru.reset_stats t.obs_cache;
  Atomic.set t.key_calls 0;
  Atomic.set t.key_micros 0;
  Atomic.set t.declined 0

let hit_rate (c : cache_stats) =
  let total = c.hits + c.misses in
  if total = 0 then 0. else float_of_int c.hits /. float_of_int total

(* the counters as JSON: the "session" member of the --stats object and
   of the serve daemon's stats *)
let cache_json (c : cache_stats) : Cdutil.Json.t =
  Obj
    [ ("hits", Int c.hits); ("misses", Int c.misses);
      ("hit_rate", Float (hit_rate c)); ("evictions", Int c.evictions);
      ("entries", Int c.entries); ("bytes", Int c.bytes) ]

let stats_json (s : stats) : Cdutil.Json.t =
  let disk : Cdutil.Json.t =
    match s.disk with
    | None -> Null
    | Some d ->
        Obj
          [ ("hits", Int d.disk_hits); ("misses", Int d.disk_misses);
            ("stores", Int d.disk_stores); ("bytes", Int d.disk_bytes);
            ("entries", Int d.disk_entries) ]
  in
  Obj
    [ ("caching", Bool s.caching); ("budget_bytes", Int s.budget_bytes);
      ("units", cache_json s.units); ("funcs", cache_json s.funcs);
      ( "stages",
        Obj
          (List.map
             (fun (n, st) ->
               (n, Cdutil.Json.Obj [ ("hits", Int st.stage_hits); ("misses", Int st.stage_misses) ]))
             s.stages) );
      ("images", cache_json s.images);
      ("observations", cache_json s.observations);
      ("declined", Int s.declined); ("disk", disk);
      ("key_calls", Int s.key_calls); ("key_seconds", Float s.key_seconds) ]
