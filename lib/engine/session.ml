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
   serialization.  Both types are pure data (no closures, no custom
   blocks), so equal serializations imply structural equality, which
   implies behavioural equality of everything derived from them — a hit
   can only substitute an identical artefact, up to the ~2^-64 residual
   collision probability of the double 32-bit hash over equal lengths.

   The observation store memoizes [run_batch] keyed by (image id, fuel,
   input).  The VM is deterministic: a linked image run on a given input
   under a given fuel budget produces exactly one (stdout, status,
   fuel_used) triple, so replaying from the store is observationally
   identical to re-executing.  Two restrictions keep this sound:
   - observations are stored RAW (pre-normalization); callers apply
     their own output filter on retrieval, so oracles with different
     normalizers can share a store;
   - only plain runs go through [run_batch].  Executions that differ in more
     than (image, input, fuel) — sanitizer hooks, coverage, print
     tracing — must call the VM directly ([image] exposes the linked
     image for exactly that).

   Image ids are interned per unit key and never reused, so an image
   evicted from the cache and re-linked later gets the same id and its
   stored observations stay valid.

   Below the unit cache sits the function memo ({!Pipeline.memo}): a
   unit-cache miss still re-runs lowering, but the per-function pass
   stacks and line-table rebuilds of every function the program shares
   with an earlier compile are served from it.  Its keys are the exact
   serialized stage inputs, so it needs no collision argument at all.

   Bounded memory: each cache is an {!Lru} bounded in bytes; the
   [cache_mb] budget is split 12.5% units / 12.5% function memo / 25%
   images / 50% observations.  [cache_mb = 0] disables caching entirely —
   every stage recomputes and no memo is consulted, which is the
   reference behaviour cross-validation compares against. *)

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

type stats = {
  units : cache_stats;
  funcs : cache_stats;   (* the per-function compile memo *)
  images : cache_stats;
  observations : cache_stats;
  budget_bytes : int;
  caching : bool;
  key_calls : int;       (* content-key computations (Marshal + hash) *)
  key_seconds : float;   (* wall time spent computing content keys *)
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
  image_id : int;
  skey : string;
      (* stable (cross-process) rendering of the image key, used to
         address the disk observation store; "" for detached images *)
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

type t = {
  caching : bool;
  budget_bytes : int;
  unit_cache : (ikey, Ir.unit_) Lru.t;
  func_cache : (string, Ir.ifunc) Lru.t;  (* behind [memo] *)
  memo : Pipeline.memo option;  (* None when caching is disabled *)
  image_cache : (ikey, linked) Lru.t;
  obs_cache : (int * int * string, Cdvm.Exec.result) Lru.t;
      (* raw, NOT normalized *)
  ids : (ikey, int) Hashtbl.t;  (* interned image ids, never evicted *)
  ids_mutex : Mutex.t;
  mutable next_id : int;
  prog_memo : key Memo.t;       (* tprogram (by identity) -> content key *)
  unit_memo : ikey Memo.t;      (* unit (by identity) -> image key *)
  key_calls : int Atomic.t;
  key_micros : int Atomic.t;
  disk : Diskcache.t option;
}

let key_of_string (s : string) : key =
  ( String.length s,
    Cdutil.Murmur3.hash s,
    Cdutil.Murmur3.hash ~seed:0x9747b28cl s )

let timed_key t (serialize : unit -> string) : key =
  let t0 = Unix.gettimeofday () in
  let k = key_of_string (serialize ()) in
  let dt = Unix.gettimeofday () -. t0 in
  Atomic.incr t.key_calls;
  ignore (Atomic.fetch_and_add t.key_micros (int_of_float (dt *. 1e6)));
  k

let prog_key (tp : Minic.Tast.tprogram) : key =
  key_of_string (Marshal.to_string tp [])

(* a memo entry holds its key bytes besides the function *)
let func_weight (key : string) (f : Ir.ifunc) : int =
  String.length key + 160
  + (Array.length f.Ir.code * 120)
  + (Array.length f.Ir.slots * 48)
  + (Array.length f.Ir.code_lines * 8)

let create ?(cache_mb = 128) ?disk_dir ?(disk_mb = 512) () : t =
  let cache_mb = max 0 cache_mb in
  let budget_bytes = cache_mb * 1024 * 1024 in
  let caching = cache_mb > 0 in
  (* looked up from every pool domain for every function: striped, so
     the domains do not queue on one mutex *)
  let func_cache =
    Lru.create_striped ~stripes:16 ~budget_bytes:(budget_bytes / 8)
  in
  {
    caching;
    budget_bytes;
    unit_cache = Lru.create ~budget_bytes:(budget_bytes / 8);
    func_cache;
    memo =
      (if caching then
         Some
           {
             Pipeline.find_or_compute =
               (fun key compute ->
                 Lru.find_or_compute func_cache key ~weight:(func_weight key)
                   compute);
           }
       else None);
    image_cache = Lru.create ~budget_bytes:(budget_bytes / 4);
    obs_cache = Lru.create ~budget_bytes:(budget_bytes / 2);
    ids = Hashtbl.create 64;
    ids_mutex = Mutex.create ();
    next_id = 0;
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

let intern t (key : ikey) : int =
  Mutex.lock t.ids_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.ids_mutex)
    (fun () ->
      match Hashtbl.find_opt t.ids key with
      | Some id -> id
      | None ->
          let id = t.next_id in
          t.next_id <- t.next_id + 1;
          Hashtbl.add t.ids key id;
          id)

(* ids for detached (uncached) images: negative, never interned, so they
   cannot collide with stored observations *)
let detached_ids = Atomic.make (-1)
let fresh_detached_id () = Atomic.fetch_and_add detached_ids (-1)

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
  Array.fold_left
    (fun acc (lf : Cdvm.Image.lfunc) ->
      acc + 128
      + (Array.length lf.Cdvm.Image.l_ops * 128)
      + (Array.length lf.Cdvm.Image.l_slots * 48))
    1024 img.Cdvm.Image.funcs

(* stable rendering of an image key for cross-process disk addressing *)
let skey_of_ikey (((len, h1, h2), pname) : ikey) : string =
  Printf.sprintf "%d.%x.%x.%s" len h1 h2 pname

(* --- compile --- *)

let prog_key_memo t (tp : Minic.Tast.tprogram) : key =
  let r = Obj.repr tp in
  match Memo.find t.prog_memo r with
  | Some k -> k
  | None ->
      let k = timed_key t (fun () -> Marshal.to_string tp []) in
      Memo.add t.prog_memo r k;
      k

let unit_disk_kind = "unit"

let compile_keyed t (pkey : key) (profile : Policy.profile)
    (tp : Minic.Tast.tprogram) : Ir.unit_ =
  if not t.caching then Pipeline.compile profile tp
  else begin
    let ik = (pkey, profile.Policy.pname) in
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
              let u = Pipeline.compile ?memo:t.memo profile tp in
              (match t.disk with
              | Some d -> Diskcache.put d ~kind:unit_disk_kind dkey u
              | None -> ());
              u)
    in
    (* the unit's image key is known here for free: remember it so [link]
       never has to serialize the unit *)
    (match Memo.find t.unit_memo (Obj.repr u) with
    | Some _ -> ()
    | None -> Memo.add t.unit_memo (Obj.repr u) ik);
    u
  end

let compile t (profile : Policy.profile) (tp : Minic.Tast.tprogram) : Ir.unit_ =
  let pkey = if t.caching then prog_key_memo t tp else (0, 0, 0) in
  compile_keyed t pkey profile tp

let compile_profiles ?(jobs = Cdutil.Pool.default_jobs ()) t
    (profiles : Policy.profile list) (tp : Minic.Tast.tprogram) :
    (string * Ir.unit_) list =
  (* serialize the program once for all profiles *)
  let pkey = if t.caching then prog_key_memo t tp else (0, 0, 0) in
  let one p = (p.Policy.pname, compile_keyed t pkey p tp) in
  if jobs > 1 then Cdutil.Pool.map one profiles else List.map one profiles

(* --- link --- *)

let link_fresh t key_opt (u : Ir.unit_) : linked =
  let image = Cdvm.Image.link u in
  let image_id, skey =
    match key_opt with
    | Some key -> (intern t key, skey_of_ikey key)
    | None -> (fresh_detached_id (), "")
  in
  { image; image_id; skey }

let ikey_of_unit t (u : Ir.unit_) : ikey =
  let r = Obj.repr u in
  match Memo.find t.unit_memo r with
  | Some ik -> ik
  | None ->
      (* a unit that never went through [compile]: key it by its own
         content, tagged with an empty profile name so it cannot collide
         with a (program, profile) key *)
      let ik = (timed_key t (fun () -> Marshal.to_string u []), "") in
      Memo.add t.unit_memo r ik;
      ik

let link t (u : Ir.unit_) : linked =
  if not t.caching then link_fresh t None u
  else
    let key = ikey_of_unit t u in
    Lru.find_or_compute t.image_cache key
      ~weight:(fun l -> image_weight l.image)
      (fun () -> link_fresh t (Some key) u)

let image (l : linked) = l.image

(* --- run --- *)

let obs_overhead_bytes = 64

let obs_weight input (o : Cdvm.Exec.result) =
  String.length o.Cdvm.Exec.stdout + String.length input + obs_overhead_bytes

let obs_disk_kind = "obs"

(* the disk observation key: stable image key + fuel + exact input *)
let obs_dkey (l : linked) ~(fuel : int) ~(input : string) : string =
  Printf.sprintf "%s|%d|%s" l.skey fuel input

let disk_of t (l : linked) =
  (* detached images have no stable key to address the store with *)
  match t.disk with
  | Some d when l.skey <> "" -> Some d
  | Some _ | None -> None

(* the stores' observation of [input], if any; a disk hit is promoted
   into memory *)
let stored t (l : linked) disk ~fuel input : Cdvm.Exec.result option =
  let mkey = (l.image_id, fuel, input) in
  match Lru.find_opt t.obs_cache mkey with
  | Some _ as hit -> hit
  | None -> (
      match disk with
      | None -> None
      | Some d ->
          let o : Cdvm.Exec.result option =
            Diskcache.get d ~kind:obs_disk_kind (obs_dkey l ~fuel ~input)
          in
          Option.iter
            (fun o -> Lru.put t.obs_cache mkey o ~weight:(obs_weight input o))
            o;
          o)

let store t (l : linked) disk ~fuel input (o : Cdvm.Exec.result) =
  Lru.put t.obs_cache (l.image_id, fuel, input) o ~weight:(obs_weight input o);
  match disk with
  | Some d -> Diskcache.put d ~kind:obs_disk_kind (obs_dkey l ~fuel ~input) o
  | None -> ()

(* The one cached-execution path, in two phases.  [lookup] asks the
   stores for every input and counts each as one hit or one miss;
   [run_misses] executes what they lacked -- all misses as ONE VM batch
   on the calling domain's arena ({!Cdvm.Exec.run_batch}) instead of an
   acquire/validate/reset cycle per input -- and writes it back.  A
   caller that holds several batches looks them all up first and only
   schedules the ones with misses (the oracle's rounds); everyone else
   calls [run_batch], the two phases back to back.  A single run is the
   one-input batch, so the loops below avoid per-call closures. *)
type lookup = {
  found : Cdvm.Exec.result option array;
  misses : int array;
}

let lookup t (l : linked) ~(inputs : string array) ~(fuel : int) : lookup =
  let n = Array.length inputs in
  if not t.caching then
    { found = Array.make n None; misses = Array.init n Fun.id }
  else begin
    let disk = disk_of t l in
    let found = Array.make n None and misses = ref [] in
    for i = 0 to n - 1 do
      match stored t l disk ~fuel inputs.(i) with
      | None -> misses := i :: !misses
      | hit -> found.(i) <- hit
    done;
    { found; misses = Array.of_list (List.rev !misses) }
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
    let disk = disk_of t l in
    Array.iteri
      (fun j i ->
        if t.caching then store t l disk ~fuel inputs.(i) fresh.(j);
        out.(i) <- Some fresh.(j))
      lk.misses
  end;
  Array.map Option.get out

let run_batch t (l : linked) ~(inputs : string array) ~(fuel : int) :
    Cdvm.Exec.result array =
  run_misses t l ~inputs ~fuel (lookup t l ~inputs ~fuel)

(* Observed execution: an observer makes the run more than a function of
   (image, input, fuel), so it must bypass the observation store — it
   always executes, whatever the caching mode.  The VM picks the memory:
   [Steps]-level runs build a fresh one, everything else runs on the
   calling domain's arena like [run_batch]. *)
let run_traced (_t : t) (l : linked) ~(observer : Cdvm.Observer.t)
    ~(input : string) ~(fuel : int) : Cdvm.Exec.result =
  Cdvm.Exec.run_linked
    ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input; fuel; observer }
    l.image

(* --- stats --- *)

let stats t =
  {
    units = Lru.stats t.unit_cache;
    funcs = Lru.stats t.func_cache;
    images = Lru.stats t.image_cache;
    observations = Lru.stats t.obs_cache;
    budget_bytes = t.budget_bytes;
    caching = t.caching;
    key_calls = Atomic.get t.key_calls;
    key_seconds = float_of_int (Atomic.get t.key_micros) /. 1e6;
    disk = Option.map Diskcache.stats t.disk;
  }

let reset_stats t =
  Lru.reset_stats t.unit_cache;
  Lru.reset_stats t.func_cache;
  Lru.reset_stats t.image_cache;
  Lru.reset_stats t.obs_cache;
  Atomic.set t.key_calls 0;
  Atomic.set t.key_micros 0

let hit_rate (c : cache_stats) =
  let total = c.hits + c.misses in
  if total = 0 then 0. else float_of_int c.hits /. float_of_int total

let stats_to_string (s : stats) : string =
  if not s.caching then "engine session: caching disabled (cache-mb 0)\n"
  else
    let line name (c : cache_stats) =
      Printf.sprintf
        "  %-12s %7d hits %7d misses (%5.1f%% hit rate) %6d evictions \
         %6d entries %8.1f KiB\n"
        name c.hits c.misses
        (100. *. hit_rate c)
        c.evictions c.entries
        (float_of_int c.bytes /. 1024.)
    in
    let disk_line =
      match s.disk with
      | None -> ""
      | Some d ->
          Printf.sprintf
            "  %-12s %7d hits %7d misses %6d stores %6d entries %8.1f KiB\n"
            "disk" d.disk_hits d.disk_misses d.disk_stores d.disk_entries
            (float_of_int d.disk_bytes /. 1024.)
    in
    Printf.sprintf
      "engine session caches (budget %d MiB):\n%s%s%s%s%s  key time: %d keys \
       in %.4fs\n"
      (s.budget_bytes / (1024 * 1024))
      (line "units" s.units) (line "func memo" s.funcs) (line "images" s.images)
      (line "observations" s.observations)
      disk_line s.key_calls s.key_seconds

(* machine-readable stats: one self-contained JSON object, so fleet
   tooling (and the serve daemon's stats endpoint) can scrape a session
   without parsing the human table above *)
let cache_to_json (c : cache_stats) : string =
  Printf.sprintf
    "{\"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f, \"evictions\": %d, \
     \"entries\": %d, \"bytes\": %d}"
    c.hits c.misses (hit_rate c) c.evictions c.entries c.bytes

let stats_to_json (s : stats) : string =
  let disk =
    match s.disk with
    | None -> "null"
    | Some d ->
        Printf.sprintf
          "{\"hits\": %d, \"misses\": %d, \"stores\": %d, \"bytes\": %d, \
           \"entries\": %d}"
          d.disk_hits d.disk_misses d.disk_stores d.disk_bytes d.disk_entries
  in
  Printf.sprintf
    "{\"caching\": %b, \"budget_bytes\": %d, \"units\": %s, \"funcs\": %s, \
     \"images\": %s, \"observations\": %s, \"disk\": %s, \"key_calls\": %d, \
     \"key_seconds\": %.6f}"
    s.caching s.budget_bytes (cache_to_json s.units) (cache_to_json s.funcs)
    (cache_to_json s.images)
    (cache_to_json s.observations)
    disk s.key_calls s.key_seconds
