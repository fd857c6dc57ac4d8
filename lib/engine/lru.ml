(* A mutex-protected, byte-bounded cache with least-recently-used
   eviction.

   The map lives behind a mutex; values are computed OUTSIDE the lock
   ([find_or_compute] releases it around the thunk), so a slow compile
   or VM run never serializes unrelated lookups.  The price is a benign
   race: two domains missing on the same key both compute, and the
   second insert is dropped in favour of the first — wasted work, never
   an inconsistency (all cached artefacts are deterministic functions of
   their key).

   Keys are hashed before any lock is taken: a stripe maps a key's
   [Hashtbl.hash] to the bucket of entries with that hash, so a critical
   section is a bucket lookup and one key comparison.  A cache looked up
   from every pool domain at a high rate (the function memo) is also
   split into stripes ([create_striped]), each with its own mutex, table
   and an equal share of the budget, picked by the key's hash: behind
   one mutex, such lookups queue and the domains sleep in the kernel
   thousands of times a second.  Eviction is least-recently-used within
   a stripe; one stripe ([create]) is an exact LRU.

   The hit/miss/eviction counters are [Atomic.t], not plain ints under
   the mutex: the serve daemon reads them from its stats endpoint while
   every executor domain is mutating them, and an atomic read needs no
   lock — telemetry never contends with (or miscounts under) concurrent
   lookups.

   Weights are caller-provided byte estimates.  When an insert pushes a
   stripe's total past its budget, its entries are evicted in
   least-recently-used order until the total drops to 3/4 of that budget
   (hysteresis: one oversized round of inserts does not cause an
   eviction per insert). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type ('k, 'v) entry = {
  key : 'k;
  value : 'v;
  weight : int;
  mutable stamp : int;  (* last-used tick of its stripe, under its mutex *)
}

(* buckets are indexed by a hash computed outside the lock *)
module Buckets = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash h = h
end)

type ('k, 'v) stripe = {
  mutex : Mutex.t;
  table : ('k, 'v) entry list Buckets.t;
  budget_bytes : int;
  mutable clock : int;
  mutable bytes : int;
  mutable entries : int;
}

type ('k, 'v) t = {
  stripes : ('k, 'v) stripe array;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create_striped ~stripes ~budget_bytes =
  let n = max 1 stripes in
  {
    stripes =
      Array.init n (fun _ ->
          {
            mutex = Mutex.create ();
            table = Buckets.create 64;
            budget_bytes = max 0 budget_bytes / n;
            clock = 0;
            bytes = 0;
            entries = 0;
          });
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let create ~budget_bytes = create_striped ~stripes:1 ~budget_bytes

(* [Hashtbl.hash] has 30 bits; the bucket tables index by the low ones,
   so the stripe is chosen by the high ones *)
let stripe t h = t.stripes.((h lsr 20) mod Array.length t.stripes)

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

(* under the mutex *)
let tick s =
  s.clock <- s.clock + 1;
  s.clock

(* under the mutex; equality as in [Hashtbl] *)
let lookup s h key =
  match Buckets.find_opt s.table h with
  | None -> None
  | Some bucket -> List.find_opt (fun e -> compare e.key key = 0) bucket

(* under the mutex *)
let remove s h e =
  (match List.filter (fun e' -> e' != e) (Buckets.find s.table h) with
  | [] -> Buckets.remove s.table h
  | rest -> Buckets.replace s.table h rest);
  s.bytes <- s.bytes - e.weight;
  s.entries <- s.entries - 1

(* under the mutex: drop least-recently-used entries until the byte
   total is at most [target] *)
let evict_to t s target =
  if s.bytes > target then begin
    let all =
      Buckets.fold
        (fun h bucket acc -> List.fold_left (fun acc e -> (h, e) :: acc) acc bucket)
        s.table []
    in
    let oldest_first =
      List.sort (fun (_, a) (_, b) -> Int.compare a.stamp b.stamp) all
    in
    List.iter
      (fun (h, e) ->
        if s.bytes > target then begin
          remove s h e;
          Atomic.incr t.evictions
        end)
      oldest_first
  end

(* under the mutex *)
let insert t s h key value weight =
  if lookup s h key = None then begin
    let bucket = Option.value ~default:[] (Buckets.find_opt s.table h) in
    Buckets.replace s.table h ({ key; value; weight; stamp = tick s } :: bucket);
    s.bytes <- s.bytes + weight;
    s.entries <- s.entries + 1;
    if s.bytes > s.budget_bytes then evict_to t s (s.budget_bytes * 3 / 4)
  end

(* [find_hashed] without counting: a caller that may abandon the
   lookup (and repeat it through [find_hashed]) counts its hits itself,
   with [count_hits], once it keeps them *)
let peek_hashed t h key =
  let s = stripe t h in
  locked s (fun () ->
      match lookup s h key with
      | Some e ->
          e.stamp <- tick s;
          Some e.value
      | None -> None)

let find_hashed t h key =
  let r = peek_hashed t h key in
  Atomic.incr (if Option.is_some r then t.hits else t.misses);
  r

let find_opt t key = find_hashed t (Hashtbl.hash key) key

let count_hits t n = ignore (Atomic.fetch_and_add t.hits n)

(* a lookup its caller answered without consulting the table (an
   admission filter's first sight of a key) is still a miss *)
let count_miss t = Atomic.incr t.misses

(* [put t key value ~weight]: insert a value computed elsewhere (batch
   executions, disk-cache hits).  Like the tail of [find_or_compute]: a
   concurrent insert of the same key wins and this one is dropped. *)
let put t key value ~weight =
  let h = Hashtbl.hash key in
  let s = stripe t h in
  locked s (fun () -> insert t s h key value weight)

(* [find_or_compute_hashed t h key ~weight compute]: cached value for
   [key], whose hash the caller computed as [h], or [compute ()] (run
   unlocked) inserted with [weight value] bytes.  [h] must be a function
   of [key] alone, and equal keys must get equal hashes. *)
let find_or_compute_hashed t h key ~weight compute =
  match find_hashed t h key with
  | Some v -> v
  | None ->
      let v = compute () in
      let w = weight v in
      let s = stripe t h in
      locked s (fun () -> insert t s h key v w);
      v

let find_or_compute t key ~weight compute =
  find_or_compute_hashed t (Hashtbl.hash key) key ~weight compute

let stats t =
  let entries, bytes =
    Array.fold_left
      (fun (n, b) s -> locked s (fun () -> (n + s.entries, b + s.bytes)))
      (0, 0) t.stripes
  in
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    entries;
    bytes;
  }

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.evictions 0

let clear t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Buckets.reset s.table;
          s.bytes <- 0;
          s.entries <- 0))
    t.stripes
