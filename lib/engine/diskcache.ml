(* A content-addressed on-disk store: the persistent layer behind the
   session's in-memory LRUs, so warm state survives process restarts and
   can be shared between fleet nodes over a common directory.

   Layout: [dir/<kind>/<hh>/<hh>/<hash>] — a two-level hash-prefix fan
   out (256 × 256 directories, populated lazily) keeps any single
   directory small under fleet-scale entry counts.

   Entry format: a [Cdutil.Wire] sealed envelope with magic "CDC1"
   (wire.mli has the layout) around payload = [Marshal] of
   [(kind ^ ":" ^ key, value)].  Reads are guarded in depth: magic,
   length and checksum are verified *before* [Marshal.from_string]
   ever sees the bytes (unmarshalling corrupt data is unsafe), and the
   unmarshalled key must echo the requested one
   (same-hash collisions read as misses, never as wrong hits).  Any
   truncated, corrupt or unreadable entry is a miss, and so is an entry
   path that is a directory.

   Trust: the store is trusted-local-only.  The checksum is unkeyed, so
   it catches corruption but not a crafted entry, and [Marshal] of a
   crafted payload is unsafe; the directory must be writable only by
   users the process already trusts (DESIGN.md §10).

   Writes are atomic: [Wire.write_sealed] writes the entry to a unique
   temp file in the same directory and renames it into place, so a
   crashed or concurrent writer can never leave a half-written entry
   under the final name — and concurrent writers of the same key are
   idempotent (both write the same deterministic bytes).

   Size cap: the store keeps a RUNNING byte/entry count — seeded by one
   directory scan at [create], then updated on every store and every GC
   deletion — so the steady-state store path is O(1): a store only
   triggers GC when the running total actually exceeds [cap_bytes]
   (the old scheme walked the whole tree every 64 stores).  When GC does
   run, entries are deleted oldest-mtime-first until 3/4 of the cap and
   the counters are re-seeded from the surviving files.  GC is advisory
   (stat/unlink races with other processes are ignored), and so is the
   running count: another process storing into the same directory is
   only observed at the next GC rescan. *)

type stats = {
  disk_hits : int;
  disk_misses : int;
  disk_stores : int;
  disk_bytes : int;    (* running on-disk byte count (advisory) *)
  disk_entries : int;  (* running entry count (advisory) *)
}

type t = {
  dir : string;
  cap_bytes : int;
  gc_mutex : Mutex.t;
  bytes : int Atomic.t;    (* running totals: startup scan + store/evict *)
  entries : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
}

let magic = "CDC1"

let rec walk_files acc path =
  match Sys.readdir path with
  | exception Sys_error _ -> acc
  | names ->
      Array.fold_left
        (fun acc name ->
          let p = Filename.concat path name in
          match Unix.lstat p with
          | exception Unix.Unix_error (_, _, _) -> acc
          | st -> (
              match st.Unix.st_kind with
              | Unix.S_DIR -> walk_files acc p
              | Unix.S_REG -> (st.Unix.st_mtime, st.Unix.st_size, p) :: acc
              | _ -> acc))
        acc names

let create ~dir ?(cap_mb = 512) () : t =
  Cdutil.Wire.mkdir_p dir;
  (* the only full-tree scan on the store path: seed the running
     byte/entry count from whatever a previous process left behind *)
  let existing = walk_files [] dir in
  let bytes = List.fold_left (fun a (_, sz, _) -> a + sz) 0 existing in
  {
    dir;
    cap_bytes = max 1 cap_mb * 1024 * 1024;
    gc_mutex = Mutex.create ();
    bytes = Atomic.make bytes;
    entries = Atomic.make (List.length existing);
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
  }

let dir t = t.dir

(* entry path: two independent 30-bit hashes give a 60-bit name, with
   the first hash's low bits doubling as the directory prefix *)
let path_of t ~(kind : string) (key : string) : string =
  let h1 = Cdutil.Murmur3.hash key in
  let h2 = Cdutil.Murmur3.hash ~seed:0x9747b28cl key in
  Printf.sprintf "%s/%s/%02x/%02x/%08x%08x" t.dir kind (h1 land 0xff)
    ((h1 lsr 8) land 0xff)
    h1 h2

let full_key ~kind key = kind ^ ":" ^ key

(* --- read --- *)

let get (type v) (t : t) ~(kind : string) (key : string) : v option =
  let miss () =
    Atomic.incr t.misses;
    None
  in
  match Cdutil.Wire.read_sealed ~magic (path_of t ~kind key) with
  | Error _ -> miss ()
  | Ok payload -> (
    match (Marshal.from_string payload 0 : string * v) with
    | exception _ -> miss ()
    | stored_key, value ->
      if String.equal stored_key (full_key ~kind key) then begin
        Atomic.incr t.hits;
        Some value
      end
      else miss ())

(* --- garbage collection --- *)

(* Runs only when the running byte count exceeds the cap; the scan here
   re-measures ground truth (and re-seeds the running counters), so any
   drift the advisory count accumulated — concurrent writer processes,
   lost unlink races — is corrected every GC. *)
let gc t =
  let files = walk_files [] t.dir in
  let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 files in
  let kept_bytes = ref total and kept_entries = ref (List.length files) in
  if total > t.cap_bytes then begin
    let target = t.cap_bytes * 3 / 4 in
    let oldest_first = List.sort compare files in
    List.iter
      (fun (_, sz, p) ->
        if !kept_bytes > target then begin
          (try
             Sys.remove p;
             kept_bytes := !kept_bytes - sz;
             decr kept_entries
           with Sys_error _ -> ())
        end)
      oldest_first
  end;
  Atomic.set t.bytes !kept_bytes;
  Atomic.set t.entries !kept_entries

(* --- write --- *)

let put (t : t) ~(kind : string) (key : string) (value : 'a) : unit =
  let payload = Marshal.to_string (full_key ~kind key, value) [] in
  let file = path_of t ~kind key in
  (* a re-store of an existing key overwrites the same deterministic
     bytes: only a genuinely new file grows the running count *)
  let fresh = not (Sys.file_exists file) in
  (match Cdutil.Wire.write_sealed ~magic ~file payload with
  | bytes ->
    Atomic.incr t.stores;
    if fresh then begin
      ignore (Atomic.fetch_and_add t.bytes bytes);
      Atomic.incr t.entries
    end
  | exception Sys_error _ -> ());
  (* O(1) steady state: the cap check is one atomic read; the full-tree
     scan only happens inside [gc], i.e. when the cap is actually hit *)
  if Atomic.get t.bytes > t.cap_bytes then begin
    Mutex.lock t.gc_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.gc_mutex)
      (fun () -> if Atomic.get t.bytes > t.cap_bytes then gc t)
  end

let stats t =
  {
    disk_hits = Atomic.get t.hits;
    disk_misses = Atomic.get t.misses;
    disk_stores = Atomic.get t.stores;
    disk_bytes = Atomic.get t.bytes;
    disk_entries = Atomic.get t.entries;
  }
