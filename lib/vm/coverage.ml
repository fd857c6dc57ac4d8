(* AFL-style edge coverage map.

   Basic blocks hash to map indices; an executed edge bumps a byte bucket
   [(prev >> 1) xor cur]. The fuzzer compares maps through the classified
   bucket trick AFL uses (counts quantized to powers of two) to decide
   whether an input reached new behaviour.

   An execution touches a few dozen of the map's 8192 bytes, so the
   merge after every exec reads the map one 64-bit word at a time and
   skips zero words; only the bytes of a non-zero word are classified
   (through a 256-entry bucket table), in map order, so the novelty
   count and the [virgin] bytes are those of a byte-by-byte merge. *)

type t = {
  map : Bytes.t;
  mutable last_loc : int;
}

let size = 1 lsl 13

let create () = { map = Bytes.make size '\000'; last_loc = 0 }

let reset t =
  Bytes.fill t.map 0 size '\000';
  t.last_loc <- 0

let block_id ~fname ~label = Cdutil.Rng.mix (Cdutil.Murmur3.hash fname) label land (size - 1)

let hit t cur =
  let edge = (t.last_loc lsr 1) lxor cur land (size - 1) in
  let c = Char.code (Bytes.get t.map edge) in
  if c < 255 then Bytes.set t.map edge (Char.chr (c + 1));
  t.last_loc <- cur

(* quantize a hit count into AFL's eight buckets *)
let bucket = function
  | 0 -> 0
  | 1 -> 1
  | 2 -> 2
  | 3 -> 4
  | n when n < 8 -> 8
  | n when n < 16 -> 16
  | n when n < 32 -> 32
  | n when n < 128 -> 64
  | _ -> 128

let bucket_table = String.init 256 (fun n -> Char.chr (bucket n))

(* fold the classified map into [virgin]; returns the number of map
   positions that contributed a new bucket bit — the input's coverage
   novelty (0 means it reached nothing new) *)
let merge_count ~virgin t =
  if Bytes.length virgin < size then invalid_arg "Coverage.merge_count";
  let map = t.map in
  let novel = ref 0 in
  let w = ref 0 in
  while !w < size do
    if Bytes.get_int64_ne map !w <> 0L then
      for i = !w to !w + 7 do
        let c = Char.code (Bytes.unsafe_get map i) in
        let b = Char.code (String.unsafe_get bucket_table c) in
        if b <> 0 then begin
          let seen = Char.code (Bytes.unsafe_get virgin i) in
          if b land lnot seen <> 0 then begin
            incr novel;
            Bytes.unsafe_set virgin i (Char.unsafe_chr (seen lor b))
          end
        end
      done;
    w := !w + 8
  done;
  !novel

let merge_into ~virgin t = merge_count ~virgin t > 0

let count_nonzero t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.map;
  !n
