(* The arithmetic is on native ints holding 32-bit values: an [int32]
   kept in a [ref] or a record field is boxed, and hashing allocated a
   box per block.  Products wrap modulo 2^63, which leaves their low 32
   bits exact, so masking after each step gives the 32-bit results. *)

let mask = 0xFFFF_FFFF

let rotl32 x r = ((x lsl r) lor (x lsr (32 - r))) land mask

let c1 = 0xcc9e2d51
let c2 = 0x1b873593

let mix_k1 k1 = rotl32 ((k1 * c1) land mask) 15 * c2 land mask

let mix_h1 h1 k1 = ((rotl32 (h1 lxor k1) 13 * 5) + 0xe6546b64) land mask

let fmix32 h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land mask in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land mask in
  h lxor (h lsr 16)

let byte s i = Char.code (String.unsafe_get s i)

let block s i = Int32.to_int (String.get_int32_le s i) land mask

let of_seed = function None -> 0 | Some seed -> Int32.to_int seed land mask

let hash_int ?seed s =
  let len = String.length s in
  let nblocks = len / 4 in
  let h1 = ref (of_seed seed) in
  for i = 0 to nblocks - 1 do
    h1 := mix_h1 !h1 (mix_k1 (block s (i * 4)))
  done;
  let tail = nblocks * 4 in
  let k1 = ref 0 in
  let rem = len land 3 in
  if rem >= 3 then k1 := !k1 lxor (byte s (tail + 2) lsl 16);
  if rem >= 2 then k1 := !k1 lxor (byte s (tail + 1) lsl 8);
  if rem >= 1 then begin
    k1 := !k1 lxor byte s tail;
    h1 := !h1 lxor mix_k1 !k1
  end;
  fmix32 (!h1 lxor (len land mask))

let hash32 ?seed s = Int32.of_int (hash_int ?seed s)

let hash ?seed s = hash_int ?seed s land 0x3FFFFFFF

(* Streaming interface.  Feeding parts [p1; p2; ...] must produce the
   exact bits of [hash32 (p1 ^ p2 ^ ...)], so pending bytes that do not
   yet fill a 4-byte block are buffered (little-endian, in [tail]) and
   completed by the next [feed]. *)
module Stream = struct
  type t = {
    mutable h1 : int;     (* 32-bit value *)
    mutable tail : int;   (* 0-3 pending bytes, little-endian packed *)
    mutable ntail : int;  (* number of pending bytes *)
    mutable total : int;  (* total bytes fed so far *)
  }

  let init ?seed () = { h1 = of_seed seed; tail = 0; ntail = 0; total = 0 }

  let feed st s =
    let len = String.length s in
    st.total <- st.total + len;
    let i = ref 0 in
    if st.ntail > 0 then begin
      while st.ntail < 4 && !i < len do
        st.tail <- st.tail lor (Char.code (String.unsafe_get s !i) lsl (8 * st.ntail));
        st.ntail <- st.ntail + 1;
        incr i
      done;
      if st.ntail = 4 then begin
        st.h1 <- mix_h1 st.h1 (mix_k1 st.tail);
        st.tail <- 0;
        st.ntail <- 0
      end
    end;
    while !i + 4 <= len do
      st.h1 <- mix_h1 st.h1 (mix_k1 (block s !i));
      i := !i + 4
    done;
    while !i < len do
      st.tail <- st.tail lor (Char.code (String.unsafe_get s !i) lsl (8 * st.ntail));
      st.ntail <- st.ntail + 1;
      incr i
    done

  let finalize st =
    let h1 =
      if st.ntail > 0 then st.h1 lxor mix_k1 st.tail else st.h1
    in
    Int32.of_int (fmix32 (h1 lxor (st.total land mask)))
end

let hash32_parts ?seed parts =
  let st = Stream.init ?seed () in
  List.iter (Stream.feed st) parts;
  Stream.finalize st
