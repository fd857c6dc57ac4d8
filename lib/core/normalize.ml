(* Output normalization (RQ5/RQ6).

   Non-deterministic programs with deterministic output are CompDiff's
   target domain; programs that stamp timestamps or random cookies into
   otherwise deterministic output can be handled by stripping those
   fields, exactly as the paper does for wireshark's
   "10:44:23.405830 [Epan WARNING]" lines. Filters compose left to
   right. *)

type filter = string -> string

let identity : filter = fun s -> s

let compose (fs : filter list) : filter = fun s -> List.fold_left (fun acc f -> f acc) s fs

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* Replace every timestamp of the shape HH:MM:SS (optionally .uuuuuu) with
   a fixed token. *)
let strip_timestamps : filter =
 fun s ->
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  let looks_like_ts i =
    i + 8 <= n
    && is_digit s.[i] && is_digit s.[i + 1]
    && s.[i + 2] = ':'
    && is_digit s.[i + 3] && is_digit s.[i + 4]
    && s.[i + 5] = ':'
    && is_digit s.[i + 6] && is_digit s.[i + 7]
  in
  while !i < n do
    if looks_like_ts !i then begin
      Buffer.add_string buf "<TS>";
      i := !i + 8;
      (* optional fractional part *)
      if !i < n && s.[!i] = '.' then begin
        incr i;
        while !i < n && is_digit s.[!i] do
          incr i
        done
      end
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Replace 0x... hexadecimal addresses with a fixed token: pointer values
   are implementation-defined and a legitimate thing to filter when the
   *presence* of an address, not its value, is the intended output. *)
let strip_hex_addresses : filter =
 fun s ->
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 2 < n && s.[!i] = '0' && s.[!i + 1] = 'x' && is_hex s.[!i + 2] then begin
      Buffer.add_string buf "<ADDR>";
      i := !i + 2;
      while !i < n && is_hex s.[!i] do
        incr i
      done
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Drop whole lines containing a marker, e.g. "[random]". *)
let strip_lines_containing (marker : string) : filter =
 fun s ->
  let contains line =
    let nl = String.length line and nm = String.length marker in
    let rec at i = i + nm <= nl && (String.sub line i nm = marker || at (i + 1)) in
    nm > 0 && at 0
  in
  String.split_on_char '\n' s
  |> List.filter (fun line -> not (contains line))
  |> String.concat "\n"
