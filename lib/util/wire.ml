(* The repo's byte layouts (wire.mli has the description).  A codec is a
   writer onto a [Buffer] paired with a reader over a bounded cursor. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

type cursor = { data : string; mutable pos : int }

type 'a t = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }

let need c n =
  if n > String.length c.data - c.pos then malformed "truncated payload"

(* the offset of the next [n] bytes, which the cursor then moves past *)
let take c n =
  need c n;
  let at = c.pos in
  c.pos <- at + n;
  at

(* --- primitives --- *)

let u8 =
  {
    put = (fun b n -> Buffer.add_uint8 b (n land 0xff));
    get = (fun c -> String.get_uint8 c.data (take c 1));
  }

let u32 =
  {
    put =
      (fun b n ->
        if n < 0 || n > 0xFFFF_FFFF then
          invalid_arg (Printf.sprintf "Wire.u32: %d out of range" n);
        Buffer.add_int32_le b (Int32.of_int n));
    get =
      (fun c ->
        Int32.to_int (String.get_int32_le c.data (take c 4)) land 0xFFFF_FFFF);
  }

let bool =
  {
    put = (fun b v -> u8.put b (Bool.to_int v));
    get =
      (fun c ->
        match u8.get c with 0 -> false | 1 -> true | n -> malformed "bool %d" n);
  }

let string =
  {
    put =
      (fun b s ->
        u32.put b (String.length s);
        Buffer.add_string b s);
    get =
      (fun c ->
        let n = u32.get c in
        String.sub c.data (take c n) n);
  }

let list e =
  {
    put =
      (fun b xs ->
        u32.put b (List.length xs);
        List.iter (e.put b) xs);
    get =
      (fun c ->
        let n = u32.get c in
        (* every element takes at least one byte: a count the payload
           cannot hold is refused before anything is built *)
        need c n;
        List.init n (fun _ -> e.get c));
  }

(* --- combinators --- *)

let pair a b =
  {
    put =
      (fun buf (x, y) ->
        a.put buf x;
        b.put buf y);
    get =
      (fun c ->
        let x = a.get c in
        (x, b.get c));
  }

let wrap inj prj c =
  { put = (fun b v -> c.put b (prj v)); get = (fun cur -> inj (c.get cur)) }

let tup3 a b c =
  {
    put =
      (fun buf (x, y, z) ->
        a.put buf x;
        b.put buf y;
        c.put buf z);
    get =
      (fun cur ->
        let x = a.get cur in
        let y = b.get cur in
        (x, y, c.get cur));
  }

let tup4 a b c d =
  {
    put =
      (fun buf (w, x, y, z) ->
        a.put buf w;
        b.put buf x;
        c.put buf y;
        d.put buf z);
    get =
      (fun cur ->
        let w = a.get cur in
        let x = b.get cur in
        let y = c.get cur in
        (w, x, y, d.get cur));
  }

type 'a case = Case : 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case c inj prj = Case (c, inj, prj)

(* [v] is a constant constructor, an immediate: [==] is exact on it *)
let const v =
  let unit = { put = (fun _ () -> ()); get = (fun _ -> ()) } in
  Case (unit, (fun () -> v), fun x -> if x == v then Some () else None)

let union ~what cases =
  let cases = Array.of_list cases in
  let rec put_from i b v =
    if i = Array.length cases then
      invalid_arg ("Wire.union: no case for this " ^ what);
    let (Case (c, _, prj)) = cases.(i) in
    match prj v with
    | Some x ->
      u8.put b i;
      c.put b x
    | None -> put_from (i + 1) b v
  in
  {
    put = put_from 0;
    get =
      (fun cur ->
        let tag = u8.get cur in
        if tag >= Array.length cases then
          malformed "unknown %s tag %d" what tag;
        let (Case (c, inj, _)) = cases.(tag) in
        inj (c.get cur));
  }

(* --- whole payloads --- *)

let encode ?(size = 128) c v =
  let b = Buffer.create size in
  c.put b v;
  Buffer.contents b

let decode c s =
  let cur = { data = s; pos = 0 } in
  let v = c.get cur in
  if cur.pos <> String.length s then malformed "trailing bytes in payload";
  v

(* --- sealed envelope --- *)

let seal ~magic payload =
  let b = Buffer.create (String.length magic + 8 + String.length payload) in
  Buffer.add_string b magic;
  u32.put b (String.length payload);
  u32.put b (Murmur3.hash payload);
  Buffer.add_string b payload;
  Buffer.contents b

let unseal ~magic blob =
  let hdr = String.length magic + 8 in
  if String.length blob < hdr then Error "too short for its header"
  else if not (String.starts_with ~prefix:magic blob) then Error "bad magic"
  else
    let len = decode u32 (String.sub blob (hdr - 8) 4) in
    let sum = decode u32 (String.sub blob (hdr - 4) 4) in
    if len <> String.length blob - hdr then Error "payload length mismatch"
    else
      let payload = String.sub blob hdr len in
      if Murmur3.hash payload <> sum then Error "checksum mismatch"
      else Ok payload

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let temp_seq = Atomic.make 0

let write_sealed ~magic ~file payload =
  let blob = seal ~magic payload in
  mkdir_p (Filename.dirname file);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ())
      (Atomic.fetch_and_add temp_seq 1)
  in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc blob);
     Sys.rename tmp file
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  String.length blob

let read_sealed ~magic file =
  match In_channel.with_open_bin file In_channel.input_all with
  | blob -> unseal ~magic blob
  | exception (Sys_error e) -> Error e
  | exception End_of_file -> Error "truncated file"
