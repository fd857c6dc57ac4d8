(* The span recorder of traced runs.

   A span is one call from the benchmark into a layer's public function:
   a name, its start and end, the span that was open when it began (its
   parent) and the item (target, test, divergence or request) it worked
   for.  Spans nest per thread; they are kept in memory and written out
   only when the run ends.  With recording off, [with_] is a plain call,
   so untraced runs pay one branch per call site. *)

type t = {
  id : int;
  parent : int;  (* 0 for a root *)
  name : string;
  item : string;
  mutable start : float;
  mutable stop : float;
}

let enabled = ref false
let mutex = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 1
let stacks : (int, t list) Hashtbl.t = Hashtbl.create 8

let reset () =
  Mutex.lock mutex;
  recorded := [];
  Hashtbl.reset stacks;
  Mutex.unlock mutex

let with_ ?item name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock mutex;
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
    let parent, pitem =
      match stack with p :: _ -> (p.id, p.item) | [] -> (0, "")
    in
    let s =
      {
        id = !next_id;
        parent;
        name;
        item = Option.value item ~default:pitem;
        start = 0.;
        stop = 0.;
      }
    in
    incr next_id;
    Hashtbl.replace stacks tid (s :: stack);
    Mutex.unlock mutex;
    (* the clock is read after the bookkeeping and before it on the way
       out, so recording cost lands in the parent's self time *)
    s.start <- Common.now ();
    let finish () =
      s.stop <- Common.now ();
      Mutex.lock mutex;
      Hashtbl.replace stacks tid stack;
      recorded := s :: !recorded;
      Mutex.unlock mutex
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let spans () = List.rev !recorded

(* Self time: duration minus the union of the children's intervals
   (children of one parent may overlap when they run on several
   threads). *)
let self_times (spans : t list) : (t * float) list =
  let kids : (int, (float * float) list) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace kids s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  List.map
    (fun s ->
      let ivs =
        Option.value ~default:[] (Hashtbl.find_opt kids s.id)
        |> List.map (fun (a, b) -> (Float.max a s.start, Float.min b s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            if b <= hi then (acc, hi)
            else (acc +. (b -. Float.max a hi), b))
          (0., neg_infinity) ivs
      in
      (s, s.stop -. s.start -. covered))
    spans

(* Total self time per span name. *)
let self_by_name (selfs : (t * float) list) : (string, float) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s, d) ->
      Hashtbl.replace h s.name
        (d +. Option.value ~default:0. (Hashtbl.find_opt h s.name)))
    selfs;
  h

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line; times in seconds from the first span. *)
let write_jsonl path (selfs : (t * float) list) =
  let t0 = List.fold_left (fun a (s, _) -> Float.min a s.start) infinity selfs in
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"item\":%s,\"start\":%.6f,\"end\":%.6f,\"self\":%.6f}\n"
        s.id s.parent (json_string s.name) (json_string s.item)
        (s.start -. t0) (s.stop -. t0) self)
    selfs;
  close_out oc
