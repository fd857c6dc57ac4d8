(* JSON output; json.mli states the layout, number and string rules. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when c < ' ' || c >= '\x7f' ->
        Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf v =
  if not (Float.is_finite v) then Buffer.add_string buf "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.bprintf buf "%.0f" v
  else Printf.bprintf buf "%.6g" v

let add_seq buf open_ close each items =
  Buffer.add_char buf open_;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      each x)
    items;
  Buffer.add_char buf close

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float v -> add_float buf v
  | String s -> add_string buf s
  | List items -> add_seq buf '[' ']' (add buf) items
  | Obj members ->
    add_seq buf '{' '}'
      (fun (k, v) ->
        add_string buf k;
        Buffer.add_string buf ": ";
        add buf v)
      members

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf
