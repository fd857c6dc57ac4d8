(** The repo's JSON output, in one place.

    Every JSON text CompDiff prints is built as a {!t} and rendered by
    {!to_string}: the CLI's [--json] and [--stats] output, the
    serve daemon's stats reply, and the bench records.  This is a
    writer only; nothing in the repo reads JSON back.

    {b Layout.}  One line: [", "] between items, [": "] after a key, no
    space inside brackets or braces.  Members keep their list order.

    {b Numbers.}  An [Int] prints in decimal.  A [Float] that is not
    finite prints as [null]; an integral one below 1e15 in magnitude
    prints without a fraction ([%.0f]); any other as [%.6g].

    {b Strings.}  Strings are byte strings, and each byte maps to the
    code point of the same number (0-255), so any bytes render as valid
    JSON and the output is pure printable ASCII.  A double quote and a
    backslash are escaped with a backslash; newline, tab and carriage
    return are written [\n], [\t] and [\r]; every other byte below
    0x20, and every byte from 0x7f (DEL) up, is written [\u00XX]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
