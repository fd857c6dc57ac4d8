(** The repo's byte layouts, in one place.

    Every byte format CompDiff writes is built from this module: serve
    frames ([Serve.Proto]), [.ctr] trace files ([Cdtrace]) and
    disk-cache entries ([Engine.Diskcache]).

    {b Primitives.}  All integers are little-endian unsigned 32-bit
    ([u32]) unless noted.  A [u8] is one byte, a [bool] is one byte
    that is 0 or 1, a string is a [u32] byte count followed by the
    bytes, and a list is a [u32] element count followed by the
    elements.

    {b Sealed envelope.}  A file that must survive corruption is

    {v magic | u32 payload-length | u32 murmur3(payload) | payload v}

    where the checksum is {!Murmur3.hash} (the 30-bit form) of the
    payload.  The magic names the format: ["CDTR1"] for traces,
    ["CDC1"] for disk-cache entries.  The checksum is unkeyed: it
    catches corruption, not a crafted file.

    {b Decoding.}  Readers never trust a length: a truncated payload,
    trailing bytes, an unknown tag or an out-of-range value raise
    {!Malformed}, and no length or count is believed beyond the bytes
    that remain, so decoding allocates in proportion to its input. *)

exception Malformed of string

type 'a t
(** A codec: one layout, written once, from which both the writer and
    the reader come (pickler combinators, Kennedy, JFP 2004). *)

(** {1 Primitives} *)

val u8 : int t
val u32 : int t
(** Writing a value outside [0, 2{^32}) raises [Invalid_argument]. *)

val bool : bool t
val string : string t
val list : 'a t -> 'a list t

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val tup3 : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val tup4 : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t
(** Fields are laid out left to right. *)

val wrap : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [wrap inj prj c] lays out a ['b] as the ['a] that [prj] maps it to;
    reading applies [inj].  Records are tuples wrapped this way. *)

type 'a case

val case : 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** One constructor of a variant: its fields' codec, the constructor,
    and a projection that is [Some] exactly on that constructor. *)

val const : 'a -> 'a case
(** A constructor without fields (an immediate, matched with [==]):
    zero bytes after the tag. *)

val union : what:string -> 'a case list -> 'a t
(** A [u8] tag, the position of the first case whose projection
    matches, then that case's fields.  An unknown tag raises
    {!Malformed} naming [what]. *)

(** {1 Whole payloads} *)

val encode : ?size:int -> 'a t -> 'a -> string
val decode : 'a t -> string -> 'a
(** [decode] reads one value that must span the whole string, and raises
    {!Malformed} on a truncated or overlong payload.  [encode] starts from
    a buffer of [size] bytes (default 128): pass the length when known. *)

(** {1 Sealed envelope} *)

val seal : magic:string -> string -> string
val unseal : magic:string -> string -> (string, string) result
(** The payload of a sealed blob, or why it is not one: wrong magic,
    a length that is not the blob's, or a checksum mismatch. *)

val mkdir_p : string -> unit
(** Make a directory and its missing parents.  An existing directory
    is fine; anything else that stands in the way raises [Sys_error]. *)

val write_sealed : magic:string -> file:string -> string -> int
(** Seal a payload into [file], making its parent directory.  The bytes
    go to a unique temp file beside [file] that is then renamed over it,
    so a reader never sees a half-written file.  Returns the file's
    size; raises [Sys_error] when the directory or file cannot be
    written. *)

val read_sealed : magic:string -> string -> (string, string) result
(** The payload of a sealed file.  A missing or unreadable file, a
    directory, a truncated file or a damaged envelope is an [Error]. *)
