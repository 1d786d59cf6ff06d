(** Minimal s-expression printer: the human-readable rendering of binary
    cache files for [xgcc cache dump] (AST files, summary-store pack
    entries). Nothing reads s-expressions back; every on-disk format is
    {!Wire}-encoded. *)

type t

val atom : string -> t
val list : t list -> t

val to_buffer : Buffer.t -> t -> unit
(** Atoms containing spaces, parens, quotes, backslashes or control
    characters (and the empty atom) print double-quoted, with the quote,
    backslash, newline, tab and carriage return backslash-escaped. *)

val to_string : t -> string
