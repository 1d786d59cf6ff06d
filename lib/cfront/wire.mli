(** Length-prefixed binary encoding: every on-disk format of the system.

    AST files (emitted [.mcast] files and the pass-1 object cache are one
    format, see {!Cast_io}) and the summary-store packs (function-summary
    and root replay entries) are all built from this layer: varint ints
    (zigzag, so negatives stay short), length-prefixed strings, and a
    magic prefix per file kind so a file of the wrong kind or version
    reads as {!Corrupt}, which every reader turns into an [Error] or a
    cache miss, never a crash.

    The encoding is deliberately not self-describing: each consumer owns
    its layout and versions it through the magic string plus the
    fingerprint salt of the enclosing store. *)

exception Corrupt of string
(** Truncated, malformed, or wrong-magic input. A truncation names the
    byte offset where input ran out ("... at byte N"). *)

(** {1 Writing} *)

type writer

val writer : ?magic:string -> unit -> writer
val u8 : writer -> int -> unit
val int : writer -> int -> unit
val i64 : writer -> int64 -> unit
val float : writer -> float -> unit
val bool : writer -> bool -> unit
val string : writer -> string -> unit
val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

val raw : writer -> string -> int -> int -> unit
(** [raw b src pos len] appends [len] bytes of [src] from [pos] verbatim,
    with no length prefix — for copying already-encoded frames. *)

val contents : writer -> string

(** {1 Reading} *)

type reader

val reader : ?magic:string -> string -> reader
(** Raises {!Corrupt} when [magic] is given and the input does not start
    with it. *)

val sub_reader : string -> pos:int -> len:int -> reader
(** A reader over the [len] bytes of [src] from [pos], without copying;
    reads past the slice raise {!Corrupt}, as does a slice outside
    [src]. *)

val rpos : reader -> int
(** The reader's current byte offset into its source string. *)

val ru8 : reader -> int
val rint : reader -> int
val ri64 : reader -> int64
val rfloat : reader -> float
val rbool : reader -> bool
val rstring : reader -> string

val rspan : reader -> int * int
(** Skip a length-prefixed string, returning its [(offset, length)] in
    the source instead of copying it. *)

val roption : reader -> (reader -> 'a) -> 'a option
val rlist : reader -> (reader -> 'a) -> 'a list
val at_end : reader -> bool

val read_file : string -> string
(** Whole-file read; raises [Sys_error] like [open_in], and closes the
    channel on every path. *)
