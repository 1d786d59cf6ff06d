(** AST (de)serialisation — the paper's two-pass architecture (Section 6).

    Pass 1 parses each translation unit in isolation and emits its AST to a
    temporary file; pass 2 reads the emitted files back, "reassembles their
    ASTs, and constructs the CFG and call graph". There is one on-disk AST
    encoding, a {!Wire} binary form behind an {!ast_magic} header: [xgcc
    emit] writes it to [.mcast] files, the content-addressed object cache
    stores it under [DIR/ast/], and both go through the same atomic writer
    ({!emit_file}) and fault-contained reader ({!read_file}), so an emitted
    file and the cache object for the same input are byte-identical. The
    paper notes its AST files are "typically four or five times larger than
    the text representation"; ours are about twice the C text (see the
    tests).

    Node ids are not serialised: decoding allocates fresh ids, which is all
    the engine needs (ids only key per-run caches). *)

(** {1 Binary codec}

    Length-prefixed and decoded by a single forward scan. Malformed input
    raises {!Wire.Corrupt}. *)

val expr_to_bin : Wire.writer -> Cast.expr -> unit
val expr_of_bin : Wire.reader -> Cast.expr
val stmt_to_bin : Wire.writer -> Cast.stmt -> unit
val stmt_of_bin : Wire.reader -> Cast.stmt
val ctyp_to_bin : Wire.writer -> Ctyp.t -> unit
val ctyp_of_bin : Wire.reader -> Ctyp.t
val global_to_bin : Wire.writer -> Cast.global -> unit
val global_of_bin : Wire.reader -> Cast.global
val tunit_to_bin : Wire.writer -> Cast.tunit -> unit
val tunit_of_bin : Wire.reader -> Cast.tunit

(** {1 AST files} *)

val ast_version : string
(** The one AST stamp: part of {!ast_magic}, and the salt of
    {!ast_fingerprint} and of the engine's body hashes. Bump it on any
    change to the encoding or to the parser semantics that feed it. *)

val ast_magic : string
(** Header of every AST file, emitted or cached. A file written by a
    build with another {!ast_version} (or an old textual [.mcast]) reads
    as bad magic. *)

val emit_string : Cast.tunit -> string
(** The bytes of an AST file: {!ast_magic}, then {!tunit_to_bin}. *)

val read_string : string -> (Cast.tunit, string) result
(** Decode {!emit_string}'s bytes. Truncated, trailing, wrong-magic or
    otherwise corrupt input is [Error description], never an exception;
    the description of a malformed frame names its byte offset. *)

val emit_file : string -> Cast.tunit -> unit
(** Pass 1: write the AST file atomically (tmp + rename in the target's
    directory). A failed write removes its temp file and re-raises. *)

val read_file : string -> (Cast.tunit, string) result
(** Pass 2: {!read_string} over a file's contents; I/O errors are
    [Error] too. *)

(** {1 Content-addressed AST object cache}

    Pass 1 results keyed by post-preprocess content: a warm run whose
    fingerprint matches reuses the stored AST file instead of re-lexing
    and re-parsing the translation unit. *)

val ast_fingerprint : file:string -> source:string -> Fingerprint.t
(** Key for one translation unit: the input file name plus its
    post-preprocess text (locations are baked into the AST, so the name
    is part of the content). *)

val cached_path : cache_dir:string -> Fingerprint.t -> string
(** Where the object for [fp] lives: [<cache_dir>/ast/<fp>.mcast]. *)

val read_cached : cache_dir:string -> Fingerprint.t -> Cast.tunit option
(** {!read_file} on {!cached_path}; [None] on a miss or an unreadable
    (torn / stale-format) object. *)

val write_cached : cache_dir:string -> Fingerprint.t -> Cast.tunit -> unit
(** {!emit_file} to {!cached_path}, creating the directory as needed. *)

(** {1 Dump rendering} *)

val expr_to_sexp : Cast.expr -> Sexp.t
val tunit_to_sexp : Cast.tunit -> Sexp.t
(** Print-only renderings for [xgcc cache dump]. *)

val emit_targets : string list -> (string * string) list
(** Map each input file to a unique [.mcast] output basename: the plain
    basename when unique among the inputs, otherwise a path-derived name
    (separators folded to ['_']). Raises [Invalid_argument] if names
    still collide (e.g. a duplicated input path). *)
