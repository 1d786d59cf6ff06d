(** Persistent, content-addressed store for pass-2 analysis results.

    Two kinds of entries, both keyed by an {e extension key} (a digest of
    the store format version, the engine options, and the chain of
    extension sources up to and including this one — earlier extensions'
    annotations feed later ones, so an edit to any earlier extension must
    invalidate everything downstream):

    - {e function-summary entries}: one per defined function, carrying
      the block and suffix summaries plus returned-state keys. Each entry
      holds two fingerprints: the {e key}, a digest of the function's own
      body, the file-scope declarations, its callees' summary {e content}
      hashes, and the relevant annotation state; and the {e content}
      hash, a digest of the summaries the entry actually records. The two
      levels are what give early cutoff: when an edit changes a
      function's body but recomputation produces the same content hash,
      callers' keys (which fold content, not body) still validate and
      their entries survive.
    - {e root replay entries}: the complete result of analysing one
      callgraph root (reports, counter deltas, annotation deltas,
      traversed set, stat counters), keyed by the content hashes of the
      root's transitive closure. A warm run replays valid roots verbatim
      and recomputes only invalid ones, which is what makes warm output
      byte-identical to a cold run: seeding summaries into a live
      traversal would take summary hits that suppress exactly the
      re-traversals that emit reports.

    {b Layout.} All entries of one extension key live in one pack file,
    [DIR/pack/<ext_key>.bin]: a sequence of {!Wire} frames, each holding
    a kind, a name, a header (a function entry's key, content hash and
    returned-state keys; a root entry's key), the payload bytes, and a
    digest of the frame. A handle reads a pack with one read the first
    time its extension is touched and indexes the frames by name. A probe
    decodes only the header and checks the digest; a function entry's
    summary arrays are decoded lazily ({!fn_summaries}), only when the
    engine seeds a recomputed caller from them. A damaged frame fails its
    digest and is a miss for that entry alone; a truncated pack loses only
    the frames past the cut. No store input is ever an error.

    {b Writes} land in the handle's tables and reach disk once, at
    {!flush} (the end of a cached [Engine.run]): each dirty pack is
    rewritten, untouched frames copied as raw bytes, fresh entries
    encoded, atomically (tmp + rename). When the file changed since it was
    read, the writer re-reads it first and keeps the entries another
    process wrote in between. Two flushes that overlap can still lose one
    side's entries; those become misses on the next run, never wrong
    replays, since every entry is validated against its key.

    {b Domains.} Lazy payloads are forced only on the main domain: the
    engine probes the store and seeds canonical recomputes sequentially,
    before and after the per-root pool runs, never inside it. *)

type t

type stats = {
  mutable ast_hits : int;  (** pass-1 object-cache hits (driver-maintained) *)
  mutable ast_misses : int;
  mutable fn_hits : int;  (** function-summary entries still valid *)
  mutable fn_stale : int;  (** present but key changed *)
  mutable fn_absent : int;
  mutable roots_replayed : int;
  mutable roots_recomputed : int;
  mutable fns_recomputed : int;
      (** functions whose summary the cutoff pass had to recompute *)
  mutable sums_unchanged : int;
      (** recomputed functions whose content hash matched the stale entry
          — the early-cutoff wins *)
  mutable roots_salvaged : int;
      (** replayed roots whose closure intersects the recomputed set —
          roots that only replay because cutoff fired *)
  mutable annot_defs : int;
      (** definitions the annotation index printed to give tagged nodes
          and stored annotation keys their positions ({!Annot_index}); 0
          when no extension tags anything *)
}

val store_version : string
(** Salted into every extension key: bumping it orphans all existing
    entries (they become unreachable, never misdecoded) and is recorded
    in the store directory's [VERSION] stamp. *)

val create :
  dir:string -> ?persist:bool -> ?memory:bool -> ext_keys:Fingerprint.t list -> unit -> t
(** [persist] (default true): when false nothing is written to disk —
    warm hits still replay but on-disk entries are never updated.
    [memory] (default false): keep the pack tables, and every entry
    decoded from them, across runs, so repeat probes skip both the disk
    read and the binary decode. Without it the tables last one run: the
    next run re-reads the packs and sees what other processes wrote. A
    long-lived daemon opens its store with [memory:true]; combined with
    [persist:false] this yields a fully in-memory incremental store that
    never touches disk (the first probe of each extension still reads its
    pack from [dir], so an existing on-disk store warms the tables). [ext_keys] must align positionally with the
    extension list handed to [Engine.run]. When persisting, stamps
    [dir/VERSION] with {!store_version}. *)

val ext_keys_of : options_digest:string -> sources:string list -> Fingerprint.t list
(** The chain-prefix keys: the key for extension [i] digests the store
    version, [options_digest], and [sources.(0..i)]. *)

val ext_key : t -> int -> Fingerprint.t

val persist : t -> bool
(** Whether the store accepts writes — true when it writes disk entries
    {e or} captures them in memory; the engine skips building entries
    entirely for a store that does neither. *)

val disk_persist : t -> bool
(** Whether entries also flow to disk — distinguishes a memory-only
    daemon store from one layered over a persistent [--cache-dir]. *)

val in_memory : t -> bool

val mem_entries : t -> int
(** Entries currently held by a memory store's pack tables (0 for a
    disk-only store) — observability for the daemon's [stats] reply. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zero all counters. The daemon calls this before each warm re-check so
    [stats] describes exactly one request instead of the process
    lifetime. *)

val pp_stats : Format.formatter -> t -> unit
(** One [--stats] line: AST, function-summary, root, and cutoff counters. *)

(** {1 Function-summary entries} *)

type fn_entry = {
  f_name : string;
  f_key : Fingerprint.t;
  f_content : Fingerprint.t;
  f_rets : string list;
  f_sums : (Summary.t array * Summary.t array) Lazy.t;
      (** block and suffix summaries, decoded on first force — main
          domain only; read them through {!fn_summaries} *)
}

type probe = Hit of fn_entry | Stale of Fingerprint.t | Absent
(** [Hit] carries the entry with its summaries still undecoded (the
    canonical pass seeds callers from them without re-reading). [Stale]
    carries the {e old} content hash, so after recomputation the engine
    can detect that the content did not actually change and count the
    cutoff. *)

val probe_fn : t -> ext:Fingerprint.t -> fname:string -> key:Fingerprint.t -> probe
(** Decode the header of the stored entry for [fname], check its digest
    and validate its key (bumps [fn_*] stats). A damaged entry is
    [Absent]. *)

val fn_summaries : fn_entry -> (Summary.t array * Summary.t array) option
(** Force an entry's summaries; [None] if the payload does not decode.
    Call on the main domain only. *)

val store_fn :
  t ->
  ext:Fingerprint.t ->
  fname:string ->
  key:Fingerprint.t ->
  content:Fingerprint.t ->
  bs:Summary.t array ->
  sfx:Summary.t array ->
  rets:string list ->
  unit

(** {1 Root replay entries} *)

type root_entry = {
  r_root : string;
  r_key : Fingerprint.t;
  r_reports : Report.t list;  (** in emission order *)
  r_counters : (string * int * int) list;
  r_annots : (Srcloc.t * string * string * int * string list) list;
      (** annotation delta: (location, printed expression, enclosing
          global definition, occurrence rank, tags oldest-first) — node
          ids are not stable across runs, so deltas are stored
          positionally and re-resolved against the current ASTs at replay
          time; the definition name and occurrence rank disambiguate
          positional twins (the same header parsed into two translation
          units, macro expansion repeating an expression at one location)
          so replay targets exactly the node the worker annotated *)
  r_traversed : string list;
  r_stats : int list;  (** engine stat counters, in [Engine]'s field order *)
}

val counter_to_bin : Wire.writer -> string * int * int -> unit
val annot_to_bin : Wire.writer -> Srcloc.t * string * string * int * string list -> unit
(** The Wire encodings of one [r_counters] / [r_annots] element, shared
    with the engine's canonical digest. *)

val load_root :
  t -> ext:Fingerprint.t -> root:string -> key:Fingerprint.t -> root_entry option
(** Bumps [roots_replayed] on a hit, [roots_recomputed] otherwise. *)

val store_root : t -> ext:Fingerprint.t -> root_entry -> unit
(** [store_fn] and [store_root] update the handle's tables; disk sees the
    entry at the next {!flush}. No-ops when {!persist} is false. *)

val flush : t -> unit
(** End of run: write every dirty pack when the store writes to disk, then
    drop the tables unless the store was opened with [memory:true].
    Write failures are swallowed — the entries are simply misses next
    time. *)

(** {1 Inspection (the [cache stats] / [cache dump] CLI)} *)

val save_last_run : t -> unit
(** Persist the run's counters to [dir/last-run] (plain ["name value"]
    lines) so a later [cache stats] can report them. No-op when
    [persist:false]. *)

val load_last_run : dir:string -> (string * int) list option

type disk_kind = { dk_files : int; dk_bytes : int }

type disk = {
  d_version : string option;  (** the [VERSION] stamp, if readable *)
  d_ast : disk_kind;
  d_sum : disk_kind;
  d_root : disk_kind;
}

val disk_stats : dir:string -> disk
(** Count AST object files, and summary and root entries (pack frames,
    counted from the framing without decoding headers or payloads), with
    their bytes. For the two pack kinds [dk_files] counts entries. *)

val dump_pack : string -> (Sexp.t list, string) result
(** Decode every entry of one pack file and render each as a sexp for
    human inspection; a damaged frame renders as [(damaged NAME reason)].
    [Error] when the file is not a pack. *)
