(** Flat, int-indexed supergraph tables for the traversal hot path.

    Built once by {!Supergraph.build} over every function's CFG, in input
    order. Each block of each function gets one dense {e flat id}
    ([block_base.(fidx) + bid]); successor lists, per-block head
    summaries and per-block node-event sequences live in contiguous
    arrays indexed by flat id, so the engine's per-block work is array
    reads instead of string-keyed hashtable probes and per-root list
    rebuilding. The [mc_branch]/[mc_return] terminator tags, which depend
    only on the CFG, live here too, keyed by node id. Immutable after
    [build]; shared read-only across engine worker domains. *)

(** One traversal event. The engine aliases this type: a block's events
    are its elements' subexpressions in execution order, declarations
    with initialisers synthesising a fresh-variable event followed by an
    [x = init] assignment tree, and the terminator's condition /
    scrutinee / returned expression last. *)
type ev =
  | Ev_node of Cast.expr
  | Ev_fresh of string
  | Ev_scope_end of string list

type ba_int = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  fnames : string array;  (** fidx -> function name, input order *)
  fidx_of : (string, int) Hashtbl.t;
  block_base : int array;
      (** length [nf+1]: flat id of function [fidx]'s block 0; the last
          entry is {!field:n_blocks} *)
  entry : int array;  (** fidx -> flat id of the entry block *)
  exit_ : int array;  (** fidx -> flat id of the exit block *)
  n_blocks : int;
  succ_off : int array;  (** length [n_blocks+1], CSR offsets *)
  succ : ba_int;
      (** flat successor ids; replicates {!Cfg.successors} exactly
          (Return flows to exit, equal Branch arms dedup, Switch targets
          sorted and deduped) *)
  head_mask : int array;  (** {!Block_heads} shape bitmask per flat block *)
  call_off : int array;  (** length [n_blocks+1], CSR offsets *)
  call_names : string array;  (** sorted distinct callee names per block *)
  events : ev array array;  (** flat id -> node events, execution order *)
  term_tags : (int, string) Hashtbl.t;
      (** node id -> [mc_branch] for every branch condition and switch
          scrutinee root, [mc_return] for every returned expression *)
  decl_assigns : Cast.expr list array;
      (** fidx -> the synthesised [x = init] assignment of every
          declaration with an initialiser, in block order. These nodes
          exist nowhere in the AST; they are built once here and shared by
          every traversal context. *)
}

val build : Cfg.t list -> t

val n_functions : t -> int

val fidx : t -> string -> int option
(** Dense function index of a defined function. *)

val fbase : t -> string -> int
(** Flat id of the function's block 0, or [-1] for unknown functions;
    flat id of block [bid] is [fbase + bid]. *)

val unflatten : t -> int -> string * int
(** [(fname, bid)] of a flat block id — the round trip of
    [fbase t fname + bid]. *)

val successors : t -> int -> int list
(** Flat successor ids of a flat block id. *)

val calls : t -> int -> string list
(** The block's named-call callees (sorted, distinct). *)

val events : t -> int -> ev array

val term_tag : t -> int -> string option
(** The terminator tag of a node id, if the node is a branch condition,
    switch scrutinee or returned expression root. *)

val table_bytes : t -> int
(** Approximate byte size of the flat tables (excluding the AST nodes
    the event arrays reference), for the [--stats] memory line. *)
