(** Positional identity of annotated AST nodes, built on demand.

    Node ids are fresh in every process, so the summary store keys an
    annotation by position instead: the node's location, its printed
    form, its enclosing global definition ([ctx]) and its occurrence rank
    under that triple, [file:line:col|printed|ctx#occ]. Ranks follow
    program order over every definition named [ctx], then the
    synthesised declaration-initialiser assignments of the definition the
    CFG kept ({!Flat.decl_assigns}).

    The index prints and ranks one definition name at a time, only when
    a node or key of that name is resolved; finding a node's owner takes
    one walk over the program that prints nothing, made on first need.
    An index nobody queries costs nothing. Not safe to share across
    domains. *)

type node = {
  loc : Srcloc.t;
  printed : string;
  ctx : string;  (** enclosing global definition *)
  occ : int;  (** occurrence rank under (location, printed, ctx) *)
  key : string;  (** [file:line:col|printed|ctx#occ] *)
}

type t

val create : Supergraph.t -> t

val node : t -> int -> node option
(** The position of node [eid], or [None] for an id no definition of the
    program reaches. *)

val delta :
  t -> (int * string list) list -> (Srcloc.t * string * string * int * string list) list
(** An annotation layer [(eid, tags)] as positional entries
    [(loc, printed, ctx, occ, tags)] sorted by position; tags on nodes
    outside the program are dropped. *)

val resolve :
  t -> (Srcloc.t * string * string * int * string list) list -> (int * string list) list
(** {!delta}'s inverse, sorted by node id; positions the program no
    longer has are dropped. *)

val defs_printed : t -> int
(** Definitions printed so far: the [annot_defs] store counter. *)
