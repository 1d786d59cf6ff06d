(** Abstract syntax trees for the C subset.

    AST nodes are the engine's program points (Section 5): every expression
    node carries a unique id and a source location. Structural operations
    ([equal_expr], [key_of_expr], [subst_expr]) deliberately ignore ids and
    locations — pattern matching, synonym tracking and refine/restore all
    compare trees "as code". *)

type unop =
  | Neg
  | Lognot
  | Bitnot
  | Deref
  | Addrof
  | Preinc
  | Predec
  | Postinc
  | Postdec

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Lt
  | Gt
  | Le
  | Ge
  | Eq
  | Ne
  | Band
  | Bor
  | Bxor
  | Land
  | Lor

type expr = { eid : int; eloc : Srcloc.t; enode : enode }

and enode =
  | Eint of int64
  | Efloat of float
  | Echar of char
  | Estr of string
  | Eident of string
  | Eunary of unop * expr
  | Ebinary of binop * expr * expr
  | Eassign of binop option * expr * expr
      (** [Eassign (None, l, r)] is [l = r]; [Eassign (Some Add, l, r)] is
          [l += r]. *)
  | Ecall of expr * expr list
  | Efield of expr * string
  | Earrow of expr * string
  | Eindex of expr * expr
  | Ecast of Ctyp.t * expr
  | Econd of expr * expr * expr
  | Ecomma of expr * expr
  | Esizeof_type of Ctyp.t
  | Esizeof_expr of expr
  | Einit_list of expr list  (** brace initializer *)

type decl = { dname : string; dtyp : Ctyp.t; dinit : expr option }

type stmt = { sid : int; sloc : Srcloc.t; snode : snode }

and snode =
  | Sexpr of expr
  | Sdecl of decl list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of stmt option * expr option * expr option * stmt
  | Sreturn of expr option
  | Sblock of stmt list
  | Sbreak
  | Scontinue
  | Sswitch of expr * case list
  | Sgoto of string
  | Slabel of string * stmt
  | Snull

and case = { case_guard : int64 option; case_body : stmt list }
(** [case_guard = None] is the [default:] arm. *)

type fundef = {
  fname : string;
  freturn : Ctyp.t;
  fparams : (string * Ctyp.t) list;
  fvariadic : bool;
  fbody : stmt;
  floc : Srcloc.t;
  ffile : string;
  fstatic : bool;
}

type skipped = {
  sk_name : string option;  (** best-effort name of the dropped definition *)
  sk_from : Srcloc.t;  (** start of the skipped source range *)
  sk_to : Srcloc.t;  (** last token the recovery scan consumed *)
  sk_msg : string;  (** the parse error, including its own location *)
}
(** A top-level definition the parser could not parse. Error recovery
    ({!Cparse.parse_tunit}) replaces the broken definition with this stub
    so the rest of the translation unit still analyzes; downstream layers
    treat the name (if any) as an undefined function — the conservative
    call model. *)

type global =
  | Gfun of fundef
  | Gvar of { gdecl : decl; gloc : Srcloc.t; gfile : string; gstatic : bool }
  | Gtypedef of string * Ctyp.t
  | Gcomposite of { ckind : [ `Struct | `Union ]; cname : string; cfields : (string * Ctyp.t) list }
  | Genum of { ename : string; eitems : (string * int64) list }
  | Gproto of { pname : string; ptyp : Ctyp.t }
  | Gskipped of skipped

type tunit = { tu_file : string; tu_globals : global list }

(** {1 Construction} *)

val fresh_eid : unit -> int
val fresh_sid : unit -> int
val mk_expr : ?loc:Srcloc.t -> enode -> expr
val mk_stmt : ?loc:Srcloc.t -> snode -> stmt
val ident : ?loc:Srcloc.t -> string -> expr
val intlit : ?loc:Srcloc.t -> int64 -> expr
val deref : ?loc:Srcloc.t -> expr -> expr
val call : ?loc:Srcloc.t -> string -> expr list -> expr

(** {1 Structural operations} *)

val equal_expr : expr -> expr -> bool
(** Structural equality, ignoring ids and locations. This is the tree
    equivalence used for repeated pattern holes (Section 4) and tracked
    object identity. *)

val compare_expr : expr -> expr -> int
(** Total order consistent with {!equal_expr} (ids and locations ignored),
    compared directly over the structure — no key rendering, no
    allocation. The order is structural, not the lexicographic order of
    rendered {!key_of_expr} strings. *)

val equal_stmt : stmt -> stmt -> bool
(** Structural equality over statements (ids/locations ignored), used by the
    round-trip property tests. A bare [Sblock [s]] does {e not} equal [s]. *)

val key_of_expr : expr -> string
(** Canonical string key for hashing tracked program objects; two expressions
    have equal keys iff they are [equal_expr]. String and character literal
    contents are escaped ([String.escaped] / character codes) so literal
    contents cannot forge the key's delimiter structure. *)

val add_key_of_expr : Buffer.t -> expr -> unit
(** [key_of_expr] rendered into an existing buffer — the allocation-light
    path for callers that intern or concatenate keys. *)

val children : expr -> expr list
(** Immediate subexpressions, left to right. *)

val contains_expr : needle:expr -> expr -> bool
(** [contains_expr ~needle e] holds when [needle] occurs in [e] as a subtree
    (including [e] itself). *)

val subst_expr : needle:expr -> replacement:expr -> expr -> expr
(** Replace every occurrence of [needle] (as a subtree) with [replacement];
    the replaced-into nodes get fresh ids. Used by refine/restore (Table 2). *)

val idents_of_expr : expr -> string list
(** All identifiers mentioned, in order, with duplicates. Used by
    kill-on-redefinition. *)

val exec_order : expr -> expr list
(** All subexpression nodes in execution order (Section 5): a call's
    arguments before the call, an assignment's RHS before its LHS before the
    assignment node itself. The result ends with the root node. *)

val base_lvalue : expr -> expr option
(** The identifier at the base of an lvalue: [x] for [x], [x.f], [x->f],
    [*x], [x[i]]; [None] for other shapes. *)

val unop_to_string : unop -> string
val binop_to_string : binop -> string
val pp_unop : Format.formatter -> unop -> unit
val pp_binop : Format.formatter -> binop -> unit
