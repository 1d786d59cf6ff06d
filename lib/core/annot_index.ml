(* Positional identity of annotated AST nodes, for the summary store.

   Node ids are not stable across runs (decoding allocates fresh ids), so
   persisted annotation deltas are positional and re-resolved against the
   current program here. (location, printed expression) alone is
   ambiguous — the same header parsed into two translation units, or
   macro expansion duplicating an expression at one location, gives
   distinct nodes the same key — so the key also carries the enclosing
   global definition's name and the node's occurrence rank under that
   (location, printed, definition) triple. Ranks follow program order:
   every definition of that name in input order (each walked statement
   by statement, expressions pre-order), then the synthesised
   declaration-initialiser assignments of the definition the CFG kept
   ([Flat.decl_assigns]). A node reachable from several definitions
   belongs to the first. Replay then targets exactly the node the worker
   annotated, never a positional twin.

   Printing is what costs, so the index is built on demand, one
   definition name at a time: resolving a node prints and ranks only the
   definitions that share its owner's name, and resolving a stored key
   only those named by its context. Finding a node's owner takes one walk
   over the program that prints nothing, made on first need. A run whose
   annotation layers are empty walks nothing. The index is mutable and
   meant for one domain. *)

type node = {
  loc : Srcloc.t;
  printed : string;
  ctx : string;
  occ : int;
  key : string;
}

let base (loc : Srcloc.t) ~printed ~ctx =
  String.concat ""
    [ loc.file; ":"; string_of_int loc.line; ":"; string_of_int loc.col; "|"; printed; "|"; ctx ]

let key loc ~printed ~ctx ~occ = base loc ~printed ~ctx ^ "#" ^ string_of_int occ

let rec iter_expr f (e : Cast.expr) =
  f e;
  List.iter (iter_expr f) (Cast.children e)

let rec iter_stmt f (s : Cast.stmt) =
  match s.snode with
  | Cast.Sexpr e -> iter_expr f e
  | Cast.Sdecl ds ->
      List.iter (fun (d : Cast.decl) -> Option.iter (iter_expr f) d.dinit) ds
  | Cast.Sif (c, t, e) ->
      iter_expr f c;
      iter_stmt f t;
      Option.iter (iter_stmt f) e
  | Cast.Swhile (c, b) ->
      iter_expr f c;
      iter_stmt f b
  | Cast.Sdo (b, c) ->
      iter_stmt f b;
      iter_expr f c
  | Cast.Sfor (init, c, step, b) ->
      Option.iter (iter_stmt f) init;
      Option.iter (iter_expr f) c;
      Option.iter (iter_expr f) step;
      iter_stmt f b
  | Cast.Sreturn e -> Option.iter (iter_expr f) e
  | Cast.Sblock ss -> List.iter (iter_stmt f) ss
  | Cast.Sswitch (e, cases) ->
      iter_expr f e;
      List.iter (fun (c : Cast.case) -> List.iter (iter_stmt f) c.case_body) cases
  | Cast.Slabel (_, s1) -> iter_stmt f s1
  | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _ | Cast.Snull -> ()

(* A definition as the walk over its expressions, in ranking order. *)
type def = (Cast.expr -> unit) -> unit

(* The walk that prints nothing: each node's owning definition name, and
   every name's definitions in program order. *)
type program = {
  owner : (int, string) Hashtbl.t;
  defs : (string, def list) Hashtbl.t;
}

type t = {
  sg : Supergraph.t;
  program : program Lazy.t;
  nodes : (int, node) Hashtbl.t;  (* eid -> position, indexed names only *)
  ids : (string, int) Hashtbl.t;  (* positional key -> eid *)
  indexed : (string, unit) Hashtbl.t;
  mutable defs_printed : int;
}

let walk_program (sg : Supergraph.t) =
  let owner = Hashtbl.create 4096 and defs = Hashtbl.create 256 in
  let own name (e : Cast.expr) =
    if not (Hashtbl.mem owner e.eid) then Hashtbl.add owner e.eid name
  in
  let add name (walk : def) =
    walk (own name);
    Hashtbl.replace defs name
      (walk :: Option.value (Hashtbl.find_opt defs name) ~default:[])
  in
  List.iter
    (fun (tu : Cast.tunit) ->
      List.iter
        (function
          | Cast.Gfun fd -> add fd.fname (fun f -> iter_stmt f fd.fbody)
          | Cast.Gvar { gdecl = { dname; dinit = Some e; _ }; _ } ->
              add dname (fun f -> iter_expr f e)
          | _ -> ())
        tu.tu_globals)
    sg.tunits;
  (* synthesised nodes rank after every AST definition of their name;
     their initialiser subtrees already have an owner *)
  Array.iteri
    (fun fi name ->
      List.iter (iter_expr (own name)) sg.flat.Flat.decl_assigns.(fi))
    sg.flat.Flat.fnames;
  Hashtbl.filter_map_inplace (fun _ ds -> Some (List.rev ds)) defs;
  { owner; defs }

let create sg =
  {
    sg;
    program = lazy (walk_program sg);
    nodes = Hashtbl.create 256;
    ids = Hashtbl.create 256;
    indexed = Hashtbl.create 16;
    defs_printed = 0;
  }

let defs_printed t = t.defs_printed

(* Print and rank every node owned by a definition named [name]: its
   definitions, then the synthesised assignments of the one the CFG
   kept. Only the definitions count as printed. *)
let index_name t name =
  if not (Hashtbl.mem t.indexed name) then begin
    Hashtbl.add t.indexed name ();
    let { owner; defs } = Lazy.force t.program in
    let occs : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let visit (e : Cast.expr) =
      match Hashtbl.find_opt owner e.eid with
      | Some o when String.equal o name && not (Hashtbl.mem t.nodes e.eid) ->
          let printed = Cprint.expr_to_string e in
          let b = base e.eloc ~printed ~ctx:name in
          let occ = Option.value (Hashtbl.find_opt occs b) ~default:0 in
          Hashtbl.replace occs b (occ + 1);
          let key = b ^ "#" ^ string_of_int occ in
          Hashtbl.replace t.nodes e.eid { loc = e.eloc; printed; ctx = name; occ; key };
          Hashtbl.replace t.ids key e.eid
      | _ -> ()
    in
    List.iter
      (fun (walk : def) ->
        walk visit;
        t.defs_printed <- t.defs_printed + 1)
      (Option.value (Hashtbl.find_opt defs name) ~default:[]);
    Option.iter
      (fun fi -> List.iter (iter_expr visit) t.sg.flat.Flat.decl_assigns.(fi))
      (Flat.fidx t.sg.flat name)
  end

let node t eid =
  match Hashtbl.find_opt t.nodes eid with
  | Some _ as n -> n
  | None -> (
      match Hashtbl.find_opt (Lazy.force t.program).owner eid with
      | None -> None
      | Some name ->
          index_name t name;
          Hashtbl.find_opt t.nodes eid)

let find t loc ~printed ~ctx ~occ =
  index_name t ctx;
  Hashtbl.find_opt t.ids (key loc ~printed ~ctx ~occ)

let delta t annots =
  List.sort
    (fun ((a : Srcloc.t), pa, ca, oa, _) ((b : Srcloc.t), pb, cb, ob, _) ->
      compare (a.file, a.line, a.col, pa, ca, oa) (b.file, b.line, b.col, pb, cb, ob))
    (List.filter_map
       (fun (eid, tags) ->
         Option.map (fun n -> (n.loc, n.printed, n.ctx, n.occ, tags)) (node t eid))
       annots)

let resolve t stored =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (List.filter_map
       (fun (loc, printed, ctx, occ, tags) ->
         Option.map (fun eid -> (eid, tags)) (find t loc ~printed ~ctx ~occ))
       stored)
