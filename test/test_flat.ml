(* The flat supergraph tables ([Flat]) the engine traverses: flat block
   ids must round-trip to (function, block) pairs, replicate the boxed CFG
   views exactly, and carry the same events and terminator annotations a
   per-block list builder over [Block.t] produces; per-root fault
   containment rolls back flat state (first-visit annotation bits). *)

let t = Alcotest.test_case

let free () = [ Free_checker.checker () ]
let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports

let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"flat.c" src ]

let gen_sg ~seed =
  Supergraph.build
    (Gen.generate_files ~seed ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.5
    |> List.map (fun (file, g) -> Cparse.parse_tunit ~file g.Gen.source))

(* A small program exercising every block shape the flat tables encode:
   branches (dedup'd equal arms come from the generator tests), a switch,
   returns, calls through names and pointers, decl initialisers. *)
let shapes_src =
  "int helper(int *p) { kfree(p); return 0; }\n\
   int f(int a, int *p) {\n\
  \  int x = a + 1;\n\
  \  if (a) { helper(p); } else { x = 2; }\n\
  \  switch (x) { case 1: a = 3; break; case 2: a = 4; break; default: a = 5; }\n\
  \  while (a) { a = a - 1; }\n\
  \  return *p + x;\n\
   }\n\
   int g(void (*fp)(int)) { fp(1); return 0; }\n"

let table_tests =
  [
    t "flat ids round-trip through unflatten" `Quick (fun () ->
        let sg = sg_of shapes_src in
        let flat = sg.Supergraph.flat in
        Hashtbl.iter
          (fun fname (cfg : Cfg.t) ->
            let base = Flat.fbase flat fname in
            Alcotest.(check bool)
              (fname ^ " known to flat table") true (base >= 0);
            Array.iteri
              (fun bid _ ->
                Alcotest.(check (pair string int))
                  (Printf.sprintf "unflatten %s#%d" fname bid)
                  (fname, bid)
                  (Flat.unflatten flat (base + bid)))
              cfg.Cfg.blocks)
          sg.Supergraph.cfgs;
        Alcotest.(check int) "unknown function has no base" (-1)
          (Flat.fbase flat "no_such_function"));
    t "flat successors replicate Cfg.successors" `Quick (fun () ->
        let sg = gen_sg ~seed:7 in
        let flat = sg.Supergraph.flat in
        Hashtbl.iter
          (fun fname (cfg : Cfg.t) ->
            let base = Flat.fbase flat fname in
            Array.iteri
              (fun bid _ ->
                let boxed =
                  List.map (fun s -> base + s) (Cfg.successors cfg bid)
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "successors %s#%d" fname bid)
                  boxed
                  (Flat.successors flat (base + bid)))
              cfg.Cfg.blocks)
          sg.Supergraph.cfgs);
    t "flat head masks and calls replicate Block_heads" `Quick (fun () ->
        let sg = sg_of shapes_src in
        let flat = sg.Supergraph.flat in
        Hashtbl.iter
          (fun fname (cfg : Cfg.t) ->
            let base = Flat.fbase flat fname in
            let heads = Block_heads.of_cfg cfg in
            Array.iteri
              (fun bid (h : Block_heads.t) ->
                Alcotest.(check int)
                  (Printf.sprintf "mask %s#%d" fname bid)
                  h.Block_heads.mask
                  flat.Flat.head_mask.(base + bid);
                Alcotest.(check (list string))
                  (Printf.sprintf "calls %s#%d" fname bid)
                  h.Block_heads.calls
                  (Flat.calls flat (base + bid)))
              heads)
          sg.Supergraph.cfgs);
    t "entry/exit ids and table size are sane" `Quick (fun () ->
        let sg = sg_of shapes_src in
        let flat = sg.Supergraph.flat in
        (match (Supergraph.cfg_of sg "f", Flat.fidx flat "f") with
        | Some cfg, Some fi ->
            let base = Flat.fbase flat "f" in
            Alcotest.(check int) "entry" (base + cfg.Cfg.entry)
              flat.Flat.entry.(fi);
            Alcotest.(check int) "exit" (base + cfg.Cfg.exit_)
              flat.Flat.exit_.(fi)
        | _ -> Alcotest.fail "f missing from supergraph or flat table");
        Alcotest.(check bool) "table_bytes positive" true
          (Flat.table_bytes flat > 0));
  ]

(* The boxed reference builder: a block's node events and terminator
   tags rebuilt as lists straight from [Block.t], as the engine did per
   context before the flat tables existed. *)
let boxed_events (block : Block.t) =
  let nodes e = List.map (fun n -> Flat.Ev_node n) (Cast.exec_order e) in
  let of_elem = function
    | Block.Tree e -> nodes e
    | Block.Decl d -> (
        match d.Cast.dinit with
        | Some init ->
            let synth =
              Cast.mk_expr ~loc:init.eloc
                (Cast.Eassign (None, Cast.ident ~loc:init.eloc d.Cast.dname, init))
            in
            Flat.Ev_fresh d.Cast.dname :: nodes synth
        | None -> [ Flat.Ev_fresh d.Cast.dname ])
    | Block.End_of_scope vars -> [ Flat.Ev_scope_end vars ]
  in
  let term_evs, annots =
    match block.term with
    | Block.Branch (c, _, _) -> (nodes c, [ (c, "mc_branch") ])
    | Block.Switch (e, _) -> (nodes e, [ (e, "mc_branch") ])
    | Block.Return (Some e) -> (nodes e, [ (e, "mc_return") ])
    | Block.Jump _ | Block.Return None | Block.Exit -> ([], [])
  in
  (List.concat_map of_elem block.elems @ term_evs, annots)

(* Program nodes must be the very same tree; the declaration-initialiser
   assignment is synthesised by each builder, so it compares by content
   and location. *)
let same_node (a : Cast.expr) (b : Cast.expr) =
  a == b || (Cast.equal_expr a b && a.Cast.eloc = b.Cast.eloc)

let same_event a b =
  match (a, b) with
  | Flat.Ev_node x, Flat.Ev_node y -> same_node x y
  | Flat.Ev_fresh x, Flat.Ev_fresh y -> String.equal x y
  | Flat.Ev_scope_end x, Flat.Ev_scope_end y -> List.equal String.equal x y
  | _ -> false

let identity_tests =
  [
    t "flat and boxed reports byte-identical at -j1/-j2" `Quick (fun () ->
        List.iter
          (fun sg ->
            let flat = sg.Supergraph.flat in
            let n_tags = ref 0 in
            Hashtbl.iter
              (fun fname (cfg : Cfg.t) ->
                let base = Flat.fbase flat fname in
                Array.iter
                  (fun (block : Block.t) ->
                    let fb = base + block.Block.bid in
                    let where = Printf.sprintf "%s#%d" fname block.Block.bid in
                    let evs, annots = boxed_events block in
                    Alcotest.(check bool)
                      ("events " ^ where) true
                      (List.equal same_event evs
                         (Array.to_list (Flat.events flat fb)));
                    n_tags := !n_tags + List.length annots;
                    Alcotest.(check bool)
                      ("annotations " ^ where) true
                      (List.for_all
                         (fun ((e : Cast.expr), tag) ->
                           Flat.term_tag flat e.Cast.eid = Some tag)
                         annots))
                  cfg.Cfg.blocks)
              sg.Supergraph.cfgs;
            Alcotest.(check int)
              "no other tagged nodes" !n_tags
              (Hashtbl.length flat.Flat.term_tags))
          [ sg_of shapes_src; gen_sg ~seed:11 ];
        let sg = gen_sg ~seed:11 in
        let j1 = Engine.run sg (free ()) in
        let j2 = Engine.run ~jobs:2 sg (free ()) in
        Alcotest.(check (list string))
          "flat -j2 = flat -j1" (report_lines j1) (report_lines j2));
  ]

(* A root whose path count explodes, placed last so dropping it does not
   shift the healthy roots' output. *)
let explosion_src =
  "int f(int *p) { kfree(p); return *p; }\n\
   int h(int *r) { kfree(r); return *r; }\n"

let explode_fn =
  "int explode(int a, int b, int c, int d) {\n\
  \  int *p1; int *p2; int *p3; int *p4;\n\
  \  if (a) { kfree(p1); } if (b) { kfree(p2); }\n\
  \  if (c) { kfree(p3); } if (d) { kfree(p4); }\n\
  \  if (a) { b = 1; } if (b) { c = 1; } if (c) { d = 1; } if (d) { a = 1; }\n\
  \  return *p1 + *p2 + *p3 + *p4;\n\
   }\n"

let rollback_tests =
  [
    t "degraded root rolls back flat-mode state at -j1/-j2" `Quick (fun () ->
        (* the traversal tracks first-visit terminator annotations in a
           per-context bitset; rollback must clear the degraded root's
           bits (and annotations) so healthy roots' output is identical
           to a run that never had the bad root *)
        let budgeted =
          { Engine.default_options with max_nodes_per_root = 40 }
        in
        let healthy = Engine.run (sg_of explosion_src) (free ()) in
        Alcotest.(check int) "baseline sanity" 0
          (List.length healthy.Engine.degraded);
        let faulty_sg = sg_of (explosion_src ^ explode_fn) in
        List.iter
          (fun jobs ->
            let r = Engine.run ~options:budgeted ~jobs faulty_sg (free ()) in
            Alcotest.(check (list string))
              (Printf.sprintf "degraded root only (j=%d)" jobs)
              [ "explode" ]
              (List.map
                 (fun (d : Engine.degraded) -> d.Engine.d_root)
                 r.Engine.degraded);
            Alcotest.(check (list string))
              (Printf.sprintf "healthy roots identical (j=%d)" jobs)
              (report_lines healthy) (report_lines r))
          [ 1; 2 ]);
  ]

let suite =
  table_tests @ identity_tests @ rollback_tests
