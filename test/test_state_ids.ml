(* Hash-consed expression identity ([Exprid]) and integer-coded tuple
   state: ids are equality tokens for rendered keys (same id iff same
   key), tuple ids are the atoms of rendered tuple keys, the base table
   is shared read-only across domains, and per-root fault containment
   rolls back int-keyed journal state. *)

let t = Alcotest.test_case
let e s = Cparse.expr_of_string ~file:"<t>" s
let free () = [ Free_checker.checker () ]
let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports
let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"ids.c" src ]

let gen_sg ~seed =
  Supergraph.build
    (Gen.generate_files ~seed ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.5
    |> List.map (fun (file, g) -> Cparse.parse_tunit ~file g.Gen.source))

let src =
  "int f(int *p, int a) {\n\
  \  int x = a + 1;\n\
  \  if (a) { kfree(p); }\n\
  \  return *p + x;\n\
   }\n"

(* A pool with both program expressions and synthesized trees, including
   the literal pair whose keys collided before contents were escaped. *)
let pool =
  [ "p"; "a"; "*p"; "a + 1"; "kfree(p)"; "q->f[2]"; "'a'"; "97";
    {|f("x\",s\"y")|}; {|f("x", "y")|} ]

let table_tests =
  [
    t "ids are key identity in both modes" `Quick (fun () ->
        (* program expressions (base ids through the eid memo) and fresh
           parses of the pool (overflow or key-resolved ids) alike *)
        let sg = sg_of src in
        let ctx = Exprid.make_ctx sg.Supergraph.ids in
        let program =
          List.concat_map
            (fun (cfg : Cfg.t) ->
              List.concat_map
                (fun (b : Block.t) ->
                  List.concat_map
                    (function
                      | Block.Tree e -> Cast.exec_order e
                      | Block.Decl _ | Block.End_of_scope _ -> [])
                    b.Block.elems)
                (Array.to_list cfg.Cfg.blocks))
            (List.filter_map (Supergraph.cfg_of sg) [ "f" ])
        in
        let exprs = program @ List.map e pool in
        List.iter
          (fun e1 ->
            List.iter
              (fun e2 ->
                let k1 = Cast.key_of_expr e1 and k2 = Cast.key_of_expr e2 in
                Alcotest.(check bool)
                  (Printf.sprintf "id eq iff key eq: %s / %s" k1 k2)
                  (String.equal k1 k2)
                  (Exprid.id ctx e1 = Exprid.id ctx e2))
              exprs)
          exprs);
    t "ids round-trip to rendered keys" `Quick (fun () ->
        let sg = sg_of src in
        let ctx = Exprid.make_ctx sg.Supergraph.ids in
        List.iter
          (fun s ->
            let ex = e s in
            let id = Exprid.id ctx ex in
            Alcotest.(check string)
              (Printf.sprintf "key of id: %s" s)
              (Cast.key_of_expr ex) (Exprid.key ctx id);
            Alcotest.(check (option string))
              (Printf.sprintf "find_key: %s" s)
              (Some (Cast.key_of_expr ex))
              (Exprid.find_key ctx id))
          pool;
        (* program nodes resolve through the dense base table *)
        Alcotest.(check bool) "program expr has base id" true
          (Exprid.id ctx (e "a + 1") < Exprid.n sg.Supergraph.ids));
    t "base ids are stable across domains" `Quick (fun () ->
        (* the base table is frozen by Supergraph.build and shared
           read-only: every worker domain's private ctx must assign a
           program expression the same id *)
        let sg = sg_of src in
        let ids_in_domain () =
          Domain.spawn (fun () ->
              let ctx = Exprid.make_ctx sg.Supergraph.ids in
              List.map (fun s -> Exprid.id ctx (e s)) pool)
        in
        let d1 = ids_in_domain () and d2 = ids_in_domain () in
        let v1 = Domain.join d1 and v2 = Domain.join d2 in
        let ctx = Exprid.make_ctx sg.Supergraph.ids in
        let v0 = List.map (fun s -> Exprid.id ctx (e s)) pool in
        List.iter2
          (fun (a, b) s ->
            (* overflow ids are context-private by design; base ids (all
               the program expressions) must agree everywhere *)
            if a < Exprid.n sg.Supergraph.ids || b < Exprid.n sg.Supergraph.ids
            then Alcotest.(check int) (Printf.sprintf "base id of %s" s) a b)
          (List.combine v0 v1) pool;
        List.iter2
          (fun (a, b) s ->
            if a < Exprid.n sg.Supergraph.ids || b < Exprid.n sg.Supergraph.ids
            then Alcotest.(check int) (Printf.sprintf "base id of %s (d2)" s) a b)
          (List.combine v1 v2) pool);
  ]

let identity_tests =
  [
    t "strings and ids reports byte-identical at -j1/-j2" `Quick (fun () ->
        (* a tuple id is the atom of the tuple's rendered key, the string
           identity persisted summaries carry: over every gstate / key /
           value combination, on first sight and again from the packed
           cache *)
        let it = Intern.create () in
        let render g v =
          Summary.tuple_key
            {
              Summary.t_g = g;
              t_v =
                Option.map
                  (fun (k, value) ->
                    {
                      Summary.v_key = k;
                      v_tree = Cast.ident k;
                      v_value = value;
                      v_depth = 0;
                    })
                  v;
            }
        in
        let gs = [ "start"; "locked"; "stop" ] in
        let vs =
          None
          :: List.concat_map
               (fun k -> List.map (fun v -> Some (k, v)) [ "freed"; "start" ])
               (List.map Cast.key_of_expr (List.map e pool))
        in
        for _ = 1 to 2 do
          List.iter
            (fun g ->
              List.iter
                (fun v ->
                  let key = render g v in
                  let id =
                    match v with
                    | None ->
                        Intern.tuple it ~g:(Intern.atom it g) ~vkey:Intern.no_var
                          ~vval:Intern.no_var
                    | Some (k, value) ->
                        Intern.tuple it ~g:(Intern.atom it g)
                          ~vkey:(Intern.atom it k) ~vval:(Intern.atom it value)
                  in
                  Alcotest.(check int)
                    ("tuple = atom of " ^ key) (Intern.atom it key) id;
                  Alcotest.(check string)
                    ("name of " ^ key) key (Intern.name it id))
                vs)
            gs
        done;
        let sg = gen_sg ~seed:17 in
        let j1 = Engine.run sg (free ()) in
        let j2 = Engine.run ~jobs:2 sg (free ()) in
        Alcotest.(check (list string))
          "ids -j2 = ids -j1" (report_lines j1) (report_lines j2));
  ]

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
    t "degraded root rolls back int-keyed journals at -j1/-j2" `Quick
      (fun () ->
        (* report dedup and summary sources are keyed by interned ints;
           rollback must unwind those journal entries so healthy roots'
           output matches a run that never had the bad root *)
        let budgeted = { Engine.default_options with max_nodes_per_root = 40 } in
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

let suite = table_tests @ identity_tests @ rollback_tests
