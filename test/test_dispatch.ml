(* Compiled transition dispatch: head-constructor classification, the
   pruned callsite model, and the full-scan reference — at every node of
   every corpus, each transition that matches must be among the index's
   candidates and its block must be live, so first-match-wins picks the
   winner a scan of the whole transition list would. *)

let t = Alcotest.test_case

let e s = Cparse.expr_of_string ~file:"<t>" s
let p s = Pattern.Pexpr (e s)

let v_hole = [ ("v", Holes.Any_pointer) ]

let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"dispatch.c" src ]

let all_checkers () = List.map (fun ex -> ex.Registry.e_make ()) (Registry.all ())

(* emission-order lines: the contract is byte-identical output, not
   merely same-set *)
let output_lines (r : Engine.result) =
  List.map Report.to_string r.Engine.reports
  @ List.map
      (fun (rule, ex, cx) -> Printf.sprintf "%s %d %d" rule ex cx)
      r.Engine.counters

let shapes_of = function
  | Dispatch.Rooted { shapes; _ } -> List.map Block_heads.shape_name shapes
  | Dispatch.Wildcard -> Alcotest.fail "expected Rooted, got Wildcard"

let calls_of = function
  | Dispatch.Rooted { calls; _ } -> calls
  | Dispatch.Wildcard -> Alcotest.fail "expected Rooted, got Wildcard"

let is_wild = function Dispatch.Wildcard -> true | Dispatch.Rooted _ -> false

let classification_tests =
  [
    t "named call classifies by callee" `Quick (fun () ->
        let c = Dispatch.classify ~holes:v_hole (p "kfree(v)") in
        Alcotest.(check (list string)) "calls" [ "kfree" ] (calls_of c);
        Alcotest.(check (list string)) "no shapes" [] (shapes_of c));
    t "deref pattern classifies as deref shape" `Quick (fun () ->
        let c = Dispatch.classify ~holes:v_hole (p "*v") in
        Alcotest.(check (list string)) "shapes" [ "deref" ] (shapes_of c));
    t "assignment-rooted pattern classifies as assign" `Quick (fun () ->
        let holes = [ ("v", Holes.Any_pointer); ("w", Holes.Any_expr) ] in
        let c = Dispatch.classify ~holes (p "v = w") in
        Alcotest.(check (list string)) "shapes" [ "assign" ] (shapes_of c));
    t "bare hole is a wildcard" `Quick (fun () ->
        Alcotest.(check bool) "wild" true
          (is_wild (Dispatch.classify ~holes:v_hole (p "v"))));
    t "disjunction unions heads across shapes" `Quick (fun () ->
        let c =
          Dispatch.classify ~holes:v_hole
            (Pattern.Por (p "*v", p "kfree(v)"))
        in
        Alcotest.(check (list string)) "shapes" [ "deref" ] (shapes_of c);
        Alcotest.(check (list string)) "calls" [ "kfree" ] (calls_of c));
    t "callout-only pattern is a wildcard" `Quick (fun () ->
        Alcotest.(check bool) "wild" true
          (is_wild
             (Dispatch.classify ~holes:v_hole
                (Pattern.Pcallout (e "mc_is_ident(v)")))));
    t "conjunction with a callout narrows to the call" `Quick (fun () ->
        let c =
          Dispatch.classify ~holes:v_hole
            (Pattern.Pand (Pattern.Pcallout (e "mc_is_ident(v)"), p "kfree(v)"))
        in
        Alcotest.(check (list string)) "calls" [ "kfree" ] (calls_of c));
    t "any_fn_call hole matches any call but only calls" `Quick (fun () ->
        let holes =
          [ ("fn", Holes.Any_fn_call); ("args", Holes.Any_arguments) ]
        in
        match Dispatch.classify ~holes (p "fn(args)") with
        | Dispatch.Rooted { shapes; calls; any_call } ->
            Alcotest.(check (list string)) "no named calls" [] calls;
            Alcotest.(check bool) "any_call" true any_call;
            Alcotest.(check int) "no shapes" 0 (List.length shapes)
        | Dispatch.Wildcard -> Alcotest.fail "expected Rooted");
    t "never/end-of-path patterns can match no node" `Quick (fun () ->
        match Dispatch.classify ~holes:[] Pattern.Pend_of_path with
        | Dispatch.Rooted { shapes = []; calls = []; any_call = false } -> ()
        | _ -> Alcotest.fail "expected the empty Rooted classification");
  ]

let shape_walk_tests =
  [
    t "comma expression's value can come from a call" `Quick (fun () ->
        Alcotest.(check bool) "comma" true
          (Dispatch.expr_shape_is_call (e "(x, f(y))"));
        Alcotest.(check bool) "left call only" false
          (Dispatch.expr_shape_is_call (e "(f(y), x)")));
    t "conditional arms can come from a call" `Quick (fun () ->
        Alcotest.(check bool) "both arms" true
          (Dispatch.expr_shape_is_call (e "c ? f(x) : g(x)"));
        Alcotest.(check bool) "one arm suffices" true
          (Dispatch.expr_shape_is_call (e "c ? f(x) : y"));
        Alcotest.(check bool) "no arm" false
          (Dispatch.expr_shape_is_call (e "c ? x : y")));
    t "assign and cast chains look through to the call" `Quick (fun () ->
        Alcotest.(check bool) "assign of comma" true
          (Dispatch.expr_shape_is_call (e "p = (x, f(y))"));
        Alcotest.(check bool) "cast" true
          (Dispatch.expr_shape_is_call (e "(int *) f(y)"));
        Alcotest.(check bool) "binary is not a call" false
          (Dispatch.expr_shape_is_call (e "f(x) + 1")));
    t "call_model keeps call disjuncts, drops bare holes" `Quick (fun () ->
        match Dispatch.call_model (Pattern.Por (p "kfree(v)", p "v")) with
        | Some (Pattern.Pexpr ce) ->
            Alcotest.(check bool) "kept the call side" true
              (Dispatch.expr_shape_is_call ce)
        | _ -> Alcotest.fail "expected the call disjunct alone");
    t "call_model keeps conjunctions whole, drops non-calls" `Quick (fun () ->
        (match
           Dispatch.call_model
             (Pattern.Pand (Pattern.Pcallout (e "mc_is_ident(v)"), p "kfree(v)"))
         with
        | Some (Pattern.Pand _) -> ()
        | _ -> Alcotest.fail "expected the conjunction kept whole");
        Alcotest.(check bool) "deref does not model a call" true
          (Dispatch.call_model (p "*v") = None);
        Alcotest.(check bool) "comma-call models" true
          (Dispatch.pattern_models_call (p "(x, f(y))")))
  ]

(* The satellite-1 regression at the engine level: a bare hole sitting in
   a disjunction with a call pattern must not suppress following a
   defined callee. With zero tracked instances the [v.tracked] rule can
   never fire, so its [{ release(v) } || { v }] pattern must not count as
   modelling the call to [helper2] — the old prepass matched the full
   pattern (the bare hole matched anything) and never followed. *)
let bare_hole_checker =
  {|
sm baretest {
  state decl any_pointer v;

  start:
    { mark(v) } ==> v.tracked
  ;

  v.tracked:
    { release(v) } || { v } ==> v.stop
  ;
}
|}

let bare_hole_code =
  "void helper2(int *p) { kfree(p); }\n\
   int root(int *p) { helper2(p); return 0; }\n"

let regression_tests =
  [
    t "bare-hole disjunct does not suppress call following" `Quick (fun () ->
        let ext =
          match Metal_compile.load ~file:"baretest.metal" bare_hole_checker with
          | [ sm ] -> sm
          | _ -> Alcotest.fail "expected one sm"
        in
        let run options =
          (Engine.run ~options (sg_of bare_hole_code) [ ext ]).Engine.stats
            .Engine.calls_followed
        in
        Alcotest.(check int) "indexed follows helper2" 1
          (run Engine.default_options));
    t "skip sets leave end-of-path transitions alone" `Quick (fun () ->
        (* the leak checker's report fires at end of scope inside a block
           with no matchable node; skipping apply_transitions for such
           blocks must not lose it *)
        let src =
          "int leaky(int n) { int *p = kmalloc(n); if (n) { return 0; } \
           kfree(p); return 1; }"
        in
        let r = Engine.run (sg_of src) [ Leak_checker.checker () ] in
        Alcotest.(check (list string))
          "leak found in leaky" [ "leaky" ]
          (List.map (fun (rep : Report.t) -> rep.Report.func) r.Engine.reports));
  ]

(* Full-scan reference: every corpus, every checker, every node event
   of every block. *)
let corpora () =
  [
    ("fixture driver", Fixture_driver.files);
    ( "generated 30",
      [ ("gen30.c", (Gen.generate ~seed:11 ~n_funcs:30 ~bug_rate:0.4).Gen.source) ]
    );
    ("diamond", [ ("diamond.c", Synth.diamond_chain ~n:8) ]);
    ("call tree", [ ("tree.c", Synth.call_tree ~depth:3 ~fanout:3) ]);
    ("correlated", [ ("corr.c", Synth.correlated_branches ~n:4) ]);
    ("no-match heavy", [ ("nm.c", Synth.no_match_heavy ~n_funcs:10 ~stmts:16) ]);
    ("locks", [ ("locks.c", Synth.lock_workload ~n_funcs:12 ~bug_every:3) ]);
  ]

let sg_of_files files =
  Supergraph.build
    (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) files)

(* [f fname fb node] for every node event of every block, in flat order. *)
let iter_nodes (sg : Supergraph.t) f =
  let flat = sg.Supergraph.flat in
  for fi = 0 to Flat.n_functions flat - 1 do
    let fname = flat.Flat.fnames.(fi) in
    for fb = flat.Flat.block_base.(fi) to flat.Flat.block_base.(fi + 1) - 1 do
      Array.iter
        (function
          | Flat.Ev_node n -> f fname fb n
          | Flat.Ev_fresh _ | Flat.Ev_scope_end _ -> ())
        (Flat.events flat fb)
    done
  done

(* The full scan, test-local: the node-matching transitions whose
   pattern matches [node] with no state variable pre-bound (the most
   permissive binding, so a superset of what any instance can fire). *)
let full_scan dsp ~ctx node =
  let trs = Dispatch.transitions dsp in
  List.filter
    (fun ti ->
      let c = trs.(ti) in
      Pattern.match_event ~ctx ~holes:c.Dispatch.c_holes
        c.Dispatch.c_tr.Sm.tr_pattern (Pattern.At_node node)
      <> None)
    (Array.to_list (Dispatch.all_node dsp))

let oracle_tests =
  [
    t "indexed equals naive on every corpus (all checkers)" `Quick (fun () ->
        List.iter
          (fun (name, files) ->
            let sg = sg_of_files files in
            List.iter
              (fun (ext : Sm.t) ->
                let dsp = Dispatch.compile ~sg ext in
                let all = Array.to_list (Dispatch.all_node dsp) in
                iter_nodes sg (fun fname fb node ->
                    let typing =
                      match Supergraph.fundef_of sg fname with
                      | Some f -> Ctyping.enter_function sg.Supergraph.typing f
                      | None -> sg.Supergraph.typing
                    in
                    let ctx =
                      { Callout.typing; node = Some node; annots = (fun _ -> []) }
                    in
                    let cand =
                      Array.to_list (Dispatch.candidates dsp node).Dispatch.b_trs
                    in
                    let where =
                      Printf.sprintf "%s: %s at %s in %s" name ext.Sm.sm_name
                        (Cast.key_of_expr node) fname
                    in
                    Alcotest.(check bool)
                      (where ^ ": candidates sorted, within all_node") true
                      (List.sort_uniq Int.compare cand = cand
                      && List.for_all (fun ti -> List.mem ti all) cand);
                    match full_scan dsp ~ctx node with
                    | [] -> ()
                    | matching ->
                        Alcotest.(check (list int))
                          (where ^ ": every match is a candidate")
                          matching
                          (List.filter (fun ti -> List.mem ti cand) matching);
                        Alcotest.(check bool)
                          (where ^ ": block is live") true
                          (Dispatch.block_live_flat dsp fb)))
              (all_checkers ()))
          (corpora ()));
    t "indexed equals naive at -j 2" `Quick (fun () ->
        let sg = sg_of_files Fixture_driver.files in
        let j1 = Engine.run sg (all_checkers ()) in
        let j2 = Engine.run ~jobs:2 sg (all_checkers ()) in
        Alcotest.(check (list string))
          "byte-identical output" (output_lines j1) (output_lines j2));
    t "index reduces match attempts without losing fires" `Quick (fun () ->
        (* the no-match corpus: candidate lists are strictly shorter than
           the full node-matching list summed over its nodes, whole blocks
           are skipped, and the per-node reference above shows no match
           is dropped *)
        let sg = sg_of_files (List.assoc "no-match heavy" (corpora ())) in
        let cand_total = ref 0 and scan_total = ref 0 in
        List.iter
          (fun ext ->
            let dsp = Dispatch.compile ~sg ext in
            iter_nodes sg (fun _ _ node ->
                cand_total :=
                  !cand_total
                  + Array.length (Dispatch.candidates dsp node).Dispatch.b_trs;
                scan_total := !scan_total + Array.length (Dispatch.all_node dsp)))
          (all_checkers ());
        Alcotest.(check bool)
          (Printf.sprintf "fewer candidates (%d < %d)" !cand_total !scan_total)
          true (!cand_total < !scan_total);
        let r = Engine.run sg (all_checkers ()) in
        Alcotest.(check bool) "index hits" true
          (r.Engine.stats.Engine.index_hits > 0);
        Alcotest.(check bool) "blocks skipped" true
          (r.Engine.stats.Engine.blocks_skipped > 0));
  ]

let suite =
  classification_tests @ shape_walk_tests @ regression_tests @ oracle_tests
