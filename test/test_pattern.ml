(* Pattern matching (Section 4) and Table 1 hole types. *)

let t = Alcotest.test_case
let e s = Cparse.expr_of_string ~file:"<t>" s

let typing_of src = Ctyping.of_program [ Cparse.parse_tunit ~file:"<t>" src ]

let decls =
  typing_of
    {|
int i; float fl; double d; char c;
int *ip; char *cp; void *vp;
struct s { int x; } sv;
int fn2(int a, int b);
|}

let ctx ?(typing = decls) node =
  { Callout.typing; node; annots = (fun _ -> []) }

let match_p ?typing ~holes pat_src node_src =
  let pat = Pattern.Pexpr (e pat_src) in
  let node = e node_src in
  Pattern.match_event ~ctx:(ctx ?typing (Some node)) ~holes pat (Pattern.At_node node)

let matches ?typing ~holes pat node = Option.is_some (match_p ?typing ~holes pat node)

let bound_to ~holes pat node name =
  match match_p ~holes pat node with
  | Some bindings -> (
      match List.assoc_opt name bindings with
      | Some (Pattern.Bnode b) -> Some (Cprint.expr_to_string b)
      | Some (Pattern.Bargs args) ->
          Some (String.concat "," (List.map Cprint.expr_to_string args))
      | None -> None)
  | None -> None

let hp = [ ("v", Holes.Any_pointer) ]
let he = [ ("x", Holes.Any_expr) ]

let suite =
  [
    t "literal call pattern matches" `Quick (fun () ->
        Alcotest.(check bool) "rand()" true (matches ~holes:[] "rand()" "rand()");
        Alcotest.(check bool) "other" false (matches ~holes:[] "rand()" "srand()"));
    t "lexical artifacts do not interfere (AST matching)" `Quick (fun () ->
        Alcotest.(check bool) "spacing" true (matches ~holes:he "f( x )" "f(1+  2)"));
    (* Table 1: hole types *)
    t "T1: concrete C type hole" `Quick (fun () ->
        let holes = [ ("n", Holes.Concrete Ctyp.int_) ] in
        Alcotest.(check bool) "int var" true (matches ~holes "f(n)" "f(i)");
        Alcotest.(check bool) "float var" false (matches ~holes "f(n)" "f(fl)"));
    t "T1: any_expr matches anything" `Quick (fun () ->
        Alcotest.(check bool) "expr" true (matches ~holes:he "f(x)" "f(i + fl)"));
    t "T1: any_scalar" `Quick (fun () ->
        let holes = [ ("s", Holes.Any_scalar) ] in
        Alcotest.(check bool) "int" true (matches ~holes "f(s)" "f(i)");
        Alcotest.(check bool) "float" true (matches ~holes "f(s)" "f(fl)");
        Alcotest.(check bool) "pointer is scalar" true (matches ~holes "f(s)" "f(ip)");
        Alcotest.(check bool) "struct not scalar" false (matches ~holes "f(s)" "f(sv)"));
    t "T1: any_pointer" `Quick (fun () ->
        Alcotest.(check bool) "int*" true (matches ~holes:hp "f(v)" "f(ip)");
        Alcotest.(check bool) "char*" true (matches ~holes:hp "f(v)" "f(cp)");
        Alcotest.(check bool) "void*" true (matches ~holes:hp "f(v)" "f(vp)");
        Alcotest.(check bool) "plain int" false (matches ~holes:hp "f(v)" "f(i)"));
    t "T1: any_arguments" `Quick (fun () ->
        let holes = [ ("args", Holes.Any_arguments) ] in
        Alcotest.(check (option string))
          "binds arg list" (Some "i,fl")
          (bound_to ~holes "fn2(args)" "fn2(i, fl)" "args");
        Alcotest.(check bool) "empty args" true (matches ~holes "g(args)" "g()"));
    t "T1: any_fn_call in function position" `Quick (fun () ->
        let holes = [ ("fn", Holes.Any_fn_call); ("args", Holes.Any_arguments) ] in
        Alcotest.(check (option string))
          "binds callee" (Some "fn2")
          (bound_to ~holes "fn(args)" "fn2(i, fl)" "fn"));
    t "deref pattern from Fig. 1" `Quick (fun () ->
        Alcotest.(check bool) "*v" true (matches ~holes:hp "*v" "*ip");
        Alcotest.(check (option string)) "binding" (Some "ip")
          (bound_to ~holes:hp "*v" "*ip" "v"));
    t "repeated holes need equal ASTs (Section 4)" `Quick (fun () ->
        Alcotest.(check bool) "foo(0,0)" true (matches ~holes:he "foo(x, x)" "foo(0, 0)");
        Alcotest.(check bool)
          "foo(a[i],a[i])" true
          (matches ~holes:he "foo(x, x)" "foo(a[i], a[i])");
        Alcotest.(check bool) "foo(0,1)" false (matches ~holes:he "foo(x, x)" "foo(0, 1)"));
    t "assignment pattern" `Quick (fun () ->
        let holes = [ ("v", Holes.Any_pointer); ("x", Holes.Any_expr) ] in
        Alcotest.(check bool)
          "v = malloc(x)" true
          (matches ~holes "v = malloc(x)" "ip = malloc(10)"));
    t "cast on subject is transparent for holes" `Quick (fun () ->
        Alcotest.(check bool) "f((int*)v)" true (matches ~holes:hp "f(v)" "f((int *)ip)"));
    t "and composition threads bindings" `Quick (fun () ->
        let holes = [ ("fn", Holes.Any_fn_call); ("args", Holes.Any_arguments) ] in
        let pat =
          Pattern.Pand
            ( Pattern.Pexpr (e "fn(args)"),
              Pattern.Pcallout (e {|mc_is_call_to(fn, "gets")|}) )
        in
        let node = e "gets(buf)" in
        let r = Pattern.match_event ~ctx:(ctx (Some node)) ~holes pat (Pattern.At_node node) in
        Alcotest.(check bool) "gets matches" true (Option.is_some r);
        let node2 = e "puts(buf)" in
        let r2 =
          Pattern.match_event ~ctx:(ctx (Some node2)) ~holes pat (Pattern.At_node node2)
        in
        Alcotest.(check bool) "puts does not" false (Option.is_some r2));
    t "or composition takes first success" `Quick (fun () ->
        let pat = Pattern.Por (Pattern.Pexpr (e "a()"), Pattern.Pexpr (e "b()")) in
        let node = e "b()" in
        Alcotest.(check bool)
          "b matches" true
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some node)) ~holes:[] pat
                (Pattern.At_node node))));
    t "degenerate callouts" `Quick (fun () ->
        let node = e "anything()" in
        Alcotest.(check bool)
          "${1}" true
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some node)) ~holes:[] Pattern.Palways
                (Pattern.At_node node)));
        Alcotest.(check bool)
          "${0}" false
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some node)) ~holes:[] Pattern.Pnever
                (Pattern.At_node node))));
    t "end_of_path matches only the path-end event" `Quick (fun () ->
        let node = e "f()" in
        Alcotest.(check bool)
          "not at node" false
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some node)) ~holes:[] Pattern.Pend_of_path
                (Pattern.At_node node)));
        Alcotest.(check bool)
          "at end" true
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx None) ~holes:[] Pattern.Pend_of_path
                Pattern.At_end_of_path)));
    t "callout mc_stmt refers to current node" `Quick (fun () ->
        let node = e "gets(s)" in
        let pat = Pattern.Pcallout (e {|mc_is_call_to(mc_stmt, "gets")|}) in
        Alcotest.(check bool)
          "mc_stmt" true
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some node)) ~holes:[] pat
                (Pattern.At_node node))));
    t "callout library: constants and args" `Quick (fun () ->
        let holes = [ ("x", Holes.Any_expr) ] in
        let pat =
          Pattern.Pand
            (Pattern.Pexpr (e "f(x)"), Pattern.Pcallout (e "mc_is_constant(x)"))
        in
        let yes = e "f(42)" and no = e "f(i)" in
        Alcotest.(check bool)
          "const arg" true
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some yes)) ~holes pat (Pattern.At_node yes)));
        Alcotest.(check bool)
          "non-const arg" false
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some no)) ~holes pat (Pattern.At_node no))));
    t "custom callout registration" `Quick (fun () ->
        Callout.register "test_is_ident_q" (fun _ctx args ->
            match args with
            | [ Callout.Vast { Cast.enode = Cast.Eident "q"; _ } ] -> Callout.Vbool true
            | _ -> Callout.Vbool false);
        let holes = [ ("x", Holes.Any_expr) ] in
        let pat =
          Pattern.Pand
            (Pattern.Pexpr (e "f(x)"), Pattern.Pcallout (e "test_is_ident_q(x)"))
        in
        let yes = e "f(q)" and no = e "f(r)" in
        Alcotest.(check bool)
          "q" true
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some yes)) ~holes pat (Pattern.At_node yes)));
        Alcotest.(check bool)
          "r" false
          (Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some no)) ~holes pat (Pattern.At_node no))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"hole-free patterns match exactly themselves"
         ~count:200
         QCheck2.Gen.(
           oneofl
             [ "f(1, 2)"; "a + b * c"; "*p->next"; "x = y"; "tbl[i]"; "g()";
               "a && (b || c)"; "s.f1.f2"; "-n"; "(x + 1) * 2" ])
         (fun src ->
           let node = e src in
           let pat = Pattern.Pexpr (e src) in
           Option.is_some
             (Pattern.match_event ~ctx:(ctx (Some node)) ~holes:[] pat
                (Pattern.At_node node))));
    t "pattern only matches at its root" `Quick (fun () ->
        (* the pattern kfree(v) must not match the node '*kfree(v)' *)
        Alcotest.(check bool)
          "deref node" false
          (matches ~holes:hp "kfree(v)" "*kfree(ip)"));
  ]
