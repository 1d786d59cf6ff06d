(* The persistent incremental cache: fingerprints, the pass-1 AST object
   cache (including emit-target disambiguation), summary serialisation,
   and the engine's cached mode — warm runs must be byte-identical to
   cold runs at any job count, and a leaf edit must invalidate exactly
   the leaf and its transitive callers. *)

let t = Alcotest.test_case

let temp_dir () =
  let f = Filename.temp_file "xgcc_test_cache" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let free () = [ Free_checker.checker () ]

let sg_of_files files =
  Supergraph.build
    (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) files)

let store_over dir =
  Summary_store.create ~dir
    ~ext_keys:
      (Summary_store.ext_keys_of
         ~options_digest:(Engine.options_digest Engine.default_options)
         ~sources:[ "free" ])
    ()

(* emission-order report lines: the byte-identity contract is about output
   order, so no sorting here *)
let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports

let checkers names =
  List.map (fun n -> (Option.get (Registry.find n)).Registry.e_make ()) names

let store_for names dir =
  Summary_store.create ~dir
    ~ext_keys:
      (Summary_store.ext_keys_of
         ~options_digest:(Engine.options_digest Engine.default_options)
         ~sources:names)
    ()

(* The stat counters a stored root entry carries: equal across every
   cached run of one tree, replayed or computed, at any -j. *)
let persisted_stats (r : Engine.result) =
  let s = r.Engine.stats in
  [
    s.Engine.blocks_visited; s.Engine.nodes_visited; s.Engine.cache_hits;
    s.Engine.paths_explored; s.Engine.calls_followed; s.Engine.summary_hits;
    s.Engine.pruned_branches; s.Engine.transitions_fired;
    s.Engine.instances_created;
  ]

(* Roots whose later extensions read tags an earlier extension left:
   panic() is tagged mc_kill_path (pathkill, then free: comp_kill2's
   use-after-free sits on a killed path), [r < 0] opens an ERROR path and
   get_user_pointer a SECURITY one (errpath, secpath, then null and leak
   fold those tags into their reports). The edited version [compose_v2]
   changes what [rel] reports for every list: a use-after-free (free) and
   unchecked allocations (null). *)
let compose ~rel_body =
  "static void die(void) { panic(\"fatal\"); }\n\
   static void rel(int *p) { " ^ rel_body ^ " }\n\
   int probe(int n);\n\
   int comp_kill(int *p, int c) { kfree(p); if (c) { die(); } return *p; }\n\
   int comp_kill2(int *p) { kfree(p); panic(\"fatal\"); return *p; }\n\
   int comp_err(int n) { int *q = kmalloc(n); int r = probe(n);\n\
  \  if (r < 0) { *q = 1; return r; } kfree(q); return 0; }\n\
   int comp_sec(int len) { char *u = get_user_pointer(len); int *m = kmalloc(len);\n\
  \  *m = 1; return *u; }\n\
   int comp_rel(int n) { int *x = kmalloc(n); rel(x); if (n < 0) { die(); } return *x; }\n"

let compose_v1 = compose ~rel_body:"(void)p;"
let compose_v2 = compose ~rel_body:"int *q = kmalloc(4); *q = 1; kfree(p); *p = 2;"

let leaf_v1 =
  "static void leaf(int *p) { int e = 1; (void)e; kfree(p); }\n\
   int caller(int n) { int *x = kmalloc(n); leaf(x); return *x; }\n\
   int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"

(* same program with the leaf's body edited in place: the dead constant
   changes, so the body hash changes, but no source location moves and no
   analysis behaviour changes — the summary-neutral edit shape. (An edit
   that inserts or removes text shifts the locations of everything after
   it, and locations are observable through report and tuple trees, so
   such an edit IS a content change.) *)
let leaf_v2 =
  "static void leaf(int *p) { int e = 2; (void)e; kfree(p); }\n\
   int caller(int n) { int *x = kmalloc(n); leaf(x); return *x; }\n\
   int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"

(* A reader of the SECURITY tags secpath leaves: one report per tagged
   statement, so every tag the cache drops or misplaces shows. *)
let sec_reader_src =
  {|sm sec_reader { start: ${ mc_annotated(mc_stmt, "SECURITY") } ==> start,
     { err("statement on a user path"); } ; }|}

let sec_reader () =
  Callout.install_builtins ();
  Metal_compile.load ~file:"rd.metal" sec_reader_src

(* [int z = ...] and [int *u = get_user_pointer(k)] lower to synthesised
   [x = init] assignments: the second lies on the user path, so secpath
   tags it and the reader reports it *)
let synth_src z =
  "struct s { int f; };\n\
   int *get_user_pointer(int k);\n\
   int g(int k) {\n\
  \  struct s *p = kmalloc(4); int z = " ^ z ^ ";\n\
  \  int *u = get_user_pointer(k);\n\
  \  int y = p->f;\n\
  \  return y + *u + z;\n\
   }\n"

(* The oracle for [Annot_index]: an eager walk over every definition in
   program order (statements in order, expressions pre-order, a node
   keeping its first definition), then every function's synthesised
   initialiser assignments, ranking each (location, printed, definition)
   triple as it goes. Returns eid -> (loc, printed, ctx, occ, key). *)
let eager_annot_keys (sg : Supergraph.t) =
  let keys = Hashtbl.create 256 and occs = Hashtbl.create 256 in
  let visit ctx (e : Cast.expr) =
    if not (Hashtbl.mem keys e.eid) then begin
      let printed = Cprint.expr_to_string e in
      let base =
        Printf.sprintf "%s:%d:%d|%s|%s" e.eloc.Srcloc.file e.eloc.line e.eloc.col printed ctx
      in
      let occ = Option.value (Hashtbl.find_opt occs base) ~default:0 in
      Hashtbl.replace occs base (occ + 1);
      Hashtbl.replace keys e.eid (e.eloc, printed, ctx, occ, base ^ "#" ^ string_of_int occ)
    end
  in
  let rec expr ctx e =
    visit ctx e;
    List.iter (expr ctx) (Cast.children e)
  in
  let rec stmt ctx (s : Cast.stmt) =
    let ex = expr ctx and st = stmt ctx in
    match s.snode with
    | Cast.Sexpr e -> ex e
    | Cast.Sdecl ds -> List.iter (fun (d : Cast.decl) -> Option.iter ex d.dinit) ds
    | Cast.Sif (c, a, b) -> ex c; st a; Option.iter st b
    | Cast.Swhile (c, b) -> ex c; st b
    | Cast.Sdo (b, c) -> st b; ex c
    | Cast.Sfor (i, c, step, b) -> Option.iter st i; Option.iter ex c; Option.iter ex step; st b
    | Cast.Sreturn e -> Option.iter ex e
    | Cast.Sblock ss -> List.iter st ss
    | Cast.Sswitch (e, cases) ->
        ex e;
        List.iter (fun (c : Cast.case) -> List.iter st c.case_body) cases
    | Cast.Slabel (_, s1) -> st s1
    | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _ | Cast.Snull -> ()
  in
  List.iter
    (fun (tu : Cast.tunit) ->
      List.iter
        (function
          | Cast.Gfun fd -> stmt fd.fname fd.fbody
          | Cast.Gvar { gdecl = { dname; dinit = Some e; _ }; _ } -> expr dname e
          | _ -> ())
        tu.tu_globals)
    sg.tunits;
  Array.iteri
    (fun fi name -> List.iter (expr name) sg.flat.Flat.decl_assigns.(fi))
    sg.flat.Flat.fnames;
  keys

let suite =
  [
    t "fingerprints are stable and content-sensitive" `Quick (fun () ->
        Alcotest.(check string)
          "same input, same digest"
          (Fingerprint.of_string "hello")
          (Fingerprint.of_string "hello");
        Alcotest.(check bool)
          "different input, different digest" false
          (String.equal (Fingerprint.of_string "a") (Fingerprint.of_string "b"));
        Alcotest.(check bool)
          "salt changes the digest" false
          (String.equal
             (Fingerprint.of_string ~salt:"v1" "x")
             (Fingerprint.of_string ~salt:"v2" "x"));
        Alcotest.(check bool)
          "combine is order-sensitive" false
          (String.equal
             (Fingerprint.combine [ "a"; "b" ])
             (Fingerprint.combine [ "b"; "a" ])));
    t "ast fingerprint includes the file name" `Quick (fun () ->
        (* locations are baked into the AST, so the same text under two
           names must yield two cache objects *)
        Alcotest.(check bool)
          "same source, different file" false
          (String.equal
             (Cast_io.ast_fingerprint ~file:"a.c" ~source:"int x;")
             (Cast_io.ast_fingerprint ~file:"b.c" ~source:"int x;")));
    t "AST object cache round-trips a translation unit" `Quick (fun () ->
        let cache_dir = temp_dir () in
        let src = "int f(int *p) { kfree(p); return *p; }" in
        let tu = Cparse.parse_tunit ~file:"rt.c" src in
        let fp = Cast_io.ast_fingerprint ~file:"rt.c" ~source:src in
        Alcotest.(check bool)
          "miss before write" true
          (Cast_io.read_cached ~cache_dir fp = None);
        Cast_io.write_cached ~cache_dir fp tu;
        match Cast_io.read_cached ~cache_dir fp with
        | None -> Alcotest.fail "expected a cache hit"
        | Some tu' ->
            Alcotest.(check string)
              "identical emitted form" (Cast_io.emit_string tu)
              (Cast_io.emit_string tu'));
    t "emit targets keep unique basenames, disambiguate collisions" `Quick
      (fun () ->
        Alcotest.(check (list (pair string string)))
          "unique basenames unchanged"
          [ ("dir/x.c", "x.mcast"); ("dir/y.c", "y.mcast") ]
          (Cast_io.emit_targets [ "dir/x.c"; "dir/y.c" ]);
        (* the regression: a/util.c and b/util.c used to overwrite each
           other's util.mcast *)
        let targets = Cast_io.emit_targets [ "a/util.c"; "b/util.c" ] in
        let outs = List.map snd targets in
        Alcotest.(check int)
          "two distinct outputs" 2
          (List.length (List.sort_uniq String.compare outs));
        List.iter
          (fun o ->
            Alcotest.(check bool) "keeps .mcast suffix" true
              (Filename.check_suffix o ".mcast"))
          outs;
        match Cast_io.emit_targets [ "dup.c"; "./dup.c" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument on a residual collision");
    t "summary sexp round-trip is lossless" `Quick (fun () ->
        let src =
          "int use(int *p, int c) { if (c) { kfree(p); } return *p; }\n\
           int top(int *p, int c) { use(p, c); return 0; }"
        in
        let sg = sg_of_files [ ("s.c", src) ] in
        let _, per_ext = Engine.run_with_summaries sg (free ()) in
        let checked = ref 0 in
        List.iter
          (fun (_, tbl) ->
            Hashtbl.iter
              (fun _ (bs, sfx) ->
                Array.iter
                  (fun s ->
                    incr checked;
                    let b = Wire.writer () in
                    Summary.to_bin b s;
                    let s' = Summary.of_bin (Wire.reader (Wire.contents b)) in
                    Alcotest.(check string)
                      "to_sexp . of_bin . to_bin = to_sexp"
                      (Sexp.to_string (Summary.to_sexp s))
                      (Sexp.to_string (Summary.to_sexp s')))
                  (Array.append bs sfx))
              tbl)
          per_ext;
        Alcotest.(check bool) "exercised some summaries" true (!checked > 0));
    t "root entries round-trip through the store" `Quick (fun () ->
        let dir = temp_dir () in
        let store = store_over dir in
        let ext = Summary_store.ext_key store 0 in
        let r = Engine.check_source ~file:"r.c" leaf_v1 (free ()) in
        Alcotest.(check bool) "have a report" true (r.Engine.reports <> []);
        let entry =
          {
            Summary_store.r_root = "caller";
            r_key = Fingerprint.of_string "key";
            r_reports = r.Engine.reports;
            r_counters = [ ("rule", 3, 1) ];
            r_annots = [];
            r_traversed = [ "caller"; "leaf" ];
            r_stats = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
          }
        in
        Summary_store.store_root store ~ext entry;
        (match
           Summary_store.load_root store ~ext ~root:"caller"
             ~key:(Fingerprint.of_string "key")
         with
        | None -> Alcotest.fail "expected a root hit"
        | Some e ->
            Alcotest.(check (list string))
              "reports round-trip"
              (List.map Report.to_string entry.Summary_store.r_reports)
              (List.map Report.to_string e.Summary_store.r_reports);
            Alcotest.(check (list (triple string int int)))
              "counters round-trip" entry.Summary_store.r_counters
              e.Summary_store.r_counters;
            Alcotest.(check (list string))
              "traversed round-trips" entry.Summary_store.r_traversed
              e.Summary_store.r_traversed);
        Alcotest.(check bool)
          "stale key misses" true
          (Summary_store.load_root store ~ext ~root:"caller"
             ~key:(Fingerprint.of_string "other")
          = None));
    t "warm run is byte-identical to cold, including -j" `Quick (fun () ->
        let files =
          Gen.generate_files ~seed:31 ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.5
          |> List.map (fun (file, g) -> (file, g.Gen.source))
        in
        let sg = sg_of_files files in
        let uncached = Engine.run sg (free ()) in
        let dir = temp_dir () in
        let cold = Engine.run ~cache:(store_over dir) sg (free ()) in
        let warm_store = store_over dir in
        let warm = Engine.run ~cache:warm_store sg (free ()) in
        let warm4 = Engine.run ~jobs:4 ~cache:(store_over dir) sg (free ()) in
        Alcotest.(check (list string))
          "cold = uncached" (report_lines uncached) (report_lines cold);
        Alcotest.(check (list string))
          "warm = uncached" (report_lines uncached) (report_lines warm);
        Alcotest.(check (list string))
          "warm -j 4 = uncached" (report_lines uncached) (report_lines warm4);
        let st = Summary_store.stats warm_store in
        Alcotest.(check int)
          "warm run recomputes nothing" 0 st.Summary_store.roots_recomputed;
        Alcotest.(check bool)
          "warm run replays roots" true (st.Summary_store.roots_replayed > 0);
        (* Composition across modes: a linked corpus, checker lists whose
           later extensions read earlier extensions' tags, cached cold runs
           at -j2 and -j4, a warm -j4 run and a post-edit cached -j2 run,
           each against uncached -j1 of the same tree. *)
        let linked =
          Gen.generate_linked ~seed:5 ~n_files:3 ~funcs_per_file:6 ~bug_rate:0.5
          |> List.map (fun (file, g) -> (file, g.Gen.source))
        in
        let v1 = sg_of_files (linked @ [ ("compose.c", compose_v1) ]) in
        let v2 = sg_of_files (linked @ [ ("compose.c", compose_v2) ]) in
        List.iter
          (fun names ->
            let same label (expect : Engine.result) (got : Engine.result) =
              let label = String.concat "," names ^ ": " ^ label in
              Alcotest.(check (list string))
                (label ^ " reports") (report_lines expect) (report_lines got);
              Alcotest.(check (list (triple string int int)))
                (label ^ " counters") expect.Engine.counters got.Engine.counters;
              Alcotest.(check int) (label ^ " coverage")
                expect.Engine.stats.Engine.functions_traversed
                got.Engine.stats.Engine.functions_traversed
            in
            let ref1 = Engine.run v1 (checkers names) in
            let dir2 = temp_dir () and dir4 = temp_dir () in
            let cold2 = Engine.run ~jobs:2 ~cache:(store_for names dir2) v1 (checkers names) in
            let cold4 = Engine.run ~jobs:4 ~cache:(store_for names dir4) v1 (checkers names) in
            let warm_store = store_for names dir2 in
            let warm4 = Engine.run ~jobs:4 ~cache:warm_store v1 (checkers names) in
            same "cold -j2" ref1 cold2;
            same "cold -j4" ref1 cold4;
            same "warm -j4" ref1 warm4;
            Alcotest.(check int) "warm -j4 recomputes nothing" 0
              (Summary_store.stats warm_store).Summary_store.roots_recomputed;
            Alcotest.(check (list int)) "persisted stats, cold -j2 = cold -j4"
              (persisted_stats cold2) (persisted_stats cold4);
            Alcotest.(check (list int)) "persisted stats, cold -j2 = warm -j4"
              (persisted_stats cold2) (persisted_stats warm4);
            let edit_store = store_for names dir2 in
            let edited = Engine.run ~jobs:2 ~cache:edit_store v2 (checkers names) in
            same "post-edit -j2" (Engine.run v2 (checkers names)) edited;
            let est = Summary_store.stats edit_store in
            Alcotest.(check bool) "post-edit run recomputes comp_rel" true
              (est.Summary_store.roots_recomputed > 0);
            Alcotest.(check bool) "post-edit run replays the rest" true
              (est.Summary_store.roots_replayed > 0))
          [ [ "free" ]; [ "pathkill"; "free" ]; [ "errpath"; "secpath"; "null"; "leak" ] ]);
    (* leak reads the mc_branch/mc_return terminator tags; they are static
       supergraph data, so every mode sees them and no store entry
       carries them *)
    t "terminator tags: same reports in every mode, none stored" `Quick (fun () ->
        let g = Gen.generate ~seed:7 ~n_funcs:60 ~bug_rate:0.3 in
        (* mc_return stops tag_ret's allocation, mc_branch tag_branch's
           null path: only tag_leak leaks *)
        let tail =
          {|
int *tag_ret(int n) { int *p = kmalloc(n); return p; }
int tag_branch(int n) { int *p = kmalloc(n); if (!p) return 0; kfree(p); return 1; }
int tag_leak(int n) { int *p = kmalloc(n); *p = n; return 0; }
|}
        in
        let sg = sg_of_files [ ("tags.c", g.Gen.source ^ tail) ] in
        let names = [ "free"; "leak" ] in
        let j1 = Engine.run sg (checkers names) in
        let dir = temp_dir () in
        let cold = Engine.run ~cache:(store_for names dir) sg (checkers names) in
        let warm_store = store_for names dir in
        let warm = Engine.run ~cache:warm_store sg (checkers names) in
        Alcotest.(check (list string)) "leak reports" [ "tag_leak" ]
          (List.filter_map
             (fun (r : Report.t) ->
               if r.Report.checker = "leak_checker" then Some r.Report.func else None)
             j1.Engine.reports);
        List.iter
          (fun (label, r) ->
            Alcotest.(check (list string)) label (report_lines j1) (report_lines r))
          [
            ("-j2 = -j1", Engine.run ~jobs:2 sg (checkers names));
            ("cold = -j1", cold);
            ("warm = -j1", warm);
          ];
        Alcotest.(check int) "warm run recomputes nothing" 0
          (Summary_store.stats warm_store).Summary_store.roots_recomputed;
        let pack_dir = Filename.concat dir "pack" in
        let packs =
          List.filter
            (fun f -> Filename.check_suffix f ".bin")
            (Array.to_list (Sys.readdir pack_dir))
        in
        Alcotest.(check int) "one pack per extension" 2 (List.length packs);
        let mentions text word =
          let n = String.length word in
          let rec go i =
            i + n <= String.length text && (String.sub text i n = word || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun f ->
            match Summary_store.dump_pack (Filename.concat pack_dir f) with
            | Error e -> Alcotest.fail e
            | Ok entries ->
                let text = String.concat "\n" (List.map Sexp.to_string entries) in
                List.iter
                  (fun tag ->
                    Alcotest.(check bool) (f ^ " holds no " ^ tag) false (mentions text tag))
                  [ "mc_branch"; "mc_return" ])
          packs);
    t "summary-neutral leaf edit cuts off at the leaf" `Quick (fun () ->
        let dir = temp_dir () in
        (* cold run populates the store for v1 *)
        let _ =
          Engine.run
            ~cache:(store_over dir)
            (sg_of_files [ ("inv.c", leaf_v1) ])
            (free ())
        in
        let store = store_over dir in
        let v2 =
          Engine.run ~cache:store (sg_of_files [ ("inv.c", leaf_v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        (* functions: leaf, caller, unrelated. The edit changes a dead
           constant in leaf, so leaf's own key (body hash) goes stale and
           it recomputes — but its canonical summary content is unchanged,
           so the cutoff fires: caller's key folds leaf's CONTENT and
           still validates. This is the early-cutoff upgrade over
           body-hash closure keying, which recomputed caller too. *)
        Alcotest.(check int) "caller and unrelated still valid" 2
          st.Summary_store.fn_hits;
        Alcotest.(check int) "only leaf stale" 1 st.Summary_store.fn_stale;
        Alcotest.(check int) "nothing absent" 0 st.Summary_store.fn_absent;
        Alcotest.(check int) "only leaf recomputed" 1
          st.Summary_store.fns_recomputed;
        Alcotest.(check int) "leaf's content unchanged" 1
          st.Summary_store.sums_unchanged;
        (* roots: both replay — caller only because the cutoff fired *)
        Alcotest.(check int) "both roots replay" 2
          st.Summary_store.roots_replayed;
        Alcotest.(check int) "no root recomputes" 0
          st.Summary_store.roots_recomputed;
        Alcotest.(check int) "caller was salvaged by the cutoff" 1
          st.Summary_store.roots_salvaged;
        (* and the result still matches an uncached run of v2 *)
        let uncached = Engine.check_source ~file:"inv.c" leaf_v2 (free ()) in
        Alcotest.(check (list string))
          "edited run = uncached" (report_lines uncached) (report_lines v2));
    t "summary-changing edit invalidates exactly the transitive callers"
      `Quick (fun () ->
        (* chain top -> mid -> leaf, plus an unrelated root: editing leaf
           so its summary content changes (it now frees its argument) must
           recompute exactly the chain's entries and the chain's root, and
           leave unrelated untouched *)
        let v1 =
          "static void leaf(int *p) { (void)p; }\n\
           static void mid(int *p) { leaf(p); }\n\
           int top(int n) { int *x = kmalloc(n); mid(x); return *x; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let v2 =
          "static void leaf(int *p) { kfree(p); }\n\
           static void mid(int *p) { leaf(p); }\n\
           int top(int n) { int *x = kmalloc(n); mid(x); return *x; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let dir = temp_dir () in
        let _ =
          Engine.run ~cache:(store_over dir) (sg_of_files [ ("ch.c", v1) ]) (free ())
        in
        let store = store_over dir in
        let warm =
          Engine.run ~cache:store (sg_of_files [ ("ch.c", v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        (* leaf stale on body hash; its new content propagates, so mid and
           top go stale in turn — no cutoff anywhere on the chain *)
        Alcotest.(check int) "unrelated still valid" 1 st.Summary_store.fn_hits;
        Alcotest.(check int) "the chain is stale" 3 st.Summary_store.fn_stale;
        Alcotest.(check int) "chain recomputed" 3 st.Summary_store.fns_recomputed;
        Alcotest.(check int) "no content survived the edit" 0
          st.Summary_store.sums_unchanged;
        Alcotest.(check int) "unrelated replays" 1 st.Summary_store.roots_replayed;
        Alcotest.(check int) "top recomputes" 1 st.Summary_store.roots_recomputed;
        let uncached = Engine.check_source ~file:"ch.c" v2 (free ()) in
        Alcotest.(check (list string))
          "edited run = uncached" (report_lines uncached) (report_lines warm));
    t "comment-only edit replays everything" `Quick (fun () ->
        (* comments never reach the AST, so every fingerprint — body,
           declarations, annotations — is unchanged: the warm run must
           recompute no summaries and no roots. Trailing comments only:
           a comment on its own line before the code would shift every
           source location, which IS a content change *)
        let v2 = leaf_v1 ^ "/* tidy: reviewed 2026-08 */\n" in
        let dir = temp_dir () in
        let cold =
          Engine.run ~cache:(store_over dir) (sg_of_files [ ("cm.c", leaf_v1) ]) (free ())
        in
        let store = store_over dir in
        let warm =
          Engine.run ~cache:store (sg_of_files [ ("cm.c", v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        Alcotest.(check int) "no summaries recomputed" 0
          st.Summary_store.fns_recomputed;
        Alcotest.(check int) "no summaries stale" 0 st.Summary_store.fn_stale;
        Alcotest.(check int) "no roots recomputed" 0
          st.Summary_store.roots_recomputed;
        Alcotest.(check (list string))
          "reports byte-identical" (report_lines cold) (report_lines warm));
    t "persist:false stores replay but never write" `Quick (fun () ->
        let dir = temp_dir () in
        let sg = sg_of_files [ ("ro.c", leaf_v1) ] in
        let ro =
          Summary_store.create ~dir ~persist:false
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free" ])
            ()
        in
        let _ = Engine.run ~cache:ro sg (free ()) in
        Alcotest.(check bool)
          "no entries written" true
          (not (Sys.file_exists (Filename.concat dir "pack")));
        (* a second read-only run still misses — nothing was persisted *)
        let ro2 =
          Summary_store.create ~dir ~persist:false
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free" ])
            ()
        in
        let _ = Engine.run ~cache:ro2 sg (free ()) in
        Alcotest.(check int)
          "still cold" 0 (Summary_store.stats ro2).Summary_store.roots_replayed);
    t "options digest carries the analysis version stamp" `Quick (fun () ->
        (* the stamp is what orphans cached results when engine or builtin
           checker semantics change without any checker source changing *)
        let d = Engine.options_digest Engine.default_options in
        let v = Engine.analysis_version in
        Alcotest.(check bool)
          "digest starts with the version stamp" true
          (String.length d > String.length v
          && String.equal (String.sub d 0 (String.length v)) v));
    t "non-function global edit invalidates cached roots" `Quick (fun () ->
        (* the regression: typedefs, struct layouts, enums, prototypes and
           global-variable declarations feed analysis through the typing
           environment but appear in no function-body hash, so editing one
           used to leave every closure key — and the stale cached results —
           untouched *)
        let v1 = "int g = 1;\n" ^ leaf_v1 in
        let v2 = "int g = 2;\n" ^ leaf_v1 in
        let dir = temp_dir () in
        let _ =
          Engine.run ~cache:(store_over dir) (sg_of_files [ ("g.c", v1) ]) (free ())
        in
        let store = store_over dir in
        let warm =
          Engine.run ~cache:store (sg_of_files [ ("g.c", v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        Alcotest.(check int)
          "no root replays across a declaration edit" 0
          st.Summary_store.roots_replayed;
        Alcotest.(check int)
          "no summary hits across a declaration edit" 0 st.Summary_store.fn_hits;
        let uncached = Engine.check_source ~file:"g.c" v2 (free ()) in
        Alcotest.(check (list string))
          "edited run = uncached" (report_lines uncached) (report_lines warm));
    t "corrupt root entries degrade to misses" `Quick (fun () ->
        let dir = temp_dir () in
        let sg = sg_of_files [ ("c.c", leaf_v1) ] in
        let uncached = Engine.run sg (free ()) in
        let _ = Engine.run ~cache:(store_over dir) sg (free ()) in
        (* tamper: every root frame stays well-formed, with a digest that
           matches, but its payload is a nonsense list length — decoding
           raises, which must read as a miss rather than abort the run *)
        List.iter
          (fun path ->
            Pack_fixture.write path
              (List.map
                 (fun (f : Pack_fixture.frame) ->
                   if f.kind = 'R' then { f with payload = "\xff\xff\xff\x7f" } else f)
                 (Pack_fixture.frames path)))
          (Pack_fixture.packs dir);
        let store = store_over dir in
        let warm = Engine.run ~cache:store sg (free ()) in
        Alcotest.(check int)
          "all roots recompute" 0 (Summary_store.stats store).Summary_store.roots_replayed;
        Alcotest.(check (list string))
          "reports unaffected" (report_lines uncached) (report_lines warm));
    t "truncated and corrupt summary entries degrade to misses" `Quick
      (fun () ->
        let dir = temp_dir () in
        let store = store_over dir in
        let ext = Summary_store.ext_key store 0 in
        let key = Fingerprint.of_string "k" in
        Summary_store.store_fn store ~ext ~fname:"f" ~key
          ~content:(Fingerprint.of_string "c")
          ~bs:[| Summary.create () |]
          ~sfx:[| Summary.create () |]
          ~rets:[ "rs" ];
        (match Summary_store.probe_fn store ~ext ~fname:"f" ~key with
        | Summary_store.Hit e ->
            Alcotest.(check string) "name round-trips" "f" e.Summary_store.f_name;
            Alcotest.(check (list string))
              "rets round-trip" [ "rs" ] e.Summary_store.f_rets
        | _ -> Alcotest.fail "expected a hit on the intact entry");
        Summary_store.flush store;
        (* each probe below goes through a fresh handle, which reads the
           pack as it is on disk now *)
        let probe () = Summary_store.probe_fn (store_over dir) ~ext ~fname:"f" ~key in
        (match probe () with
        | Summary_store.Hit _ -> ()
        | _ -> Alcotest.fail "expected a hit on the flushed entry");
        List.iter
          (fun path ->
            let data = Pack_fixture.read_file path in
            (* truncated mid-frame: the length-prefixed framing must raise
               Corrupt, which probes as a miss *)
            Pack_fixture.write_file path (String.sub data 0 (String.length data / 2));
            (match probe () with
            | Summary_store.Absent -> ()
            | _ -> Alcotest.fail "truncated entry must probe Absent");
            (* wrong magic / non-binary garbage *)
            Pack_fixture.write_file path "(fn f c () ())\n";
            match probe () with
            | Summary_store.Absent -> ()
            | _ -> Alcotest.fail "garbage entry must probe Absent")
          (Pack_fixture.packs dir));
    t "binary summary round-trip is lossless" `Quick (fun () ->
        let src =
          "int use(int *p, int c) { if (c) { kfree(p); } return *p; }\n\
           int top(int *p, int c) { use(p, c); return 0; }"
        in
        let sg = sg_of_files [ ("sb.c", src) ] in
        let _, per_ext = Engine.run_with_summaries sg (free ()) in
        let checked = ref 0 in
        List.iter
          (fun (_, tbl) ->
            Hashtbl.iter
              (fun _ (bs, sfx) ->
                Array.iter
                  (fun s ->
                    incr checked;
                    let bin s =
                      let b = Wire.writer () in
                      Summary.to_bin b s;
                      Wire.contents b
                    in
                    let bytes = bin s in
                    let s' = Summary.of_bin (Wire.reader bytes) in
                    (* byte-stable round-trip: decoded tables reserialise
                       identically, which is what makes content hashes
                       agree between disk-loaded and fresh summaries *)
                    Alcotest.(check string)
                      "to_bin . of_bin . to_bin = to_bin" bytes (bin s');
                    Alcotest.(check string)
                      "sexp view agrees"
                      (Sexp.to_string (Summary.to_sexp s))
                      (Sexp.to_string (Summary.to_sexp s')))
                  (Array.append bs sfx))
              tbl)
          per_ext;
        Alcotest.(check bool) "exercised some summaries" true (!checked > 0));
    t "old store version is orphaned cleanly" `Quick (fun () ->
        let dir = temp_dir () in
        let sg = sg_of_files [ ("ov.c", leaf_v1) ] in
        let uncached = Engine.run sg (free ()) in
        let _ = Engine.run ~cache:(store_over dir) sg (free ()) in
        (* forge an older store: stamp the VERSION back. The version is
           salted into every extension key, so the existing entries become
           unreachable — a run against the "upgraded" store recomputes
           from cold without ever decoding them, and restamps VERSION *)
        let oc = open_out (Filename.concat dir "VERSION") in
        output_string oc "sumstore-0\n";
        close_out oc;
        let old_keys =
          Summary_store.ext_keys_of
            ~options_digest:(Engine.options_digest Engine.default_options)
            ~sources:[ "free" ]
        in
        let forged =
          Summary_store.create ~dir
            ~ext_keys:(List.map (fun k -> Fingerprint.combine [ k; "old" ]) old_keys)
            ()
        in
        let forged_run = Engine.run ~cache:forged sg (free ()) in
        Alcotest.(check int)
          "nothing replays from the orphaned generation" 0
          (Summary_store.stats forged).Summary_store.roots_replayed;
        Alcotest.(check (list string))
          "reports unaffected" (report_lines uncached) (report_lines forged_run);
        (* creating the store restamped the directory *)
        let ic = open_in (Filename.concat dir "VERSION") in
        let v = input_line ic in
        close_in ic;
        Alcotest.(check string)
          "VERSION restamped" Summary_store.store_version v);
    t "corrupt AST cache objects degrade to misses" `Quick (fun () ->
        let cache_dir = temp_dir () in
        let src = "int f(int *p) { kfree(p); return *p; }" in
        let tu = Cparse.parse_tunit ~file:"cc.c" src in
        let fp = Cast_io.ast_fingerprint ~file:"cc.c" ~source:src in
        Cast_io.write_cached ~cache_dir fp tu;
        (* parses as a sexp, but the enum item raises Failure in decoding *)
        let astdir = Filename.concat cache_dir "ast" in
        Array.iter
          (fun f ->
            let oc = open_out (Filename.concat astdir f) in
            output_string oc "(tunit cc.c (enumdef E (k zz)))\n";
            close_out oc)
          (Sys.readdir astdir);
        Alcotest.(check bool)
          "corrupt object reads as a miss" true
          (Cast_io.read_cached ~cache_dir fp = None));
    t "positional twins replay byte-identically" `Quick (fun () ->
        (* two translation units claiming the same file name (a header
           parsed into two units), with textually identical expressions at
           identical positions inside different functions: the persisted
           annotation delta must resolve back to exactly the node the
           worker annotated, not to every node sharing its position *)
        let files =
          [
            ("twin.h", "int a(int *p) { if (p) { kfree(p); } return 0; }\n");
            ("twin.h", "int b(int *p) { if (p) { kfree(p); } return 0; }\n");
          ]
        in
        let exts () = [ Free_checker.checker (); Leak_checker.checker () ] in
        let store2 dir =
          Summary_store.create ~dir
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free"; "leak" ])
            ()
        in
        let sg = sg_of_files files in
        let uncached = Engine.run sg (exts ()) in
        let dir = temp_dir () in
        let _ = Engine.run ~cache:(store2 dir) sg (exts ()) in
        let warm_store = store2 dir in
        let warm = Engine.run ~cache:warm_store sg (exts ()) in
        Alcotest.(check (list string))
          "warm = uncached" (report_lines uncached) (report_lines warm);
        Alcotest.(check int)
          "warm run replays every root" 0
          (Summary_store.stats warm_store).Summary_store.roots_recomputed);
      t "tags on synthesised initialisers survive an edit" `Quick (fun () ->
        (* the synthesised [u = get_user_pointer(k)] carries a SECURITY
           tag: its stored delta must keep it, so a warm run after an
           edit that leaves secpath's output unchanged (the early cutoff
           replays its root) still hands the tag to the reader *)
        let exts () = checkers [ "secpath" ] @ sec_reader () in
        let names = [ "secpath"; sec_reader_src ] in
        let run ?cache ?(jobs = 1) src =
          report_lines (Engine.run ~jobs ?cache (sg_of_files [ ("t.c", src) ]) (exts ()))
        in
        let v1 = synth_src "0" and v2 = synth_src "1" in
        let uncached = run v1 in
        Alcotest.(check bool)
          "the synthesised assignment is reported" true
          (List.exists (String.starts_with ~prefix:"t.c:5:28:") uncached);
        Alcotest.(check (list string)) "-j2 = uncached" uncached (run ~jobs:2 v1);
        let dir = temp_dir () in
        Alcotest.(check (list string))
          "cold = uncached" uncached (run ~cache:(store_for names dir) v1);
        Alcotest.(check (list string))
          "warm = uncached" uncached (run ~cache:(store_for names dir) v1);
        Alcotest.(check (list string))
          "warm after the edit = uncached after the edit" (run v2)
          (run ~cache:(store_for names dir) v2));
    t "on-demand annotation keys equal an eager walk's" `Quick (fun () ->
        (* positional twins (one header in two units), plus two static
           definitions of [h] with identical positions: their nodes share
           (location, printed, definition) and differ only by rank, and
           only the first [h] has a CFG, so its synthesised [x = n + 1]
           ranks after both bodies *)
        let stat = "static int h(int n) { int x = n + 1; if (x) { x = n + 1; } return x; }\n" in
        let sg =
          sg_of_files
            [
              ("twin.h", "int a(int *p) { if (p) { kfree(p); } return 0; }\n");
              ("twin.h", "int b(int *p) { if (p) { kfree(p); } return 0; }\n");
              ("stat.h", stat ^ "int g1 = 3 + 4;\n");
              ("stat.h", stat);
            ]
        in
        let oracle = eager_annot_keys sg in
        let eids = List.sort Int.compare (Hashtbl.fold (fun eid _ acc -> eid :: acc) oracle []) in
        Alcotest.(check bool) "synthesised nodes are indexed" true
          (List.exists
             (fun (e : Cast.expr) -> Hashtbl.mem oracle e.eid)
             sg.flat.Flat.decl_assigns.(Option.get (Flat.fidx sg.flat "h")));
        (* nodes resolve in reverse program order through one index, keys
           through a second, fresh one *)
        let ix = Annot_index.create sg and ix2 = Annot_index.create sg in
        List.iter
          (fun eid ->
            let loc, printed, ctx, occ, key = Hashtbl.find oracle eid in
            (match Annot_index.node ix eid with
            | Some n -> Alcotest.(check string) "key" key n.Annot_index.key
            | None -> Alcotest.failf "node %d (%s) not indexed" eid key);
            Alcotest.(check (list int))
              ("resolve " ^ key) [ eid ]
              (List.map fst (Annot_index.resolve ix2 [ (loc, printed, ctx, occ, []) ])))
          (List.rev eids);
        (* a, b, g1 and both definitions of h *)
        Alcotest.(check int) "every definition printed once" 5 (Annot_index.defs_printed ix);
        let ix3 = Annot_index.create sg in
        Alcotest.(check int) "an unqueried index prints nothing" 0 (Annot_index.defs_printed ix3);
        ignore (Annot_index.node ix3 (List.hd eids));
        Alcotest.(check int) "one node prints only its definition" 1
          (Annot_index.defs_printed ix3));
    t "a flipped payload byte misses only its own entry" `Quick (fun () ->
        let dir = temp_dir () in
        let store = store_over dir in
        let ext = Summary_store.ext_key store 0 in
        let key name = Fingerprint.of_string ("k-" ^ name) in
        let names = [ "f1"; "f2"; "f3" ] in
        List.iter
          (fun name ->
            Summary_store.store_fn store ~ext ~fname:name ~key:(key name)
              ~content:(Fingerprint.of_string ("c-" ^ name))
              ~bs:[| Summary.create () |]
              ~sfx:[| Summary.create () |]
              ~rets:[ name ])
          names;
        Summary_store.flush store;
        (match Pack_fixture.packs dir with
        | [ path ] -> Pack_fixture.flip_payload_byte path ~kind:'F' ~name:"f2"
        | ps -> Alcotest.failf "expected one pack, found %d" (List.length ps));
        let fresh = store_over dir in
        List.iter
          (fun name ->
            match (name, Summary_store.probe_fn fresh ~ext ~fname:name ~key:(key name)) with
            | "f2", Summary_store.Absent -> ()
            | "f2", _ -> Alcotest.fail "the damaged entry must probe Absent"
            | _, Summary_store.Hit e ->
                (* a hit decodes the header only *)
                Alcotest.(check bool)
                  (name ^ " summaries not decoded by the probe") false
                  (Lazy.is_val e.Summary_store.f_sums);
                Alcotest.(check (list string)) (name ^ " rets") [ name ] e.Summary_store.f_rets;
                Alcotest.(check bool)
                  (name ^ " summaries decode on demand") true
                  (Summary_store.fn_summaries e <> None)
            | _, _ -> Alcotest.failf "sibling %s must still hit" name)
          names);
    t "caller edit seeds its recompute from a lazily decoded callee" `Quick
      (fun () ->
        (* leaf stays valid, so its entry is a hit whose summaries are
           decoded only to seed the recompute of the edited mid (and then
           top, whose key folds mid's new content) *)
        let v1 =
          "static void leaf(int *p) { kfree(p); }\n\
           static void mid(int *p) { leaf(p); }\n\
           int top(int n) { int *x = kmalloc(n); mid(x); return 0; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let v2 =
          "static void leaf(int *p) { kfree(p); }\n\
           static void mid(int *p) { leaf(p); *p = 1; }\n\
           int top(int n) { int *x = kmalloc(n); mid(x); return 0; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let dir = temp_dir () in
        let _ =
          Engine.run ~cache:(store_over dir) (sg_of_files [ ("ce.c", v1) ]) (free ())
        in
        let store = store_over dir in
        let warm = Engine.run ~cache:store (sg_of_files [ ("ce.c", v2) ]) (free ()) in
        let st = Summary_store.stats store in
        Alcotest.(check int) "leaf and unrelated hit" 2 st.Summary_store.fn_hits;
        Alcotest.(check int) "mid and top recomputed" 2 st.Summary_store.fns_recomputed;
        Alcotest.(check int) "mid's content changed" 0 st.Summary_store.sums_unchanged;
        Alcotest.(check int) "top recomputes" 1 st.Summary_store.roots_recomputed;
        Alcotest.(check int) "unrelated replays" 1 st.Summary_store.roots_replayed;
        let uncached = Engine.check_source ~file:"ce.c" v2 (free ()) in
        Alcotest.(check (list string))
          "edited run = uncached -j1" (report_lines uncached) (report_lines warm);
        (* the recompute seeded from decoded bytes matches a cold run of
           v2 exactly: same keys, content hashes and summaries *)
        let cold_dir = temp_dir () in
        let _ =
          Engine.run ~cache:(store_over cold_dir) (sg_of_files [ ("ce.c", v2) ]) (free ())
        in
        Alcotest.(check (list string))
          "store after the edit = store of a cold run"
          (List.map Pack_fixture.read_file (Pack_fixture.packs cold_dir))
          (List.map Pack_fixture.read_file (Pack_fixture.packs dir)));
    t "two handles flushing in turn keep both entry sets" `Quick (fun () ->
        let dir = temp_dir () in
        let h1 = store_over dir and h2 = store_over dir in
        let ext = Summary_store.ext_key h1 0 in
        let key = Fingerprint.of_string "k" in
        let put h name =
          Summary_store.store_fn h ~ext ~fname:name ~key
            ~content:(Fingerprint.of_string name)
            ~bs:[||] ~sfx:[||] ~rets:[]
        in
        (* both handles have read the (empty) pack before either writes *)
        put h1 "base";
        Summary_store.flush h1;
        let h1 = store_over dir in
        List.iter
          (fun h ->
            ignore (Summary_store.probe_fn h ~ext ~fname:"base" ~key))
          [ h1; h2 ];
        put h1 "one";
        Summary_store.flush h1;
        put h2 "two";
        Summary_store.flush h2;
        let h3 = store_over dir in
        List.iter
          (fun name ->
            match Summary_store.probe_fn h3 ~ext ~fname:name ~key with
            | Summary_store.Hit _ -> ()
            | _ -> Alcotest.failf "%s lost by the second flush" name)
          [ "base"; "one"; "two" ]);
    t "a cold cached run leaves one pack per extension key" `Quick (fun () ->
        let dir = temp_dir () in
        let names = [ "pathkill"; "free"; "leak" ] in
        let store = store_for names dir in
        let _ =
          Engine.run ~cache:store (sg_of_files [ ("cp.c", compose_v1) ]) (checkers names)
        in
        Alcotest.(check (list string))
          "pack files"
          (List.sort String.compare
             (List.mapi (fun i _ -> Summary_store.ext_key store i ^ ".bin") names))
          (List.map Filename.basename (Pack_fixture.packs dir));
        List.iter
          (fun path ->
            Alcotest.(check bool)
              (Filename.basename path ^ " holds summary and root entries") true
              (let fs = Pack_fixture.frames path in
               List.exists (fun (f : Pack_fixture.frame) -> f.kind = 'F') fs
               && List.exists (fun (f : Pack_fixture.frame) -> f.kind = 'R') fs))
          (Pack_fixture.packs dir);
        Alcotest.(check (list string))
          "nothing else in the store"
          [ "VERSION"; "last-run"; "pack" ]
          (List.sort String.compare (Array.to_list (Sys.readdir dir))));
]
