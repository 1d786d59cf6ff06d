(* Workload generators: determinism, parseability, ground-truth detection. *)

let t = Alcotest.test_case

let all_checkers () = List.map (fun e -> e.Registry.e_make ()) (Registry.all ())

let detect (g : Gen.t) =
  let tu = Cparse.parse_tunit ~file:"gen.c" g.Gen.source in
  let sg = Supergraph.build [ tu ] in
  let result = Engine.run sg (all_checkers ()) in
  let found (p : Gen.planted) =
    List.exists
      (fun (r : Report.t) -> String.equal r.Report.func p.Gen.in_function)
      result.Engine.reports
  in
  (List.length (List.filter found g.Gen.planted), List.length g.Gen.planted, result)

(* --- mode equivalence ------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dirs n f =
  let dirs =
    List.init n (fun _ ->
        let d = Filename.temp_file "xgcc_test_modes" "" in
        Sys.remove d;
        Sys.mkdir d 0o755;
        d)
  in
  Fun.protect ~finally:(fun () -> List.iter rm_rf dirs) (fun () -> f dirs)

let mode_checkers = [ "free"; "lock"; "null"; "leak" ]

(* Every execution mode of one generated program, in run order, as
   (mode, (emission-order report lines, degraded roots)). The per-root
   pipeline modes ([-jN] and cached runs at any [-j], each root in a
   private context) come first and are the only ones run under a node
   budget: sequential [-j1] shares summaries across roots, so it charges
   budgets differently. Without a budget, [-j1], warm runs and a memory
   store follow. *)
let run_modes ~options seed =
  let files = Gen.generate_files ~seed ~n_files:3 ~funcs_per_file:6 ~bug_rate:0.5 in
  let sg =
    Supergraph.build
      (List.map (fun (name, (g : Gen.t)) -> Cparse.parse_tunit ~file:name g.Gen.source) files)
  in
  let ext_keys =
    Summary_store.ext_keys_of ~options_digest:(Engine.options_digest options)
      ~sources:mode_checkers
  in
  let run ?cache jobs =
    let exts =
      List.map (fun n -> (Option.get (Registry.find n)).Registry.e_make ()) mode_checkers
    in
    let r = Engine.run ~options ~jobs ?cache sg exts in
    ( List.map Report.to_string r.Engine.reports,
      List.map (fun (d : Engine.degraded) -> (d.Engine.d_root, d.Engine.d_reason)) r.Engine.degraded )
  in
  with_temp_dirs 3 (fun dirs ->
      let d1, d2, dm = match dirs with [ a; b; c ] -> (a, b, c) | _ -> assert false in
      let disk d = Summary_store.create ~dir:d ~ext_keys () in
      let mem = Summary_store.create ~dir:dm ~persist:false ~memory:true ~ext_keys () in
      let modes =
        [
          ("-j2", fun () -> run 2);
          ("-j4", fun () -> run 4);
          ("cached cold -j1", fun () -> run ~cache:(disk d1) 1);
          ("cached cold -j2", fun () -> run ~cache:(disk d2) 2);
        ]
        @
        if options.Engine.max_nodes_per_root > 0 then []
        else
          [
            ("-j1", fun () -> run 1);
            ("cached warm -j2", fun () -> run ~cache:(disk d2) 2);
            ("cached warm -j2 over a -j1 store", fun () -> run ~cache:(disk d1) 2);
            ("memory store cold", fun () -> run ~cache:mem 1);
            ("memory store warm -j2", fun () -> run ~cache:mem 2);
          ]
      in
      List.map (fun (name, f) -> (name, f ())) modes)

(* The first mode whose output differs from the first mode's. *)
let disagreement = function
  | [] -> None
  | (_, first) :: rest -> Option.map fst (List.find_opt (fun (_, out) -> out <> first) rest)

(* --- annotation replay across an edit ---------------------------------- *)

(* Extensions that tag the AST (pathkill, errpath and secpath) and ones
   that fold those tags into their reports, plus a reader that reports
   every SECURITY-tagged statement: a warm run only matches uncached if
   every tag the cache replays lands on the node it was left on. *)
let annot_checkers = [ "secpath"; "errpath"; "pathkill"; "free"; "null"; "leak" ]

let sec_reader_src =
  {|sm sec_reader { start: ${ mc_annotated(mc_stmt, "SECURITY") } ==> start,
     { err("statement on a user path"); } ; }|}

(* The offsets of the last character of every integer literal in [src]
   that ends in a decimal digit (a run of identifier characters that
   starts with a digit). *)
let literal_ends src =
  let n = String.length src in
  let is_id = function 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false in
  let is_digit = function '0' .. '9' -> true | _ -> false in
  let rec go i acc =
    if i >= n then List.rev acc
    else if not (is_id src.[i]) then go (i + 1) acc
    else
      let j = ref i in
      while !j < n && is_id src.[!j] do incr j done;
      go !j (if is_digit src.[i] && is_digit src.[!j - 1] then (!j - 1) :: acc else acc)
  in
  go 0 []

(* Generated files with the [k]th literal (mod their count) bumped by one
   in its last digit: an in-place constant edit, no location moves. *)
let constant_edit srcs k =
  let sites =
    List.concat
      (List.mapi (fun fi (_, src) -> List.map (fun p -> (fi, p)) (literal_ends src)) srcs)
  in
  let fi, p = List.nth sites (k mod List.length sites) in
  let bump c = Char.chr (Char.code '0' + ((Char.code c - Char.code '0' + 1) mod 10)) in
  List.mapi
    (fun i (name, src) ->
      if i <> fi then (name, src)
      else (name, String.mapi (fun j c -> if j = p then bump c else c) src))
    srcs

(* Warm after the edit, then uncached on the edited tree. *)
let edit_replay seed k =
  let srcs =
    List.map
      (fun (name, (g : Gen.t)) -> (name, g.Gen.source))
      (Gen.generate_files ~seed ~n_files:3 ~funcs_per_file:6 ~bug_rate:0.5)
  in
  let sg srcs =
    Supergraph.build (List.map (fun (name, src) -> Cparse.parse_tunit ~file:name src) srcs)
  in
  let exts () =
    Callout.install_builtins ();
    List.map (fun n -> (Option.get (Registry.find n)).Registry.e_make ()) annot_checkers
    @ Metal_compile.load ~file:"rd.metal" sec_reader_src
  in
  let ext_keys =
    Summary_store.ext_keys_of
      ~options_digest:(Engine.options_digest Engine.default_options)
      ~sources:(annot_checkers @ [ sec_reader_src ])
  in
  let lines (r : Engine.result) = List.map Report.to_string r.Engine.reports in
  with_temp_dirs 1 (fun dirs ->
      let store () = Summary_store.create ~dir:(List.hd dirs) ~ext_keys () in
      ignore (Engine.run ~cache:(store ()) (sg srcs) (exts ()));
      let edited = constant_edit srcs k in
      let warm = lines (Engine.run ~cache:(store ()) (sg edited) (exts ())) in
      (warm, lines (Engine.run (sg edited) (exts ()))))

let suite =
  [
    t "generation is deterministic per seed" `Quick (fun () ->
        let a = Gen.generate ~seed:11 ~n_funcs:10 ~bug_rate:0.5 in
        let b = Gen.generate ~seed:11 ~n_funcs:10 ~bug_rate:0.5 in
        Alcotest.(check string) "same source" a.Gen.source b.Gen.source;
        let c = Gen.generate ~seed:12 ~n_funcs:10 ~bug_rate:0.5 in
        Alcotest.(check bool) "different seed differs" true
          (not (String.equal a.Gen.source c.Gen.source)));
    t "generated programs parse and round-trip" `Quick (fun () ->
        let g = Gen.generate ~seed:3 ~n_funcs:25 ~bug_rate:0.4 in
        let tu = Cparse.parse_tunit ~file:"gen.c" g.Gen.source in
        let printed = Cprint.tunit_to_string tu in
        let tu2 = Cparse.parse_tunit ~file:"gen2.c" printed in
        Alcotest.(check int) "same #globals" (List.length tu.Cast.tu_globals)
          (List.length tu2.Cast.tu_globals));
    t "zero bug rate yields no planted bugs and no reports" `Quick (fun () ->
        let g = Gen.generate ~seed:5 ~n_funcs:30 ~bug_rate:0.0 in
        Alcotest.(check int) "none planted" 0 (List.length g.Gen.planted);
        let _, _, result = detect g in
        Alcotest.(check int) "no false positives" 0
          (List.length result.Engine.reports));
    t "planted bugs are detected (several seeds)" `Quick (fun () ->
        List.iter
          (fun seed ->
            let g = Gen.generate ~seed ~n_funcs:20 ~bug_rate:0.5 in
            let found, planted, _ = detect g in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: %d/%d" seed found planted)
              true
              (float_of_int found >= 0.9 *. float_of_int planted))
          [ 1; 2; 3; 4; 5 ]);
    t "reports point at functions with planted bugs (low FP)" `Quick (fun () ->
        let g = Gen.generate ~seed:9 ~n_funcs:30 ~bug_rate:0.3 in
        let _, _, result = detect g in
        let buggy_fns =
          List.map (fun (p : Gen.planted) -> p.Gen.in_function) g.Gen.planted
        in
        let fps =
          List.filter
            (fun (r : Report.t) -> not (List.mem r.Report.func buggy_fns))
            result.Engine.reports
        in
        Alcotest.(check int) "no false positives" 0 (List.length fps));
    t "multi-file generation crosses files" `Quick (fun () ->
        let files = Gen.generate_files ~seed:2 ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.4 in
        Alcotest.(check int) "3 files" 3 (List.length files);
        let tus =
          List.map (fun (name, g) -> Cparse.parse_tunit ~file:name g.Gen.source) files
        in
        let sg = Supergraph.build tus in
        let result = Engine.run sg (all_checkers ()) in
        let planted = List.concat_map (fun (_, g) -> g.Gen.planted) files in
        Alcotest.(check bool) "some bugs found" true
          (planted = [] || result.Engine.reports <> []));
    t "synthetic scaling programs parse" `Quick (fun () ->
        List.iter
          (fun src -> ignore (Cparse.parse_tunit ~file:"s.c" src))
          [
            Synth.diamond_chain ~n:6;
            Synth.many_tracked ~n:8;
            Synth.call_chain ~depth:5;
            Synth.call_tree ~depth:2 ~fanout:3;
            Synth.correlated_branches ~n:4;
            Synth.lock_workload ~n_funcs:5 ~bug_every:2;
          ]);
    t "correlated branches have zero true errors" `Quick (fun () ->
        let r =
          Engine.check_source ~file:"c.c"
            (Synth.correlated_branches ~n:5)
            [ Free_checker.checker () ]
        in
        Alcotest.(check int) "pruned to zero" 0 (List.length r.Engine.reports));
    t "scales to a 1000-function program in reasonable time" `Quick (fun () ->
        let g = Gen.generate ~seed:77 ~n_funcs:1000 ~bug_rate:0.25 in
        let t0 = Sys.time () in
        let found, planted, _ = detect g in
        let dt = Sys.time () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "all found (%d/%d)" found planted)
          true (found = planted);
        Alcotest.(check bool)
          (Printf.sprintf "fast enough (%.2fs)" dt)
          true (dt < 30.0));
    t "linked corpus: cross-file interprocedural bugs detected" `Quick (fun () ->
        let files =
          Gen.generate_linked ~seed:8 ~n_files:3 ~funcs_per_file:6 ~bug_rate:0.5
        in
        let tus =
          List.map (fun (name, (g : Gen.t)) -> Cparse.parse_tunit ~file:name g.Gen.source)
            files
        in
        let sg = Supergraph.build tus in
        let result =
          Engine.run sg [ Free_checker.checker (); Lock_checker.checker () ]
        in
        let planted = List.concat_map (fun (_, (g : Gen.t)) -> g.Gen.planted) files in
        Alcotest.(check bool) "bugs planted" true (planted <> []);
        List.iter
          (fun (p : Gen.planted) ->
            Alcotest.(check bool)
              (p.Gen.in_function ^ " found")
              true
              (List.exists
                 (fun (r : Report.t) -> String.equal r.Report.func p.Gen.in_function)
                 result.Engine.reports))
          planted;
        (* no reports in clean functions (helpers never flagged) *)
        let buggy = List.map (fun (p : Gen.planted) -> p.Gen.in_function) planted in
        List.iter
          (fun (r : Report.t) ->
            Alcotest.(check bool)
              (r.Report.func ^ " expected buggy")
              true
              (List.mem r.Report.func buggy))
          result.Engine.reports);
    t "kill workload: zero FPs with kill, n without" `Quick (fun () ->
        let src = Synth.kill_workload ~n:6 in
        let run options =
          List.length
            (Engine.check_source ~options ~file:"k.c" src [ Free_checker.checker () ])
              .Engine.reports
        in
        Alcotest.(check int) "kill on" 0 (run Engine.default_options);
        Alcotest.(check int) "kill off" 6
          (run { Engine.default_options with Engine.auto_kill = false }));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"caching never changes the report set" ~count:25
         QCheck2.Gen.(int_range 1 5000)
         (fun seed ->
           (* loop-free generated programs: caching is a pure optimisation *)
           let g = Gen.generate ~seed ~n_funcs:6 ~bug_rate:0.5 in
           let run options =
             List.sort compare
               (List.map
                  (fun (r : Report.t) -> (r.Report.func, r.Report.message))
                  (Engine.check_source ~options ~file:"g.c" g.Gen.source
                     [ Free_checker.checker (); Lock_checker.checker () ])
                    .Engine.reports)
           in
           run Engine.default_options
           = run { Engine.default_options with Engine.caching = false }));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"pruning only ever removes reports" ~count:25
         QCheck2.Gen.(int_range 1 5000)
         (fun seed ->
           let g = Gen.generate ~seed ~n_funcs:6 ~bug_rate:0.5 in
           let run options =
             List.sort_uniq compare
               (List.map
                  (fun (r : Report.t) -> (r.Report.func, r.Report.message))
                  (Engine.check_source ~options ~file:"g.c" g.Gen.source
                     [ Free_checker.checker (); Lock_checker.checker () ])
                    .Engine.reports)
           in
           let pruned = run Engine.default_options in
           let unpruned = run { Engine.default_options with Engine.pruning = false } in
           List.for_all (fun r -> List.mem r unpruned) pruned));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"no option combination crashes the engine" ~count:40
         QCheck2.Gen.(tup2 (int_range 1 2000) (int_bound 31))
         (fun (seed, bits) ->
           let g = Gen.generate ~seed ~n_funcs:5 ~bug_rate:0.5 in
           let options =
             {
               Engine.default_options with
               Engine.caching = bits land 1 = 0;
               pruning = bits land 2 = 0;
               interproc = bits land 4 = 0;
               auto_kill = bits land 8 = 0;
               synonyms = bits land 16 = 0;
             }
           in
           let r =
             Engine.check_source ~options ~file:"g.c" g.Gen.source (all_checkers ())
           in
           List.length r.Engine.reports >= 0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"every execution mode gives the same reports" ~count:15
         QCheck2.Gen.(int_range 1 5000)
         (fun seed ->
           match disagreement (run_modes ~options:Engine.default_options seed) with
           | None -> true
           | Some mode -> QCheck2.Test.fail_reportf "seed %d: %s differs from -j2" seed mode));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"per-root pipeline modes agree on reports and degraded roots under a node budget"
         ~count:15
         QCheck2.Gen.(tup2 (int_range 1 5000) (int_range 10 40))
         (fun (seed, budget) ->
           let options = { Engine.default_options with Engine.max_nodes_per_root = budget } in
           match disagreement (run_modes ~options seed) with
           | None -> true
           | Some mode ->
               QCheck2.Test.fail_reportf "seed %d, budget %d: %s differs from -j2" seed
                 budget mode));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"warm runs after a constant edit replay every annotation" ~count:40
         QCheck2.Gen.(tup2 (int_range 1 5000) (int_bound 10_000))
         (fun (seed, k) ->
           let warm, uncached = edit_replay seed k in
           warm = uncached
           || QCheck2.Test.fail_reportf "seed %d, edit %d: warm %d reports, uncached %d" seed
                k (List.length warm) (List.length uncached)));
    t "bug kinds map to checkers" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Gen.bug_kind_to_string k)
              true
              (Option.is_some (Registry.find (Gen.checker_of_kind k))))
          [
            Gen.Use_after_free; Gen.Double_free; Gen.Missing_unlock; Gen.Double_lock;
            Gen.Null_deref; Gen.User_pointer_deref; Gen.Interrupts_left_off;
          ]);
  ]
