(* The domain pool and the parallel (-j) analysis mode: running tasks on
   the pool, and the determinism contract — parallel output must be
   identical to sequential output, independent of scheduling. The
   scheduler's priority order and stealing are tested in test_sched.ml. *)

let t = Alcotest.test_case

exception Boom_at of int

(* Run every task on the pool and fail if any task failed, as a caller
   that treats a failure as fatal does ([xgcc emit]): slots are unwrapped
   in index order, so the lowest-index failure is the one raised. *)
let pool_run ~jobs n f =
  fst (Pool.run_sched ~jobs n (fun ~worker:_ i -> f i))
  |> Array.map (function Ok v -> v | Error e -> raise e)

let checkers () =
  [
    Free_checker.checker ();
    Lock_checker.checker ();
    Null_checker.checker ();
    Leak_checker.checker ();
  ]

let build_workload ~seed =
  let files = Gen.generate_files ~seed ~n_files:4 ~funcs_per_file:8 ~bug_rate:0.5 in
  let tus =
    List.map (fun (file, g) -> Cparse.parse_tunit ~file g.Gen.source) files
  in
  Supergraph.build tus

let report_lines (r : Engine.result) =
  List.map Report.to_string (Rank.generic_sort r.Engine.reports)

let suite =
  [
    t "Pool.run returns results in index order" `Quick (fun () ->
        let r = pool_run ~jobs:4 20 (fun i -> i * i) in
        Alcotest.(check (array int))
          "squares"
          (Array.init 20 (fun i -> i * i))
          r);
    t "Pool.run with jobs=1 runs inline" `Quick (fun () ->
        let d = Domain.self () in
        let r = pool_run ~jobs:1 5 (fun _ -> Domain.self ()) in
        Array.iter
          (fun d' -> Alcotest.(check bool) "same domain" true (d' = d))
          r);
    t "Pool.run on zero tasks" `Quick (fun () ->
        Alcotest.(check (array int)) "empty" [||] (pool_run ~jobs:4 0 (fun i -> i)));
    t "Pool.run propagates the first exception" `Quick (fun () ->
        (* several tasks fail; the lowest-index one wins under any schedule *)
        match pool_run ~jobs:4 16 (fun i -> if i = 7 || i = 11 then raise (Boom_at i) else i) with
        | _ -> Alcotest.fail "expected Boom_at 7"
        | exception Boom_at i -> Alcotest.(check int) "lowest-index failure" 7 i);
    t "Pool.run runs every task exactly once" `Quick (fun () ->
        let hits = Array.make 64 0 in
        (* each slot is written only by the domain that claimed index i,
           so no lock is needed to count executions *)
        ignore (pool_run ~jobs:4 64 (fun i -> hits.(i) <- hits.(i) + 1));
        Alcotest.(check (array int)) "once each" (Array.make 64 1) hits);
    t "parallel run equals sequential run (4 checkers, 32 funcs)" `Quick
      (fun () ->
        let sg = build_workload ~seed:42 in
        let seq = Engine.run ~jobs:1 sg (checkers ()) in
        let par = Engine.run ~jobs:4 sg (checkers ()) in
        Alcotest.(check (list string))
          "ranked reports identical" (report_lines seq) (report_lines par);
        Alcotest.(check (list (triple string int int)))
          "counters identical" seq.Engine.counters par.Engine.counters);
    t "parallel determinism across seeds and job counts" `Quick (fun () ->
        List.iter
          (fun seed ->
            let sg = build_workload ~seed in
            let seq = report_lines (Engine.run ~jobs:1 sg (checkers ())) in
            List.iter
              (fun jobs ->
                let par = report_lines (Engine.run ~jobs sg (checkers ())) in
                Alcotest.(check (list string))
                  (Printf.sprintf "seed %d, -j %d" seed jobs)
                  seq par)
              [ 2; 3; 8 ])
          [ 7; 99; 123 ]);
    t "parallel run reports are emitted, not lost" `Quick (fun () ->
        (* guard against a merge that silently drops every report *)
        let sg = build_workload ~seed:42 in
        let par = Engine.run ~jobs:4 sg (checkers ()) in
        Alcotest.(check bool) "found some bugs" true
          (List.length par.Engine.reports > 0));
  ]
