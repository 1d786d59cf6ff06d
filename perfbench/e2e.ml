(* The untraced run: every end-to-end metric of one workload.

   Each iteration runs one operation on the main corpus and then one on
   the quarter-size scaling corpus, so both see the same machine: the
   slope comes from the median of the per-iteration time ratios. The
   reference kernel ({!Speed}) runs before every iteration and before
   each set-up; latency and set-up time are reported at reference speed
   by the kernel's median over the run, and the measured values are
   printed beside them. *)

open Inst

let run ctx =
  let score = score_line ctx in
  let inst = instance ctx.w ~dir:(Filename.concat ctx.work "main") ~seed:ctx.seed ctx.main in
  let small_t = Corpus.generate ~seed:ctx.seed ~funcs_per_file:Corpus.small_funcs_per_file in
  let small = instance ctx.w ~dir:(Filename.concat ctx.work "small") ~seed:ctx.seed small_t in
  let setups = ref [] and ks = ref [] in
  let kernel () = ks := Speed.kernel_ms () :: !ks in
  let time_setup () =
    let t0 = now () in
    inst.setup ();
    setups := (now () -. t0) :: !setups
  in
  (* An expensive set-up is repeated back to back, each time from a
     collected heap; a cheap one (checker compilation) once more before
     every iteration, so its median spans the whole run. *)
  let reps = if cheap_setup ctx.w then 1 else 3 in
  for _ = 1 to reps do
    inst.teardown ();
    Gc.compact ();
    for _ = 1 to 3 do kernel () done;
    reset_hwm ();
    time_setup ()
  done;
  let setup_peak = vm_hwm_mb () in
  check_setup ctx.w inst;
  small.setup ();
  check_setup ctx.w small;
  let before () =
    kernel ();
    if cheap_setup ctx.w then time_setup ()
  in
  (* Peak memory per operation: the high-water mark is reset just before
     each main-corpus operation and read just after it, both outside the
     timed call. A whole-run mark is the maximum of one run and swings
     with garbage-collector pacing; the median over operations does not. *)
  let peaks = ref [] in
  let measured =
    {
      inst with
      prepare =
        (fun () ->
          inst.prepare ();
          reset_hwm ());
      verify =
        (fun () ->
          peaks := vm_hwm_mb () :: !peaks;
          inst.verify ());
    }
  in
  let rows =
    phase ~before [ measured; small ] ~budget:ctx.seconds ~min_n:min_iterations ~cap:run_cap
  in
  let peak = Trace.median !peaks in
  let col k = List.filter_map (fun row -> List.nth row k) rows in
  let main = col 0 and small_ms = col 1 in
  let ratios =
    List.filter_map (function [ Some a; Some b ] -> Some (a /. b) | _ -> None) rows
  in
  let p50 = Trace.median main and p50_small = Trace.median small_ms in
  let tail_v, tail_p = tail main in
  let n_main = float_of_int (Array.length ctx.main.Corpus.fns)
  and n_small = float_of_int (Array.length small_t.Corpus.fns) in
  let slope = log (Trace.median ratios) /. log (n_main /. n_small) in
  let recall = float_of_int score.Corpus.detected /. float_of_int (max 1 score.Corpus.in_scope) in
  let precision = float_of_int score.Corpus.matching /. float_of_int (max 1 score.Corpus.reports) in
  let n = List.length main in
  let ok_share =
    float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted)
  in
  let k = Trace.median !ks in
  let at_ref v = v *. Speed.nominal_ms /. k in
  let setup_raw = Trace.median !setups in
  let p50_ref = at_ref p50 and tail_ref = at_ref tail_v and setup_s = at_ref setup_raw in
  let measured v = Printf.sprintf "measured %.4g with the kernel at %.2f ms" v k in
  let pr name value unit note = Printf.printf "%-16s %14.4f %-6s %s\n" name value unit note in
  Printf.printf "workload %s  seed %d  corpus %.0f functions + helpers.c, scaling corpus %.0f\n"
    ctx.wname ctx.seed n_main n_small;
  Printf.printf "times at reference speed: the kernel at %.0f ms\n" Speed.nominal_ms;
  pr "latency_p50_ms" p50_ref "ms" (Printf.sprintf "n=%d; %s" n (measured p50));
  pr "latency_tail_ms" tail_ref "ms"
    (Printf.sprintf "p%.1f, n=%d, %d beyond; %s" tail_p n (if n >= 11 then 10 else 0)
       (measured tail_v));
  pr "setup_s" setup_s "s"
    (Printf.sprintf "median of n=%d set-ups; %s" (List.length !setups) (measured setup_raw));
  pr "peak_rss_mb" peak "MB"
    (Printf.sprintf "median VmHWM of n=%d operations (max %.1f MB); %.1f MB over the last set-up"
       (List.length !peaks) (List.fold_left Float.max 0. !peaks) setup_peak);
  pr "scaling_slope" slope "ratio"
    (Printf.sprintf "log-log over %d paired iterations; p50 %.2f ms at %.0f vs %.2f ms at %.0f functions"
       (List.length ratios) p50 n_main p50_small n_small);
  pr "recall" recall "ratio"
    (Printf.sprintf "%d of %d planted" score.Corpus.detected score.Corpus.in_scope);
  pr "precision" precision "ratio"
    (Printf.sprintf "%d of %d reports" score.Corpus.matching score.Corpus.reports);
  pr "failed_share" (1. -. ok_share) "ratio"
    (Printf.sprintf "%d of %d operations" tally.failed tally.attempted);
  pr "ok_share" ok_share "ratio" "1 - failed_share";
  let m m_name m_value m_unit = { m_name; m_value; m_unit } in
  result_line ~correct:(tally.failed = 0 && score_ok score)
    [
      m "latency_p50_ms" p50_ref "ms";
      m "latency_tail_ms" tail_ref "ms";
      m "setup_s" setup_s "s";
      m "peak_rss_mb" peak "MB";
      m "scaling_slope" slope "ratio";
      m "recall" recall "ratio";
      m "precision" precision "ratio";
      m "ok_share" ok_share "ratio";
    ]
