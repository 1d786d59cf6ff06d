(* The traced run: per-layer metrics of one workload.

   Operations alternate untraced and traced; a traced operation records
   a span around every call the benchmark makes into a layer, and the
   engine, store and scheduler counters of that call. Layers a
   workload's operations do not reach by a call of the benchmark's own
   are measured by probes after the last operation, through the same
   public functions, on the workload's tree as the operations left it:
   - the lexer, the supergraph's parts and dispatch compilation, which
     the engine and supergraph call internally, on every workload;
   - the AST object cache on workloads without --cache-dir;
   - a daemon's create, warm-up and one edit burst, on a fresh copy of
     the initial tree, on workloads that do not serve.
   On serve_edit the daemon's internals are out of reach, so after each
   operation a shadow re-check repeats its steps (re-parse the changed
   file, rebuild the supergraph, run the engine over a memory store,
   rank, render) on the same tree, under span "serve.shadow". *)

open Inst

let span = Trace.span

type kind = Ms of string | Count of string

(* name, unit, how it is measured *)
let metrics =
  [
    ("cfront.parse_ms", "ms", Ms "cfront.parse");
    ("cfront.lex_ms", "ms", Ms "cfront.lex");
    ("cfront.tokens", "count", Count "cfront.tokens");
    ("cfront.ast_load_ms", "ms", Ms "cfront.ast_load");
    ("cfront.ast_store_ms", "ms", Ms "cfront.ast_store");
    ("cfront.ast_hit_rate", "ratio", Count "cfront.ast_hit_rate");
    ("cfg.supergraph_ms", "ms", Ms "cfg.supergraph");
    ("cfg.cfg_ms", "ms", Ms "cfg.cfg");
    ("cfg.callgraph_ms", "ms", Ms "cfg.callgraph");
    ("cfg.heads_ms", "ms", Ms "cfg.heads");
    ("cfg.exprid_ms", "ms", Ms "cfg.exprid");
    ("cfg.flat_ms", "ms", Ms "cfg.flat");
    ("cfg.blocks", "count", Count "cfg.blocks");
    ("cfg.roots", "count", Count "cfg.roots");
    ("cfg.flat_kib", "KiB", Count "cfg.flat_kib");
    ("cfg.exprid_kib", "KiB", Count "cfg.exprid_kib");
    ("metal.compile_ms", "ms", Ms "metal.compile");
    ("dispatch.compile_ms", "ms", Ms "dispatch.compile");
    ("engine.match_attempts", "count", Count "engine.match_attempts");
    ("engine.blocks_skipped", "count", Count "engine.blocks_skipped");
    ("engine.run_ms", "ms", Ms "engine.run");
    ("engine.ms_per_root", "ms", Count "engine.ms_per_root");
    ("engine.alloc_mb", "MB", Count "engine.alloc_mb");
    ("engine.nodes_visited", "count", Count "engine.nodes_visited");
    ("engine.paths_explored", "count", Count "engine.paths_explored");
    ("engine.block_cache_hit_rate", "ratio", Count "engine.block_cache_hit_rate");
    ("engine.summary_hit_rate", "ratio", Count "engine.summary_hit_rate");
    ("engine.degraded_roots", "count", Count "engine.degraded_roots");
    ("fpp.pruned_branches", "count", Count "fpp.pruned_branches");
    ("sched.cpu_util", "ratio", Count "sched.cpu_util");
    ("sched.steals", "count", Count "sched.steals");
    ("sched.waits", "count", Count "sched.waits");
    ("sched.shared_published", "count", Count "sched.shared_published");
    ("sched.shared_replayed", "count", Count "sched.shared_replayed");
    ("sched.shared_recomputed", "count", Count "sched.shared_recomputed");
    ("store.open_ms", "ms", Ms "store.open");
    ("store.fn_hit_rate", "ratio", Count "store.fn_hit_rate");
    ("store.roots_replayed", "count", Count "store.roots_replayed");
    ("store.roots_recomputed", "count", Count "store.roots_recomputed");
    ("store.fns_recomputed", "count", Count "store.fns_recomputed");
    ("store.cutoff_rate", "ratio", Count "store.cutoff_rate");
    ("store.disk_kib", "KiB", Count "store.disk_kib");
    ("store.mem_entries", "count", Count "store.mem_entries");
    ("report.rank_ms", "ms", Ms "report.rank");
    ("report.render_ms", "ms", Ms "report.render");
    ("report.json_kib", "KiB", Count "report.json_kib");
    ("report.reports", "count", Count "report.reports");
    ("serve.create_ms", "ms", Ms "serve.create");
    ("serve.warmup_ms", "ms", Ms "serve.warmup");
    ("serve.request_ms", "ms", Ms "serve.request");
    ("serve.queued_share", "ratio", Count "serve.queued_share");
  ]

(* Layers reached only inside other layers' calls, timed through their
   public functions on the workload's current tree. *)
let probe_layers ctx (ck : Pipe.checkers) =
  let sources = Corpus.sources ctx.main in
  let tus = List.map (fun (file, src) -> Cparse.parse_tunit ~file src) sources in
  let tokens =
    span "cfront.lex" (fun () ->
        List.fold_left
          (fun n (file, src) -> n + List.length (Clex.tokenize ~file src))
          0 sources)
  in
  Trace.count "cfront.tokens" (float_of_int tokens);
  let funcs =
    List.concat_map
      (fun (tu : Cast.tunit) ->
        List.filter_map (function Cast.Gfun f -> Some f | _ -> None) tu.Cast.tu_globals)
      tus
  in
  let cfgs = span "cfg.cfg" (fun () -> List.map Cfg.of_fundef funcs) in
  ignore (span "cfg.callgraph" (fun () -> Callgraph.build funcs));
  ignore (span "cfg.heads" (fun () -> List.map Block_heads.of_cfg cfgs));
  let ids = span "cfg.exprid" (fun () -> Exprid.build ~tunits:tus ~cfgs) in
  let flat = span "cfg.flat" (fun () -> Flat.build cfgs) in
  Trace.count "cfg.blocks" (float_of_int (List.fold_left (fun n c -> n + Cfg.n_blocks c) 0 cfgs));
  Trace.count "cfg.flat_kib" (float_of_int (Flat.table_bytes flat) /. 1024.);
  Trace.count "cfg.exprid_kib" (float_of_int (Exprid.table_bytes ids) /. 1024.);
  let sg = Trace.untraced (fun () -> Supergraph.build tus) in
  span "dispatch.compile" (fun () ->
      List.iter (fun sm -> ignore (Dispatch.compile ~sg sm)) ck.Pipe.sms);
  if ctx.w <> Cached_edit then begin
    let dir = Filename.concat ctx.work "probe-ast" in
    let fps =
      List.map (fun (file, source) -> Cast_io.ast_fingerprint ~file ~source) sources
    in
    span "cfront.ast_store" (fun () ->
        List.iter2 (fun fp tu -> Cast_io.write_cached ~cache_dir:dir fp tu) fps tus);
    span "cfront.ast_load" (fun () ->
        List.iter (fun fp -> ignore (Cast_io.read_cached ~cache_dir:dir fp)) fps)
  end;
  if ctx.w <> Serve_edit then begin
    let dir = Filename.concat ctx.work "probe-serve" in
    let t = Corpus.generate ~seed:ctx.seed ~funcs_per_file:Corpus.funcs_per_file in
    mkdir_p (Filename.concat dir "src");
    Corpus.materialise t ~dir:(Filename.concat dir "src");
    let s, _ = Pipe.server ~dir:(Filename.concat dir "mem") ck (Corpus.paths t) in
    ignore (Pipe.warmup s);
    let e = Corpus.next_edit (Corpus.script ~seed:ctx.seed) t in
    ignore
      (Pipe.burst s ~path:(Corpus.path t e.Corpus.e_file) ~text:(Corpus.text t e.Corpus.e_file))
  end;
  if ctx.w = Cached_edit then begin
    let d = Summary_store.disk_stats ~dir:(Filename.concat ctx.work "main/store") in
    let bytes (k : Summary_store.disk_kind) = k.Summary_store.dk_bytes in
    Trace.count "store.disk_kib"
      (float_of_int (bytes d.Summary_store.d_ast + bytes d.Summary_store.d_sum + bytes d.Summary_store.d_root)
      /. 1024.)
  end

let run ctx =
  let score = score_line ctx in
  let inst = instance ctx.w ~dir:(Filename.concat ctx.work "main") ~seed:ctx.seed ctx.main in
  let ck = Pipe.compile_checkers () in
  Trace.enabled := true;
  inst.setup ();
  let shadow =
    match ctx.w with
    | Serve_edit ->
        let sh = Trace.untraced (fun () -> Pipe.shadow ~dir:(Filename.concat ctx.work "shadow") ck) in
        Trace.untraced (fun () -> ignore (Pipe.shadow_check sh ck (Corpus.sources ctx.main)));
        Some sh
    | _ -> None
  in
  Trace.enabled := false;
  check_setup ctx.w inst;
  (* Iteration i is traced when i is odd; the shadow re-check runs after
     every operation, so its store sees every edit. *)
  let around i f =
    Trace.enabled := i mod 2 = 1;
    let dt = Trace.in_op i (fun () -> span "op" f) in
    Option.iter
      (fun sh ->
        Trace.in_op i (fun () ->
            span "serve.shadow" (fun () ->
                ignore (Pipe.shadow_check sh ck (Corpus.sources ctx.main)))))
      shadow;
    Trace.enabled := false;
    dt
  in
  let rows = phase ~around [ inst ] ~budget:ctx.seconds ~min_n:12 ~cap:run_cap in
  Trace.enabled := true;
  Trace.in_op Trace.probe_op (fun () -> probe_layers ctx ck);
  Trace.enabled := false;
  let ms = Array.of_list (List.map List.hd rows) in
  let pick odd =
    List.filter_map Fun.id (List.filteri (fun i _ -> i mod 2 = Bool.to_int odd) (Array.to_list ms))
  in
  let traced = pick true and plain = pick false in
  (* each traced operation against the untraced one just before it *)
  let overhead =
    Trace.median
      (List.concat
         (List.init (Array.length ms / 2) (fun k ->
              match (ms.((2 * k) + 1), ms.(2 * k)) with
              | Some t, Some u -> [ t -. u ]
              | _ -> [])))
  in
  let selfs = Trace.self_times () in
  let unaccounted = Option.value ~default:nan (List.assoc_opt "op" selfs) in
  Printf.printf "workload %s  seed %d  traced run: %d traced and %d untraced operations\n"
    ctx.wname ctx.seed (List.length traced) (List.length plain);
  Printf.printf "\nself time per operation (median ms; \"op\" is the unaccounted remainder)\n";
  List.iter (fun (name, ms) -> Printf.printf "  %-22s %10.3f\n" name ms) selfs;
  Printf.printf
    "\ntracing overhead: %.3f ms (median over pairs; traced p50 %.3f ms, untraced p50 %.3f ms)\n"
    overhead (Trace.median traced) (Trace.median plain);
  if ctx.w = Serve_edit then
    Printf.printf "cfront/cfg/engine/store/report on serve_edit: the shadow re-check after each operation\n";
  Printf.printf "\nper-layer metrics (source: op = median over traced operations, probe, setup, idle = layer unused)\n";
  let values =
    List.map
      (fun (name, unit, how) ->
        let v = match how with Ms s -> Trace.span_ms s | Count s -> Trace.counter s in
        let value, src = Option.value v ~default:(0., "idle") in
        Printf.printf "  %-28s %14.4f %-6s %s\n" name value unit src;
        { m_name = name; m_value = value; m_unit = unit })
      metrics
  in
  let extra =
    [
      { m_name = "trace.overhead_ms"; m_value = overhead; m_unit = "ms" };
      { m_name = "trace.unaccounted_ms"; m_value = unaccounted; m_unit = "ms" };
    ]
  in
  List.iter (fun m -> Printf.printf "  %-28s %14.4f %-6s\n" m.m_name m.m_value m.m_unit) extra;
  let path = Filename.concat "_perfbench" (Printf.sprintf "trace-%s-seed%d.json" ctx.wname ctx.seed) in
  Trace.write_chrome path;
  Printf.printf "trace: %s (%d spans)\n" path (List.length !Trace.events);
  result_line ~correct:(tally.failed = 0 && score_ok score) (values @ extra)
