(* The operations the workloads time, each composed the way the [xgcc]
   command line composes it, from the libraries' public interfaces.
   Every call into a layer sits inside a {!Trace.span}, which costs one
   branch when tracing is off, so traced and untraced runs execute the
   same code. *)

let span = Trace.span

type checkers = { sms : Sm.t list; sources : string list }

let compile_checkers () =
  Trace.span "metal.compile" (fun () ->
      let entries =
        List.map
          (fun name ->
            match Registry.find name with
            | Some e -> e
            | None -> failwith ("unknown checker " ^ name))
          Corpus.checkers
      in
      {
        sms = List.map (fun e -> e.Registry.e_make ()) entries;
        sources =
          List.map (fun e -> Option.value e.Registry.e_source ~default:e.Registry.e_name) entries;
      })

let options = Engine.default_options

type out = {
  result : Engine.result;
  json : string;  (** the ranked report set, as [--format json] prints it *)
}

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rate num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Engine.run, plus the per-operation engine and scheduler counters when
   tracing. Allocation is counted from [Gc.quick_stat], which includes
   the words of worker domains that have joined. *)
let run_engine ~jobs ?store sg ck =
  let w0 = if !Trace.enabled then words () else 0. in
  let c0 = if !Trace.enabled then cpu () else 0. in
  let t0 = Trace.now () in
  let r = span "engine.run" (fun () -> Engine.run ~options ~jobs ?cache:store sg ck.sms) in
  if !Trace.enabled then begin
    let wall = Trace.now () -. t0 in
    let st = r.Engine.stats in
    let c = Trace.count in
    let roots = List.length (Supergraph.roots sg) in
    c "engine.ms_per_root" (wall *. 1000. /. float_of_int (max 1 roots));
    c "engine.alloc_mb" ((words () -. w0) *. float_of_int (Sys.word_size / 8) /. 1e6);
    c "engine.match_attempts" (float_of_int st.Engine.match_attempts);
    c "engine.blocks_skipped" (float_of_int st.Engine.blocks_skipped);
    c "engine.nodes_visited" (float_of_int st.Engine.nodes_visited);
    c "engine.paths_explored" (float_of_int st.Engine.paths_explored);
    c "engine.block_cache_hit_rate" (rate st.Engine.cache_hits st.Engine.cache_probes);
    c "engine.summary_hit_rate" (rate st.Engine.summary_hits st.Engine.calls_followed);
    c "engine.degraded_roots" (float_of_int (List.length r.Engine.degraded));
    c "fpp.pruned_branches" (float_of_int st.Engine.pruned_branches);
    c "sched.cpu_util" ((cpu () -. c0) /. (wall *. float_of_int jobs));
    c "sched.steals" (float_of_int st.Engine.sched_steals);
    c "sched.waits" (float_of_int st.Engine.sched_waits);
    c "sched.shared_published" (float_of_int st.Engine.shared_published);
    c "sched.shared_replayed" (float_of_int st.Engine.shared_replayed);
    c "sched.shared_recomputed" (float_of_int st.Engine.shared_recomputed);
    c "cfg.roots" (float_of_int roots)
  end;
  r

(* Pass 1 by [load], then supergraph, engine, ranking and rendering. *)
let check ~jobs ?store ~load ck inputs =
  let tus = List.map load inputs in
  let sg = span "cfg.supergraph" (fun () -> Supergraph.build tus) in
  let result = run_engine ~jobs ?store sg ck in
  let ranked = span "report.rank" (fun () -> Rank.generic_sort result.Engine.reports) in
  let json = span "report.render" (fun () -> Json_out.reports_to_string ranked) in
  Trace.count "report.reports" (float_of_int (List.length ranked));
  Trace.count "report.json_kib" (float_of_int (String.length json) /. 1024.);
  { result; json }

let parse ~file src = span "cfront.parse" (fun () -> Cparse.parse_tunit ~file src)

(* [xgcc check -jN]: every file parsed from its text. *)
let cold ~jobs ck sources =
  check ~jobs ~load:(fun (file, src) -> parse ~file src) ck sources

let read_file path = In_channel.with_open_bin path In_channel.input_all

let ext_keys ck =
  Summary_store.ext_keys_of ~options_digest:(Engine.options_digest options) ~sources:ck.sources

let store_counters (st : Summary_store.stats) =
  let c = Trace.count in
  let s = st.Summary_store.fn_hits + st.Summary_store.fn_stale + st.Summary_store.fn_absent in
  c "store.fn_hit_rate" (rate st.Summary_store.fn_hits s);
  c "store.roots_replayed" (float_of_int st.Summary_store.roots_replayed);
  c "store.roots_recomputed" (float_of_int st.Summary_store.roots_recomputed);
  c "store.fns_recomputed" (float_of_int st.Summary_store.fns_recomputed);
  c "store.cutoff_rate" (rate st.Summary_store.sums_unchanged st.Summary_store.fns_recomputed)

(* [xgcc check --cache-dir DIR] at -j1: a fresh store handle, sources
   read from disk, ASTs through the content-addressed object cache,
   roots replayed or recomputed, the run record saved. *)
let cached ~dir ck paths =
  let store =
    span "store.open" (fun () ->
        Summary_store.create ~dir ~persist:true ~ext_keys:(ext_keys ck) ())
  in
  let hits = ref 0 and misses = ref 0 in
  let load path =
    let src = span "cfront.read" (fun () -> read_file path) in
    let fp = Cast_io.ast_fingerprint ~file:path ~source:src in
    match span "cfront.ast_load" (fun () -> Cast_io.read_cached ~cache_dir:dir fp) with
    | Some tu ->
        incr hits;
        tu
    | None ->
        incr misses;
        let tu = parse ~file:path src in
        span "cfront.ast_store" (fun () -> Cast_io.write_cached ~cache_dir:dir fp tu);
        tu
  in
  let out = check ~jobs:1 ~store ~load ck paths in
  let st = Summary_store.stats store in
  st.Summary_store.ast_hits <- !hits;
  st.Summary_store.ast_misses <- !misses;
  span "store.save" (fun () -> Summary_store.save_last_run store);
  Trace.count "cfront.ast_hit_rate" (rate !hits (!hits + !misses));
  store_counters st;
  (out, st)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let parse_source ~path ~source =
  match Cparse.parse_tunit ~file:path source with
  | tu -> Ok tu
  | exception Clex.Lex_error (loc, msg) ->
      Error (Printf.sprintf "%s: lexical error: %s" (Srcloc.to_string loc) msg)

let memory_store ~dir ck =
  span "store.open" (fun () ->
      Summary_store.create ~dir ~persist:false ~memory:true ~ext_keys:(ext_keys ck) ())

(* [xgcc serve] in process, over a memory-only store. *)
let server ~dir ck paths =
  let store = memory_store ~dir ck in
  let cfg =
    {
      Server.c_files = paths;
      c_parse = parse_source;
      c_exts = ck.sms;
      c_options = options;
      c_jobs = 1;
      c_store = Some store;
      c_rank = "generic";
    }
  in
  match span "serve.create" (fun () -> Server.create cfg) with
  | Ok s -> (s, store)
  | Error msg -> failwith ("Server.create: " ^ msg)

let warmup server = span "serve.warmup" (fun () -> Server.check server)

let did_change ~path ~text =
  Json_out.to_string
    (Json_out.Obj
       [ ("cmd", Json_out.Str "didChange"); ("path", Json_out.Str path); ("text", Json_out.Str text) ])

let field name = function Json_out.Obj kvs -> List.assoc_opt name kvs | _ -> None

(* One edit burst: the first two lines carry intermediate buffers and
   are flagged as having more input pending, so the server queues them;
   the third carries the final text and is answered with diagnostics. *)
let burst server ~path ~text =
  let send ~more s =
    span "serve.request" (fun () -> fst (Server.handle_line server ~more_pending:more s))
  in
  let queued =
    List.filter
      (fun r -> field "event" r = Some (Json_out.Str "queued"))
      [
        send ~more:true (did_change ~path ~text:(text ^ "// typing\n"));
        send ~more:true (did_change ~path ~text:(text ^ "// typing...\n"));
      ]
  in
  let reply = send ~more:false (did_change ~path ~text) in
  Trace.count "serve.queued_share" (float_of_int (List.length queued) /. 3.);
  reply

let diagnostics reply =
  match (field "event" reply, field "diagnostics" reply, field "degraded" reply) with
  | Some (Json_out.Str "diagnostics"), Some (Json_out.Str d), Some (Json_out.Int 0) -> Ok d
  | _ ->
      let r = Json_out.to_string reply in
      Error (if String.length r > 200 then String.sub r 0 200 ^ "..." else r)

(* The steps a server re-check takes, repeated through the same public
   calls on the same tree by the traced run: the server's own internals
   are out of the benchmark's reach. Unchanged files keep their AST. *)
type shadow = { sh_store : Summary_store.t; sh_asts : (string, string * Cast.tunit) Hashtbl.t }

let shadow ~dir ck = { sh_store = memory_store ~dir ck; sh_asts = Hashtbl.create 64 }

let shadow_check sh ck sources =
  let load (path, src) =
    match Hashtbl.find_opt sh.sh_asts path with
    | Some (s, tu) when String.equal s src -> tu
    | _ ->
        let tu = parse ~file:path src in
        Hashtbl.replace sh.sh_asts path (src, tu);
        tu
  in
  Summary_store.reset_stats sh.sh_store;
  let out = check ~jobs:1 ~store:sh.sh_store ~load ck sources in
  store_counters (Summary_store.stats sh.sh_store);
  Trace.count "store.mem_entries" (float_of_int (Summary_store.mem_entries sh.sh_store));
  out

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

(* An uncached -j1 run of the same tree, outside any timed region and
   untraced, memoised by the tree's digest. Only the cold workloads
   revisit a tree (two of them, main and scaling corpus), so the memo is
   kept small rather than growing with every edit. *)
let oracle_memo : (string, out) Hashtbl.t = Hashtbl.create 8

let oracle ck (t : Corpus.t) =
  let d = Corpus.digest t in
  match Hashtbl.find_opt oracle_memo d with
  | Some o -> o
  | None ->
      let o = Trace.untraced (fun () -> cold ~jobs:1 ck (Corpus.sources t)) in
      if Hashtbl.length oracle_memo >= 4 then Hashtbl.reset oracle_memo;
      Hashtbl.replace oracle_memo d o;
      o

(* Why a run's output is wrong, or [None]. *)
let verify ~expected (o : out) =
  let r = o.result in
  if r.Engine.degraded <> [] then
    Some (Printf.sprintf "%d degraded root(s)" (List.length r.Engine.degraded))
  else if r.Engine.stats.Engine.shared_recomputed <> 0 then
    Some (Printf.sprintf "shared_recomputed = %d" r.Engine.stats.Engine.shared_recomputed)
  else if not (String.equal o.json expected.json) then
    Some "diagnostics differ from the uncached -j1 run"
  else None
