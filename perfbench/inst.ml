(* Workload instances, the closed-loop measurement phase, and the
   result line, shared by the end-to-end and the traced run. *)

let now = Trace.now

type workload = Cold_j1 | Cold_j2 | Cached_edit | Serve_edit

let workloads =
  [ ("cold_j1", Cold_j1); ("cold_j2", Cold_j2); ("cached_edit", Cached_edit); ("serve_edit", Serve_edit) ]

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* ------------------------------------------------------------------ *)
(* Workload instances                                                  *)
(* ------------------------------------------------------------------ *)

(* One workload on one corpus. [setup] is timed and may be repeated
   after [teardown] (untimed), which drops what the last set-up built;
   [prepare] (untimed) applies the next edit; [op] is the timed
   operation; [verify] (untimed) names what is wrong with the last
   set-up or operation, if anything. *)
type inst = {
  teardown : unit -> unit;
  setup : unit -> unit;
  prepare : unit -> unit;
  op : unit -> unit;
  verify : unit -> string option;
}

let get r = match !r with Some v -> v | None -> failwith "operation has not run"

let cold_inst ~jobs (t : Corpus.t) =
  let ck = ref None and last = ref None in
  {
    teardown = (fun () -> last := None);
    setup = (fun () -> ck := Some (Pipe.compile_checkers ()));
    prepare = ignore;
    op = (fun () -> last := Some (Pipe.cold ~jobs (get ck) (Corpus.sources t)));
    verify = (fun () -> Pipe.verify ~expected:(Pipe.oracle (get ck) t) (get last));
  }

let edit_check kind ~(st : Summary_store.stats) =
  let recomputed = st.Summary_store.fns_recomputed and unchanged = st.Summary_store.sums_unchanged in
  if Corpus.edit_ok kind ~recomputed ~unchanged then None
  else
    Some
      (Printf.sprintf "mis-generated %s edit: fns_recomputed=%d sums_unchanged=%d"
         (Corpus.kind_name kind) recomputed unchanged)

let cached_inst ~dir ~seed (t : Corpus.t) =
  let src = Filename.concat dir "src" and store = Filename.concat dir "store" in
  mkdir_p src;
  Corpus.materialise t ~dir:src;
  let script = Corpus.script ~seed in
  let ck = ref None and last = ref None and edit = ref None in
  {
    teardown =
      (fun () ->
        last := None;
        rm_rf store);
    setup =
      (fun () ->
        ck := Some (Pipe.compile_checkers ());
        last := Some (Pipe.cached ~dir:store (get ck) (Corpus.paths t));
        edit := None);
    prepare =
      (fun () ->
        let e = Corpus.next_edit script t in
        Corpus.save t e.Corpus.e_file;
        edit := Some e);
    op = (fun () -> last := Some (Pipe.cached ~dir:store (get ck) (Corpus.paths t)));
    verify =
      (fun () ->
        let o, st = get last in
        match Pipe.verify ~expected:(Pipe.oracle (get ck) t) o with
        | Some why -> Some why
        | None -> (
            match !edit with
            | Some e -> edit_check e.Corpus.e_kind ~st
            | None -> None));
  }

let serve_inst ~dir ~seed (t : Corpus.t) =
  let src = Filename.concat dir "src" and mem = Filename.concat dir "mem" in
  mkdir_p src;
  Corpus.materialise t ~dir:src;
  let script = Corpus.script ~seed in
  let ck = ref None and srv = ref None and reply = ref None and edit = ref None in
  {
    teardown =
      (fun () ->
        srv := None;
        reply := None);
    setup =
      (fun () ->
        let c = Pipe.compile_checkers () in
        ck := Some c;
        let s, store = Pipe.server ~dir:mem c (Corpus.paths t) in
        let o = Pipe.warmup s in
        srv := Some (s, store);
        reply :=
          Some
            (if o.Server.o_degraded = 0 then Ok o.Server.o_diagnostics
             else Error (Printf.sprintf "%d degraded root(s)" o.Server.o_degraded));
        edit := None);
    prepare = (fun () -> edit := Some (Corpus.next_edit script t));
    op =
      (fun () ->
        let s, _ = get srv and e = get edit in
        let path = Corpus.path t e.Corpus.e_file in
        reply := Some (Pipe.diagnostics (Pipe.burst s ~path ~text:(Corpus.text t e.Corpus.e_file))));
    verify =
      (fun () ->
        match get reply with
        | Error r -> Some ("unexpected reply " ^ r)
        | Ok d when not (String.equal d (Pipe.oracle (get ck) t).Pipe.json) ->
            Some "diagnostics differ from the uncached -j1 run"
        | Ok _ -> (
            match !edit with
            | Some e -> edit_check e.Corpus.e_kind ~st:(Summary_store.stats (snd (get srv)))
            | None -> None));
  }

let instance w ~dir ~seed t =
  match w with
  | Cold_j1 -> cold_inst ~jobs:1 t
  | Cold_j2 -> cold_inst ~jobs:2 t
  | Cached_edit -> cached_inst ~dir ~seed t
  | Serve_edit -> serve_inst ~dir ~seed t

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let fail why =
  tally.failed <- tally.failed + 1;
  Printf.printf "FAILED: %s\n%!" why

let check_outcome f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | None -> true
  | Some why ->
      fail why;
      false
  | exception e ->
      fail (Printexc.to_string e);
      false

(* Runs iterations until [budget] seconds have passed and at least
   [min_n] iterations succeeded (giving up on the minimum after [cap]
   seconds). An iteration calls [before] (untimed), then runs each
   instance's next operation in turn. Returns, per iteration, each
   operation's time in ms, [None] where it failed. [around i f] wraps
   iteration [i]'s timed calls; [f] returns the time. *)
let phase ?(before = ignore) ?(around = fun _ f -> f ()) insts ~budget ~min_n ~cap =
  let start = now () in
  let rows = ref [] and n = ref 0 and i = ref 0 in
  while
    let el = now () -. start in
    (el < budget || !n < min_n) && el < cap
  do
    before ();
    let one inst =
      let ms = ref None in
      ignore
        (check_outcome (fun () ->
             inst.prepare ();
             let dt =
               around !i (fun () ->
                   let t0 = now () in
                   inst.op ();
                   now () -. t0)
             in
             let v = inst.verify () in
             if v = None then ms := Some (dt *. 1000.);
             v));
      !ms
    in
    let row = List.map one insts in
    if List.for_all Option.is_some row then incr n;
    rows := row :: !rows;
    incr i
  done;
  List.rev !rows

(* The highest percentile with at least ten samples beyond it: rank
   n - 10 of n, by nearest rank. *)
let tail l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n >= 11 then (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)
  else (a.(n - 1), 100.)

let vm_hwm_mb () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  with
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
  | None -> nan
  | exception Sys_error _ -> nan

let reset_hwm () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

(* A metric that is not a finite number fails the run. *)
let result_line ~correct metrics =
  let bad = List.filter (fun m -> not (Float.is_finite m.m_value)) metrics in
  List.iter (fun m -> Printf.printf "FAILED: %s is not a number\n" m.m_name) bad;
  let correct = correct && bad = [] in
  let metrics =
    List.map (fun m -> if Float.is_finite m.m_value then m else { m with m_value = 0. }) metrics
  in
  let m =
    List.map
      (fun m ->
        Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.m_name m.m_value m.m_unit)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    tally.attempted tally.failed (String.concat ", " m);
  print_newline ();
  correct

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* The cold workloads' set-up is checker compilation: cheap, and with no
   output to check. The others' (a cached cold run, a daemon's warm-up)
   is checked like an operation. *)
let cheap_setup = function Cold_j1 | Cold_j2 -> true | Cached_edit | Serve_edit -> false

let check_setup w inst = if not (cheap_setup w) then ignore (check_outcome inst.verify)

type ctx = {
  w : workload;
  wname : string;
  seed : int;
  seconds : float;
  work : string;
  main : Corpus.t;
}

(* Enough iterations that the tail percentile has ten samples beyond it. *)
let min_iterations = 11
let run_cap = 120.

let score_ok (s : Corpus.score) = s.Corpus.in_scope > 0 && s.Corpus.detected = s.Corpus.in_scope && s.Corpus.matching = s.Corpus.reports

let score_line ctx =
  let ck = Pipe.compile_checkers () in
  let s = Corpus.score ctx.main (Pipe.oracle ck ctx.main).Pipe.result.Engine.reports in
  Printf.printf "ground truth: %d planted in scope (use-after-free, missing-unlock; null/leak have none), %d detected, %d of %d reports match\n"
    s.Corpus.in_scope s.Corpus.detected s.Corpus.matching s.Corpus.reports;
  if not (score_ok s) then Printf.printf "FAILED: ground-truth scorer: detection is not exact on the initial tree\n";
  s

