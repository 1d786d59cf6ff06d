(* Spans and counters recorded from the benchmark's own files, around its
   calls into each layer. Off by default: a disabled [span] costs one
   branch. Events stay in memory and are written out when the run ends,
   as Chrome trace-event JSON (opens in Perfetto / chrome://tracing). *)

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type event = {
  name : string;
  id : int;
  parent : int;  (** enclosing span's id, -1 at top level *)
  op : int;  (** operation id; -1 outside operations, -2 for probes *)
  t0 : float;
  t1 : float;
}

let probe_op = -2
let enabled = ref false
let events : event list ref = ref []
let counters : (int * string * float) list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref (-1)
let epoch = now ()

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      events := { name; id; parent; op = !current_op; t0; t1 } :: !events
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* [count name v] records one value of a per-operation counter. *)
let count name v = if !enabled then counters := (!current_op, name, v) :: !counters

let untraced f =
  let saved = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := saved) f

let in_op op f =
  let saved = !current_op in
  current_op := op;
  Fun.protect ~finally:(fun () -> current_op := saved) f

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The value of a metric from per-operation totals: the median over
   operations (op >= 0) when any operation recorded it, else the probe's,
   else the set-up's. *)
let pick per_op =
  match Hashtbl.fold (fun op v acc -> if op >= 0 then v :: acc else acc) per_op [] with
  | _ :: _ as ops -> Some (median ops, "op")
  | [] -> (
      match (Hashtbl.find_opt per_op probe_op, Hashtbl.find_opt per_op (-1)) with
      | Some v, _ -> Some (v, "probe")
      | None, Some v -> Some (v, "setup")
      | None, None -> None)

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* A span name's total time per operation, in ms. *)
let span_ms name =
  let per_op = Hashtbl.create 16 in
  List.iter (fun e -> if e.name = name then add per_op e.op ((e.t1 -. e.t0) *. 1000.)) !events;
  pick per_op

let counter name =
  let per_op = Hashtbl.create 16 in
  List.iter (fun (op, n, v) -> if n = name then add per_op op v) !counters;
  pick per_op

(* Self time per span name over operations: each span's duration minus
   the part its direct children cover, summed per op, median over ops.
   An "op" span's self time is the part of the operation no layer span
   covers: the unaccounted remainder. *)
let self_times () =
  let evs = List.filter (fun e -> e.op >= 0) !events in
  let child_ms = Hashtbl.create 256 in
  List.iter (fun e -> if e.parent >= 0 then add child_ms e.parent ((e.t1 -. e.t0) *. 1000.)) evs;
  let per = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let self =
        ((e.t1 -. e.t0) *. 1000.) -. Option.value ~default:0. (Hashtbl.find_opt child_ms e.id)
      in
      let tbl =
        match Hashtbl.find_opt per e.name with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 16 in
            Hashtbl.replace per e.name t;
            t
      in
      add tbl e.op self)
    evs;
  Hashtbl.fold
    (fun name tbl acc -> (name, median (Hashtbl.fold (fun _ v l -> v :: l) tbl [])) :: acc)
    per []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let write_chrome path =
  let us t = (t -. epoch) *. 1e6 in
  let names = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace names e.id e.name) !events;
  let cat name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  let ev e =
    Printf.sprintf
      {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"span":%d,"parent":%d,"parent_name":"%s","op":%d}}|}
      (Json_out.escape e.name) (Json_out.escape (cat e.name)) (us e.t0) (us e.t1 -. us e.t0) e.id e.parent
      (Json_out.escape (Option.value ~default:"" (Hashtbl.find_opt names e.parent)))
      e.op
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      Out_channel.output_string oc (String.concat ",\n" (List.rev_map ev !events));
      Out_channel.output_string oc "\n]}\n")
