(* The benchmark's input: a seeded linked corpus held as editable text,
   and the seeded edit script the two edit workloads replay.

   The program under test only ever sees the generated text (parsed from
   strings, or written to files and read back); the ground truth stays
   here, on the benchmark's side. *)

let n_files = 20
let funcs_per_file = 50
let small_funcs_per_file = funcs_per_file / 4
let bug_rate = 0.3
let checkers = [ "free"; "lock"; "null"; "leak" ]

(* A function's opening line is the only line an edit rewrites, so no
   line below it moves and report locations stay put. *)
type fn = {
  fn_file : int;
  fn_name : string;
  fn_line : int;
  fn_open : string;  (** the generated opening line *)
  fn_ptr : string option;  (** first pointer parameter, if any *)
  mutable fn_const : int option;  (** summary-neutral local, if inserted *)
  mutable fn_released : bool;  (** summary-changing release, if inserted *)
}

type file = {
  f_name : string;
  f_lines : string array;
  mutable f_trailer : string;  (** comment-only edits, appended at EOF *)
}

type t = {
  files : file array;
  fns : fn array;  (** non-helper functions, in file order *)
  planted : Gen.planted list;
  mutable dir : string option;
      (** when set, file [i] lives at [dir/name] and [path] returns that *)
}

let helpers = "helpers.c"

let ptr_param params =
  String.split_on_char ',' params
  |> List.find_map (fun p ->
         match String.rindex_opt p '*' with
         | Some i -> Some (String.trim (String.sub p (i + 1) (String.length p - i - 1)))
         | None -> None)

(* "int NAME(PARAMS) {" — the shape of every generated definition. *)
let opening_line s =
  let n = String.length s in
  if n > 6 && String.sub s 0 4 = "int " && String.sub s (n - 3) 3 = ") {" then
    match String.index_opt s '(' with
    | Some i ->
        let name = String.sub s 4 (i - 4) in
        Some (name, ptr_param (String.sub s (i + 1) (n - 3 - i - 1)))
    | None -> None
  else None

let generate ~seed ~funcs_per_file =
  let gen = Gen.generate_linked ~seed ~n_files ~funcs_per_file ~bug_rate in
  let files =
    Array.of_list
      (List.map
         (fun (name, (g : Gen.t)) ->
           let text = g.Gen.source in
           let text =
             if String.ends_with ~suffix:"\n" text then
               String.sub text 0 (String.length text - 1)
             else text
           in
           { f_name = name; f_lines = Array.of_list (String.split_on_char '\n' text); f_trailer = "" })
         gen)
  in
  let fns = ref [] in
  Array.iteri
    (fun fi f ->
      if f.f_name <> helpers then
        Array.iteri
          (fun li line ->
            match opening_line line with
            | Some (name, ptr) ->
                fns :=
                  {
                    fn_file = fi;
                    fn_name = name;
                    fn_line = li;
                    fn_open = line;
                    fn_ptr = ptr;
                    fn_const = None;
                    fn_released = false;
                  }
                  :: !fns
            | None -> ())
          f.f_lines)
    files;
  {
    files;
    fns = Array.of_list (List.rev !fns);
    planted = List.concat_map (fun (_, (g : Gen.t)) -> g.Gen.planted) gen;
    dir = None;
  }

let text t i =
  let f = t.files.(i) in
  String.concat "\n" (Array.to_list f.f_lines) ^ "\n" ^ f.f_trailer

let path t i =
  match t.dir with
  | Some d -> Filename.concat d t.files.(i).f_name
  | None -> t.files.(i).f_name

let sources t = List.init (Array.length t.files) (fun i -> (path t i, text t i))
let paths t = List.init (Array.length t.files) (path t)

let digest t =
  Digest.to_hex
    (Digest.string
       (String.concat "\000" (List.concat_map (fun (p, s) -> [ p; s ]) (sources t))))

let write_file path s =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc s);
  Sys.rename tmp path

let materialise t ~dir =
  t.dir <- Some dir;
  Array.iteri (fun i _ -> write_file (path t i) (text t i)) t.files

(* ------------------------------------------------------------------ *)
(* Edit script                                                         *)
(* ------------------------------------------------------------------ *)

type kind = Comment_only | Summary_neutral | Summary_changing

let kind_name = function
  | Comment_only -> "comment-only"
  | Summary_neutral -> "summary-neutral"
  | Summary_changing -> "summary-changing"

type edit = { e_kind : kind; e_file : int; e_what : string }

type script = { rng : Random.State.t; mutable next : int }

let script ~seed = { rng = Random.State.make [| seed; 0x5eed |]; next = 0 }

(* The release comes first: summaries record where it happens, so a
   summary-neutral edit must not move it. *)
let render_open fn =
  fn.fn_open
  ^ (match (fn.fn_released, fn.fn_ptr) with
    | true, Some p -> Printf.sprintf " kfree(%s);" p
    | _ -> "")
  ^
  match fn.fn_const with
  | Some c -> Printf.sprintf " int perfbench_local = %d;" c
  | None -> ""

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Rotates the three kinds. A comment lands at the end of a file, so no
   location moves; a summary-neutral edit gives one function a local
   with a constant never used before, so its body hash changes and its
   summaries do not; a summary-changing edit toggles a release of a
   pointer parameter, so the free checker's summary of that function
   changes. Applies the edit to [t] in memory; {!save} writes it out. *)
let next_edit s t =
  let n = s.next in
  s.next <- n + 1;
  let e =
    match n mod 3 with
    | 0 ->
        let fi = (pick s.rng t.fns).fn_file in
        let f = t.files.(fi) in
        f.f_trailer <- f.f_trailer ^ Printf.sprintf "/* perfbench edit %d */\n" n;
        { e_kind = Comment_only; e_file = fi; e_what = f.f_name }
    | 1 ->
        let fn = pick s.rng t.fns in
        fn.fn_const <- Some (1000 + n);
        { e_kind = Summary_neutral; e_file = fn.fn_file; e_what = fn.fn_name }
    | _ ->
        let ptrs = List.filter (fun fn -> fn.fn_ptr <> None) (Array.to_list t.fns) in
        let fn = pick s.rng (Array.of_list ptrs) in
        fn.fn_released <- not fn.fn_released;
        { e_kind = Summary_changing; e_file = fn.fn_file; e_what = fn.fn_name }
  in
  Array.iter
    (fun fn -> if fn.fn_file = e.e_file then t.files.(fn.fn_file).f_lines.(fn.fn_line) <- render_open fn)
    t.fns;
  e

let save t i = write_file (path t i) (text t i)

(* The store counters each kind promises. [recomputed] and [unchanged]
   are the summary store's [fns_recomputed] and [sums_unchanged] for the
   one run that follows the edit. *)
let edit_ok kind ~recomputed ~unchanged =
  match kind with
  | Comment_only -> recomputed = 0
  | Summary_neutral -> recomputed > 0 && unchanged = recomputed
  | Summary_changing -> recomputed > 0 && unchanged < recomputed

(* ------------------------------------------------------------------ *)
(* Ground truth                                                        *)
(* ------------------------------------------------------------------ *)

type score = { in_scope : int; detected : int; reports : int; matching : int }

(* A planted bug counts as detected when the checker its kind belongs to
   reports in the function it was planted in; a report is true when it
   names a planted bug's function and that bug's checker. The linked
   corpus plants only use-after-free and missing-unlock bugs, so the
   null and leak checkers run for cost and every report of theirs is a
   false one. *)
let score t (reports : Report.t list) =
  let report_name (p : Gen.planted) = Gen.checker_of_kind p.Gen.kind ^ "_checker" in
  let scoped =
    List.filter (fun (p : Gen.planted) -> List.mem (Gen.checker_of_kind p.Gen.kind) checkers) t.planted
  in
  let truth = Hashtbl.create 512 in
  List.iter (fun p -> Hashtbl.replace truth (report_name p, p.Gen.in_function) ()) scoped;
  let hit = Hashtbl.create 512 in
  let matching =
    List.fold_left
      (fun acc (r : Report.t) ->
        let k = (r.Report.checker, r.Report.func) in
        if Hashtbl.mem truth k then begin
          Hashtbl.replace hit k ();
          acc + 1
        end
        else acc)
      0 reports
  in
  {
    in_scope = List.length scoped;
    detected = List.length (List.filter (fun p -> Hashtbl.mem hit (report_name p, p.Gen.in_function)) scoped);
    reports = List.length reports;
    matching;
  }
