(* perfbench: the repository's benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1

   Generates the seeded linked corpus, runs one of four workloads (one
   per xgcc execution mode) closed loop with one client, checks every
   operation against an uncached -j1 run of the same tree, scores the
   reports against the generator's planted bugs, and prints one line per
   metric followed by a JSON result line. [--trace 0] prints the
   end-to-end metrics; [--trace 1] runs the same workload with spans
   around every layer call and prints the per-layer metrics, their self
   times, and the tracing overhead, and writes a Chrome trace file.
   Exits 1 when any operation fails or the scorer rejects the reports. *)

let usage () =
  prerr_endline "usage: main.exe --workload cold_j1|cold_j2|cached_edit|serve_edit --seed N --seconds S --trace 0|1";
  exit 2

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let wname = get "--workload" in
  let w = match List.assoc_opt wname Inst.workloads with Some w -> w | None -> usage () in
  let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> usage () in
  let seconds = match float_of_string_opt (get "--seconds") with Some s when s > 0. -> s | _ -> usage () in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let work = Filename.concat "_perfbench" (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Inst.mkdir_p work;
  at_exit (fun () -> Inst.rm_rf work);
  let main = Corpus.generate ~seed ~funcs_per_file:Corpus.funcs_per_file in
  let ctx = { Inst.w; wname; seed; seconds; work; main } in
  let correct = if trace then Layers.run ctx else E2e.run ctx in
  exit (if correct then 0 else 1)
