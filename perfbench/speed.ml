(* Host speed, measured by a fixed reference kernel that shares no code
   with the program under test.

   The benchmark host is a shared virtual machine whose speed drifts by
   up to 1.6x over seconds to minutes; a fixed loop and an xgcc
   operation slow down together. The timed end-to-end metrics are
   therefore also reported at reference speed: a time is scaled by
   [nominal_ms / k], where [k] is the kernel's median time over the
   same stretch of the run. The kernel allocates nothing and its table
   lives outside the OCaml heap, so the program's heap and garbage
   collector neither slow it nor are slowed by it. *)

let words = 1 lsl 20

let table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  for i = 0 to words - 1 do
    t.{i} <- (i * 2654435761) land (words - 1)
  done;
  t

(* A dependent random walk over an 8 MB table, cache and memory bound
   like the analysis, mixed with integer work. *)
let kernel () =
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 114_000 do
    x := table.{(!x lxor !acc) land (words - 1)};
    acc := (!acc * 31) + (!x lsr 3)
  done;
  !acc

(* About the kernel's median time on the 2-vCPU x86-64 host the
   benchmark was written on; only the scale of reported times depends
   on it. *)
let nominal_ms = 14.

let sink = ref 0

let kernel_ms () =
  let t0 = Trace.now () in
  sink := !sink lxor kernel ();
  (Trace.now () -. t0) *. 1000.
