(** A fixed-size domain pool over independent tasks (OCaml 5 [Domain]s,
    stdlib only).

    The unit of parallelism is one callgraph root in the engine's per-root
    pipeline, or one input file in [xgcc emit]. Tasks are independent, so
    the one entry point is a work-stealing scheduler over a caller-supplied
    priority order ({!run_sched}) with per-task fault isolation. Results
    come back in index order regardless of which domain ran which task,
    which is what makes the callers' merges deterministic.

    The scheduler degrades rather than crashes when [Domain.spawn] itself
    fails (thread or fd exhaustion): the work still completes on the
    domains that did spawn — worst case the calling domain alone — and a
    single warning is emitted through {!Diag.warnf}. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1 — the
    default worker count for [-j 0]. *)

type sched_stats = {
  workers : int;  (** domains that ran tasks, the calling domain included *)
  stolen : int;  (** tasks a worker took from another worker's deque *)
  spawn_failures : int;  (** worker domains that failed to spawn *)
}

val run_sched :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  jobs:int ->
  ?order:int array ->
  int ->
  (worker:int -> int -> 'a) ->
  ('a, exn) result array * sched_stats
(** [run_sched ~jobs ~order n f] evaluates task indices [0 .. n-1] on up
    to [jobs] domains and returns results in index order plus scheduling
    statistics. Fault isolation is per task: each outcome is recorded as
    [Ok] or [Error] individually and every task runs, so one raising task
    never aborts the queue or discards another task's result. A caller
    that treats any failure as fatal re-raises the lowest-index [Error]
    itself, which keeps the reported failure independent of scheduling.

    [order] is a permutation of [0 .. n-1] giving global task priority
    (default: index order). It is striped round-robin across per-worker
    deques, so every worker starts near the front of the order; an owner
    pops its own deque front-first, and a worker whose deque runs dry
    steals from the back of another's — the furthest-out work. The engine
    passes a bottom-up callgraph order here so that short, shared callees
    are analyzed (and their summaries published) before the tall callers
    that demand them.

    The scheduler never reorders results — byte-determinism of the merge
    is the caller's concern and holds as long as the merge reads the
    returned array in index order. [jobs <= 1] or [n <= 1] runs every
    task inline in the calling domain in [order] sequence, with [worker]
    = 0. [?spawn] substitutes for [Domain.spawn] in tests; spawn failure
    degrades to the domains already running (the seeded deques of missing
    workers are drained by stealing) and counts in [spawn_failures]. *)
