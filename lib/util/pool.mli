(** A fixed-size pool of domains with per-worker work-stealing deques,
    shared by every parallel stage of the system (the experiment sweeps,
    the MILP branch-and-bound, the Dantzig–Wolfe pricing rounds, the
    solving daemon, the benchmark harness).

    Design notes:

    - A pool of size N gives N-way parallelism: it spawns N−1 worker
      domains, and the domain that calls [await] (or [parallel_map]) is
      the N-th.  Whoever awaits {e helps}: while its future is pending
      it runs queued tasks itself, blocks only when nothing is queued
      anywhere, and wakes when a task completes or a worker enqueues
      nested tasks.  So the default pool, sized to every core, leaves no
      core idle while the main domain waits, and nested submit/await
      never deadlocks a fixed-size pool.
    - Tasks submitted from outside the workers land in a shared injector
      queue; tasks submitted from a worker (nested submission) are
      pushed onto that worker's own deque and are executed LIFO by the
      owner, while other domains steal FIFO from the other end — the
      classic work-stealing discipline that keeps nested fork/join jobs
      cache-local.
    - A pool of size [<= 1] spawns no domain and degrades to sequential
      execution in the calling domain: [submit] runs the closure
      immediately.  All public entry points therefore behave identically
      (including exception behaviour and result ordering) at any pool
      size, which is what makes the POWERLIM_JOBS=1 vs =N determinism
      guarantee testable.
    - Exceptions raised by a task are captured with their backtrace and
      re-raised at [await]. *)

type t
(** A pool of worker domains (possibly zero of them: sequential) plus
    whichever domain waits on it. *)

type 'a future
(** The eventual result of a submitted task. *)

val default_size : unit -> int
(** Degree of parallelism chosen by the environment: [POWERLIM_JOBS] if
    set and parseable (a negative value clamps to [0], sequential),
    otherwise [Domain.recommended_domain_count ()] — every core.  The
    count includes the calling domain. *)

val create : ?size:int -> unit -> t
(** [create ~size ()] gives [size]-way parallelism ([default_size ()] if
    omitted): it spawns [size - 1] worker domains and the waiting caller
    runs tasks too.  [size <= 1] creates a sequential pool that spawns
    no domains. *)

val size : t -> int
(** Number of spawned worker domains (0 for a sequential pool). *)

val parallelism : t -> int
(** Degree of parallelism: [size t + 1], the workers plus the caller. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task.  On a sequential pool the task runs immediately in the
    calling domain. *)

val await : 'a future -> 'a
(** Wait for a task's result.  Re-raises (with the original backtrace)
    any exception the task raised.  From any domain or thread, it
    executes other queued tasks of the future's pool while waiting. *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map pool f xs] maps [f] over [xs] with one task per
    element.  Results are returned in the order of [xs] regardless of
    completion order.  If several tasks raise, the exception of the
    earliest element is re-raised. *)

val shutdown : t -> unit
(** Stop and join the workers after the queues drain of running tasks.
    Idempotent.  Futures still pending from another domain's viewpoint
    must not be awaited after shutdown. *)

type totals = { submitted : int; run : int; stolen : int }
(** Process-wide task counters across every pool: tasks submitted, tasks
    executed (sequential pools included), and tasks obtained by stealing
    from another worker's deque. *)

val totals : unit -> totals

val reset_totals : unit -> unit
(** Zero the process-wide counters (benchmarks and tests). *)

val get_default : unit -> t
(** The process-wide shared pool, created on first use with
    [default_size ()] and shut down automatically at exit.  All library
    hot paths (sweeps, MILP) draw from this pool unless handed an
    explicit one, so the whole process respects a single
    [POWERLIM_JOBS] setting. *)
