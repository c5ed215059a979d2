(** Fixed-size domain pool with per-worker work-stealing deques, where
    the domain that waits runs tasks too.  See pool.mli for the design
    contract.  Synchronization is deliberately coarse (a mutex per deque,
    one pool mutex with a condition for idle workers and one for waiting
    callers): the tasks this pool runs are whole LP solves, simulations
    and chunks of pricing solves, so queue operations are nowhere near
    the critical path. *)

type task = unit -> unit

module Deque = struct
  (* Ring-buffer deque.  The owner pushes and pops at the bottom (LIFO,
     keeps nested jobs cache-local); thieves take from the top (FIFO,
     steals the oldest -- typically largest -- task). *)
  type t = {
    lock : Mutex.t;
    mutable buf : task option array;
    mutable head : int;  (* index of the oldest element (steal end) *)
    mutable len : int;
  }

  let create () =
    { lock = Mutex.create (); buf = Array.make 16 None; head = 0; len = 0 }

  let grow d =
    let n = Array.length d.buf in
    let nb = Array.make (2 * n) None in
    for i = 0 to d.len - 1 do
      nb.(i) <- d.buf.((d.head + i) mod n)
    done;
    d.buf <- nb;
    d.head <- 0

  let push_bottom d t =
    Mutex.lock d.lock;
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- Some t;
    d.len <- d.len + 1;
    Mutex.unlock d.lock

  let pop_bottom d =
    Mutex.lock d.lock;
    let r =
      if d.len = 0 then None
      else begin
        let i = (d.head + d.len - 1) mod Array.length d.buf in
        let t = d.buf.(i) in
        d.buf.(i) <- None;
        d.len <- d.len - 1;
        t
      end
    in
    Mutex.unlock d.lock;
    r

  let steal d =
    Mutex.lock d.lock;
    let r =
      if d.len = 0 then None
      else begin
        let t = d.buf.(d.head) in
        d.buf.(d.head) <- None;
        d.head <- (d.head + 1) mod Array.length d.buf;
        d.len <- d.len - 1;
        t
      end
    in
    Mutex.unlock d.lock;
    r
end

(* Process-wide counters across every pool, feeding the Obs stats
   registry (and the [--stats-json] dump). *)
type totals = { submitted : int; run : int; stolen : int }

let n_submitted = Atomic.make 0
let n_run = Atomic.make 0
let n_stolen = Atomic.make 0
let max_workers = Atomic.make 0

let totals () =
  {
    submitted = Atomic.get n_submitted;
    run = Atomic.get n_run;
    stolen = Atomic.get n_stolen;
  }

let reset_totals () =
  List.iter (fun c -> Atomic.set c 0) [ n_submitted; n_run; n_stolen ]

let () =
  Obs.register_stats ~name:"pool" (fun () ->
      Obs.Assoc
        [
          ("workers", Obs.Int (Atomic.get max_workers));
          ("submitted", Obs.Int (Atomic.get n_submitted));
          ("run", Obs.Int (Atomic.get n_run));
          ("stolen", Obs.Int (Atomic.get n_stolen));
        ])

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type t = {
  workers : int;  (* spawned worker domains; 0 = sequential *)
  deques : Deque.t array;  (* one per worker *)
  injector : Deque.t;  (* submissions from outside the workers *)
  plock : Mutex.t;
  work_available : Condition.t;  (* signalled on enqueue: idle workers *)
  progress : Condition.t;
      (* signalled on enqueue and on completion: waiting callers *)
  mutable pending : int;  (* tasks enqueued and not yet picked up *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

type 'a future = { fstate : 'a state Atomic.t; owner : t }

(* Identifies the pool and worker index of the current domain, so that
   [submit] can target the worker's own deque and [await] can help from
   it. *)
let ctx_key : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* A negative count clamps to sequential rather than falling back to the
   machine default: [POWERLIM_JOBS=-1] asks for less parallelism, not
   more. *)
let default_size () =
  max 0
    (Env.int "POWERLIM_JOBS" ~default:(Domain.recommended_domain_count ()))

let size pool = pool.workers
let parallelism pool = pool.workers + 1

(* ---- queue plumbing ---------------------------------------------- *)

let enqueue pool dq task =
  Mutex.lock pool.plock;
  pool.pending <- pool.pending + 1;
  Deque.push_bottom dq task;
  Condition.broadcast pool.work_available;
  Condition.broadcast pool.progress;
  Mutex.unlock pool.plock

let took pool =
  Mutex.lock pool.plock;
  pool.pending <- pool.pending - 1;
  Mutex.unlock pool.plock

(* Own deque bottom first, then the injector, then steal round-robin
   from the other workers.  A caller that is not one of the pool's
   workers passes [wid = -1]: it has no deque of its own and steals
   from every worker. *)
let find_task pool wid =
  let own =
    if wid >= 0 then Deque.pop_bottom pool.deques.(wid) else None
  in
  match own with
  | Some _ as t -> t
  | None -> (
      match Deque.steal pool.injector with
      | Some _ as t -> t
      | None ->
          let n = pool.workers in
          let rec scan k =
            if k >= n then None
            else
              let v = (wid + 1 + k) mod n in
              if v = wid then scan (k + 1)
              else
                match Deque.steal pool.deques.(v) with
                | Some _ as t ->
                    Atomic.incr n_stolen;
                    t
                | None -> scan (k + 1)
          in
          scan 0)

(* Run one queued task if any is available.  Returns false when every
   queue came up empty. *)
let try_run_one pool wid =
  match find_task pool wid with
  | Some task ->
      took pool;
      Atomic.incr n_run;
      task ();
      true
  | None -> false

let rec worker_loop pool wid =
  if try_run_one pool wid then worker_loop pool wid
  else begin
    Mutex.lock pool.plock;
    if pool.stop && pool.pending = 0 then Mutex.unlock pool.plock
    else if pool.pending > 0 then begin
      (* a task exists but another domain may be racing us to it *)
      Mutex.unlock pool.plock;
      Domain.cpu_relax ();
      worker_loop pool wid
    end
    else begin
      Condition.wait pool.work_available pool.plock;
      Mutex.unlock pool.plock;
      worker_loop pool wid
    end
  end

(* ---- futures ------------------------------------------------------ *)

let is_pending fut =
  match Atomic.get fut.fstate with Pending -> true | Done _ | Failed _ -> false

(* The state is published before the broadcast, under the pool lock that
   waiters check it under, so a waiter cannot miss its completion.  A
   sequential pool runs every task inside [submit]: nobody ever waits. *)
let fulfill fut st =
  Atomic.set fut.fstate st;
  let pool = fut.owner in
  if pool.workers > 0 then begin
    Mutex.lock pool.plock;
    Condition.broadcast pool.progress;
    Mutex.unlock pool.plock
  end

(* The span must close before [fulfill] publishes the result: a waiter
   that observes the future done may export the trace immediately, and
   the atomic state write orders the 'E' append before that read, so an
   observable-complete task always has a balanced span. *)
let run_into fut f =
  match Obs.span ~cat:"pool" "task" f with
  | v -> fulfill fut (Done v)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      fulfill fut (Failed (e, bt))

let submit pool f =
  let fut = { fstate = Atomic.make Pending; owner = pool } in
  Atomic.incr n_submitted;
  if pool.workers = 0 then begin
    Atomic.incr n_run;
    run_into fut f
  end
  else begin
    let task () = run_into fut f in
    let dq =
      match Domain.DLS.get ctx_key with
      | Some (p, wid) when p == pool -> pool.deques.(wid)
      | _ -> pool.injector
    in
    enqueue pool dq task
  end;
  fut

let unwrap = function
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

(* Every waiter helps: a worker and the calling domain alike keep running
   queued tasks while the future is pending, so the caller is one of the
   pool's [parallelism] domains and nested submit/await cannot starve
   the fixed worker set.  A waiter blocks only once nothing is queued
   anywhere -- every pending task is then running on some domain, and it
   either completes or enqueues nested work, both of which signal
   [progress]. *)
let await fut =
  match Atomic.get fut.fstate with
  | (Done _ | Failed _) as s -> unwrap s
  | Pending ->
      let pool = fut.owner in
      let wid =
        match Domain.DLS.get ctx_key with
        | Some (p, wid) when p == pool -> wid
        | _ -> -1
      in
      let rec help () =
        match Atomic.get fut.fstate with
        | (Done _ | Failed _) as s -> unwrap s
        | Pending ->
            if not (try_run_one pool wid) then begin
              Mutex.lock pool.plock;
              let queued = pool.pending > 0 in
              if (not queued) && is_pending fut then
                Condition.wait pool.progress pool.plock;
              Mutex.unlock pool.plock;
              (* a task exists but another domain may be racing us to it *)
              if queued then Domain.cpu_relax ()
            end;
            help ()
      in
      help ()

let parallel_map pool f xs =
  let futs = List.map (fun x -> submit pool (fun () -> f x)) xs in
  List.map await futs

(* ---- lifecycle ---------------------------------------------------- *)

let create ?size () =
  let requested = match size with Some s -> s | None -> default_size () in
  (* the domain that awaits is the last of the [requested] *)
  let workers = max 0 (requested - 1) in
  let pool =
    {
      workers;
      deques = Array.init workers (fun _ -> Deque.create ());
      injector = Deque.create ();
      plock = Mutex.create ();
      work_available = Condition.create ();
      progress = Condition.create ();
      pending = 0;
      stop = false;
      domains = [||];
    }
  in
  if workers > Atomic.get max_workers then Atomic.set max_workers workers;
  if workers > 0 then
    pool.domains <-
      Array.init workers (fun wid ->
          Domain.spawn (fun () ->
              Domain.DLS.set ctx_key (Some (pool, wid));
              worker_loop pool wid));
  pool

let shutdown pool =
  if pool.workers > 0 then begin
    Mutex.lock pool.plock;
    let already = pool.stop in
    pool.stop <- true;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.plock;
    if not already then Array.iter Domain.join pool.domains
  end

let default_pool = ref None
let default_lock = Mutex.create ()

let get_default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        at_exit (fun () -> shutdown p);
        p
  in
  Mutex.unlock default_lock;
  p
