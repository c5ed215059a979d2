(* serve: [powerlim serve] daemons in their own processes (Unix socket,
   disk store in a fresh directory, defaults otherwise), asked 48 fixed
   energy/what-if requests.

   The untraced run spends its seconds on cold passes: a fresh daemon
   computes every key once, closed loop, then answers each again from
   memory; after the last pass a daemon restarts on that store and
   answers each from disk.  The traced run adds the open loop: a
   generator over one pipelined connection — one sender and one reader
   thread — at a fixed rate, where each key first appears at an evenly
   spaced time and every other request repeats a key introduced at least
   [hit_age_s] earlier; that daemon then restarts on its store.  The
   open loop's latencies spread too much to gate (see README.md), so the
   gated runs do not pay for it.

   The 48 requests are fixed, like the inputs of the other workloads:
   which rank or task an edit hits changes a miss's cost several-fold,
   and seeded edits put that into the miss median's spread.  So is the
   order in which keys first appear: the first what-if at an (app, cap)
   builds the prepared model the others reuse.  The seed drives the rest
   of the traffic: which key each repeat asks for, and the order of the
   closed loop after the restart. *)

module H = Harness
module Measure = Perfbench.Measure
module Counters = Perfbench.Counters

let ranks = 8
let iters = 4
let trace_seed = 42
let rate = 100.0 (* requests per second *)
(* 4 apps x 3 caps x 4 kinds = 48 keys, within the daemon's default
   64-entry memory cache, so a repeat is always a memory hit.  The caps
   are fixed, so every seed asks for the same mix of problem sizes. *)
let caps = [ 40.0; 55.0; 70.0 ]

(* A hit repeats a key introduced at least this long before it, so its
   answer has normally arrived. *)
let hit_age_s = 2.0

(* The open loop's length.  At [rate] and [hit_age_s] it sends about
   1,150 hits, enough for a p99 with at least 10 samples beyond it. *)
let open_loop_s = 14.0

(* Throwaway daemon starts per session, on empty stores: set-up samples
   besides the measured starts (one per cold pass, two for the open
   loop and its restart). *)
let probes = 5

(* A daemon must exit within this long of its shutdown. *)
let teardown_limit_s = 10.0

(* Every open-loop answer must arrive within this long of the last send. *)
let answer_limit_s = 30.0

(* ---- inputs --------------------------------------------------------- *)

type request = {
  fields : (string * Putil.Obs.json) list;  (** the request without its id *)
  offline : unit -> Serve.Handlers.outcome;  (** the same request, rendered in-process *)
}

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The distinct requests: for every app and cap, a failed socket, a
   dropped rank, a perturbed task and an energy deadline, with edit
   parameters drawn from a fixed stream. *)
let requests () =
  let open Putil.Obs in
  let rng = Random.State.make [| trace_seed |] in
  let params = { Workloads.Apps.nranks = ranks; iterations = iters; seed = trace_seed; scale = 1.0 } in
  List.concat_map
    (fun app ->
      let sc = Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, params)) in
      let base cap op =
        [
          ("op", String op);
          ("app", String (Workloads.Apps.app_name app));
          ("ranks", Int ranks);
          ("iters", Int iters);
          ("seed", Int trace_seed);
          ("cap", Float cap);
        ]
      in
      let what_if cap field json edit =
        {
          fields = base cap "what-if" @ [ (field, List [ json ]) ];
          offline =
            (fun () ->
              Serve.Handlers.what_if ~app ~ranks ~iters ~seed:trace_seed ~cap ~edits:[ edit ] ());
        }
      in
      let fail cap =
        let r = Random.State.int rng ranks in
        what_if cap "fail_sockets" (Int r) (Core.Event_lp.Fail_socket r)
      and drop cap =
        let r = Random.State.int rng ranks in
        what_if cap "drop_ranks" (Int r) (Core.Event_lp.Drop_rank r)
      and perturb cap =
        let tids =
          Array.of_list
            (List.filter
               (fun tid -> Array.length sc.Core.Scenario.frontiers.(tid) > 0)
               (List.init (Array.length sc.Core.Scenario.frontiers) Fun.id))
        in
        let tid = tids.(Random.State.int rng (Array.length tids)) in
        let f = sc.Core.Scenario.frontiers.(tid) in
        let point = Random.State.int rng (Array.length f) in
        let duration = f.(point).Pareto.Point.duration *. (1.05 +. Random.State.float rng 0.2) in
        let power = f.(point).Pareto.Point.power in
        what_if cap "perturb_tasks"
          (Assoc
             [
               ("tid", Int tid); ("point", Int point); ("duration", Float duration); ("power", Float power);
             ])
          (Core.Event_lp.Perturb_task { tid; point; duration; power })
      and deadline cap =
        let makespan =
          match Core.Event_lp.solve sc ~power_cap:(cap *. Float.of_int ranks) with
          | Core.Event_lp.Schedule s -> s.makespan
          | _ -> failwith "serve inputs: no makespan bound at a chosen cap"
        in
        let deadline = makespan *. (1.1 +. Random.State.float rng 0.4) in
        {
          fields = base cap "energy" @ [ ("deadline", Float deadline) ];
          offline =
            (fun () ->
              Serve.Handlers.energy ~app ~ranks ~iters ~seed:trace_seed ~cap
                ~deadline:(Some deadline) ());
        }
      in
      List.concat_map (fun cap -> List.map (fun make -> make cap) [ fail; drop; perturb; deadline ]) caps)
    Workloads.Apps.all_apps
  |> Array.of_list

type slot = { due : float;  (** offset from the start, s *) key : int; first : bool }

(* The open-loop schedule over [seconds] at [rate]: key [order.(k)]
   first appears at slot [k * n / nkeys], in a fixed shuffled order;
   every other slot repeats a key drawn uniformly, from the seed, among
   those introduced at least [hit_age_s] before it, or stays empty when
   there is none yet. *)
let schedule ~seed ~seconds ~nkeys =
  let rng = Random.State.make [| seed; 1 |] in
  let n = max nkeys (int_of_float (seconds *. rate)) in
  let order = shuffle (Random.State.make [| trace_seed; 1 |]) (Array.init nkeys Fun.id) in
  let miss_slot k = k * n / nkeys in
  let age = int_of_float (hit_age_s *. rate) in
  let slots = ref [] and next = ref 0 and old = ref 0 in
  for i = 0 to n - 1 do
    while !old < nkeys && miss_slot !old <= i - age do
      incr old
    done;
    let due = Float.of_int i /. rate in
    if !next < nkeys && miss_slot !next = i then begin
      slots := { due; key = order.(!next); first = true } :: !slots;
      incr next
    end
    else if !old > 0 then
      slots := { due; key = order.(Random.State.int rng !old); first = false } :: !slots
  done;
  Array.of_list (List.rev !slots)

let line ~id (r : request) =
  Serve.Json.to_string (Putil.Obs.Assoc (("id", Putil.Obs.Int id) :: r.fields))

(* ---- the daemon ------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

type daemon = { pid : int; conn : Serve.Client.t }

let live : int list ref = ref []

(* Kill whatever daemon is still running when the benchmark exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let rec connect ~deadline addr =
  match Serve.Client.connect addr with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN | Unix.EINTR), _, _)
    when H.now () < deadline ->
      Unix.sleepf 0.002;
      connect ~deadline addr

let stats_request = Putil.Obs.Assoc [ ("op", Putil.Obs.String "stats") ]

(* Start [powerlim serve] on [dir]; set-up time runs from the spawn to
   the first answered request. *)
let start ~powerlim ~dir ~traced =
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let env =
    if traced then Array.append [| "POWERLIM_TRACE=1" |] (Unix.environment ())
    else Unix.environment ()
  in
  let t0 = H.now () in
  let pid =
    Unix.create_process_env powerlim
      [| powerlim; "serve"; "--socket"; sock; "--store"; Filename.concat dir "store" |]
      env null log log
  in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  let conn = connect ~deadline:(t0 +. 30.0) (Serve.Daemon.Unix_socket sock) in
  ignore (Serve.Client.request conn stats_request);
  ({ pid; conn }, H.now () -. t0)

(* The daemon's counters; [Null] when it no longer answers. *)
let stats d = try Serve.Client.request d.conn stats_request with _ -> Putil.Obs.Null

(* Shut the daemon down, close the connection and wait for it to exit
   within [teardown_limit_s].  A daemon that does not exit is killed and
   reported: [Daemon.wait] joins every connection's reader thread, so a
   client that keeps its connection open hangs the daemon's exit. *)
let teardown d =
  (try ignore (Serve.Client.request d.conn (Putil.Obs.Assoc [ ("op", Putil.Obs.String "shutdown") ]))
   with _ -> ());
  Serve.Client.close d.conn;
  let deadline = H.now () +. teardown_limit_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when H.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        Error (Printf.sprintf "daemon %d did not exit within %.0f s of shutdown" d.pid teardown_limit_s)
    | _ -> Ok ()
  in
  let r = wait () in
  live := List.filter (( <> ) d.pid) !live;
  r

(* ---- one session ----------------------------------------------------- *)

type answer = { slot : slot; timing : Measure.timing; resp : Putil.Obs.json option }

type session = {
  setups : float list;
  open_loop : answer array;  (** empty in a session without an open loop *)
  cold_pass_s : float list;  (** wall time of each cold pass *)
  cold : (int * float * Putil.Obs.json option) list;
      (** key, latency s, response: each key computed on an idle daemon, every pass *)
  mem : (int * float * Putil.Obs.json option) list;  (** the same keys again, from memory *)
  restart : (int * float * Putil.Obs.json option) list;  (** the same, from disk after the restart *)
  counters : Counters.t;  (** every daemon's registry, summed *)
  daemon_stats : Putil.Obs.json list;  (** each daemon's final [stats] *)
  rss_mb : float list;  (** each daemon's peak RSS *)
  threads_max : int;
  errors : string list;  (** teardown and delivery failures *)
}

let providers j =
  match Serve.Json.member "stats" j with
  | Some s -> Option.value (Serve.Json.member "providers" s) ~default:Putil.Obs.Null
  | None -> Putil.Obs.Null

let run_open_loop d reqs slots ~errors =
  let n = Array.length slots in
  let lines = Array.mapi (fun id s -> line ~id reqs.(s.key)) slots in
  let sent = Array.make n Float.nan and answered = Array.make n Float.nan in
  let resps = Array.make n None in
  let threads_max = ref 0 in
  let pid = string_of_int d.pid in
  let reader_done = Atomic.make false in
  let reader =
    Thread.create
      (fun () ->
        let rec loop got =
          if got < n then
            match Serve.Client.recv d.conn with
            | Some j ->
                let t = H.now () in
                (match Serve.Json.get_int "id" j with
                | Some id when id >= 0 && id < n ->
                    answered.(id) <- t;
                    resps.(id) <- Some j
                | _ -> ());
                loop (got + 1)
            | None -> ()
            | exception _ -> ()
        in
        loop 0;
        Atomic.set reader_done true)
      ()
  in
  let t0 = H.now () +. 0.05 in
  let sender =
    Thread.create
      (fun () ->
        Array.iteri
          (fun i s ->
            let wait = t0 +. s.due -. H.now () in
            if wait > 0.0 then Thread.delay wait;
            sent.(i) <- H.now ();
            Serve.Client.send_line d.conn lines.(i);
            if i mod 10 = 0 then threads_max := max !threads_max (H.threads ~pid))
          slots)
      ()
  in
  Thread.join sender;
  (* the answers must all be in soon after the last send; a daemon that
     stalls is killed, which ends the reader at end of stream *)
  let deadline = H.now () +. answer_limit_s in
  while (not (Atomic.get reader_done)) && H.now () < deadline do
    Thread.delay 0.01
  done;
  if not (Atomic.get reader_done) then begin
    errors := Printf.sprintf "open loop: answers missing %.0f s after the last send" answer_limit_s :: !errors;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ())
  end;
  Thread.join reader;
  let threads_max = max !threads_max (H.threads ~pid) in
  ( Array.mapi
      (fun i slot ->
        { slot; timing = { Measure.due = t0 +. slot.due; sent = sent.(i); answered = answered.(i) }; resp = resps.(i) })
      slots,
    threads_max )

(* Ask each key in [order] once and wait for each answer: (key, latency
   s, response) per request, spans numbered from [op]. *)
let closed_loop d reqs order ~op ~errors =
  List.mapi
    (fun i key ->
      let t0 = H.now () in
      match
        H.span ~op:(op + i) "client.request" (fun () ->
            Serve.Client.request d.conn (Putil.Obs.Assoc (("id", Putil.Obs.Int i) :: reqs.(key).fields)))
      with
      | j -> (key, H.now () -. t0, Some j)
      | exception e ->
          errors := ("closed-loop request: " ^ Printexc.to_string e) :: !errors;
          (key, H.now () -. t0, None))
    order

(* One session.  For about [cold_s] (at least once), a fresh daemon
   answers every key once, closed loop, each computed on an otherwise
   idle daemon: the pass's wall time is the workload's compute
   operation.  The same daemon then answers every key again, from
   memory.  [probes] throwaway daemons start and stop on empty stores.
   With [slots], a fresh daemon serves that open-loop schedule and its
   store is restarted; without, the last cold pass's store is.  The
   restarted daemon answers every key again, closed loop, from disk. *)
let session ~powerlim ~dir ~traced ~cold_s reqs slots ~cold_order ~restart_order =
  let errors = ref [] in
  let teardown_into d = match teardown d with Ok () -> () | Error m -> errors := m :: !errors in
  let finish d =
    let st = stats d in
    let rss = H.peak_rss_mb ~pid:(string_of_int d.pid) () in
    let threads = H.threads ~pid:(string_of_int d.pid) in
    teardown_into d;
    (st, rss, threads)
  in
  let nkeys = List.length cold_order in
  let cold_dir p = Filename.concat dir (Printf.sprintf "cold%d" p) in
  let passes =
    H.repeat_for ~seconds:cold_s (fun p ->
        let op = p * ((2 * nkeys) + 1) in
        let d, setup = H.span ~op "daemon.start" (fun () -> start ~powerlim ~dir:(cold_dir p) ~traced) in
        let t0 = H.now () in
        let answers = closed_loop d reqs cold_order ~op:(op + 1) ~errors in
        let wall = H.now () -. t0 in
        let mem = closed_loop d reqs cold_order ~op:(op + nkeys + 1) ~errors in
        let st, rss, _ = finish d in
        (setup, wall, answers, mem, (st, rss)))
  in
  let probe_setups =
    List.init probes (fun i ->
        let d, s = start ~powerlim ~dir:(Filename.concat dir (Printf.sprintf "probe%d" i)) ~traced in
        teardown_into d;
        s)
  in
  let store_dir, open_loop, open_threads, open_daemon =
    match slots with
    | None -> (cold_dir (List.length passes - 1), [||], 0, [])
    | Some slots ->
        let store_dir = Filename.concat dir "main" in
        let d1, s1 = start ~powerlim ~dir:store_dir ~traced in
        let open_loop, threads_max = run_open_loop d1 reqs slots ~errors in
        let st1, rss1, _ = finish d1 in
        (store_dir, open_loop, threads_max, [ (s1, (st1, rss1)) ])
  in
  let op = List.length passes * ((2 * nkeys) + 1) in
  let d2, s2 = H.span ~op "daemon.start" (fun () -> start ~powerlim ~dir:store_dir ~traced) in
  let restart = closed_loop d2 reqs restart_order ~op:(op + 1) ~errors in
  let st2, rss2, threads2 = finish d2 in
  let daemons = List.map (fun (_, _, _, _, d) -> d) passes @ List.map snd open_daemon @ [ (st2, rss2) ] in
  {
    setups = (s2 :: List.map fst open_daemon) @ probe_setups @ List.map (fun (s, _, _, _, _) -> s) passes;
    cold_pass_s = List.map (fun (_, w, _, _, _) -> w) passes;
    cold = List.concat_map (fun (_, _, a, _, _) -> a) passes;
    mem = List.concat_map (fun (_, _, _, m, _) -> m) passes;
    open_loop;
    restart;
    counters =
      List.fold_left Counters.sum Counters.M.empty
        (List.map (fun (st, _) -> Counters.of_json (providers st)) daemons);
    daemon_stats = List.map fst daemons;
    rss_mb = List.map snd daemons;
    threads_max = max open_threads threads2;
    errors = !errors;
  }

(* ---- checks and numbers --------------------------------------------- *)

(* Every response against the offline rendering of its request, and
   against the tier it should have come from. *)
let check reqs (s : session) =
  let offline = Array.map (fun r -> lazy (r.offline ())) reqs in
  let verdict key expected = function
    | None -> Error "no response"
    | Some j -> Perfbench.Checks.served ~offline:(Lazy.force offline.(key)) ~expected_cached:expected j
  in
  let failures = ref s.errors in
  Array.iteri
    (fun i a ->
      match verdict a.slot.key (if a.slot.first then "none" else "mem") a.resp with
      | Ok () -> ()
      | Error m -> failures := Printf.sprintf "open-loop request %d: %s" i m :: !failures)
    s.open_loop;
  let closed name expected =
    List.iteri (fun i (key, _, resp) ->
        match verdict key expected resp with
        | Ok () -> ()
        | Error m -> failures := Printf.sprintf "%s request %d: %s" name i m :: !failures)
  in
  closed "cold" "none" s.cold;
  closed "memory" "mem" s.mem;
  closed "restart" "disk" s.restart;
  !failures

let ms x = 1000.0 *. x

let elapsed_ms a =
  Option.bind a.resp (Serve.Json.get_float "elapsed_ms") |> Option.value ~default:Float.nan

let misses s = List.filter (fun a -> a.slot.first) (Array.to_list s.open_loop)
let hits s = List.filter (fun a -> not a.slot.first) (Array.to_list s.open_loop)
let latencies_ms l = List.map (fun a -> ms (Measure.latency a.timing)) l
let closed_ms l = List.map (fun (_, l, _) -> ms l) l

let stat_int name j =
  match Serve.Json.member "stats" j with
  | Some s -> Float.of_int (Option.value (Serve.Json.get_int name s) ~default:0)
  | None -> 0.0

let store_bytes j =
  match Option.bind (Serve.Json.member "stats" j) (Serve.Json.member "store") with
  | Some st -> Float.of_int (Option.value (Serve.Json.get_int "bytes" st) ~default:0)
  | None -> 0.0

let run ~seconds ~seed ~trace ~powerlim =
  let reqs = requests () in
  let nkeys = Array.length reqs in
  let cold_order = Array.to_list (shuffle (Random.State.make [| trace_seed; 2 |]) (Array.init nkeys Fun.id)) in
  let restart_order = Array.to_list (shuffle (Random.State.make [| seed; 2 |]) (Array.init nkeys Fun.id)) in
  let root = Printf.sprintf ".perfbench/serve-%d" (Unix.getpid ()) in
  let go name ~traced ~cold_s slots =
    session ~powerlim ~dir:(Filename.concat root name) ~traced ~cold_s reqs slots ~cold_order ~restart_order
  in
  let finish sessions =
    rm_rf root;
    (try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ());
    let errors = List.concat_map (check reqs) sessions in
    let attempted =
      List.fold_left
        (fun n s ->
          n + List.length s.cold + List.length s.mem + Array.length s.open_loop + List.length s.restart
          + List.length s.setups)
        0 sessions
    in
    (errors, attempted)
  in
  (* the open loop's numbers, from a session that ran one *)
  let open_loop_report s =
    let hit_ms = latencies_ms (hits s) in
    [
      ("serve_miss_p50_ms", Measure.median (latencies_ms (misses s)), "ms");
      ("serve_hit_p50_ms", Measure.median hit_ms, "ms");
      ("serve_hit_tail_ms", snd (H.tail hit_ms), "ms");
      ("serve_hit_tail_pct", fst (H.tail hit_ms), "%");
      ("serve_miss_max_ms", List.fold_left Float.max 0.0 (latencies_ms (misses s)), "ms");
      ("hits", Float.of_int (List.length hit_ms), "count");
      ("misses", Float.of_int (List.length (misses s)), "count");
    ]
  in
  if not trace then begin
    (* no open loop: the whole run goes to cold passes, the samples of
       the gated compute time *)
    let s = go "run" ~traced:false ~cold_s:seconds None in
    let errors, attempted = finish [ s ] in
    {
      H.attempted;
      failed = List.length errors;
      errors;
      metrics = H.end_to_end ~setup_s:s.setups ~compute_ms:(List.map ms s.cold_pass_s);
      report =
        [
          ("serve_cold_pass_s", Measure.median s.cold_pass_s, "s");
          ("cold_passes", Float.of_int (List.length s.cold_pass_s), "count");
          ("setups", Float.of_int (List.length s.setups), "count");
          ("serve_cold_p50_ms", Measure.median (closed_ms s.cold), "ms");
          ("serve_restart_p50_ms", Measure.median (closed_ms s.restart), "ms");
          ("peak_rss_mb", List.fold_left Float.max 0.0 s.rss_mb, "MB");
        ];
    }
  end
  else begin
    (* one cold pass per session, which the traced run compares, and
       the open loop *)
    let slots = Some (schedule ~seed ~seconds:open_loop_s ~nkeys) in
    let reference = go "reference" ~traced:false ~cold_s:0.0 slots in
    (* the daemon's counters come from its stats op; this process only
       contributes the benchmark's own spans *)
    let s, _, events = H.traced (fun () -> go "traced" ~traced:true ~cold_s:0.0 slots) in
    let errors, attempted = finish [ reference; s ] in
    let hit = hits s in
    let hit_server = List.map elapsed_ms hit in
    let hit_outside =
      List.map (fun a -> ms (a.timing.Measure.answered -. a.timing.Measure.sent) -. elapsed_ms a) hit
    in
    let late = List.map (fun a -> ms (Measure.lateness a.timing)) (Array.to_list s.open_loop) in
    let sum_stat name = List.fold_left (fun n j -> n +. stat_int name j) 0.0 s.daemon_stats in
    let last_stats = List.nth s.daemon_stats (List.length s.daemon_stats - 1) in
    let answered = List.length (List.filter (fun a -> a.resp <> None) (Array.to_list s.open_loop)) in
    {
      H.attempted;
      failed = List.length errors;
      errors;
      metrics =
        H.per_layer
          {
            H.counters = s.counters;
            spans = Measure.span_totals events;
            extra =
              [
                ( "pool.parallelism",
                  Float.max 1.0
                    (Counters.get (Counters.of_json (providers (List.hd s.daemon_stats))) "pool.workers") );
                ("dw.hit_iteration_cap", H.dw_capped s.counters);
                ("serve.hit_p50_ms", Measure.median (latencies_ms hit));
                ("serve.hit_tail_ms", snd (H.tail (latencies_ms hit)));
                ("serve.hit_tail_pct", fst (H.tail (latencies_ms hit)));
                ("serve.restart_p50_ms", Measure.median (closed_ms s.restart));
                ("serve.cold_p50_ms", Measure.median (closed_ms s.cold));
                ("serve.miss_p50_ms", Measure.median (latencies_ms (misses s)));
                ("serve.hit_server_ms_p50", Measure.median hit_server);
                ("serve.hit_server_tail_ms", snd (H.tail hit_server));
                ("serve.hit_outside_ms_p50", Measure.median hit_outside);
                ("serve.hit_outside_tail_ms", snd (H.tail hit_outside));
                ("serve.miss_server_ms_p50", Measure.median (List.map elapsed_ms (misses s)));
                ("serve.mem_hits", sum_stat "mem_hits");
                ("serve.disk_hits", sum_stat "disk_hits");
                ("serve.computed", sum_stat "computed");
                ("serve.errors", sum_stat "errors");
                ("serve.daemon_threads_max", Float.of_int s.threads_max);
                ("store.bytes", store_bytes last_stats);
                ("gen.late_tail_ms", snd (H.tail late));
                ("gen.late_max_ms", List.fold_left Float.max 0.0 late);
                ("gen.sent", Float.of_int (Array.length s.open_loop));
                ("gen.answered", Float.of_int answered);
                ("trace.events", Float.of_int (List.length events));
                (* the untraced session's daemons: traced ones also hold their events *)
                ("mem.peak_rss_mb", List.fold_left Float.max 0.0 reference.rss_mb);
                ( "trace.overhead_pct",
                  H.overhead_pct ~untraced:(Measure.median reference.cold_pass_s)
                    ~traced:(Measure.median s.cold_pass_s) );
              ];
          };
      report =
        open_loop_report reference
        @ [ ("serve_restart_p50_ms", Measure.median (closed_ms reference.restart), "ms") ];
    }
  end
