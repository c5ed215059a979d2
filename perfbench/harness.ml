(* What every workload shares: the clock, the benchmark's own spans,
   process probes from /proc, the per-layer metric table and the
   result line. *)

module Counters = Perfbench.Counters
module Measure = Perfbench.Measure

let now = Unix.gettimeofday

(* The benchmark's own span around one call it makes into a layer; every
   span of one operation carries that operation's id. *)
let span ~op name f = Putil.Obs.span ~cat:"bench" ~args:[ ("op", string_of_int op) ] name f

(* Run [f] on operations 0, 1, ... for about [seconds]: the first
   always, each next one only while, taking the median operation so far,
   it would end nearer to [seconds] than stopping now.  Operations here
   take 3-13 s; this way a run lasts about [seconds], not up to a whole
   operation more.  The results, in order. *)
let repeat_for ~seconds f =
  let start = now () in
  let rec go op took acc =
    let t0 = now () in
    let r = f op in
    let took = (now () -. t0) :: took in
    if now () -. start +. (Measure.median took /. 2.0) <= seconds then go (op + 1) took (r :: acc)
    else List.rev (r :: acc)
  in
  go 0 [] []

(* ---- /proc probes --------------------------------------------------- *)

let status_field ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix line ->
            let v = String.sub line (String.length prefix) (String.length line - String.length prefix) in
            Some (String.trim v)
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r

let leading_int s = Scanf.sscanf_opt s " %d" Fun.id

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  match Option.bind (status_field ~pid "VmHWM") leading_int with
  | Some kb -> Float.of_int kb /. 1024.0
  | None -> 0.0

let threads ~pid = Option.value (Option.bind (status_field ~pid "Threads") leading_int) ~default:0

(* CPUs this process may run on, as [nproc] counts them: the size of
   the affinity list ("0-1", "0,2-5"). *)
let nproc () =
  match status_field ~pid:"self" "Cpus_allowed_list" with
  | None -> 0
  | Some l ->
      String.split_on_char ',' l
      |> List.fold_left
           (fun n part ->
             match Scanf.sscanf_opt part "%d-%d" (fun a b -> b - a + 1) with
             | Some k -> n + k
             | None -> n + 1)
           0

(* Spawn-to-exit time of [argv], output discarded. *)
let spawn_s argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv null null null in
  ignore (Unix.waitpid [] pid);
  let t = now () -. t0 in
  Unix.close null;
  t

(* ---- results -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (** one line per failed operation *)
  metrics : metric list;
  report : (string * float * string) list;
      (** the workload's own headline numbers, printed by name and unit
          above the result line *)
}

(* ---- per-layer metrics ---------------------------------------------- *)

(* What a traced operation leaves behind: counter deltas, span totals
   (the library's spans and the benchmark's own) and the numbers only
   the workload can know. *)
type observed = {
  counters : Counters.t;
  spans : (string * string, Measure.span_total) Hashtbl.t;
  extra : (string * float) list;
}

(* Dantzig-Wolfe master iterations allowed per decomposition; mirrors
   [Lp.Decomp.max_dw_iterations], which the library does not export. *)
let dw_iteration_cap = 200.0

(* 1 when one traced operation's decomposition ran into that cap. *)
let dw_capped c = if Counters.get c "lp.dw_iterations" >= dw_iteration_cap then 1.0 else 0.0

let cache_names = [ "graph"; "scenario"; "prepare"; "frontier"; "serve" ]

(* The per-layer table, in print order: name, unit, and how to read it.
   [extra] wins over the derived value, so a workload can supply what
   the counters cannot (a daemon's gauges, client-side latencies). *)
let layer_table : (string * string * (observed -> float)) list =
  let c name t = Counters.get t.counters name in
  let busy cat name t = (Measure.find_total t.spans ~cat name).busy_s in
  let lookups prefix t = c (prefix ^ ".hits") t +. c (prefix ^ ".misses") t in
  let cache prefix label =
    [
      (label ^ ".lookups", "count", lookups prefix);
      (label ^ ".hit_ratio", "ratio", fun t -> Counters.ratio (c (prefix ^ ".hits") t) (lookups prefix t));
      (label ^ ".evictions", "count", c (prefix ^ ".evictions"));
    ]
  in
  let zero _ = 0.0 in
  [
    ( "sweep.cap_ms_p50",
      "ms",
      fun t ->
        match (Measure.find_total t.spans ~cat:"sweep" "cap").durations with
        | [] -> 0.0
        | ds -> 1000.0 *. Measure.median ds );
    ("sweep.caps", "count", fun t -> Float.of_int (Measure.find_total t.spans ~cat:"sweep" "cap").count);
    ("sweep.replay_over_cap", "count", zero);
    ("pipeline.scenario_s", "s", busy "pipeline" "stage:scenario");
    ("pipeline.prepare_s", "s", busy "pipeline" "stage:prepare");
    ("pipeline.prepare_builds", "count", c "cache.caches.prepare.misses");
  ]
  @ cache "cache" "cache"
  @ List.concat_map (fun n -> cache ("cache.caches." ^ n) ("cache." ^ n)) cache_names
  @ [
      ("lp.solve_s", "s", c "lp.wall_s");
      ("lp.self_s", "s", fun t -> (Measure.find_total t.spans ~cat:"lp" "revised.solve").self_s);
      ("lp.solves", "count", c "lp.solves");
      ("lp.cold_solves", "count", c "lp.cold_solves");
      ("lp.warm_solves", "count", c "lp.warm_solves");
      ( "lp.warm_fallback_ratio",
        "ratio",
        fun t -> Counters.ratio (c "lp.warm_fallbacks" t) (c "lp.warm_solves" t) );
      ("lp.pivots", "count", c "lp.pivots");
      ("lp.pivots_per_s", "1/s", fun t -> Counters.ratio (c "lp.pivots" t) (c "lp.wall_s" t));
      ("lp.factorizations", "count", c "lp.factorizations");
      ("lp.bound_flips", "count", c "lp.bound_flips");
      ("lp.ft_updates", "count", c "lp.ft_updates");
      ( "lp.ftran_sparse_ratio",
        "ratio",
        fun t ->
          Counters.ratio (c "lp.ftran_sparse" t) (c "lp.ftran_sparse" t +. c "lp.ftran_dense" t) );
      ( "lp.btran_sparse_ratio",
        "ratio",
        fun t ->
          Counters.ratio (c "lp.btran_sparse" t) (c "lp.btran_sparse" t +. c "lp.btran_dense" t) );
      ("lp.small_dense_solves", "count", c "lp.small_dense_solves");
      ("dw.iterations", "count", c "lp.dw_iterations");
      ("dw.hit_iteration_cap", "count", zero);
      ("dw.subproblem_solves", "count", c "lp.dw_subproblem_solves");
      ("dw.master_resolves", "count", c "lp.dw_master_resolves");
      ("dw.crossover_fallbacks", "count", c "lp.dw_crossover_fallbacks");
      ("edit.solves", "count", c "lp.edit_solves");
      ("edit.warm_ratio", "ratio", fun t -> Counters.ratio (c "lp.edit_warm" t) (c "lp.edit_solves" t));
      ("edit.fallbacks", "count", c "lp.edit_fallbacks");
      ("core.event_lp_solve_s", "s", busy "bench" "event_lp.solve");
      ("core.replay_s", "s", busy "bench" "replay.validate");
      ("sim.runs", "count", c "simulate.runs");
      ("sim.busy_s", "s", busy "simulate" "engine.run");
      ("pool.parallelism", "count", zero);
      ("pool.submitted", "count", c "pool.submitted");
      ("pool.stolen", "count", c "pool.stolen");
      ("serve.hit_p50_ms", "ms", zero);
      ("serve.hit_tail_ms", "ms", zero);
      ("serve.hit_tail_pct", "%", zero);
      ("serve.restart_p50_ms", "ms", zero);
      ("serve.cold_p50_ms", "ms", zero);
      ("serve.miss_p50_ms", "ms", zero);
      ("serve.hit_server_ms_p50", "ms", zero);
      ("serve.hit_server_tail_ms", "ms", zero);
      ("serve.hit_outside_ms_p50", "ms", zero);
      ("serve.hit_outside_tail_ms", "ms", zero);
      ("serve.miss_server_ms_p50", "ms", zero);
      ("serve.mem_hits", "count", zero);
      ("serve.disk_hits", "count", zero);
      ("serve.computed", "count", zero);
      ("serve.errors", "count", zero);
      ("serve.daemon_threads_max", "count", zero);
      ("store.puts", "count", c "store.puts");
      ("store.gets", "count", lookups "store");
      ("store.bytes", "B", zero);
      ("store.evictions", "count", c "store.evictions");
      ("gen.late_tail_ms", "ms", zero);
      ("gen.late_max_ms", "ms", zero);
      ("gen.sent", "count", zero);
      ("gen.answered", "count", zero);
      ("trace.events", "count", zero);
      ("trace.overhead_pct", "%", zero);
      ("mem.peak_rss_mb", "MB", zero);
    ]

let per_layer (t : observed) =
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun (n, _, _) -> n = k) layer_table) then
        invalid_arg ("per_layer: unknown metric " ^ k))
    t.extra;
  List.map
    (fun (name, unit_, f) ->
      let value = match List.assoc_opt name t.extra with Some v -> v | None -> f t in
      { name; value; unit_ })
    layer_table

(* The wall-time cost of tracing: the traced operation against the same
   operation untraced, in percent. *)
let overhead_pct ~untraced ~traced = 100.0 *. (traced -. untraced) /. untraced

(* Run [f] with tracing on; return its result, the counter deltas and
   the events it recorded. *)
let traced f =
  Putil.Obs.clear ();
  Putil.Obs.set_enabled true;
  let before = Counters.snapshot () in
  let r = Fun.protect ~finally:(fun () -> Putil.Obs.set_enabled false) f in
  let counters = Counters.diff ~before ~after:(Counters.snapshot ()) in
  (r, counters, Putil.Obs.events ())

(* Per-layer metrics of a traced operation of this process, timed
   [traced] s against [untraced] s for the same operation untraced.
   [rss_mb] is the peak RSS read before tracing began, so that it leaves
   out the trace's own event buffer. *)
let in_process_layers ~counters ~events ~untraced ~traced ~rss_mb extra =
  per_layer
    {
      counters;
      spans = Measure.span_totals events;
      extra =
        extra
        @ [
            ("pool.parallelism", Float.of_int (Putil.Pool.parallelism (Putil.Pool.get_default ())));
            ("dw.hit_iteration_cap", dw_capped counters);
            ("trace.events", Float.of_int (List.length events));
            ("trace.overhead_pct", overhead_pct ~untraced ~traced);
            ("mem.peak_rss_mb", rss_mb);
          ];
    }

(* The highest percentile with ten samples beyond it ({!Measure.tail}),
   as (percentile, value); the maximum, as percentile 100, when there
   are too few samples for any. *)
let tail xs =
  match Measure.tail xs with Some pv -> pv | None -> (100.0, List.fold_left Float.max 0.0 xs)

(* ---- end-to-end metrics --------------------------------------------- *)

let end_to_end ~setup_s ~compute_ms =
  [
    { name = "setup_s"; value = Measure.median setup_s; unit_ = "s" };
    { name = "compute_p50_ms"; value = Measure.median compute_ms; unit_ = "ms" };
  ]

(* ---- output --------------------------------------------------------- *)

let result_line (r : result) =
  let metrics =
    List.map
      (fun m ->
        (m.name, Putil.Obs.Assoc [ ("value", Putil.Obs.Float m.value); ("unit", Putil.Obs.String m.unit_) ]))
      r.metrics
  in
  Putil.Obs.json_to_string
    (Putil.Obs.Assoc
       [
         ("correct", Putil.Obs.Bool (r.failed = 0));
         ("attempted", Putil.Obs.Int r.attempted);
         ("failed", Putil.Obs.Int r.failed);
         ("metrics", Putil.Obs.Assoc metrics);
       ])
