(* bound512: the cold cluster-scale bound, as [powerlim bound] computes
   it — [Core.Event_lp.solve] then [Core.Replay.validate] — on CoMD at
   512 ranks and 2 iterations under 30 W per socket.  At 512 blocks the
   solve goes through the Dantzig-Wolfe decomposition ([Lp.Decomp]).
   Building the scenario ([Pipeline.Stages.scenario]) is the set-up.

   Two iterations, not four, so that one bound takes about 4 s instead
   of 13 s and a run's median rests on seven to ten bounds instead of
   two or three: the host's speed swings by 10-20% within seconds.  The
   decomposition still engages (26 iterations instead of 28). *)

module H = Harness

(* Fixed inputs, as for sweep16: solve time depends on the trace seed
   (13.7-16.1 s per [powerlim bound] process for seeds 1-3, at 4
   iterations). *)
let app = Workloads.Apps.CoMD
let params = { Workloads.Apps.nranks = 512; iterations = 2; seed = 42; scale = 1.0 }
let cap_per_socket = 30.0
let job_cap = cap_per_socket *. Float.of_int params.nranks

(* The LP objective at these inputs (seconds). *)
let reference = 2.2384212913643142

let setup_repeats = 15

(* Build the scenario from cold caches; returns it and the seconds it took. *)
let build_scenario ~op =
  Putil.Cache.clear_all ();
  let t0 = H.now () in
  let sc =
    H.span ~op "scenario" (fun () ->
        Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, params)))
  in
  (sc, H.now () -. t0)

(* One cold bound: returns (wall s, objective, check). *)
let once sc ~op =
  let t0 = H.now () in
  let outcome =
    H.span ~op "event_lp.solve" (fun () -> Core.Event_lp.solve sc ~power_cap:job_cap)
  in
  let checked =
    match outcome with
    | Core.Event_lp.Schedule s ->
        let v = H.span ~op "replay.validate" (fun () -> Core.Replay.validate sc s ~power_cap:job_cap) in
        ( s.objective,
          Perfbench.Checks.bound ~reference ~objective:s.objective
            ~replay_makespan:v.replay_makespan ~within_cap:v.within_cap )
    | Core.Event_lp.Infeasible -> (Float.nan, Error "infeasible")
    | Core.Event_lp.Solver_failure m -> (Float.nan, Error ("solver failure: " ^ m))
  in
  let wall = H.now () -. t0 in
  (wall, fst checked, snd checked)

let run ~seconds ~trace =
  let errors = ref [] in
  let record = function Ok () -> () | Error m -> errors := m :: !errors in
  let setups = List.init setup_repeats (fun i -> build_scenario ~op:(-1 - i)) in
  let sc = fst (List.hd (List.rev setups)) in
  let setup_s = List.map snd setups in
  if not trace then begin
    let ops = H.repeat_for ~seconds (fun op -> once sc ~op) in
    List.iter (fun (_, _, ok) -> record ok) ops;
    let walls = List.map (fun (w, _, _) -> 1000.0 *. w) ops in
    let _, objective, _ = List.hd ops in
    {
      H.attempted = setup_repeats + List.length ops;
      failed = List.length !errors;
      errors = !errors;
      metrics = H.end_to_end ~setup_s ~compute_ms:walls;
      report =
        [
          ("bound_tight_s", Perfbench.Measure.median walls /. 1000.0, "s");
          ("bounds", Float.of_int (List.length ops), "count");
          ("setups", Float.of_int setup_repeats, "count");
          ("objective_s", objective, "s");
          ("peak_rss_mb", H.peak_rss_mb (), "MB");
        ];
    }
  end
  else begin
    (* as for sweep16, the untraced reference is the second operation *)
    let _, _, ok0 = once sc ~op:(-1) in
    let reference_wall, _, ok1 = once sc ~op:0 in
    record ok0;
    record ok1;
    let rss_mb = H.peak_rss_mb () in
    let (traced, _, ok2), counters, events =
      H.traced (fun () ->
          let sc, _ = build_scenario ~op:1 in
          once sc ~op:1)
    in
    record ok2;
    {
      H.attempted = setup_repeats + 4;
      failed = List.length !errors;
      errors = !errors;
      metrics = H.in_process_layers ~counters ~events ~untraced:reference_wall ~traced ~rss_mb [];
      report = [ ("bound_tight_s", reference_wall, "s"); ("bound_tight_traced_s", traced, "s") ];
    }
  end
