(* sweep16: the default [powerlim sweep] (4 apps x 7 caps, 16 ranks, 10
   iterations, warm-chained LP re-solves), from cold caches each time.

   The timed operation is the body of [Serve.Handlers.sweep] —
   [Experiments.Sweeps.compute] plus the figure renderers — called
   directly so that the sweep's points can be inspected, not only the
   printed bytes. *)

module H = Harness

(* The inputs are the CLI defaults whatever the seed: the sweep's cost
   depends strongly on its trace seed (11.7-13.6 s at seed 42, 14.0-16.0 s
   at seed 1 on a 2-core x86-64 host), which would drown a 10% bound. *)
let config =
  { Experiments.Common.default_config with nranks = 16; iterations = 10; seed = 42 }

let render sweep =
  let b = Buffer.create 2048 in
  let ppf = Format.formatter_of_buffer b in
  Experiments.Sweeps.fig9 sweep ppf;
  Experiments.Sweeps.fig10 sweep ppf;
  Experiments.Sweeps.summary sweep ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* Points whose replay exceeds the cap are counted, not failed: the
   default sweep has one (BT at 40 W per socket replays at 659 W against
   a 640 W job cap, 3.0% over where Replay.validate allows 2%), and the
   printed bytes, which the digest pins, are the contract. *)
let over_cap sweep =
  List.fold_left
    (fun n (_, (s : Experiments.Common.sweep)) -> n + List.length (Perfbench.Checks.over_cap s.points))
    0 sweep

(* One operation: drop every cached artifact, then sweep and render.
   Returns (wall s, check, points over the cap). *)
let once ~op =
  Putil.Cache.clear_all ();
  let t0 = H.now () in
  let sweep, out =
    H.span ~op "sweep" (fun () ->
        let sweep = Experiments.Sweeps.compute ~config () in
        (sweep, render sweep))
  in
  let t1 = H.now () in
  ( t1 -. t0,
    Perfbench.Checks.sweep_output ~expected_digest:Perfbench.Checks.sweep16_digest out,
    over_cap sweep )

(* Set-up is what [powerlim sweep] pays before it computes: starting the
   CLI (runtime and module initialization), measured as the spawn-to-exit
   time of [powerlim --version].  One spawn takes a few milliseconds, so
   the median is over many. *)
let setup ~powerlim = List.init 15 (fun _ -> H.spawn_s [| powerlim; "--version" |])

let run ~seconds ~trace ~powerlim =
  let errors = ref [] in
  let record = function Ok () -> () | Error m -> errors := m :: !errors in
  if not trace then begin
    let setup_s = setup ~powerlim in
    let ops = H.repeat_for ~seconds (fun op -> once ~op) in
    List.iter (fun (_, ok, _) -> record ok) ops;
    let walls = List.map (fun (w, _, _) -> 1000.0 *. w) ops in
    let _, _, over = List.hd ops in
    {
      H.attempted = List.length ops;
      failed = List.length !errors;
      errors = !errors;
      metrics = H.end_to_end ~setup_s ~compute_ms:walls;
      report =
        [
          ("sweep_s", Perfbench.Measure.median walls /. 1000.0, "s");
          ("sweeps", Float.of_int (List.length ops), "count");
          ("setups", Float.of_int (List.length setup_s), "count");
          ("replay_over_cap", Float.of_int over, "count");
          ("peak_rss_mb", H.peak_rss_mb (), "MB");
        ];
    }
  end
  else begin
    (* the first operation in a process runs up to 10% slower (heap
       growth), so the untraced reference is the second *)
    let _, ok0, _ = once ~op:(-1) in
    let reference, ok1, _ = once ~op:0 in
    record ok0;
    record ok1;
    let rss_mb = H.peak_rss_mb () in
    let (traced, ok2, over), counters, events = H.traced (fun () -> once ~op:1) in
    record ok2;
    let metrics =
      H.in_process_layers ~counters ~events ~untraced:reference ~traced ~rss_mb
        [ ("sweep.replay_over_cap", Float.of_int over) ]
    in
    {
      H.attempted = 3;
      failed = List.length !errors;
      errors = !errors;
      metrics;
      report = [ ("sweep_s", reference, "s"); ("sweep_traced_s", traced, "s") ];
    }
  end
