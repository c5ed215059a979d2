(* The benchmark's own arithmetic and output checks. *)

open Perfbench

let close = Alcotest.float 1e-12
let floats n = List.init n (fun i -> Float.of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 3.0 (Measure.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Measure.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Measure.median []))

let test_percentile () =
  let xs = floats 100 in
  Alcotest.check close "p50 of 1..100" 50.0 (Measure.percentile 50.0 xs);
  Alcotest.check close "p99 of 1..100" 99.0 (Measure.percentile 99.0 xs);
  Alcotest.check close "p100" 100.0 (Measure.percentile 100.0 xs);
  Alcotest.check close "p0 is the minimum" 1.0 (Measure.percentile 0.0 xs);
  Alcotest.check close "order does not matter" 3.0 (Measure.percentile 60.0 [ 5.0; 3.0; 1.0; 4.0; 2.0 ])

(* The highest percentile that leaves at least ten samples beyond it. *)
let test_tail () =
  let check n expected =
    match Measure.tail (floats n) with
    | Some (p, v) ->
        Alcotest.check close (Printf.sprintf "percentile for %d samples" n) expected p;
        Alcotest.(check bool) "ten beyond" true
          (List.length (List.filter (fun x -> x > v) (floats n)) >= 10)
    | None -> Alcotest.failf "no tail for %d samples" n
  in
  check 10_000 99.9;
  check 1000 99.0;
  check 999 95.0;
  check 200 95.0;
  check 100 90.0;
  check 20 50.0;
  Alcotest.(check bool) "too few samples" true (Measure.tail (floats 19) = None)

let ev ?(tid = 0) ph name ts = { Putil.Obs.name; cat = "c"; ph; ts; tid; args = [] }

(* Self time is a span's duration minus its direct children's. *)
let test_self_time () =
  let events =
    [
      ev 'B' "outer" 0.0;
      ev 'B' "child" 1.0;
      ev 'B' "grandchild" 1.5;
      ev 'E' "grandchild" 2.0;
      ev 'E' "child" 3.0;
      ev ~tid:1 'B' "other" 3.5;
      ev 'B' "child" 4.0;
      ev 'E' "child" 5.0;
      ev ~tid:1 'E' "other" 9.0;
      ev 'E' "outer" 10.0;
    ]
  in
  let t = Measure.span_totals events in
  let get name = Measure.find_total t ~cat:"c" name in
  Alcotest.check close "outer busy" 10.0 (get "outer").busy_s;
  Alcotest.check close "outer self" 7.0 (get "outer").self_s;
  Alcotest.(check int) "child count" 2 (get "child").count;
  Alcotest.check close "child busy" 3.0 (get "child").busy_s;
  Alcotest.check close "child self" 2.5 (get "child").self_s;
  Alcotest.check close "another domain is not a child" 5.5 (get "other").self_s;
  Alcotest.(check int) "absent span" 0 (get "missing").count

(* An open-loop request is timed from its due time, so a generator stall
   counts against the request it held back. *)
let test_open_loop () =
  let stalled = { Measure.due = 10.0; sent = 10.5; answered = 10.6 } in
  Alcotest.check close "latency from due" 0.6 (Measure.latency stalled);
  Alcotest.check close "lateness" 0.5 (Measure.lateness stalled);
  let early = { Measure.due = 10.0; sent = 9.99; answered = 10.2 } in
  Alcotest.check close "never negative" 0.0 (Measure.lateness early)

let test_counters () =
  let open Putil.Obs in
  let snap solves hits misses store =
    Counters.of_json
      (Assoc
         [
           ("lp", Assoc [ ("solves", Int solves); ("wall_s", Float 1.5) ]);
           ( "cache",
             Assoc
               [
                 ("hits", Int hits);
                 ("caches", List [ Assoc [ ("name", String "prepare"); ("misses", Int misses) ] ]);
               ] );
           ( "store",
             List
               [
                 Assoc [ ("root", String "a"); ("puts", Int store) ];
                 Assoc [ ("root", String "b"); ("puts", Int 1) ];
               ] );
         ])
  in
  let c = Counters.diff ~before:(snap 2 1 3 0) ~after:(snap 7 4 5 5) in
  Alcotest.check close "lp delta" 5.0 (Counters.get c "lp.solves");
  Alcotest.check close "named list member" 2.0 (Counters.get c "cache.caches.prepare.misses");
  Alcotest.check close "unnamed list summed" 5.0 (Counters.get c "store.puts");
  Alcotest.check close "cache hits" 3.0 (Counters.get c "cache.hits");
  Alcotest.check close "missing key" 0.0 (Counters.get c "nope");
  Alcotest.check close "ratio of nothing" 0.0 (Counters.ratio 1.0 0.0)

(* ---- output checks reject corrupted outputs ------------------------- *)

let is_error = function Ok () -> false | Error _ -> true

let test_sweep_check () =
  let out = "=== Figure 9 ===\n   30   +10.9\n" in
  let digest = Digest.to_hex (Digest.string out) in
  Alcotest.(check bool) "intact" false (is_error (Checks.sweep_output ~expected_digest:digest out));
  let corrupted = Bytes.of_string out in
  Bytes.set corrupted 20 '8';
  Alcotest.(check bool) "one byte changed" true
    (is_error (Checks.sweep_output ~expected_digest:digest (Bytes.to_string corrupted)));
  let point ~schedulable ~max_power =
    {
      Experiments.Common.cap = 30.0;
      schedulable;
      static_span = 1.0;
      conductor_span = 1.0;
      lp_span = 1.0;
      lp_objective = 1.0;
      lp_vs_static = 0.0;
      lp_vs_conductor = 0.0;
      conductor_vs_static = 0.0;
      lp_max_power = max_power;
      job_cap = 480.0;
    }
  in
  let over ps = List.length (Checks.over_cap ps) in
  Alcotest.(check int) "within the cap" 0 (over [ point ~schedulable:true ~max_power:480.0 ]);
  Alcotest.(check int) "within the 2% tolerance" 0
    (over [ point ~schedulable:true ~max_power:489.0 ]);
  Alcotest.(check int) "over the cap" 1
    (over [ point ~schedulable:true ~max_power:400.0; point ~schedulable:true ~max_power:500.0 ]);
  Alcotest.(check int) "unschedulable points are not replayed" 0
    (over [ point ~schedulable:false ~max_power:Float.nan ])

let test_bound_check () =
  let check ~reference ~objective ~replay_makespan ~within_cap =
    is_error (Checks.bound ~reference ~objective ~replay_makespan ~within_cap)
  in
  Alcotest.(check bool) "good" false
    (check ~reference:4.5 ~objective:4.5 ~replay_makespan:4.51 ~within_cap:true);
  Alcotest.(check bool) "objective above the replay" true
    (check ~reference:4.6 ~objective:4.6 ~replay_makespan:4.51 ~within_cap:true);
  Alcotest.(check bool) "replay over the cap" true
    (check ~reference:4.5 ~objective:4.5 ~replay_makespan:4.51 ~within_cap:false);
  Alcotest.(check bool) "off the reference by 1e-8" true
    (check ~reference:4.5 ~objective:(4.5 +. 1e-8) ~replay_makespan:4.51 ~within_cap:true);
  Alcotest.(check bool) "within 1e-9 of the reference" false
    (check ~reference:4.5 ~objective:(4.5 +. 1e-10) ~replay_makespan:4.51 ~within_cap:true);
  Alcotest.(check bool) "not a number" true
    (check ~reference:4.5 ~objective:Float.nan ~replay_makespan:4.51 ~within_cap:true)

let test_served_check () =
  let open Putil.Obs in
  let offline = { Serve.Handlers.out = "baseline : 1.0 s\n"; err = "pivots\n"; status = 0 } in
  let resp ?(ok = true) ?(status = 0) ?(cached = "mem") out =
    Assoc
      [
        ("id", Int 3);
        ("ok", Bool ok);
        ("status", Int status);
        ("cached", String cached);
        ("elapsed_ms", Float 0.1);
        ("output", String out);
        ("err", String "other pivots\n");
      ]
  in
  let check ?(expected_cached = "mem") r = is_error (Checks.served ~offline ~expected_cached r) in
  Alcotest.(check bool) "identical" false (check (resp offline.out));
  Alcotest.(check bool) "corrupted output" true (check (resp "baseline : 1.1 s\n"));
  Alcotest.(check bool) "other status" true (check (resp ~status:1 offline.out));
  Alcotest.(check bool) "wrong tier" true (check ~expected_cached:"disk" (resp offline.out));
  Alcotest.(check bool) "not ok" true (check (resp ~ok:false offline.out));
  Alcotest.(check bool) "error response" true
    (check (Assoc [ ("id", Int 3); ("ok", Bool false); ("error", String "busy") ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail with ten beyond" `Quick test_tail;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "open-loop lateness" `Quick test_open_loop;
          Alcotest.test_case "counter deltas" `Quick test_counters;
        ] );
      ( "checks",
        [
          Alcotest.test_case "sweep output" `Quick test_sweep_check;
          Alcotest.test_case "bound result" `Quick test_bound_check;
          Alcotest.test_case "served response" `Quick test_served_check;
        ] );
    ]
