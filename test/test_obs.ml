(* Tests for the observability layer: span balance and nesting per
   domain, Chrome-trace export well-formedness, and the unified stats
   registry. *)

(* ---- a minimal JSON well-formedness checker ----------------------- *)
(* Recursive-descent validator (no external json dependency in the test
   stack).  Accepts exactly the RFC 8259 grammar; returns false instead
   of raising so failures print through Alcotest. *)
let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then begin
      advance ();
      true
    end
    else false
  in
  let literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      true
    end
    else false
  in
  let string_lit () =
    if not (expect '"') then false
    else begin
      let ok = ref true and closed = ref false in
      while !ok && not !closed && !pos < n do
        let c = s.[!pos] in
        advance ();
        if c = '"' then closed := true
        else if c = '\\' then begin
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              let hex = ref 0 in
              while
                !hex < 4
                && match peek () with
                   | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') ->
                       advance ();
                       true
                   | _ -> false
              do
                incr hex
              done;
              if !hex <> 4 then ok := false
          | _ -> ok := false
        end
        else if Char.code c < 0x20 then ok := false
      done;
      !ok && !closed
    end
  in
  let number () =
    let start = !pos in
    ignore (expect '-');
    let digits () =
      let k = ref 0 in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ();
        incr k
      done;
      !k > 0
    in
    if not (digits ()) then false
    else begin
      (if peek () = Some '.' then begin
         advance ();
         if not (digits ()) then pos := -1 - n
       end);
      (match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          if not (digits ()) then pos := -1 - n
      | _ -> ());
      !pos > start
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if expect '}' then true else members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if expect ']' then true else elements ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> false
  and members () =
    skip_ws ();
    if not (string_lit ()) then false
    else begin
      skip_ws ();
      if not (expect ':') then false
      else if not (value ()) then false
      else begin
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' ->
            advance ();
            true
        | _ -> false
      end
    end
  and elements () =
    if not (value ()) then false
    else begin
      skip_ws ();
      match peek () with
      | Some ',' ->
          advance ();
          elements ()
      | Some ']' ->
          advance ();
          true
      | _ -> false
    end
  in
  let ok = value () in
  skip_ws ();
  ok && !pos = n

(* Run [f] with tracing enabled on a clean buffer, restoring the
   disabled default afterwards so other tests are unaffected. *)
let with_tracing f =
  Putil.Obs.clear ();
  Putil.Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Putil.Obs.set_enabled false;
      Putil.Obs.clear ())
    f

(* Per-tid stack check: every 'E' closes the last open 'B' of the same
   name, and no tid ends with an open span. *)
let check_balanced (evs : Putil.Obs.event list) =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Putil.Obs.event) ->
      let st = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | 'B' -> Hashtbl.replace stacks e.tid (e.name :: st)
      | 'E' -> (
          match st with
          | top :: rest ->
              Alcotest.(check string) "E closes the innermost B" top e.name;
              Hashtbl.replace stacks e.tid rest
          | [] -> Alcotest.fail "E without matching B")
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun _tid st ->
      Alcotest.(check int) "all spans closed" 0 (List.length st))
    stacks

let test_disabled_is_transparent () =
  Putil.Obs.clear ();
  Putil.Obs.set_enabled false;
  let r = Putil.Obs.span ~cat:"test" "noop" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "no events recorded" 0 (Putil.Obs.event_count ())

let test_spans_balanced_nested () =
  with_tracing (fun () ->
      let r =
        Putil.Obs.span ~cat:"test" "outer" (fun () ->
            Putil.Obs.span ~cat:"test" "inner" (fun () -> 7)
            + Putil.Obs.span ~cat:"test" "inner" (fun () -> 35))
      in
      Alcotest.(check int) "result" 42 r;
      let evs = Putil.Obs.events () in
      Alcotest.(check int) "three B/E pairs" 6 (List.length evs);
      check_balanced evs;
      (* timestamps are non-decreasing in export order *)
      let rec mono = function
        | (a : Putil.Obs.event) :: (b : Putil.Obs.event) :: rest ->
            a.ts <= b.ts && mono (b :: rest)
        | _ -> true
      in
      Alcotest.(check bool) "sorted by ts" true (mono evs))

let test_span_closes_on_exception () =
  with_tracing (fun () ->
      (try
         Putil.Obs.span ~cat:"test" "boom" (fun () -> failwith "expected")
       with Failure _ -> ());
      check_balanced (Putil.Obs.events ());
      Alcotest.(check int) "B and E both recorded" 2
        (Putil.Obs.event_count ()))

let test_spans_across_pool_domains () =
  with_tracing (fun () ->
      let pool = Putil.Pool.create ~size:3 () in
      (* rendezvous: each task waits until a second task has started, so
         one fast worker cannot drain the whole list and the trace is
         guaranteed to cover more than one domain *)
      let started = Atomic.make 0 in
      let wait_for_peer () =
        let spins = ref 0 in
        while Atomic.get started < 2 && !spins < 50_000_000 do
          incr spins;
          Domain.cpu_relax ()
        done
      in
      Fun.protect
        ~finally:(fun () -> Putil.Pool.shutdown pool)
        (fun () ->
          let xs =
            Putil.Pool.parallel_map pool
              (fun i ->
                Putil.Obs.span ~cat:"test"
                  ~args:[ ("i", string_of_int i) ]
                  "work"
                  (fun () ->
                    Atomic.incr started;
                    wait_for_peer ();
                    (* nested span on the same worker domain *)
                    Putil.Obs.span ~cat:"test" "leaf" (fun () -> i * 2)))
              [ 1; 2; 3; 4; 5; 6; 7; 8 ]
          in
          Alcotest.(check (list int)) "results ordered"
            [ 2; 4; 6; 8; 10; 12; 14; 16 ]
            xs);
      let evs = Putil.Obs.events () in
      check_balanced evs;
      let tids =
        List.sort_uniq compare
          (List.map (fun (e : Putil.Obs.event) -> e.tid) evs)
      in
      Alcotest.(check bool) "events from more than one domain" true
        (List.length tids > 1))

let test_chrome_json_valid () =
  with_tracing (fun () ->
      Putil.Obs.span ~cat:"a" ~args:[ ("k", "v\"with\nquotes\x01") ] "s1"
        (fun () -> Putil.Obs.instant ~cat:"a" "marker");
      let s = Putil.Obs.to_chrome_json () in
      Alcotest.(check bool) "valid JSON" true (json_valid s);
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        nn = 0 || go 0
      in
      Alcotest.(check bool) "has traceEvents" true (contains s "traceEvents");
      Alcotest.(check bool) "has begin phase" true
        (contains s "\"ph\":\"B\"");
      Alcotest.(check bool) "has instant phase" true
        (contains s "\"ph\":\"i\""))

let test_empty_trace_still_valid () =
  Putil.Obs.clear ();
  Putil.Obs.set_enabled false;
  Alcotest.(check bool) "empty trace is valid JSON" true
    (json_valid (Putil.Obs.to_chrome_json ()))

let test_stats_registry () =
  (* lp registers at Lp.Stats init, cache/pool at Putil init; touch the
     modules so the linker keeps them. *)
  Lp.Stats.reset ();
  ignore (Putil.Pool.totals ());
  let j = Putil.Obs.stats_json () in
  (match j with
  | Putil.Obs.Assoc kvs ->
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "registry has %S" key)
            true (List.mem_assoc key kvs))
        [ "lp"; "cache"; "pool"; "trace" ];
      (* keys are sorted, so the document layout is deterministic *)
      let keys = List.map fst kvs in
      Alcotest.(check bool) "keys sorted" true
        (List.sort compare keys = keys)
  | _ -> Alcotest.fail "stats_json is not an object");
  Alcotest.(check bool) "stats serialize to valid JSON" true
    (json_valid (Putil.Obs.stats_to_string ()))

let test_pool_counters () =
  let before = Putil.Pool.totals () in
  let pool = Putil.Pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () -> Putil.Pool.shutdown pool)
    (fun () ->
      ignore (Putil.Pool.parallel_map pool (fun x -> x + 1) [ 1; 2; 3; 4 ]));
  let after = Putil.Pool.totals () in
  Alcotest.(check bool) "submitted grows" true
    (after.Putil.Pool.submitted >= before.Putil.Pool.submitted + 4);
  Alcotest.(check bool) "run grows" true
    (after.Putil.Pool.run >= before.Putil.Pool.run + 4)

let test_traced_result_unchanged () =
  (* the hard invariant: tracing must not perturb computed values *)
  let work () =
    let g =
      Workloads.Apps.comd
        { Workloads.Apps.default_params with nranks = 2; iterations = 2 }
    in
    let sc = Core.Scenario.make g in
    let r = Runtime.Static.run sc ~job_cap:80.0 in
    r.Simulate.Engine.makespan
  in
  Putil.Obs.set_enabled false;
  let off = work () in
  let on = with_tracing work in
  Alcotest.(check (float 0.0)) "identical makespan traced vs not" off on

(* Presolve runs before and outside every simplex span; its own span
   names that set-up cost in a trace. *)
let test_presolve_span () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:2.0 ~ub:2.0 "x" in
  let y = Lp.Model.add_var m ~obj:1.0 "y" in
  Lp.Model.add_constr m [ (1.0, y); (-1.0, x) ] Lp.Model.Ge 0.0;
  let p = Lp.Model.compile m in
  with_tracing (fun () ->
      ignore (Lp.Presolve.reduce p);
      let evs = Putil.Obs.events () in
      check_balanced evs;
      match evs with
      | [ b; e ] ->
          Alcotest.(check (list string))
            "names" [ "presolve.reduce"; "presolve.reduce" ] [ b.name; e.name ];
          Alcotest.(check string) "category" "lp" b.cat;
          Alcotest.(check (list (pair string string)))
            "size of the input" [ ("rows", "1"); ("cols", "2") ] b.args
      | _ ->
          Alcotest.failf "expected one B/E pair, got %d events"
            (List.length evs))

let suite =
  [
    ( "util.obs",
      [
        Alcotest.test_case "disabled is transparent" `Quick
          test_disabled_is_transparent;
        Alcotest.test_case "balanced nested spans" `Quick
          test_spans_balanced_nested;
        Alcotest.test_case "span closes on exception" `Quick
          test_span_closes_on_exception;
        Alcotest.test_case "spans across pool domains" `Quick
          test_spans_across_pool_domains;
        Alcotest.test_case "chrome json valid" `Quick test_chrome_json_valid;
        Alcotest.test_case "empty trace valid" `Quick
          test_empty_trace_still_valid;
        Alcotest.test_case "stats registry" `Quick test_stats_registry;
        Alcotest.test_case "pool counters" `Quick test_pool_counters;
        Alcotest.test_case "traced result unchanged" `Quick
          test_traced_result_unchanged;
        Alcotest.test_case "presolve span" `Quick test_presolve_span;
      ] );
  ]
