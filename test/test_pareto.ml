(* Tests for configuration enumeration and Pareto / convex frontiers,
   including the Figure 1 / Table 1 shape from the paper. *)

let sock = Machine.Socket.nominal 0
let comd_like = Machine.Profile.v ~serial_frac:0.03 ~contention:0.004 ~mem_bound:0.25 1.2
let lulesh_like = Machine.Profile.v ~serial_frac:0.02 ~contention:0.06 ~mem_bound:0.3 1.5

let test_enumerate_size () =
  let pts = Pareto.Frontier.enumerate sock comd_like in
  Alcotest.(check int) "15 freqs x 8 threads" 120 (Array.length pts)

let test_pareto_nondominated () =
  let pts = Pareto.Frontier.enumerate sock comd_like in
  let pf = Pareto.Frontier.pareto pts in
  Array.iter
    (fun p ->
      Array.iter
        (fun q ->
          if q != p && Pareto.Point.dominates q p then
            Alcotest.failf "dominated point on frontier: %a by %a"
              Pareto.Point.pp p Pareto.Point.pp q)
        pts)
    pf

let test_pareto_monotone () =
  let pf = Pareto.Frontier.pareto (Pareto.Frontier.enumerate sock comd_like) in
  for i = 0 to Array.length pf - 2 do
    Alcotest.(check bool) "power ascending" true
      (pf.(i).Pareto.Point.power < pf.(i + 1).Pareto.Point.power);
    Alcotest.(check bool) "duration descending" true
      (pf.(i).Pareto.Point.duration > pf.(i + 1).Pareto.Point.duration)
  done

let convexity_holds (hull : Pareto.Frontier.t) =
  let ok = ref true in
  for i = 1 to Array.length hull - 2 do
    let a = hull.(i - 1) and b = hull.(i) and c = hull.(i + 1) in
    (* middle point must lie strictly below the chord a-c *)
    let t =
      (b.Pareto.Point.power -. a.Pareto.Point.power)
      /. (c.Pareto.Point.power -. a.Pareto.Point.power)
    in
    let chord =
      a.Pareto.Point.duration
      +. (t *. (c.Pareto.Point.duration -. a.Pareto.Point.duration))
    in
    if b.Pareto.Point.duration > chord +. 1e-12 then ok := false
  done;
  !ok

let test_convex_hull_is_convex () =
  Alcotest.(check bool) "comd hull convex" true
    (convexity_holds (Pareto.Frontier.convex sock comd_like));
  Alcotest.(check bool) "lulesh hull convex" true
    (convexity_holds (Pareto.Frontier.convex sock lulesh_like))

let test_hull_subset_of_pareto () =
  let pts = Pareto.Frontier.enumerate sock comd_like in
  let pf = Pareto.Frontier.pareto pts in
  let hull = Pareto.Frontier.convex sock comd_like in
  Array.iter
    (fun h ->
      Alcotest.(check bool) "hull point is a real configuration" true
        (Array.exists
           (fun p ->
             p.Pareto.Point.freq = h.Pareto.Point.freq
             && p.Pareto.Point.threads = h.Pareto.Point.threads)
           pf))
    hull

(* Table 1 shape: the top of the frontier is 8 threads across descending
   frequencies; fewer-than-max threads appear only at the lowest
   frequency. *)
let test_table1_shape () =
  let hull = Pareto.Frontier.convex sock comd_like in
  let n = Array.length hull in
  Alcotest.(check bool) "nontrivial hull" true (n >= 5);
  (* fastest point: max threads at max frequency *)
  let fast = Pareto.Frontier.fastest hull in
  Alcotest.(check int) "fastest is 8 threads" 8 fast.Pareto.Point.threads;
  Alcotest.(check (float 1e-9)) "fastest is 2.6GHz" 2.6 fast.Pareto.Point.freq;
  (* any point with < 8 threads sits at the minimum frequency *)
  Array.iter
    (fun (p : Pareto.Point.t) ->
      if p.threads < 8 then
        Alcotest.(check (float 1e-9)) "reduced threads only at f_min" 1.2 p.freq)
    hull;
  (* and at least one such point exists at the frugal end *)
  Alcotest.(check bool) "low-power end uses fewer threads" true
    ((Pareto.Frontier.slowest hull).Pareto.Point.threads < 8)

let test_best_under_power () =
  let hull = Pareto.Frontier.convex sock comd_like in
  (match Pareto.Frontier.best_under_power hull ~budget:40.0 with
  | None -> Alcotest.fail "40W should be feasible"
  | Some p ->
      Alcotest.(check bool) "within budget" true (p.Pareto.Point.power <= 40.0 +. 1e-9);
      (* no faster feasible point *)
      Array.iter
        (fun (q : Pareto.Point.t) ->
          if q.power <= 40.0 then
            Alcotest.(check bool) "fastest" true
              (p.Pareto.Point.duration <= q.duration +. 1e-12))
        hull);
  (* impossible budget *)
  (match Pareto.Frontier.best_under_power hull ~budget:1.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "1W should be infeasible")

let test_interpolate_between_endpoints () =
  let hull = Pareto.Frontier.convex sock comd_like in
  let lo = Pareto.Frontier.min_power hull and hi = Pareto.Frontier.max_power hull in
  let mid = (lo +. hi) /. 2.0 in
  let b = Pareto.Frontier.interpolate hull ~power:mid in
  Alcotest.(check (float 1e-9)) "blend hits target power" mid
    (Pareto.Frontier.blend_power b);
  let d = Pareto.Frontier.blend_duration b in
  Alcotest.(check bool) "blend duration within hull range" true
    (d >= (Pareto.Frontier.fastest hull).Pareto.Point.duration -. 1e-12
    && d <= (Pareto.Frontier.slowest hull).Pareto.Point.duration +. 1e-12);
  (* weights sum to one *)
  let wsum = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 b in
  Alcotest.(check (float 1e-12)) "weights sum to 1" 1.0 wsum;
  (* clamping below/above *)
  let below = Pareto.Frontier.interpolate hull ~power:(lo -. 5.0) in
  Alcotest.(check (float 1e-9)) "clamped low" lo (Pareto.Frontier.blend_power below);
  let above = Pareto.Frontier.interpolate hull ~power:(hi +. 5.0) in
  Alcotest.(check (float 1e-9)) "clamped high" hi (Pareto.Frontier.blend_power above)

let test_rounding () =
  let hull = Pareto.Frontier.convex sock comd_like in
  let target = 38.0 in
  let near = Pareto.Frontier.round_nearest hull ~power:target in
  let down = Pareto.Frontier.round_down hull ~power:target in
  Alcotest.(check bool) "round_down within budget" true
    (down.Pareto.Point.power <= target +. 1e-9);
  Array.iter
    (fun (p : Pareto.Point.t) ->
      Alcotest.(check bool) "round_nearest is nearest" true
        (Float.abs (near.Pareto.Point.power -. target)
        <= Float.abs (p.power -. target) +. 1e-12))
    hull

(* Property: interpolation at a blend of two adjacent hull powers is never
   slower than either rounding (the LP's advantage over discrete). *)
let prop_blend_at_least_as_fast =
  QCheck.Test.make ~count:100 ~name:"blend at target power beats round_down"
    QCheck.(float_range 0.0 1.0)
    (fun u ->
      let hull = Pareto.Frontier.convex sock lulesh_like in
      let lo = Pareto.Frontier.min_power hull
      and hi = Pareto.Frontier.max_power hull in
      let target = lo +. (u *. (hi -. lo)) in
      let blend = Pareto.Frontier.interpolate hull ~power:target in
      let down = Pareto.Frontier.round_down hull ~power:target in
      Pareto.Frontier.blend_duration blend
      <= down.Pareto.Point.duration +. 1e-9)

(* Oracle: the quadratic definition of the frontier -- keep every point
   no other point dominates, then sort by (power, duration) and drop
   repeated pairs.  [Pareto.Frontier.pareto] must return the very same
   points (physically), so the hulls built on it are unchanged. *)
let oracle_pareto (pts : Pareto.Point.t array) =
  let keep =
    Array.to_list pts
    |> List.filter (fun p ->
           not
             (Array.exists (fun q -> q != p && Pareto.Point.dominates q p) pts))
  in
  let sorted =
    List.sort
      (fun (a : Pareto.Point.t) b ->
        match compare a.power b.power with
        | 0 -> compare a.duration b.duration
        | c -> c)
      keep
  in
  let rec dedup = function
    | (a : Pareto.Point.t) :: (b : Pareto.Point.t) :: rest ->
        if
          Float.abs (a.power -. b.power) < 1e-12
          && Float.abs (a.duration -. b.duration) < 1e-12
        then dedup (a :: rest)
        else a :: dedup (b :: rest)
    | l -> l
  in
  Array.of_list (dedup sorted)

(* Tie-heavy point sets: coordinates from a handful of values (signed
   zeros, infinity and NaN among them), so equal powers, equal durations
   and exact duplicates are common. *)
let arb_points =
  let coords = [| 0.0; -0.0; 1.0; 1.5; 2.0; 3.0; 1e-13; Float.infinity; Float.nan |] in
  let coord = QCheck.Gen.(map (fun i -> coords.(i)) (int_bound (Array.length coords - 1))) in
  let point =
    QCheck.Gen.(
      map2
        (fun power duration ->
          { Pareto.Point.freq = 1.0; threads = 1; power; duration })
        coord coord)
  in
  QCheck.make
    ~print:(fun pts ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun (p : Pareto.Point.t) -> Printf.sprintf "(%h, %h)" p.power p.duration)
              pts)))
    QCheck.Gen.(array_size (int_bound 40) point)

let prop_pareto_matches_oracle =
  QCheck.Test.make ~count:2000 ~name:"pareto = quadratic oracle" arb_points
    (fun pts ->
      let got = Pareto.Frontier.pareto pts and want = oracle_pareto pts in
      Array.length got = Array.length want && Array.for_all2 ( == ) got want)

let test_pareto_matches_oracle_on_enumeration () =
  List.iter
    (fun profile ->
      let pts = Pareto.Frontier.enumerate sock profile in
      Alcotest.(check bool) "same points as the oracle" true
        (let got = Pareto.Frontier.pareto pts and want = oracle_pareto pts in
         Array.length got = Array.length want && Array.for_all2 ( == ) got want))
    [ comd_like; lulesh_like ]

let suite =
  [
    ( "pareto",
      [
        Alcotest.test_case "enumerate" `Quick test_enumerate_size;
        Alcotest.test_case "nondominated" `Quick test_pareto_nondominated;
        Alcotest.test_case "monotone frontier" `Quick test_pareto_monotone;
        Alcotest.test_case "convex hull convexity" `Quick test_convex_hull_is_convex;
        Alcotest.test_case "hull subset" `Quick test_hull_subset_of_pareto;
        Alcotest.test_case "table 1 shape" `Quick test_table1_shape;
        Alcotest.test_case "best under power" `Quick test_best_under_power;
        Alcotest.test_case "interpolation" `Quick test_interpolate_between_endpoints;
        Alcotest.test_case "rounding" `Quick test_rounding;
        QCheck_alcotest.to_alcotest prop_blend_at_least_as_fast;
        Alcotest.test_case "oracle on enumerated configurations" `Quick
          test_pareto_matches_oracle_on_enumeration;
        QCheck_alcotest.to_alcotest prop_pareto_matches_oracle;
      ] );
  ]
