(* Output checks.  A run whose output fails one of these counts as a
   failed operation: the benchmark reports speed only for right answers. *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ---- sweep16 -------------------------------------------------------- *)

(* Digest of the stdout bytes [powerlim sweep] prints at its defaults
   (16 ranks, 10 iterations, seed 42). *)
let sweep16_digest = "78a9f4d00fef73895f576f1e78e07c6a"

let sweep_output ~expected_digest out =
  let d = Digest.to_hex (Digest.string out) in
  if d = expected_digest then Ok ()
  else fail "sweep stdout digest %s, expected %s" d expected_digest

(* Replay.validate's tolerance: sustained power may exceed the job cap
   by 2%. *)
let within_cap ~max_power ~job_cap = max_power <= (job_cap *. 1.02) +. 1e-6

(* Schedulable points whose validated LP replay exceeds the job cap
   beyond that tolerance. *)
let over_cap (points : Experiments.Common.point list) =
  List.filter
    (fun (p : Experiments.Common.point) ->
      p.schedulable && not (within_cap ~max_power:p.lp_max_power ~job_cap:p.job_cap))
    points

(* ---- bound512 ------------------------------------------------------- *)

(* The LP is a bound: its objective may not exceed the replayed
   makespan, the replay must respect the cap, and the objective must
   equal [reference] to 1e-9 (relative). *)
let bound ~reference ~objective ~replay_makespan ~within_cap =
  let tol x = 1e-9 *. Float.max 1.0 (Float.abs x) in
  if not (Float.is_finite objective) then fail "objective %g" objective
  else if objective > replay_makespan +. tol replay_makespan then
    fail "LP objective %.9f exceeds the replay makespan %.9f" objective replay_makespan
  else if not within_cap then fail "the replay exceeds the power cap"
  else if Float.abs (objective -. reference) > tol reference then
    fail "LP objective %.17g, reference %.17g" objective reference
  else Ok ()

(* ---- serve ---------------------------------------------------------- *)

(* A served response must be [ok], come from the expected tier
   ([none] first, [mem] for repeats, [disk] after a restart), and carry
   the status and stdout bytes of the offline rendering of the same
   request.  The err bytes hold pivot counts that depend on which
   prepared model the daemon had cached, so they are not compared. *)
let served ~(offline : Serve.Handlers.outcome) ~expected_cached
    (resp : Putil.Obs.json) =
  let str k = Serve.Json.get_string k resp in
  match Serve.Json.member "ok" resp with
  | Some (Putil.Obs.Bool true) ->
      if str "cached" <> Some expected_cached then
        fail "cached %s, expected %s"
          (Option.value (str "cached") ~default:"(missing)")
          expected_cached
      else if Serve.Json.get_int "status" resp <> Some offline.status then
        fail "status differs from the offline rendering (%d)" offline.status
      else if str "output" <> Some offline.out then
        fail "output bytes differ from the offline rendering"
      else Ok ()
  | _ ->
      fail "not ok: %s"
        (Option.value (str "error") ~default:(Serve.Json.to_string resp))
