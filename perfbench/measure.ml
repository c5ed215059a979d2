(* The benchmark's arithmetic: order statistics over samples, per-span
   busy and self time from recorded trace events, and open-loop request
   timing.  Pure functions, unit tested in test/. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Median; the mean of the two middle samples for an even count. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   all samples at or below it.  The epsilon keeps a rank that is a whole
   number in exact arithmetic (99.9% of 10,000) from rounding up. *)
let rank ~n p =
  max 1 (min n (int_of_float (Float.ceil ((p *. Float.of_int n /. 100.0) -. 1e-9))))

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~n p - 1)

(* Samples strictly beyond the nearest-rank [p] percentile. *)
let beyond ~n p = n - rank ~n p

(* Samples a tail percentile must leave beyond it, and the percentiles
   it may be, highest first. *)
let min_beyond = 10
let tail_percentiles = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest of [tail_percentiles] that still leaves at least
   [min_beyond] samples beyond it, with its value: a tail estimate
   backed by enough samples to mean something.  [None] when even p50
   has too few samples beyond it. *)
let tail xs =
  let n = List.length xs in
  List.find_map
    (fun p -> if beyond ~n p >= min_beyond then Some (p, percentile p xs) else None)
    tail_percentiles

(* ---- spans ---------------------------------------------------------- *)

(* Totals of every span of one (category, name): how many closed, the
   summed duration, and the summed self time — each span's duration
   minus the part of it its direct children on the same domain cover.
   Children on one domain never overlap, so that part is the sum of
   their durations. *)
type span_total = { count : int; busy_s : float; self_s : float; durations : float list }

let no_spans = { count = 0; busy_s = 0.0; self_s = 0.0; durations = [] }

type frame = { f_key : string * string; f_start : float; mutable f_child : float }

let span_totals (events : Putil.Obs.event list) =
  let totals = Hashtbl.create 16 in
  let stacks = Hashtbl.create 4 in
  let close key dur self =
    let t = Option.value (Hashtbl.find_opt totals key) ~default:no_spans in
    Hashtbl.replace totals key
      {
        count = t.count + 1;
        busy_s = t.busy_s +. dur;
        self_s = t.self_s +. self;
        durations = dur :: t.durations;
      }
  in
  List.iter
    (fun (e : Putil.Obs.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.tid) ~default:[] in
      match e.ph with
      | 'B' ->
          Hashtbl.replace stacks e.tid
            ({ f_key = (e.cat, e.name); f_start = e.ts; f_child = 0.0 } :: stack)
      | 'E' -> (
          match stack with
          | f :: rest ->
              let dur = e.ts -. f.f_start in
              close f.f_key dur (dur -. f.f_child);
              (match rest with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
              Hashtbl.replace stacks e.tid rest
          | [] -> ())
      | _ -> ())
    events;
  totals

let find_total totals ~cat name = Option.value (Hashtbl.find_opt totals (cat, name)) ~default:no_spans

(* ---- open-loop timing ----------------------------------------------- *)

(* One open-loop request: when the schedule said to send it, when it
   was actually sent and when its answer arrived (seconds, one clock). *)
type timing = { due : float; sent : float; answered : float }

(* Latency is taken from the due time, not the send time, so a stall in
   the generator or in the system counts against every request it held
   back, not just against the one that hit it. *)
let latency t = t.answered -. t.due

(* How late the generator itself sent the request. *)
let lateness t = Float.max 0.0 (t.sent -. t.due)
