(* Counters the layers already export, read through the one registry
   they all report to ({!Putil.Obs.stats_json}: [lp], [cache], [pool],
   [store], [simulate]).  The same reader serves the benchmark's own
   process and a daemon, whose [stats] op returns that registry under
   ["providers"].  A snapshot is a flat map from dotted names
   (["lp.pivots"], ["cache.caches.prepare.misses"], ["store.puts"]) to
   numbers. *)

module M = Map.Make (String)

type t = float M.t

(* Objects nest by key; in a list, an object with a ["name"] field (one
   per cache) nests under that name; other objects (one per open store)
   are summed field by field. *)
let of_json (j : Putil.Obs.json) : t =
  let rec go prefix acc (j : Putil.Obs.json) =
    let key k = if prefix = "" then k else prefix ^ "." ^ k in
    match j with
    | Int i -> M.add prefix (Float.of_int i) acc
    | Float f -> M.add prefix f acc
    | Bool _ | String _ | Null -> acc
    | Assoc kvs -> List.fold_left (fun acc (k, v) -> go (key k) acc v) acc kvs
    | List items ->
        List.fold_left
          (fun acc item ->
            match item with
            | Putil.Obs.Assoc kvs -> (
                match List.assoc_opt "name" kvs with
                | Some (Putil.Obs.String name) -> go (key name) acc item
                | _ ->
                    M.union (fun _ a b -> Some (a +. b)) acc (go prefix M.empty item))
            | _ -> acc)
          acc items
  in
  go "" M.empty j

let snapshot () = of_json (Putil.Obs.stats_json ())

let get (c : t) name = Option.value (M.find_opt name c) ~default:0.0

(* [after - before], key by key. *)
let diff ~(before : t) ~(after : t) : t =
  M.mapi (fun k v -> v -. get before k) after

let sum (a : t) (b : t) : t = M.union (fun _ x y -> Some (x +. y)) a b

(* [num / den], 0 when nothing was attempted. *)
let ratio num den = if den > 0.0 then num /. den else 0.0
