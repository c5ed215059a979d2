(* The benchmark's entry point: runs one workload and prints its numbers.

     main.exe --workload sweep16|bound512|serve --seed N --seconds S
              --trace 0|1 --powerlim PATH

   [--trace 0] measures the end-to-end metrics untraced; [--trace 1]
   records spans and counter deltas and prints the per-layer metrics.
   stdout ends with one JSON line: correct, attempted, failed and the
   metrics.  Above it: the workload's headline numbers by name and unit,
   and a host line.  Failed operations are listed on stderr. *)

module H = Harness

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep16|bound512|serve --seed N --seconds S --trace 0|1 \
     --powerlim PATH";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  (get "workload", int "seed", int "seconds", int "trace" = 1, get "powerlim")

(* A stray knob would skew the baseline: the benchmark measures the
   defaults users get, so any POWERLIM_* variable refuses the run. *)
let knobs () =
  Array.to_list (Unix.environment ())
  |> List.filter (String.starts_with ~prefix:"POWERLIM_")

let host_line ~workload ~seed ~seconds ~trace =
  let open Putil.Obs in
  json_to_string
    (Assoc
       [
         ( "host",
           Assoc
             [
               ("nproc", Int (H.nproc ()));
               ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
               ("pool_parallelism", Int (Putil.Pool.parallelism (Putil.Pool.get_default ())));
               ("ocaml_version", String Sys.ocaml_version);
             ] );
         ("workload", String workload);
         ("seed", Int seed);
         ("seconds", Int seconds);
         ("trace", Bool trace);
       ])

let () =
  let workload, seed, seconds, trace, powerlim = args () in
  (match knobs () with
  | [] -> ()
  | ks ->
      Printf.eprintf "perfbench: refusing to run with %s set: the benchmark measures the defaults\n"
        (String.concat ", " ks);
      exit 2);
  (* a daemon that dies mid-run must fail writes, not kill the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let secs = Float.of_int seconds in
  let r =
    match workload with
    | "sweep16" -> Wl_sweep.run ~seconds:secs ~trace ~powerlim
    | "bound512" -> Wl_bound.run ~seconds:secs ~trace
    | "serve" -> Wl_serve.run ~seconds:secs ~seed ~trace ~powerlim
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n" w;
        exit 2
  in
  List.iter (fun e -> Printf.eprintf "perfbench: failed: %s\n" e) r.H.errors;
  List.iter (fun (name, v, u) -> Printf.printf "%-24s %14.6g %s\n" name v u) r.H.report;
  if trace then List.iter (fun m -> Printf.printf "  %-30s %14.6g %s\n" m.H.name m.H.value m.H.unit_) r.H.metrics;
  print_endline (host_line ~workload ~seed ~seconds ~trace);
  print_endline (H.result_line r)
