(* The SynDCIM compiler benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one closed-loop workload (one client, at most 2 domains), checks
   every output, and prints a human report followed by one JSON result
   line: the end-to-end metrics of the untraced run, or the per-layer
   metrics of a traced run. End-to-end times are scaled to a reference
   host speed (see Pb_util). [--workload all] runs the four workloads in
   turn. See perfbench/README.md for the workloads and metrics. *)

open Pb_util

let workloads =
  [
    ("canonical_compile", (Pb_canonical.jobs, Pb_canonical.run, Pb_canonical.traced));
    ("dse_sweep", (Pb_dse.jobs, Pb_dse.run, Pb_dse.traced));
    ("verify_campaign", (Pb_verify.jobs, Pb_verify.run, Pb_verify.traced));
    ("cached_service", (Pb_service.jobs, Pb_service.run, Pb_service.traced));
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe --workload (%s|all) [--seed N] [--seconds S] [--trace 0|1]\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let parse () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 and trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some n -> seed := n; go rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0.0 -> seconds := s; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w when w = "all" || List.mem_assoc w workloads -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

(* A metric that is not a finite number fails the run rather than print
   invalid JSON. *)
let finite (o : outcome) =
  List.map
    (fun x ->
      if Float.is_finite x.value then x
      else begin
        record o.tally false (x.name ^ " is not a finite number");
        { x with value = 0.0 }
      end)
    o.metrics

let run_one name ~seed ~seconds ~trace =
  let jobs, run, traced = List.assoc name workloads in
  Pb_span.reset ();
  start_speed ~domains:jobs;
  Printf.printf "workload %s  seed %d  %s\n%!" name seed
    (if trace then "traced" else Printf.sprintf "%.0f s" seconds);
  let o = if trace then traced ~seed else run ~seed ~seconds in
  if trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" name seed) in
    Pb_span.write path;
    report "spans written to %s" path
  end;
  let metrics = finite o in
  report "GC top heap %.1f MB, peak RSS %.1f MB" (peak_heap_mb ()) (peak_rss_mb ());
  report "operations: %d attempted, %d failed (error rate %g)" o.tally.attempted
    o.tally.failed (ratio (float_of_int o.tally.failed) (float_of_int o.tally.attempted));
  ({ o with metrics }, name)

let () =
  let workload, seed, seconds, trace = parse () in
  mkdir_p out_dir;
  let names = if workload = "all" then List.map fst workloads else [ workload ] in
  let outcomes = List.map (fun n -> run_one n ~seed ~seconds ~trace) names in
  let attempted = List.fold_left (fun a (o, _) -> a + o.tally.attempted) 0 outcomes in
  let failed = List.fold_left (fun a (o, _) -> a + o.tally.failed) 0 outcomes in
  let metrics =
    match outcomes with
    | [ (o, _) ] -> o.metrics
    | _ ->
        List.concat_map
          (fun (o, n) -> List.map (fun x -> { x with name = n ^ "." ^ x.name }) o.metrics)
          outcomes
  in
  print_endline
    (result_line ~correct:(failed = 0 && attempted > 0) ~attempted ~failed metrics)
