(* verify_campaign: Campaign.run ~jobs:2 over seeded Specgen specs, once
   clean and once with the Retime_early_sample bug injected. Many small
   macros: Macro_rtl.build and the bit-sliced simulator dominate; sizing,
   STA and layout never run. The injected half exercises the failing-lane
   reproducer and the shrinker. *)

open Pb_util

let jobs = 2
let clean_specs = 200
let fault_specs = 40
let bug = Diffcheck.Retime_early_sample

(* Passed to Campaign.run and used by the traced replay alike. *)
let random_batches = 2
let meta_stride = 25

let campaign ?bug ~seed ~count ctx =
  settle ();
  time_op (fun () -> Campaign.run ~jobs ?bug ~random_batches ~meta_stride ~seed ~count ctx)

(* Pass [k] draws both campaigns' specs from the seeds of its input set,
   so a run covers several stratified spec sets rather than one, and the
   same ones however many passes it makes. *)
let seeds seed k =
  let j = if k = 0 then 0 else input_set k in
  (sub_seed seed (2 * j), sub_seed seed ((2 * j) + 1))

(* Known answers: the clean campaign is clean; the injected campaign
   flags every spec. *)
let check_clean tally (r : Campaign.report) =
  record tally
    (Campaign.clean r && r.Campaign.specs = clean_specs)
    (Printf.sprintf "clean campaign (seed %d) is not clean" r.Campaign.seed)

let check_fault tally (r : Campaign.report) =
  let flagged = List.sort_uniq compare (List.map (fun f -> f.Campaign.index) r.Campaign.failures) in
  record tally
    (flagged = List.init fault_specs Fun.id)
    (Printf.sprintf "injected campaign (seed %d) flagged %d of %d specs" r.Campaign.seed
       (List.length flagged) fault_specs)

let pass tally ctx seed k =
  let cs, fs = seeds seed k in
  let rc, tc = campaign ~seed:cs ~count:clean_specs ctx in
  check_clean tally rc;
  let rf, tf = campaign ~bug ~seed:fs ~count:fault_specs ctx in
  check_fault tally rf;
  ((rc, tc), (rf, tf))

(* A fresh context and one warm-up pass. *)
let setup tally () =
  let ctx = Ctx.with_jobs jobs (Ctx.fresh ()) in
  ignore (pass tally ctx warmup_seed 0);
  ctx

let run ~seed ~seconds =
  let tally = tally () in
  let ctx, setup_s = setups (setup tally) in
  let clean = ref [] and fault = ref [] and checks = ref 0 and steps = ref 0 in
  loop_sets ~seconds (fun k ->
      let (rc, tc), (rf, tf) = pass tally ctx seed k in
      clean := tc :: !clean;
      fault := tf :: !fault;
      checks := !checks + rc.Campaign.checks + rf.Campaign.checks;
      steps :=
        List.fold_left (fun a f -> a + f.Campaign.shrink_steps) !steps rf.Campaign.failures);
  let n = List.length !clean in
  let specs_per_s = ratio (float_of_int (n * clean_specs)) (sum !clean) in
  report "verify_campaign (jobs=%d, %d clean + %d injected specs per pass, seed %d)" jobs
    clean_specs fault_specs seed;
  report "campaign_specs_per_s  %.2f 1/s  (%d passes)" specs_per_s n;
  report "fault_campaign_s  median %.4f s  (n=%d)" (median !fault) n;
  report "differential checks %d, shrink steps %d" !checks !steps;
  {
    tally;
    metrics =
      end_to_end ~setup_s
        ~light_ms:(median (ms_of_s !clean))
        ~heavy_ms:(median (ms_of_s !fault))
        ~throughput:specs_per_s;
  }

(* Campaign.run re-driven through the calls it makes, under spans: build
   and differential check per spec on the pool, shrink per failure, and
   the metamorphic properties on clean campaigns. *)
let traced_campaign ?bug ~seed ~count ctx =
  let lib = Ctx.lib ctx and engine = Ctx.verify_engine ctx in
  let indexed = List.mapi (fun i s -> (i, s)) (Specgen.generate ~seed ~count) in
  let spec_seed i = Campaign.spec_seed ~seed i in
  let outcomes =
    Pb_span.pool_map ~jobs ~req:fst "verify.spec"
      (fun (i, s) ->
        let m =
          Pb_span.with_ "verify.build" (fun () -> Macro_rtl.build lib (Spec.initial_config s))
        in
        let o =
          Pb_span.with_ "verify.diffcheck" (fun () ->
              Diffcheck.check_macro ~engine ?bug ~seed:(spec_seed i) ~random_batches m)
        in
        Pb_span.add "verify.checks" (float_of_int o.Diffcheck.checks);
        (i, s, o))
      indexed
  in
  let checks = List.fold_left (fun a (_, _, o) -> a + o.Diffcheck.checks) 0 outcomes in
  let failures =
    List.filter_map
      (fun (i, s, (o : Diffcheck.outcome)) ->
        match o.Diffcheck.failure with
        | None -> None
        | Some _ ->
            let shrunk, steps =
              Pb_span.with_ ~req:i "verify.shrink" (fun () ->
                  Specgen.shrink_to_minimal
                    ~fails:(Diffcheck.fails ?bug ~seed:(spec_seed i) ctx)
                    s)
            in
            Pb_span.add "verify.shrink_steps" (float_of_int steps);
            Some (i, shrunk, steps))
      outcomes
  in
  let properties =
    if bug <> None then []
    else
      Pb_span.with_ "verify.metamorph" (fun () ->
          let moves =
            Pb_span.pool_map ~jobs ~req:fst "verify.metamorph_spec"
              (fun (i, s) ->
                Metamorph.check_moves ~jobs:1 ~seed:(spec_seed i) ctx s
                @ [ Metamorph.check_equiv_pair ~seed:(spec_seed i) ctx s ])
              (List.filter (fun (i, _) -> i mod meta_stride = 0) indexed)
            |> List.concat
          in
          Campaign.tally (moves @ Metamorph.lut_monotonicity ctx))
  in
  (checks, failures, properties)

let same_report (r : Campaign.report) (checks, failures, properties) =
  r.Campaign.checks = checks
  && List.map (fun f -> (f.Campaign.index, f.Campaign.shrunk, f.Campaign.shrink_steps))
       r.Campaign.failures
     = failures
  && r.Campaign.properties = properties

let traced ~seed =
  let tally = tally () in
  let ctx = setup tally () in
  let (rc, tc), (rf, tf) = pass tally ctx seed 1 in
  let cs, fs = seeds seed 1 in
  Pb_span.enable ();
  settle ();
  let c, tc' = time (fun () -> traced_campaign ~seed:cs ~count:clean_specs ctx) in
  settle ();
  let f, tf' = time (fun () -> traced_campaign ~bug ~seed:fs ~count:fault_specs ctx) in
  record tally (same_report rc c) "traced clean campaign differs from untraced";
  record tally (same_report rf f) "traced injected campaign differs from untraced";
  report "verify_campaign traced pass (seed %d)" seed;
  Pb_layers.report_self ();
  {
    tally;
    metrics =
      Pb_layers.metrics
        {
          Pb_layers.no_extra with
          untraced_ms = 1e3 *. (tc +. tf);
          traced_ms = 1e3 *. (tc' +. tf');
          jobs;
        };
  }
