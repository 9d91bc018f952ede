(* canonical_compile: Pipeline.run, no disk cache, jobs=1, on the three
   canonical specs. Search dominates; the back-end comes second; the
   Fig. 8 spec's two retries are where incremental evaluation would show.
   The inputs do not depend on the seed. *)

open Pb_util

let jobs = 1

let specs =
  [
    ("compile_16x16", { Spec.fig8 with Spec.rows = 16; cols = 16; mcr = 1 });
    ("compile_32x32", { Spec.fig8 with Spec.rows = 32; cols = 32; mcr = 1 });
    ("compile_fig8", Spec.fig8);
  ]

(* Compiles per round: the 16x16 spec takes 35 ms and the Fig. 8 spec
   2.2 s, so the small spec runs more often to get a steady median. *)
let reps_per_round = [ 4; 1; 1 ]

let ppa (r : Pipeline.run) = ppa_line (Pipeline.summary_of_run r)

(* One compile, checked: it must succeed and, given the reference PPA of
   the same spec, report that PPA. *)
let compile ?reference tally ctx (name, spec) =
  settle ();
  let r, t = time_op (fun () -> Pipeline.run ctx spec) in
  (match (r, reference) with
  | Error d, _ -> record tally false (name ^ ": " ^ Diag.to_string d)
  | Ok r, Some ref_ppa -> record tally (ppa r = ref_ppa) (name ^ ": PPA differs between runs")
  | Ok _, None -> record tally true name);
  (r, t)

(* A fresh jobs=1 context, and one warm-up compile of each spec, whose
   PPA is the reference for the timed compiles. Only the PPA line is kept:
   holding the three runs raised the top heap from about 150 MB to 560 MB,
   and every timed compile then paid for marking that heap. *)
let setup tally () =
  let ctx = Ctx.with_jobs jobs (Ctx.fresh ()) in
  let refs =
    List.map
      (fun ((name, _) as s) ->
        (name, Result.to_option (Result.map ppa (fst (compile tally ctx s)))))
      specs
  in
  (ctx, refs)

(* The golden snapshot is read, never written. *)
let check_snapshot tally ctx =
  match Snapshot.check ~dir:(Filename.concat "test" "snapshots") ctx with
  | Ok _ -> record tally true "snapshot"
  | Error report -> record tally false ("PPA snapshot differs:\n" ^ report)

let run ~seed:_ ~seconds =
  let tally = tally () in
  let (ctx, refs), setup_s = setups (setup tally) in
  check_snapshot tally ctx;
  let samples = Hashtbl.create 3 in
  loop ~seconds (fun _ ->
      List.iter2
        (fun ((name, _) as s) reps ->
          for _ = 1 to reps do
            let _, t = compile ?reference:(List.assoc name refs) tally ctx s in
            Hashtbl.add samples name t
          done)
        specs reps_per_round);
  let ms name = ms_of_s (Hashtbl.find_all samples name) in
  let all = Hashtbl.fold (fun _ t acc -> t :: acc) samples [] in
  report "canonical_compile (jobs=1, no disk cache, seed-independent)";
  List.iter
    (fun (name, _) ->
      let xs = ms name in
      report "%s_ms  median %.2f ms  (n=%d)%s" name (median xs) (List.length xs)
        (match tail xs with
        | Some t -> Printf.sprintf "  p%g %.2f ms (%d beyond)" t.pct t.value t.beyond
        | None -> ""))
    specs;
  report "compile_fig8_s  %.4f s" (median (ms "compile_fig8") /. 1e3);
  {
    tally;
    metrics =
      end_to_end ~setup_s
        ~light_ms:(median (ms "compile_16x16"))
        ~heavy_ms:(median (ms "compile_fig8"))
        ~throughput:(ratio (float_of_int (List.length all)) (sum all));
  }

(* Traced run, spec by spec: an untraced compile, the same compile
   replayed stage by stage under spans, then every search candidate it
   evaluated replayed call by call. *)
let traced ~seed:_ =
  let tally = tally () in
  let ctx, _ = setup tally () in
  check_snapshot tally ctx;
  Pb_span.enable ();
  let lib = Ctx.lib ctx in
  let acc = ref Pb_layers.no_extra in
  List.iteri
    (fun i ((name, spec) as s) ->
      let untraced, t_untraced = compile tally ctx s in
      let scl0 = Ctx.scl_stats ctx in
      settle ();
      let traced, t_traced =
        time (fun () -> Pb_span.with_ ~req:i name (fun () -> Pb_replay.compile ctx spec))
      in
      let scl1 = Ctx.scl_stats ctx in
      let x = !acc in
      acc :=
        {
          x with
          untraced_ms = x.untraced_ms +. (1e3 *. t_untraced);
          traced_ms = x.traced_ms +. (1e3 *. t_traced);
          scl_hits = x.scl_hits + scl1.Scl.hits - scl0.Scl.hits;
          scl_misses = x.scl_misses + scl1.Scl.misses - scl0.Scl.misses;
        };
      match (traced, untraced) with
      | Ok t, Ok r ->
          record tally (Pb_replay.same_run t r) (name ^ ": traced compile differs from untraced");
          acc := Pb_layers.add_searches !acc t.Pb_replay.searches;
          Pb_span.with_ ~req:i "replay" (fun () ->
              Pb_replay.candidates tally lib (Pb_replay.visited t))
      | _ -> record tally false (name ^ ": traced compile failed"))
    specs;
  report "canonical_compile traced pass";
  Pb_layers.report_self ();
  { tally; metrics = Pb_layers.metrics !acc }
