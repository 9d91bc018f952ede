(* The traced compile: Pipeline.run re-driven through its public stage
   values, with the back-end's Post_layout.run and every search candidate's
   Design_point.evaluate re-run call by call under spans. The replay must
   reproduce the untraced result bit for bit; if it does not, the traced
   run measured a different program and the benchmark fails. *)

let ( let* ) = Result.bind
let span = Pb_span.with_

(* Post_layout.run (SDP style), one span per call. *)
let post_layout lib (m : Macro_rtl.t) : Post_layout.t =
  let placement = span "layout.place" (fun () -> Floorplan.sdp lib m) in
  let routing = span "layout.route" (fun () -> Route.build placement) in
  let drc_violations = span "layout.drc" (fun () -> Drc.check lib placement) in
  if drc_violations <> [] then
    raise (Post_layout.Signoff_failed "DRC violations in the replay");
  let lvs = span "layout.lvs" (fun () -> Lvs.check placement) in
  if not lvs.Lvs.clean then
    raise (Post_layout.Signoff_failed "LVS errors in the replay");
  let wire_cap = Route.wire_cap_fn routing lib.Library.node in
  let sta =
    span "layout.wire_sta" (fun () ->
        Sta.analyze ~wire_cap m.Macro_rtl.design lib)
  in
  {
    Post_layout.placement;
    routing;
    drc_violations;
    lvs;
    sta;
    area_mm2 = Floorplan.area_mm2 placement;
    total_wirelength_mm = routing.Route.total_wirelength_um /. 1e3;
  }

(* The back-end stage's ECO re-closure loop over the replayed
   Post_layout.run. Iteration records carry no reason text; they are
   compared with the untraced run field by field. *)
let backend lib ~budget_ps ~max_eco_iters (macro : Macro_rtl.t) :
    Pipeline.backend_art =
  let design = macro.Macro_rtl.design in
  let iters = ref [] and capped = ref false in
  let rec eco_loop iter (pass : Post_layout.t) =
    let crit = pass.Post_layout.sta.Sta.crit_ps in
    if crit <= budget_ps then pass
    else if iter >= max_eco_iters then begin
      capped := max_eco_iters > 0;
      pass
    end
    else begin
      let snap = Sizing.snapshot design in
      let wire_cap =
        Route.wire_cap_fn pass.Post_layout.routing lib.Library.node
      in
      let sized =
        span "sta.eco_sizing" (fun () ->
            Sizing.speed_up ~wire_cap design lib ~target_ps:budget_ps)
      in
      let next = post_layout lib macro in
      let next_crit = next.Post_layout.sta.Sta.crit_ps in
      let record rolled_back =
        {
          Pipeline.iter;
          crit_before_ps = crit;
          crit_after_ps = next_crit;
          upsized = sized.Sizing.upsized;
          rolled_back;
          reason = "";
        }
      in
      Pb_span.add "layout.eco_iters" 1.0;
      if next_crit >= crit -. 1.0 then begin
        Sizing.restore design snap;
        Pb_span.add "layout.eco_rollbacks" 1.0;
        iters := record true :: !iters;
        post_layout lib macro
      end
      else begin
        iters := record false :: !iters;
        eco_loop (iter + 1) next
      end
    end
  in
  let signoff = eco_loop 0 (post_layout lib macro) in
  let eco = List.rev !iters in
  let upsized =
    List.fold_left
      (fun acc (i : Pipeline.eco_iteration) ->
        if i.Pipeline.rolled_back then acc else acc + i.Pipeline.upsized)
      0 eco
  in
  { Pipeline.signoff; eco; eco_capped = !capped; upsized }

type traced = {
  run : Pipeline.run;
  searches : Pipeline.search_art list;  (** one per attempt, in order *)
}

(** [compile ctx spec] — Pipeline.run with the default policy, stage by
    stage under spans, the back-end call by call. *)
let compile (ctx : Ctx.t) (spec : Spec.t) : (traced, Diag.t) result =
  let lib = Ctx.lib ctx and scl = Ctx.scl ctx in
  let policy = Pipeline.default_policy in
  let budget_ps = Spec.nominal_budget_ps spec lib.Library.node in
  let rec attempt acc searches boost =
    let* sa =
      span "core.search" (fun () ->
          Stage.execute (Pipeline.search_stage lib scl ~boost) spec)
    in
    let* sa =
      span "core.signoff" (fun () ->
          Stage.execute
            (Pipeline.verify_stage ~engine:(Ctx.verify_engine ctx)
               ~enabled:policy.Pipeline.verify ())
            sa)
    in
    Pb_span.add "rtl.signoff_macs"
      (float_of_int
         (Pipeline.verify_batches * sa.Pipeline.macro.Macro_rtl.cfg.Macro_rtl.mcr));
    let* ba =
      span "core.backend" (fun () ->
          Diag.guard ~stage:Pipeline.stage_backend ~spec (fun () ->
              backend lib ~budget_ps
                ~max_eco_iters:policy.Pipeline.max_eco_iters
                sa.Pipeline.macro))
    in
    let* power =
      span "core.power" (fun () ->
          Stage.execute
            (Pipeline.power_stage lib ~spec)
            (sa.Pipeline.macro, ba.Pipeline.signoff))
    in
    let* v =
      Stage.execute (Pipeline.metrics_stage lib ~policy) (sa, ba, power)
    in
    Pb_span.add "core.attempts" 1.0;
    let acc =
      acc
      @ [
          {
            Pipeline.attempt_boost = boost;
            attempt_cache = sa.Pipeline.cache;
            attempt_eco = ba.Pipeline.eco;
            attempt_closed = v.Pipeline.timing_closed;
          };
        ]
    in
    let searches = searches @ [ sa ] in
    match v.Pipeline.retry_boost with
    | Some b -> attempt acc searches b
    | None ->
        Ok
          {
            run =
              {
                Pipeline.artifact =
                  {
                    Pipeline.spec;
                    search = sa.Pipeline.search;
                    macro = sa.Pipeline.macro;
                    signoff = ba.Pipeline.signoff;
                    power;
                    metrics = v.Pipeline.metrics;
                    timing_closed = v.Pipeline.timing_closed;
                  };
                attempts = acc;
              };
            searches;
          }
  in
  attempt [] [] 1.0

(* Attempts agree when boosts, verdicts, eval-cache counters and every ECO
   iteration (less its reason text) agree. *)
let same_attempts (a : Pipeline.attempt list) (b : Pipeline.attempt list) =
  let eco_eq (x : Pipeline.eco_iteration) (y : Pipeline.eco_iteration) =
    x.Pipeline.iter = y.Pipeline.iter
    && Pb_util.same_float x.Pipeline.crit_before_ps y.Pipeline.crit_before_ps
    && Pb_util.same_float x.Pipeline.crit_after_ps y.Pipeline.crit_after_ps
    && x.Pipeline.upsized = y.Pipeline.upsized
    && x.Pipeline.rolled_back = y.Pipeline.rolled_back
  in
  List.length a = List.length b
  && List.for_all2
       (fun (x : Pipeline.attempt) (y : Pipeline.attempt) ->
         Pb_util.same_float x.Pipeline.attempt_boost y.Pipeline.attempt_boost
         && x.Pipeline.attempt_closed = y.Pipeline.attempt_closed
         && x.Pipeline.attempt_cache = y.Pipeline.attempt_cache
         && List.length x.Pipeline.attempt_eco = List.length y.Pipeline.attempt_eco
         && List.for_all2 eco_eq x.Pipeline.attempt_eco y.Pipeline.attempt_eco)
       a b

(** [same_run traced untraced] — identical PPA and attempt history. *)
let same_run (t : traced) (r : Pipeline.run) =
  Pb_util.ppa_line (Pipeline.summary_of_run t.run)
  = Pb_util.ppa_line (Pipeline.summary_of_run r)
  && same_attempts t.run.Pipeline.attempts r.Pipeline.attempts

(** [evaluate lib search_spec p] — re-run the calls
    Design_point.evaluate makes for candidate [p], one span each, and
    check crit, area, power and the upsize count bit for bit. *)
let evaluate lib (search_spec : Spec.t) (p : Design_point.t) : bool =
  span "search.evaluate" (fun () ->
      let macro = span "rtl.build" (fun () -> Macro_rtl.build lib p.Design_point.cfg) in
      let design = macro.Macro_rtl.design in
      let budget = Spec.search_budget_ps search_spec lib.Library.node in
      let sized =
        span "sta.sizing" (fun () -> Sizing.speed_up design lib ~target_ps:budget)
      in
      let loads =
        span "netlist.fanout_loads" (fun () -> Ir.fanout_loads design lib ())
      in
      let sta = span "sta.analyze" (fun () -> Sta.analyze ~loads design lib) in
      let stats = span "netlist.stats" (fun () -> Stats.of_design design lib) in
      let power =
        span "power.search_sim" (fun () ->
            Design_point.measure_power ~loads lib macro
              ~freq_hz:search_spec.Spec.mac_freq_hz ~vdd:search_spec.Spec.vdd
              ~input_density:Design_point.search_input_density
              ~weight_density:Design_point.search_weight_density
              ~macs:Design_point.search_macs)
      in
      Pb_span.add "rtl.insts" (float_of_int (Ir.n_insts design));
      Pb_span.add "sta.upsized" (float_of_int sized.Sizing.upsized);
      Pb_util.same_float sta.Sta.crit_ps p.Design_point.crit_ps
      && Pb_util.same_float stats.Stats.area_um2 p.Design_point.area_um2
      && Pb_util.same_float power.Power.total_w p.Design_point.power_w
      && sized.Sizing.upsized = p.Design_point.upsized)

(** [unique search_spec points] — each evaluated configuration once, in
    first-visit order, keyed as the evaluation cache keys them. *)
let unique (pairs : (Spec.t * Design_point.t) list) =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (s, (p : Design_point.t)) ->
      let k = Eval_cache.key s p.Design_point.cfg in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    pairs

(** [candidates tally lib pairs] — replay every unique candidate under a
    [search.replay] span; each counts as one checked operation. *)
let candidates tally lib pairs =
  let pairs = unique pairs in
  Pb_span.add "search.candidates" (float_of_int (List.length pairs));
  span "search.replay" (fun () ->
      List.iter
        (fun (s, (p : Design_point.t)) ->
          Pb_util.settle ();
          Pb_util.record tally (evaluate lib s p)
            (Printf.sprintf "candidate replay differs: %s" (Design_point.summary p)))
        pairs)

(** The candidates one traced compile evaluated, with the spec each was
    evaluated against (the boosted one on a retry). *)
let visited (t : traced) =
  List.concat_map
    (fun (sa : Pipeline.search_art) ->
      let s = sa.Pipeline.search.Searcher.spec in
      List.map (fun p -> (s, p)) sa.Pipeline.search.Searcher.visited)
    t.searches
