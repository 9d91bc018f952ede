(* dse_sweep: Searcher.pareto_sweep ~jobs:2 on Spec.fig8, with a fresh
   Eval_cache each pass. The paper's Fig. 8 exploration: the only workload
   where Pool fans candidate evaluation out and Eval_cache dedups
   overlapping walks. It never runs sign-off, back-end or post-layout
   power. The inputs do not depend on the seed. *)

open Pb_util

let jobs = 2
let spec = Spec.fig8

(* A sweep's result as text: every cloud and frontier point's PPA in hex,
   so two sweeps compare exactly. *)
let describe (front, cloud) =
  let line (p : Design_point.t) =
    Printf.sprintf "%h %h %h" p.Design_point.crit_ps p.Design_point.area_um2
      p.Design_point.power_w
  in
  ( List.length front,
    List.length cloud,
    String.concat ";" (List.map line front) ^ "|" ^ String.concat ";" (List.map line cloud) )

let sweep ?(jobs = jobs) ctx =
  let cache = Eval_cache.create () in
  settle ();
  let r, t =
    time_op (fun () ->
        Searcher.pareto_sweep ~jobs ~cache (Ctx.lib ctx) (Ctx.scl ctx) spec)
  in
  (describe r, Eval_cache.stats cache, t)

(* A fresh context and one warm-up sweep. *)
let setup () =
  let ctx = Ctx.with_jobs jobs (Ctx.fresh ()) in
  ignore (sweep ctx);
  ctx

let run ~seed:_ ~seconds =
  let tally = tally () in
  let ctx, setup_s = setups setup in
  let (front_n, cloud_n, reference), _, _ = sweep ~jobs:1 ctx in
  let times = ref [] and points = ref 0 and hits = ref 0 and misses = ref 0 in
  loop ~seconds (fun _ ->
      let (f, c, d), st, t = sweep ctx in
      record tally (d = reference)
        (Printf.sprintf "jobs=2 sweep differs from jobs=1 (front %d vs %d, cloud %d vs %d)"
           f front_n c cloud_n);
      times := t :: !times;
      points := !points + c;
      hits := !hits + st.Eval_cache.hits;
      misses := !misses + st.Eval_cache.misses);
  let ms = ms_of_s !times in
  report "dse_sweep (jobs=%d, fresh Eval_cache per sweep, seed-independent)" jobs;
  report "sweep_s  median %.4f s  (n=%d); front %d, cloud %d points" (median ms /. 1e3)
    (List.length ms) front_n cloud_n;
  report "eval cache over all sweeps: %d hits / %d evaluations (measured, not exact)"
    !hits !misses;
  {
    tally;
    metrics =
      end_to_end ~setup_s ~light_ms:(median ms) ~heavy_ms:(median ms)
        ~throughput:(ratio (float_of_int !points) (sum !times));
  }

let prefs =
  [ Spec.Prefer_power; Spec.Prefer_area; Spec.Prefer_performance; Spec.Balanced ]

(* Searcher.pareto_sweep re-driven through the calls it makes: the four
   preference walks, then the exploration lattice, over one shared
   evaluation cache; the frontier over (power, area, crit). *)
let traced_sweep ctx =
  let lib = Ctx.lib ctx and scl = Ctx.scl ctx in
  let cache = Eval_cache.create () in
  let r =
    Pb_span.with_ "search.sweep" (fun () ->
        let searched =
          Pb_span.with_ "search.walks" (fun () ->
              Pb_span.pool_map ~jobs "search.walk"
                (fun preference ->
                  (Searcher.search ~cache lib scl { spec with Spec.preference })
                    .Searcher.visited)
                prefs)
          |> List.concat
        in
        let explored =
          Pb_span.with_ "search.lattice" (fun () ->
              Pb_span.pool_map ~jobs "search.lattice_point"
                (Eval_cache.evaluate cache lib spec)
                (Searcher.exploration_lattice spec))
        in
        let all = searched @ explored in
        let meeting = List.filter (fun p -> p.Design_point.meets_mac) all in
        let objectives (p : Design_point.t) =
          [| p.Design_point.power_w; p.Design_point.area_um2; p.Design_point.crit_ps |]
        in
        ((Pareto.frontier ~objectives meeting, meeting), all))
  in
  (r, cache)

let traced ~seed:_ =
  let tally = tally () in
  let ctx = setup () in
  let (_, _, reference), _, t_untraced = sweep ctx in
  Pb_span.enable ();
  let scl0 = Ctx.scl_stats ctx in
  settle ();
  let (((front, cloud), all), cache), t_traced = time (fun () -> traced_sweep ctx) in
  let scl1 = Ctx.scl_stats ctx in
  let _, _, d = describe (front, cloud) in
  record tally (d = reference) "traced sweep differs from untraced";
  Pb_span.with_ "replay" (fun () ->
      Pb_replay.candidates tally (Ctx.lib ctx) (List.map (fun p -> (spec, p)) all));
  let st = Eval_cache.stats cache in
  report "dse_sweep traced pass";
  Pb_layers.report_self ();
  {
    tally;
    metrics =
      Pb_layers.metrics
        {
          Pb_layers.no_extra with
          untraced_ms = 1e3 *. t_untraced;
          traced_ms = 1e3 *. t_traced;
          eval_hits = st.Eval_cache.hits;
          eval_misses = st.Eval_cache.misses;
          eval_unique = Eval_cache.size cache;
          scl_hits = scl1.Scl.hits - scl0.Scl.hits;
          scl_misses = scl1.Scl.misses - scl0.Scl.misses;
          jobs;
        };
  }
