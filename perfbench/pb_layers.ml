(* The per-layer metrics of a traced run, read off the recorded spans and
   counters. Times are totals over the traced pass unless the name says
   otherwise; a layer the workload never reaches reads 0. *)

open Pb_util

(** What a workload measured besides its spans. *)
type extra = {
  untraced_ms : float;  (** the pass without spans *)
  traced_ms : float;  (** the same pass with spans, replays excluded *)
  eval_hits : int;  (** search evaluation-cache counters *)
  eval_misses : int;
  eval_unique : int;  (** distinct configurations evaluated *)
  disk : Disk_cache.stats option;
  scl_hits : int;  (** subcircuit-library memo, during the traced pass *)
  scl_misses : int;
  jobs : int;
}

let no_extra =
  {
    untraced_ms = 0.0;
    traced_ms = 0.0;
    eval_hits = 0;
    eval_misses = 0;
    eval_unique = 0;
    disk = None;
    scl_hits = 0;
    scl_misses = 0;
    jobs = 1;
  }

(** [add_searches x searches] — fold the evaluation-cache counters of
    compile attempts into [x]; each attempt has its own cache, so its
    distinct configurations are the distinct keys it visited. *)
let add_searches x (searches : Pipeline.search_art list) =
  List.fold_left
    (fun x (sa : Pipeline.search_art) ->
      let s = sa.Pipeline.search.Searcher.spec in
      let keys =
        Pb_replay.unique (List.map (fun p -> (s, p)) sa.Pipeline.search.Searcher.visited)
      in
      {
        x with
        eval_hits = x.eval_hits + sa.Pipeline.cache.Eval_cache.hits;
        eval_misses = x.eval_misses + sa.Pipeline.cache.Eval_cache.misses;
        eval_unique = x.eval_unique + List.length keys;
      })
    x searches

(* Summed duration of the direct children of every span named [name]. *)
let children_ms name =
  let ids = Hashtbl.create 16 in
  List.iter (fun (s : Pb_span.span) -> Hashtbl.replace ids s.Pb_span.id ())
    (Pb_span.named name);
  List.fold_left
    (fun acc (s : Pb_span.span) ->
      if Hashtbl.mem ids s.Pb_span.parent then acc +. Pb_span.dur_ms s else acc)
    0.0 (Pb_span.all ())

let metrics (x : extra) : metric list =
  let self = Pb_span.self_ms () in
  let self_of name = Option.value (List.assoc_opt name self) ~default:0.0 in
  let ms name = Pb_span.total_ms name in
  let c name = Pb_span.count name in
  let f = float_of_int in
  let evals = f x.eval_misses in
  let duplicates = f (x.eval_misses - x.eval_unique) in
  let pool_wall = ms "pool.map" and pool_busy = children_ms "pool.map" in
  (* search work: compile search stages, or the sweep's walk and lattice
     tasks summed over both domains *)
  let search_ms = ms "core.search" +. ms "search.walk" +. ms "search.lattice_point" in
  let disk field =
    match x.disk with Some s -> f (field s) | None -> 0.0
  in
  [
    m "core.search_ms" "ms" (ms "core.search");
    m "core.signoff_ms" "ms" (ms "core.signoff");
    m "core.backend_ms" "ms" (ms "core.backend");
    m "core.backend_self_ms" "ms" (self_of "core.backend");
    m "core.power_ms" "ms" (ms "core.power");
    m "core.attempts" "count" (c "core.attempts");
    m "search.candidates" "count" (c "search.candidates");
    m "search.evaluate_ms" "ms" (Pb_span.mean_ms "search.evaluate");
    m "search.evaluate_self_ms" "ms"
      (ratio (self_of "search.evaluate") (Pb_span.calls "search.evaluate"));
    m "search.walk_ms" "ms" (Pb_span.mean_ms "search.walk");
    m "search.lattice_ms" "ms" (ms "search.lattice");
    m "search.evaluations" "count" evals;
    m "search.eval_cache_hits" "count" (f x.eval_hits);
    m "search.eval_cache_hit_ratio" "ratio"
      (ratio (f x.eval_hits) (f (x.eval_hits + x.eval_misses)));
    m "search.duplicate_evals" "count" duplicates;
    m "search.duplicate_share" "ratio" (ratio duplicates evals);
    m "search.replay_share" "ratio" (ratio (ms "search.evaluate") search_ms);
    m "rtl.build_ms" "ms" (ms "rtl.build");
    m "rtl.insts" "count" (c "rtl.insts");
    m "rtl.signoff_ms" "ms" (ms "core.signoff");
    m "rtl.signoff_macs" "count" (c "rtl.signoff_macs");
    m "sta.sizing_ms" "ms" (ms "sta.sizing");
    m "sta.upsized" "count" (c "sta.upsized");
    m "sta.analyze_ms" "ms" (ms "sta.analyze");
    m "sta.eco_sizing_ms" "ms" (ms "sta.eco_sizing");
    m "netlist.fanout_loads_ms" "ms" (ms "netlist.fanout_loads");
    m "netlist.stats_ms" "ms" (ms "netlist.stats");
    m "power.search_sim_ms" "ms" (ms "power.search_sim");
    m "power.post_layout_ms" "ms" (ms "core.power");
    m "layout.place_ms" "ms" (ms "layout.place");
    m "layout.route_ms" "ms" (ms "layout.route");
    m "layout.drc_ms" "ms" (ms "layout.drc");
    m "layout.lvs_ms" "ms" (ms "layout.lvs");
    m "layout.wire_sta_ms" "ms" (ms "layout.wire_sta");
    m "layout.eco_iters" "count" (c "layout.eco_iters");
    m "layout.eco_rollbacks" "count" (c "layout.eco_rollbacks");
    m "verify.build_ms" "ms" (ms "verify.build");
    m "verify.diffcheck_ms" "ms" (ms "verify.diffcheck");
    m "verify.checks" "count" (c "verify.checks");
    m "verify.metamorph_ms" "ms" (ms "verify.metamorph");
    m "verify.shrink_ms" "ms" (ms "verify.shrink");
    m "verify.shrink_steps" "count" (c "verify.shrink_steps");
    m "cache.fingerprint_ms" "ms" (ms "cache.fingerprint");
    m "cache.key_ms" "ms" (ms "cache.key");
    m "cache.lookup_ms" "ms" (ms "cache.lookup");
    m "cache.store_ms" "ms" (ms "cache.store");
    m "cache.hits" "count" (disk (fun s -> s.Disk_cache.hits));
    m "cache.misses" "count" (disk (fun s -> s.Disk_cache.misses));
    m "cache.corrupt" "count" (disk (fun s -> s.Disk_cache.corrupt));
    m "pool.busy_share" "ratio" (ratio pool_busy (f x.jobs *. pool_wall));
    m "pool.busy_ms" "ms" pool_busy;
    m "pool.wall_ms" "ms" pool_wall;
    m "pool.jobs" "count" (f x.jobs);
    m "scl.hits" "count" (f x.scl_hits);
    m "scl.misses" "count" (f x.scl_misses);
    m "trace.untraced_ms" "ms" x.untraced_ms;
    m "trace.traced_ms" "ms" x.traced_ms;
    m "trace.overhead_ms" "ms" (x.traced_ms -. x.untraced_ms);
    m "trace.overhead_share" "ratio" (ratio (x.traced_ms -. x.untraced_ms) x.untraced_ms);
    m "trace.spans" "count" (f (List.length (Pb_span.all ())));
  ]

(** Self time per span name, for the human report. *)
let report_self () =
  report "self time per span (ms, summed over the traced pass):";
  List.iter (fun (name, v) -> report "  %-24s %10.2f" name v) (Pb_span.self_ms ())
