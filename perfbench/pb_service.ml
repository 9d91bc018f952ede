(* cached_service: one Service over a fresh Disk_cache per pass; a single
   client sends a seeded request stream over distinct Specgen specs, most
   requests repeating an earlier spec. A first sighting is a miss (compile
   and store); a repeat is a hit (a read that bypasses every compile
   layer). The only workload that reaches Disk_cache, the run_cached path
   and Service accounting, and the only one whose inputs share work. *)

open Pb_util

(* A design choice, not a measured traffic share: a miss costs about as
   much as 240 hits, so 2400 requests over 12 specs give hits and misses
   about equal shares of the stream's time, and requests_per_s moves with
   either path. *)
let jobs = 1
let distinct_per_pass = 12
let requests_per_pass = 2400

(* Pass [k]'s distinct specs are indices [12j, 12j+12) of one fixed
   Specgen stream, [j] its input set, so every run compiles the same specs
   however many passes it makes; the seed drives the request stream, each
   request picking one of the pass's specs uniformly. *)
let spec_pool_seed = Ctx.default_seed

let stream seed k =
  let j = if k = 0 then 0 else input_set k in
  let first = j * distinct_per_pass in
  let specs =
    Specgen.generate ~seed:spec_pool_seed ~count:(first + distinct_per_pass)
    |> List.filteri (fun i _ -> i >= first)
    |> Array.of_list
  in
  let rng = Rng.create (sub_seed seed (j + 1)) in
  List.init requests_per_pass (fun _ -> specs.(Rng.int rng distinct_per_pass))

let key = Disk_cache.canonical_spec

(* Which requests repeat an earlier one. *)
let repeats reqs =
  let seen = Hashtbl.create 16 in
  List.map
    (fun s ->
      let k = key s in
      let r = Hashtbl.mem seen k in
      Hashtbl.replace seen k ();
      r)
    reqs

let cache_dir k =
  Filename.concat out_dir
    (Filename.concat "tmp" (Printf.sprintf "service-%d-%d" (Unix.getpid ()) k))

(* A fresh store for one pass, removed afterwards. *)
let with_store k f =
  let dir = cache_dir k in
  rm_rf dir;
  mkdir_p (Filename.dirname dir);
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

type served = { hit : bool; ppa : string; ms : float }

(* Check a pass's answers: every request succeeds, exactly the repeats
   hit, and each hit's PPA equals its miss's byte for byte. *)
let check tally reqs (served : (served, string) result list) =
  let first = Hashtbl.create 16 in
  List.iter2
    (fun (s, repeat) r ->
      match r with
      | Error e -> record tally false ("request failed: " ^ e)
      | Ok r ->
          let k = key s in
          let ok =
            r.hit = repeat
            &&
            match Hashtbl.find_opt first k with
            | Some ppa -> ppa = r.ppa
            | None ->
                Hashtbl.add first k r.ppa;
                true
          in
          record tally ok
            (Printf.sprintf "request for %s: %s" (Spec.describe s)
               (if r.hit <> repeat then "wrong hit/miss" else "hit PPA differs from its miss")))
    (List.combine reqs (repeats reqs))
    served

let outcome_of (o : (Pipeline.summary, Diag.t) result) ms =
  match o with
  | Ok s -> Ok { hit = s.Pipeline.sum_cache = Pipeline.Cache_hit; ppa = ppa_line s; ms }
  | Error d -> Error (Diag.to_string d)

(* One pass through a fresh Service: per-request latency as the client
   sees it, and the Service's own hit count against the stream's repeats. *)
let pass tally ctx seed k =
  let reqs = stream seed k in
  with_store k (fun dir ->
      match Ctx.with_cache_dir dir ctx with
      | Error d ->
          record tally false (Diag.to_string d);
          []
      | Ok cctx ->
          let svc = Service.create cctx in
          settle ();
          let served =
            List.map
              (fun s ->
                let r, t = time_op (fun () -> Service.compile svc s) in
                outcome_of r.Service.outcome (t *. 1e3))
              reqs
          in
          check tally reqs served;
          let want = List.length (List.filter Fun.id (repeats reqs)) in
          record tally
            ((Service.stats svc).Service.cache_hits = want)
            "Service hit count differs from the stream's repeats";
          served)

(* A fresh context and one warm-up pass. *)
let setup tally () =
  let ctx = Ctx.with_jobs jobs (Ctx.fresh ()) in
  ignore (pass tally ctx warmup_seed 0);
  ctx

let run ~seed ~seconds =
  let tally = tally () in
  let ctx, setup_s = setups (setup tally) in
  let hits = ref [] and misses = ref [] in
  loop_sets ~seconds (fun k ->
      List.iter
        (function
          | Ok r -> if r.hit then hits := r.ms :: !hits else misses := r.ms :: !misses
          | Error _ -> ())
        (pass tally ctx seed k));
  let n = List.length !hits + List.length !misses in
  let requests_per_s = ratio (float_of_int n) (sum !hits +. sum !misses) *. 1e3 in
  report "cached_service (1 client, closed loop, %d requests over %d specs per pass, seed %d)"
    requests_per_pass distinct_per_pass seed;
  report "hits  %.1f %% of requests, %.1f %% of the stream's time"
    (100.0 *. ratio (float_of_int (List.length !hits)) (float_of_int n))
    (100.0 *. ratio (sum !hits) (sum !hits +. sum !misses));
  report "mean hit %.4f ms, mean miss %.2f ms"
    (ratio (sum !hits) (float_of_int (List.length !hits)))
    (ratio (sum !misses) (float_of_int (List.length !misses)));
  report "hit_p50_ms  %.4f ms  (n=%d)" (median !hits) (List.length !hits);
  (match tail !hits with
  | Some t ->
      report "hit_tail_ms  p%g %.4f ms  (%d of %d samples beyond)" t.pct t.value t.beyond
        t.samples
  | None -> report "hit_tail_ms  fewer than 20 hits");
  report "miss_p50_ms  %.2f ms  (n=%d)" (median !misses) (List.length !misses);
  report "requests_per_s  %.1f 1/s" requests_per_s;
  {
    tally;
    metrics =
      end_to_end ~setup_s ~light_ms:(median !hits) ~heavy_ms:(median !misses)
        ~throughput:requests_per_s;
  }

(* Pipeline.run_cached re-driven call by call under spans: fingerprint,
   key, lookup, and on a miss the traced compile and the store. *)
let traced_pass tally ctx dir reqs =
  let lib = Ctx.lib ctx in
  match Disk_cache.open_root dir with
  | Error e ->
      record tally false e;
      ([], [], None)
  | Ok dc ->
      let algo = Pipeline.cache_algo_tag ~style:Floorplan.Sdp Pipeline.default_policy in
      let compiled = ref [] in
      let served =
        List.mapi
          (fun i spec ->
            let o, t =
              time (fun () ->
                  Pb_span.with_ ~req:i "service.request" (fun () ->
                      let lib_fp =
                        Pb_span.with_ "cache.fingerprint" (fun () ->
                            Disk_cache.library_fingerprint lib)
                      in
                      let k =
                        Pb_span.with_ "cache.key" (fun () -> Disk_cache.key ~lib_fp ~algo spec)
                      in
                      match Pb_span.with_ "cache.lookup" (fun () -> Disk_cache.lookup dc k) with
                      | Disk_cache.Hit v -> Ok (Pipeline.summary_of_cache_value spec v)
                      | Disk_cache.Miss | Disk_cache.Corrupt _ -> (
                          match Pb_replay.compile ctx spec with
                          | Error d -> Error d
                          | Ok t ->
                              compiled := (i, t) :: !compiled;
                              let s =
                                {
                                  (Pipeline.summary_of_run t.Pb_replay.run) with
                                  Pipeline.sum_cache = Pipeline.Cache_miss;
                                }
                              in
                              Pb_span.with_ "cache.store" (fun () ->
                                  Disk_cache.store dc k (Pipeline.cache_value_of_summary s));
                              Ok s)))
            in
            outcome_of o (t *. 1e3))
          reqs
      in
      (served, List.rev !compiled, Some (Disk_cache.stats dc))

let traced ~seed =
  let tally = tally () in
  let ctx = setup tally () in
  let untraced = pass tally ctx seed 1 in
  let reqs = stream seed 1 in
  Pb_span.enable ();
  let scl0 = Ctx.scl_stats ctx in
  let served, compiled, disk =
    with_store 1 (fun dir ->
        settle ();
        traced_pass tally ctx dir reqs)
  in
  let scl1 = Ctx.scl_stats ctx in
  check tally reqs served;
  let ppa = List.map (Result.map (fun r -> (r.hit, r.ppa))) in
  record tally (ppa served = ppa untraced) "traced stream differs from untraced";
  let x =
    List.fold_left
      (fun x (i, t) ->
        Pb_span.with_ ~req:i "replay" (fun () ->
            Pb_replay.candidates tally (Ctx.lib ctx) (Pb_replay.visited t));
        Pb_layers.add_searches x t.Pb_replay.searches)
      Pb_layers.no_extra compiled
  in
  let total l = sum (List.filter_map (function Ok r -> Some r.ms | Error _ -> None) l) in
  report "cached_service traced pass (seed %d)" seed;
  Pb_layers.report_self ();
  {
    tally;
    metrics =
      Pb_layers.metrics
        {
          x with
          untraced_ms = total untraced;
          traced_ms = total served;
          disk;
          scl_hits = scl1.Scl.hits - scl0.Scl.hits;
          scl_misses = scl1.Scl.misses - scl0.Scl.misses;
        };
  }
