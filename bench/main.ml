(* SynDCIM benchmark harness.

   Regenerates every table and figure of the paper's evaluation section
   (printed as text tables/plots on stdout), followed by a wall-clock
   comparison of the parallel candidate sweep against the sequential one
   and a Bechamel microbenchmark section timing the compiler kernels each
   experiment leans on. Section wall-clocks and Bechamel estimates are
   also emitted to BENCH_RESULTS.json in the invocation directory.

   Environment:
     SYNDCIM_BENCH_QUICK=1   smaller dimensions (CI-friendly)
     SYNDCIM_JOBS=N          worker domains for the parallel sections

   Run with: dune exec bench/main.exe *)

let quick =
  match Sys.getenv_opt "SYNDCIM_BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let banner title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" bar title bar

(* (name, seconds) of every timed section, in run order *)
let section_times : (string * float) list ref = ref []

let time_section name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  section_times := (name, dt) :: !section_times;
  Printf.printf "[%s finished in %.1f s]\n%!" name dt;
  r

(* (name, ns/run) for every Bechamel kernel *)
let kernel_times : (string * float) list ref = ref []

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* the multiword default-flip gate: a wider engine must beat packed by
   at least this factor in lane-cycles/s before it may become the
   default (CI asserts the recorded default obeys this) *)
let multiword_min_gain = 1.5

(* the metrics-overhead gate: full instrumentation may cost at most this
   much over the registry-disabled run of the same search workload *)
let metrics_max_overhead_pct = 5.0

(* How the gate measures: [metrics_pairs] pairs, each interleaving
   instrumented and disabled searches until both arms hold at least
   [metrics_arm_s] CPU seconds, and the median of the pair overheads. A
   best-of-3 over single 20-35 ms wall-clock searches swung by +-10 % run
   to run, twice the bound. *)
let metrics_pairs = 15
let metrics_arm_s = 0.5

type overhead = {
  on_s : float;  (** median CPU seconds per search, instrumented *)
  off_s : float;  (** median CPU seconds per search, registry disabled *)
  pcts : float array;  (** per-pair overhead %, sorted *)
}

(* [quantile xs q] of a sorted, non-empty array: the nearest-rank value. *)
let quantile xs q =
  let n = Array.length xs in
  xs.(min (n - 1) (int_of_float (q *. float_of_int n)))

let sorted xs =
  let xs = Array.copy xs in
  Array.sort compare xs;
  xs

let write_results ~jobs ~seq_s ~par_s ~packed_16 ~packed_fig8
    ~signoff_batches ~signoff_scalar_cps ~signoff_packed_cps ~shmoo_lanes
    ~shmoo_scalar_s ~shmoo_packed_s ~mw_packed_cps ~mw_candidates
    ~mw_default ~mw_autodetect ~service_cold_s ~service_warm_s
    ~(metrics : overhead) =
  let b = Buffer.create 4096 in
  let entry (name, v) =
    Printf.sprintf "    {\"name\": \"%s\", \"value\": %.6g}" (json_escape name) v
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"quick\": %b,\n  \"jobs\": %d,\n" quick jobs);
  Buffer.add_string b "  \"sections_s\": [\n";
  Buffer.add_string b
    (String.concat ",\n" (List.map entry (List.rev !section_times)));
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"pareto_sweep\": {\"jobs1_s\": %.6g, \"jobsN_s\": %.6g, \
        \"speedup\": %.6g},\n"
       seq_s par_s
       (if par_s > 0.0 then seq_s /. par_s else 0.0));
  let packed_row key (scalar_cps, packed_cps) =
    Buffer.add_string b
      (Printf.sprintf
         "  \"%s\": {\"lanes\": %d, \"scalar_lane_cps\": %.6g, \
          \"packed_lane_cps\": %.6g, \"speedup\": %.6g},\n"
         key Sim_packed.lanes scalar_cps packed_cps
         (if scalar_cps > 0.0 then packed_cps /. scalar_cps else 0.0))
  in
  packed_row "packed_sim" packed_16;
  packed_row "packed_sim_fig8" packed_fig8;
  Buffer.add_string b
    (Printf.sprintf
       "  \"packed_signoff\": {\"batches\": %d, \"scalar_checks_ps\": %.6g, \
        \"packed_checks_ps\": %.6g, \"speedup\": %.6g},\n"
       signoff_batches signoff_scalar_cps signoff_packed_cps
       (if signoff_scalar_cps > 0.0 then
          signoff_packed_cps /. signoff_scalar_cps
        else 0.0));
  Buffer.add_string b
    (Printf.sprintf
       "  \"packed_shmoo\": {\"lanes\": %d, \"scalar_s\": %.6g, \
        \"packed_s\": %.6g, \"speedup\": %.6g},\n"
       shmoo_lanes shmoo_scalar_s shmoo_packed_s
       (if shmoo_packed_s > 0.0 then shmoo_scalar_s /. shmoo_packed_s
        else 0.0));
  Buffer.add_string b
    (Printf.sprintf
       "  \"multiword_sim\": {\"packed_lane_cps\": %.6g, \"min_gain\": %.2f, \
        \"default_engine\": \"%s\", \"autodetect\": \"%s\", \
        \"candidates\": [%s]},\n"
       mw_packed_cps multiword_min_gain (json_escape mw_default)
       (json_escape mw_autodetect)
       (String.concat ", "
          (List.map
             (fun (lanes, cps) ->
               Printf.sprintf
                 "{\"lanes\": %d, \"lane_cps\": %.6g, \
                  \"speedup_vs_packed\": %.6g}"
                 lanes cps
                 (if mw_packed_cps > 0.0 then cps /. mw_packed_cps else 0.0))
             mw_candidates)));
  Buffer.add_string b
    (Printf.sprintf
       "  \"service_warm\": {\"cold_s\": %.6g, \"warm_s\": %.6g, \
        \"speedup\": %.6g},\n"
       service_cold_s service_warm_s
       (if service_warm_s > 0.0 then service_cold_s /. service_warm_s
        else 0.0));
  Buffer.add_string b
    (Printf.sprintf
       "  \"metrics_overhead\": {\"pairs\": %d, \"arm_min_s\": %.2f, \
        \"instrumented_s\": %.6g, \"baseline_s\": %.6g, \"overhead_pct\": \
        %.6g, \"pct_q1\": %.6g, \"pct_q3\": %.6g, \"pct_min\": %.6g, \
        \"pct_max\": %.6g, \"max_pct\": %.1f},\n"
       (Array.length metrics.pcts) metrics_arm_s metrics.on_s metrics.off_s
       (quantile metrics.pcts 0.5) (quantile metrics.pcts 0.25)
       (quantile metrics.pcts 0.75) metrics.pcts.(0)
       metrics.pcts.(Array.length metrics.pcts - 1)
       metrics_max_overhead_pct);
  Buffer.add_string b "  \"kernels_ns_per_run\": [\n";
  Buffer.add_string b
    (String.concat ",\n" (List.map entry (List.rev !kernel_times)));
  Buffer.add_string b "\n  ]\n}\n";
  let oc = open_out "BENCH_RESULTS.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote BENCH_RESULTS.json\n%!"

let () =
  let ctx = Ctx.default () in
  let lib = Ctx.lib ctx and scl = Ctx.scl ctx in

  banner "Table I — comparison with emerging CIM compilers";
  ignore (time_section "table1" (fun () -> Table1.run ctx));

  banner
    "Figure 7 — post-layout energy efficiency vs precision and dimension";
  let dims = if quick then [ 32; 64 ] else [ 32; 64; 128; 256 ] in
  time_section "fig7" (fun () -> Fig7.print (Fig7.run ~dims ctx));

  banner "Figure 8 — Pareto frontier of generated designs (H=W=64, MCR=2)";
  let fig8 = time_section "fig8" (fun () -> Fig8.run ctx) in
  Fig8.print fig8;

  banner "Figure 9 — shmoo plot of the compiled test macro";
  time_section "fig9" (fun () ->
      let a = Compiler.compile ctx Spec.fig8 in
      Fig9.print (Fig9.run ctx a));

  banner "Table II — comparison with state-of-the-art DCIM macros";
  time_section "table2" (fun () -> Table2.print (Table2.measure ctx));

  banner "Ablation A — adder-tree topologies";
  let heights = if quick then [ 16; 32; 64 ] else [ 16; 32; 64; 128 ] in
  time_section "ablation A" (fun () ->
      Ablation.print_adder_trees (Ablation.adder_trees ~heights ctx));

  banner "Ablation B — search techniques vs target frequency";
  time_section "ablation B" (fun () ->
      Ablation.print_search_ladder
        (Ablation.search_ladder
           ~freqs_mhz:
             (if quick then [ 500.; 800. ] else [ 300.; 500.; 800.; 1100. ])
           ctx Spec.fig8));

  banner "Ablation C — SDP vs scattered placement";
  time_section "ablation C" (fun () ->
      Ablation.print_placements
        (Ablation.placements
           ~dims:(if quick then [ 32; 64 ] else [ 32; 64; 128 ])
           ctx));

  banner "Ablation D — memory-compute ratio";
  time_section "ablation D" (fun () ->
      Ablation.print_mcr_sweep (Ablation.mcr_sweep ctx));

  (* ---------------- parallel sweep comparison ---------------- *)
  banner "Parallel sweep — pareto_sweep wall-clock, jobs=1 vs jobs=N";
  let jobs = Pool.default_jobs () in
  let sweep_spec =
    if quick then { Spec.fig8 with Spec.rows = 32; cols = 32; mcr = 1 }
    else Spec.fig8
  in
  (* sequential run first also warms the SCL memo, so the parallel run
     measures the domain pool rather than first-touch characterization *)
  let time_sweep j =
    let t0 = Unix.gettimeofday () in
    let front, cloud = Searcher.pareto_sweep ~jobs:j lib scl sweep_spec in
    (Unix.gettimeofday () -. t0, List.length front, List.length cloud)
  in
  let seq_s, f1, c1 = time_sweep 1 in
  let par_s, fn, cn = time_sweep jobs in
  Printf.printf
    "jobs=1: %.2f s (%d frontier / %d cloud)\njobs=%d: %.2f s (%d frontier \
     / %d cloud)\nspeedup: %.2fx\n%!"
    seq_s f1 c1 jobs par_s fn cn
    (if par_s > 0.0 then seq_s /. par_s else 0.0);
  if (f1, c1) <> (fn, cn) then
    failwith "parallel sweep disagrees with sequential sweep";

  (* ---------------- packed simulation throughput ---------------- *)
  banner
    (Printf.sprintf
       "Packed simulation — scalar vs %d-lane bit-sliced MAC streaming"
       Sim_packed.lanes);
  (* throughput unit: simulated lane-cycles per second — the scalar
     engine advances 1 lane per cycle, the packed engine 63. Best of
     three runs on the smallest canonical macro, so the CI bound stays
     meaningful on a noisy shared runner, and on the Fig. 8 macro
     (64x64 MCR-2), the size the kernel's speed is judged at. *)
  let packed_rates label (cfg : Macro_rtl.config) ~macs =
    let m = Macro_rtl.build lib cfg in
    let best_of n f =
      let best = ref infinity and cycles = ref 0 in
      for _ = 1 to n do
        let t0 = Unix.gettimeofday () in
        cycles := f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      (float_of_int !cycles, !best)
    in
    let rng = Rng.create 0xB175 in
    let scalar_sim = Sim.create m.Macro_rtl.design in
    Testbench.load_weights m scalar_sim ~copy:0
      (Testbench.random_weights rng m ~density:0.5);
    let scalar_cycles, scalar_s =
      best_of 3 (fun () ->
          Sim.reset_stats scalar_sim;
          Testbench.run_stream m scalar_sim ~rng ~macs ~input_density:0.5;
          scalar_sim.Sim.cycles)
    in
    let psim = Sim_packed.create m.Macro_rtl.design in
    Testbench.load_weights_lanes m psim ~copy:0
      (Array.init Sim_packed.lanes (fun _ ->
           Testbench.random_weights rng m ~density:0.5));
    let packed_cycles, packed_s =
      best_of 3 (fun () ->
          Sim_packed.reset_stats psim;
          Testbench.run_stream_packed m psim ~rng ~macs ~input_density:0.5;
          psim.Sim_packed.cycles)
    in
    let scalar_cps = scalar_cycles /. scalar_s in
    let packed_cps =
      packed_cycles *. float_of_int Sim_packed.lanes /. packed_s
    in
    Printf.printf
      "%s INT8, %d MACs/run, best of 3:\n\
      \  scalar: %.0f cycles in %.3f s  = %.3g lane-cycles/s\n\
      \  packed: %.0f cycles x %d lanes in %.3f s = %.3g lane-cycles/s\n\
       speedup: %.1fx\n\
       %!"
      label macs scalar_cycles scalar_s scalar_cps packed_cycles
      Sim_packed.lanes packed_s packed_cps
      (packed_cps /. scalar_cps);
    (scalar_cps, packed_cps)
  in
  let packed_16 =
    packed_rates "16x16"
      (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1 ~input_prec:Precision.int8
         ~weight_prec:Precision.int8)
      ~macs:(if quick then 200 else 500)
  in
  let packed_fig8 =
    packed_rates "Fig. 8 64x64 MCR-2"
      (Spec.initial_config Spec.fig8)
      ~macs:(if quick then 40 else 120)
  in

  (* ---------------- multi-word simulation throughput ---------------- *)
  banner
    (Printf.sprintf
       "Multi-word simulation — %d-lane packed vs 126/252-lane streaming"
       Sim_packed.lanes);
  (* same unit as the packed section: simulated lane-cycles per second,
     best of three MAC-streaming runs on the 16x16 INT8 macro. The
     recorded default engine only flips away from packed when a wider
     engine clears the multiword_min_gain bar — the same rule
     Engine.autodetect applies behind --engine auto, and the rule CI
     asserts against this JSON. *)
  let mw_packed_cps, mw_candidates, mw_default, mw_autodetect =
    let m =
      Macro_rtl.build lib
        (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1
           ~input_prec:Precision.int8 ~weight_prec:Precision.int8)
    in
    let macs = if quick then 100 else 300 in
    let best_of n f =
      let best = ref infinity and cycles = ref 0 in
      for _ = 1 to n do
        let t0 = Unix.gettimeofday () in
        cycles := f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      (float_of_int !cycles, !best)
    in
    let rate (module E : Slice.S) =
      let module B = Testbench.Sliced (E) in
      let rng = Rng.create 0xB175 in
      let sim = E.create m.Macro_rtl.design in
      B.load_weights_lanes m sim ~copy:0
        (Array.init (E.lanes_of sim) (fun _ ->
             Testbench.random_weights rng m ~density:0.5));
      let cycles, s =
        best_of 3 (fun () ->
            E.reset_stats sim;
            B.run_stream m sim ~rng ~macs ~input_density:0.5;
            E.cycles sim)
      in
      cycles *. float_of_int (E.lanes_of sim) /. s
    in
    let packed_cps = rate (module Slice.Packed) in
    let candidates =
      List.map
        (fun w -> (w, rate (Engine.slice (`Multiword w))))
        [ 2 * Sim_packed.lanes; 4 * Sim_packed.lanes ]
    in
    let default =
      List.fold_left
        (fun acc (w, cps) ->
          if cps >= multiword_min_gain *. packed_cps then
            Engine.name (`Multiword w)
          else acc)
        (Engine.name `Packed) candidates
    in
    let autodetect = Engine.name (Engine.autodetect () :> Engine.t) in
    Printf.printf "16x16 INT8, %d MACs/run, best of 3:\n" macs;
    Printf.printf "  packed (63 lanes): %.3g lane-cycles/s\n" packed_cps;
    List.iter
      (fun (w, cps) ->
        Printf.printf "  multiword:%-3d      %.3g lane-cycles/s (%.2fx)\n" w
          cps
          (if packed_cps > 0.0 then cps /. packed_cps else 0.0))
      candidates;
    Printf.printf
      "default engine: %s (gate: >= %.1fx over packed)\n\
       autodetect (probe netlist): %s\n\
       %!"
      default multiword_min_gain autodetect;
    (packed_cps, candidates, default, autodetect)
  in

  (* ---------------- packed signoff throughput ---------------- *)
  banner "Packed signoff — Testbench.verify, scalar vs packed engine";
  let signoff_batches = if quick then 63 else 252 in
  let signoff_scalar_cps, signoff_packed_cps =
    let m =
      Macro_rtl.build lib
        (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1
           ~input_prec:Precision.int8 ~weight_prec:Precision.int8)
    in
    let best_of n f =
      let best = ref infinity in
      for _ = 1 to n do
        let t0 = Unix.gettimeofday () in
        f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      !best
    in
    let scalar_s =
      best_of 3 (fun () ->
          Testbench.verify ~engine:`Scalar m ~seed:0xACC
            ~batches:signoff_batches)
    in
    let packed_s =
      best_of 3 (fun () ->
          Testbench.verify ~engine:`Packed m ~seed:0xACC
            ~batches:signoff_batches)
    in
    let sc = float_of_int signoff_batches /. scalar_s in
    let pc = float_of_int signoff_batches /. packed_s in
    Printf.printf
      "16x16 INT8, %d MAC checks vs golden, best of 3:\n\
      \  scalar: %.3f s = %.3g checks/s\n\
      \  packed: %.3f s = %.3g checks/s\n\
       speedup: %.1fx\n\
       %!"
      signoff_batches scalar_s sc packed_s pc (pc /. sc);
    (sc, pc)
  in

  (* ---------------- packed shmoo column batching ---------------- *)
  banner "Packed shmoo — Fig. 9 energy grid, scalar vs column batching";
  let shmoo_lanes = if quick then 8 else 32 in
  let shmoo_scalar_s, shmoo_packed_s =
    let m =
      Macro_rtl.build lib
        (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1
           ~input_prec:Precision.int8 ~weight_prec:Precision.int8)
    in
    let time engine =
      let t0 = Unix.gettimeofday () in
      ignore
        (Fig9.measure ~engine ~n_lanes:shmoo_lanes ~macs:2 ~jobs:1 ctx m
           ~crit_ps:950.0);
      Unix.gettimeofday () -. t0
    in
    let scalar_s = time `Scalar in
    let packed_s = time `Packed in
    Printf.printf
      "16x16 INT8, %d VDDs x %d freqs, %d-replica ensemble per column, \
       jobs=1:\n\
      \  scalar: %.3f s (one run per replica)\n\
      \  packed: %.3f s (one bit-sliced run per column)\n\
       speedup: %.1fx\n\
       %!"
      (Array.length Fig9.default_vdds)
      (Array.length Fig9.default_freqs_mhz)
      shmoo_lanes scalar_s packed_s
      (if packed_s > 0.0 then scalar_s /. packed_s else 0.0);
    (scalar_s, packed_s)
  in

  (* ---------------- warm service vs cold context ---------------- *)
  banner "Service — cold-context compile vs warm-service repeat compile";
  let svc_spec = { Spec.fig8 with Spec.rows = 16; cols = 16; mcr = 1 } in
  let service_cold_s =
    (* the one-shot cost: a fresh library + empty SCL memo, no compile
       cache — what a cold CLI invocation pays for the same spec *)
    let t0 = Unix.gettimeofday () in
    (match Pipeline.run_cached (Ctx.fresh ()) svc_spec with
    | Ok _ -> ()
    | Error d -> raise (Diag.Failed d));
    Unix.gettimeofday () -. t0
  in
  let service_warm_s =
    let cache_root =
      Filename.concat (Filename.get_temp_dir_name ())
        "syndcim-bench-svc-cache"
    in
    let svc_ctx =
      match Ctx.with_cache_dir cache_root (Ctx.fresh ()) with
      | Ok c -> c
      | Error d -> raise (Diag.Failed d)
    in
    let svc = Service.create svc_ctx in
    (* request 1 warms the world (characterizes the SCL, fills the
       compile cache); request 2 is the steady-state service latency *)
    ignore (Service.compile svc svc_spec);
    let warm = Service.compile svc svc_spec in
    (match warm.Service.outcome with
    | Ok _ -> ()
    | Error d -> raise (Diag.Failed d));
    Printf.printf "%s\n" (Service.describe svc);
    warm.Service.wall_s
  in
  Printf.printf
    "16x16 INT8 spec:\n\
    \  cold context (fresh library, no cache): %.3f s\n\
    \  warm service (repeat request):          %.4f s\n\
     speedup: %.1fx\n\
     %!"
    service_cold_s service_warm_s
    (if service_warm_s > 0.0 then service_cold_s /. service_warm_s else 0.0);

  (* ---------------- metrics instrumentation overhead ---------------- *)
  banner "Metrics overhead — full MSO search, registry on vs off";
  let metrics =
    let spec = { Spec.fig8 with Spec.rows = 16; cols = 16; mcr = 1 } in
    let search () =
      ignore (Searcher.search ~cache:(Eval_cache.create ()) lib scl spec)
    in
    (* one throwaway run warms the SCL memo so both arms measure search
       evaluation, not first-touch characterization *)
    search ();
    (* CPU seconds of one search. The search runs on this domain alone,
       so process CPU time is its work; unlike wall-clock it does not
       count time other processes took the core. [Sys.time] reads it at
       microsecond resolution. *)
    let timed enabled =
      Metrics.set_enabled enabled;
      let t0 = Sys.time () in
      search ();
      let dt = Sys.time () -. t0 in
      Metrics.set_enabled true;
      dt
    in
    (* One pair: searches alternate on/off in ABBA order until each arm
       holds [metrics_arm_s]. On a shared host the core's speed drifts by
       up to 20 % over seconds; interleaving search by search makes that
       drift common to both arms, where 0.5 s blocks left it in the
       difference. Returns the mean CPU seconds per search of each arm. *)
    let pair () =
      let on = ref 0.0 and off = ref 0.0 and n_on = ref 0 and n_off = ref 0 in
      let k = ref 0 in
      while !on < metrics_arm_s || !off < metrics_arm_s do
        let enabled = !k land 3 = 0 || !k land 3 = 3 in
        let dt = timed enabled in
        if enabled then begin
          on := !on +. dt;
          incr n_on
        end
        else begin
          off := !off +. dt;
          incr n_off
        end;
        incr k
      done;
      (!on /. float_of_int !n_on, !off /. float_of_int !n_off)
    in
    let pairs = Array.init metrics_pairs (fun _ -> pair ()) in
    let m =
      {
        on_s = quantile (sorted (Array.map fst pairs)) 0.5;
        off_s = quantile (sorted (Array.map snd pairs)) 0.5;
        pcts =
          sorted
            (Array.map (fun (on, off) -> (on -. off) /. off *. 100.0) pairs);
      }
    in
    Printf.printf
      "16x16 INT8 search, %d pairs of interleaved arms, >= %.1f CPU s each:\n\
      \  instrumented: %.4f CPU s per search (median)\n\
      \  disabled:     %.4f CPU s per search (median)\n\
       overhead: median %.2f %% (quartiles %.2f .. %.2f, range %.2f .. %.2f; \
       gate: <= %.1f %%)\n\
       %!"
      metrics_pairs metrics_arm_s m.on_s m.off_s (quantile m.pcts 0.5)
      (quantile m.pcts 0.25) (quantile m.pcts 0.75) m.pcts.(0)
      m.pcts.(metrics_pairs - 1) metrics_max_overhead_pct;
    m
  in

  (* ---------------- Bechamel kernels ---------------- *)
  banner "Bechamel — compiler kernel microbenchmarks";
  let open Bechamel in
  let macro16 =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1 ~input_prec:Precision.int8
         ~weight_prec:Precision.int8)
  in
  let spec16 = { Spec.fig8 with Spec.rows = 16; cols = 16; mcr = 1 } in
  let tests =
    [
      (* Table I leans on end-to-end netlist construction *)
      Test.make ~name:"table1:build-macro-16x16"
        (Staged.stage (fun () ->
             ignore
               (Macro_rtl.build lib
                  (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1
                     ~input_prec:Precision.int8
                     ~weight_prec:Precision.int8))));
      (* Fig 7 leans on streamed power simulation *)
      Test.make ~name:"fig7:power-sim-16x16"
        (Staged.stage (fun () ->
             ignore
               (Design_point.measure_power lib macro16 ~freq_hz:5e8 ~vdd:0.9
                  ~input_density:0.125 ~weight_density:0.5 ~macs:2)));
      (* Fig 8 leans on candidate evaluation (build + STA + sizing) *)
      Test.make ~name:"fig8:design-point-eval-16x16"
        (Staged.stage (fun () ->
             ignore
               (Design_point.evaluate lib spec16 (Spec.initial_config spec16))));
      (* Fig 9 leans on the voltage-frequency grid *)
      Test.make ~name:"fig9:shmoo-grid"
        (Staged.stage (fun () ->
             ignore (Fig9.shmoo lib.Library.node ~crit_ps:950.0)));
      (* Table II leans on static timing of a signed-off macro *)
      Test.make ~name:"table2:sta-16x16"
        (Staged.stage (fun () ->
             ignore (Sta.analyze macro16.Macro_rtl.design lib)));
      (* the ablations lean on placement + routing *)
      Test.make ~name:"ablation:sdp-place-route-16x16"
        (Staged.stage (fun () ->
             ignore (Route.build (Floorplan.sdp lib macro16))));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              kernel_times := (name, est) :: !kernel_times;
              Printf.printf "  %-36s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-36s (no estimate)\n%!" name)
        results)
    tests;
  write_results ~jobs ~seq_s ~par_s ~packed_16 ~packed_fig8
    ~signoff_batches ~signoff_scalar_cps ~signoff_packed_cps ~shmoo_lanes
    ~shmoo_scalar_s ~shmoo_packed_s ~mw_packed_cps ~mw_candidates
    ~mw_default ~mw_autodetect ~service_cold_s ~service_warm_s ~metrics;
  Printf.printf "\nbench: all experiments regenerated.\n"
