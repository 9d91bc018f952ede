(* Shared plumbing for the benchmark: clocks, order statistics, output
   checks, seeds, scratch directories and the result line. *)

let now = Unix.gettimeofday

(** [time f] — [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Every timed operation starts from a collected heap, so the GC debt one
   operation leaves behind is not billed to the next. Probes without it
   spread 36-50 ms on a 16x16 compile in one process; with it, 33-37 ms. *)
let settle () = Gc.full_major ()

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "type 7" quantile). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

type tail = { pct : float; value : float; beyond : int; samples : int }

(** [tail xs] — the highest percentile of a fixed ladder that still has
    at least ten samples beyond it, with the number beyond it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun pct ->
      let value = quantile_sorted a (pct /. 100.0) in
      let beyond = Array.fold_left (fun c x -> if x > value then c + 1 else c) 0 a in
      if beyond >= 10 then Some { pct; value; beyond; samples = n } else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(** Operations attempted and failed. An operation fails when any check
    on its output fails; the first few failures are echoed to stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 20 then Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(** The reported PPA of a compile at full precision ([%.17g] round-trips
    a double), so two results compare byte for byte. *)
let ppa_line (s : Pipeline.summary) =
  let m = s.Pipeline.sum_metrics in
  Printf.sprintf
    "crit_ps=%.17g fmax_ghz=%.17g power_w=%.17g area_mm2=%.17g tops=%.17g \
     tops_per_w=%.17g tops_per_mm2=%.17g ops_norm=%.17g closed=%b insts=%d \
     nets=%d attempts=%d boost=%.17g"
    m.Pipeline.crit_ps m.Pipeline.fmax_ghz m.Pipeline.power_w
    m.Pipeline.area_mm2 m.Pipeline.tops m.Pipeline.tops_per_w
    m.Pipeline.tops_per_mm2 m.Pipeline.ops_norm s.Pipeline.sum_timing_closed
    s.Pipeline.sum_insts s.Pipeline.sum_nets s.Pipeline.sum_attempts
    s.Pipeline.sum_boost

(* ------------------------------------------------------------------ *)
(* Seeds, memory, scratch space                                        *)
(* ------------------------------------------------------------------ *)

(** [sub_seed seed k] — the seed of the [k]-th input batch of a run. *)
let sub_seed seed k = Hashtbl.hash (seed, k, "perfbench") land 0x3FFFFFFF

(** How many distinct input sets the timed passes of a run cycle over. *)
let input_sets = 4

(** [input_set k] — the input set of timed pass [k] (from 1): passes cycle
    over sets [1 .. input_sets], so a faster program runs more passes over
    the same inputs rather than over inputs a slower one never saw. Set 0
    is the warm-up's. *)
let input_set k = 1 + ((k - 1) mod input_sets)

(* Reads to end of file, so /proc files (length 0) read whole. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(** Peak resident set size of the process ([VmHWM] in /proc/self/status),
    in MB; 0 where the kernel does not report it. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%f kB" (fun kb -> kb *. 1024.0 /. 1e6)
             | _ -> None)
      |> Option.value ~default:0.0

(** Scratch space for the run's own files, inside the checkout. *)
let out_dir = ".perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Counts print as integers; everything else with all 17 digits. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

(** One human-readable report line per figure, before the result line. *)
let report fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Run structure                                                       *)
(* ------------------------------------------------------------------ *)

(* Host speed. This benchmark runs on shared hosts whose speed drifts by
   a quarter or more over minutes (other tenants, shared caches, turbo
   limits). On a 2-vCPU Xeon host, in eight 15-second windows, the median
   16x16 compile took 43-66 ms (interquartile spread 0.33 of the median),
   while its ratio to the two reference kernels below spread 0.033. So
   every end-to-end time is reported at a reference speed: multiplied by
   the run's {!speed}, which {!time_op} samples through the run. The
   kernels are an integer multiply-xor loop and a dependent walk through
   a 1 MiB table outside the OCaml heap; they allocate nothing and call no
   compiler code, so no change to the compiler moves them. *)

let walk_slots = 1 lsl 17

(* One cycle through every slot (Sattolo's shuffle, fixed LCG), so each
   load of the walk waits for the one before and misses the L1 cache. *)
let walk_table =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout walk_slots in
  for i = 0 to walk_slots - 1 do a.{i} <- i done;
  let r = ref 12345 in
  for i = walk_slots - 1 downto 1 do
    r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = (!r lsr 4) mod i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let alu_kernel () =
  let x = ref 0 in
  for i = 1 to 4_000_000 do x := !x lxor (i * 7) done;
  ignore (Sys.opaque_identity !x)

let walk_kernel () =
  let j = ref 0 in
  for _ = 1 to 250_000 do j := Bigarray.Array1.unsafe_get walk_table !j done;
  ignore (Sys.opaque_identity !j)

(* Each kernel's time in ms at speed 1: about its time on the 2-vCPU Xeon
   host above in its fastest windows. *)
let alu_ms = 4.0
let walk_ms = 4.5

let alu_samples = ref []
let walk_samples = ref []
let last_sample = ref neg_infinity
let speed_domains = ref 1

(** [start_speed ~domains] — forget earlier speed samples; from now on the
    kernels run on [domains] domains at once, the workload's own job
    count, so a two-domain workload's speed is that of two domains
    running together. *)
let start_speed ~domains =
  alu_samples := [];
  walk_samples := [];
  last_sample := neg_infinity;
  speed_domains := domains

let kernels () =
  let (), a = time alu_kernel in
  let (), w = time walk_kernel in
  (a *. 1e3, w *. 1e3)

(** Time each reference kernel once on each of {!speed_domains} domains. *)
let calibrate () =
  let others = List.init (!speed_domains - 1) (fun _ -> Domain.spawn kernels) in
  let mine = kernels () in
  List.iter
    (fun (a, w) ->
      alu_samples := a :: !alu_samples;
      walk_samples := w :: !walk_samples)
    (mine :: List.map Domain.join others);
  last_sample := now ()

(** [time_op f] — [time f] for a timed operation. The reference kernels
    run first when 0.1 s has passed since they last ran, so the speed
    samples follow the host through the run at about a tenth of its time. *)
let time_op f =
  if now () -. !last_sample >= 0.1 then calibrate ();
  time f

(** [speed ()] — the run's host speed: the geometric mean, over the two
    kernels, of the kernel's time at speed 1 over its median time in the
    run; below 1 on a slow host. *)
let speed () = sqrt (alu_ms /. median !alu_samples *. (walk_ms /. median !walk_samples))

(** How many times a run sets up; setup_s is their median. *)
let setup_reps = 3

(** The seed of the warm-up pass in every set-up: fixed, so set-up does
    the same work whatever the run's seed. *)
let warmup_seed = 0

(** [setups f] — run the set-up {!setup_reps} times: the last one's
    value and the median set-up time in seconds. *)
let setups f =
  let rec go k times last =
    if k = 0 then (Option.get last, median times)
    else begin
      calibrate ();
      let v, t = time f in
      go (k - 1) (t :: times) (Some v)
    end
  in
  go setup_reps [] None

(** [loop ?every ~seconds f] — call [f 1], [f 2], ... while time is left;
    at least once. Rounds are whole, so every round keeps the workload's
    mix, and the clock is read only after every [every]-th round (default
    1). *)
let loop ?(every = 1) ~seconds f =
  let deadline = now () +. seconds in
  let rec go r =
    f r;
    if r mod every <> 0 || now () < deadline then go (r + 1)
  in
  go 1

(** [loop_sets ~seconds f] — {!loop} over passes that stops only after a
    whole cycle of the input sets, so each set is timed equally often.
    The sets differ in cost (a miss of set 1 took 26 ms, of set 4 42 ms),
    so a median over a run that timed one set more often than the others
    would move with the number of passes. *)
let loop_sets ~seconds f = loop ~every:input_sets ~seconds f

(** What a run hands back: its checks and its metrics. *)
type outcome = { tally : tally; metrics : metric list }

(** The end-to-end metrics every workload reports, in BENCHMARK.json order. *)
let end_to_end ~setup_s ~light_ms ~heavy_ms ~throughput =
  let v = speed () in
  report "host speed %.4f (kernel medians %.3f and %.3f ms over %d samples; %.1f and %.1f at \
          speed 1)"
    v (median !alu_samples) (median !walk_samples) (List.length !alu_samples) alu_ms walk_ms;
  report "as measured: setup %.4f s, light %.4f ms, heavy %.4f ms, throughput %.4f 1/s" setup_s
    light_ms heavy_ms throughput;
  [
    m "setup_s" "s" (setup_s *. v);
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "light_p50_ms" "ms" (light_ms *. v);
    m "heavy_p50_ms" "ms" (heavy_ms *. v);
    m "throughput_per_s" "1/s" (throughput /. v);
  ]

let ms_of_s = List.map (fun s -> s *. 1e3)
