(** One evaluated candidate of the searcher: a macro configuration, its
    built netlist, and its measured (pre-layout) PPA at the spec's
    operating point.

    Evaluation = build the netlist, size the critical path toward the
    budget, run static timing, stream a sparse MAC workload for switching
    power, and check both frequency constraints. This plays the role the
    LUT-composed estimate plays in the paper's searcher, with the final
    netlist numbers always taken from the real structure. *)

type t = {
  cfg : Macro_rtl.config;
  macro : Macro_rtl.t;
  sta : Sta.report;  (** post-sizing *)
  crit_ps : float;  (** nominal-voltage critical path after sizing *)
  upsized : int;  (** instances upsized by timing-driven sizing *)
  area_um2 : float;  (** standard-cell area (pre-layout) *)
  power_w : float;  (** at the spec's frequency/voltage, streaming MACs *)
  meets_mac : bool;
  meets_wupd : bool;
  tops : float;  (** native-precision TOPS at the spec frequency *)
}

(** Activity assumptions during search-time power evaluation. *)
let search_input_density = 0.5

let search_weight_density = 0.5
let search_macs = 6

(** [throughput_tops m ~freq_hz] — native ops: one MAC = 2 ops, one word
    per [db] cycles per column group. *)
let throughput_tops (m : Macro_rtl.t) ~freq_hz =
  2.0
  *. float_of_int (m.cfg.rows * m.words)
  *. freq_hz
  /. float_of_int (Macro_rtl.serial_cycles m)
  /. 1e12

(** [config_key cfg] — canonical serialization of every
    [Macro_rtl.config] field, i.e. of everything the built netlist
    depends on. It keys the {!Activity_memo} and is the prefix of
    {!Eval_cache.key}, so the two keys cannot drift apart. *)
let config_key (cfg : Macro_rtl.config) : string =
  let tree =
    match cfg.Macro_rtl.tree with
    | Adder_tree.Rca_tree -> "rca"
    | Adder_tree.Csa { fa_ratio; reorder } ->
        Printf.sprintf "csa:%h:%b" fa_ratio reorder
  in
  Printf.sprintf
    "%dx%dx%d|i%s|w%s|cell%s|mul%s|tree%s|sa%s|split%d|rt%b|rca%b|rs%b|or%b|op%b|of%b|ap%d|ro%b|wc%b"
    cfg.Macro_rtl.rows cfg.Macro_rtl.cols cfg.Macro_rtl.mcr
    (Precision.name cfg.Macro_rtl.input_prec)
    (Precision.name cfg.Macro_rtl.weight_prec)
    (Cell.kind_to_string (Cell.Sram cfg.Macro_rtl.cell_kind))
    (Cell.kind_to_string (Cell.Mul cfg.Macro_rtl.mul_kind))
    tree
    (Shift_adder.kind_name cfg.Macro_rtl.sa_kind)
    cfg.Macro_rtl.tree_split cfg.Macro_rtl.reg_after_tree
    cfg.Macro_rtl.retime_final_rca cfg.Macro_rtl.reg_sa_to_ofu
    cfg.Macro_rtl.ofu_retime cfg.Macro_rtl.ofu_extra_pipe
    cfg.Macro_rtl.ofu_fast_adder cfg.Macro_rtl.align_pipeline
    cfg.Macro_rtl.reg_output cfg.Macro_rtl.with_controller

(** The switching-activity counters of one finished scalar {!Sim} run:
    everything {!Power.estimate_activity} reads from a simulation. *)
type activity = {
  toggles : int array;
  en_cycles : int array;
  cycles : int;
  weight_flips : int;
}

(** [measure_activity m ~input_density ~weight_density ~macs] loads
    sparse random weights and streams [macs] back-to-back MACs, returning
    the counters. The simulator reads neither drives nor the clock, so the
    result depends only on the built structure and the stimulus. *)
let measure_activity ?(seed = 0xD1C) (m : Macro_rtl.t) ~input_density
    ~weight_density ~macs : activity =
  let rng = Rng.create seed in
  let sim = Sim.create m.design in
  if m.cfg.mcr > 1 then Sim.set_bus sim "copy_sel" 0;
  Testbench.load_weights m sim ~copy:0
    (Testbench.random_weights rng m ~density:weight_density);
  Sim.reset_stats sim;
  Testbench.run_stream m sim ~rng ~macs ~input_density;
  {
    toggles = sim.Sim.toggles;
    en_cycles = sim.Sim.en_cycles;
    cycles = sim.Sim.cycles;
    weight_flips = sim.Sim.weight_flips;
  }

let power_of_activity ?loads lib (m : Macro_rtl.t) (a : activity) ~freq_hz
    ~vdd =
  Power.estimate_activity m.design lib ~toggles:a.toggles
    ~en_cycles:a.en_cycles ~cycles:a.cycles ~weight_flips:a.weight_flips
    ~freq_hz ~vdd ?loads ()

(** [measure_power lib m ~freq_hz ~vdd ~input_density ~weight_density
    ~macs] — {!measure_activity} priced at an operating point. Exposed
    for the experiment harness, which uses the paper's measurement
    sparsity. *)
let measure_power ?seed ?loads lib (m : Macro_rtl.t) ~freq_hz ~vdd
    ~input_density ~weight_density ~macs =
  power_of_activity ?loads lib m
    (measure_activity ?seed m ~input_density ~weight_density ~macs)
    ~freq_hz ~vdd

(* Nondeterministic for the same reason as the evaluation cache's
   counters: racing domains may both miss a cold key. *)
let m_activity_hits = Metrics.counter ~det:false "cache.activity.hits"
let m_activity_misses = Metrics.counter ~det:false "cache.activity.misses"

(** Search-time switching activity per structural configuration
    ({!config_key}), for the lifetime of one compilation. Retry attempts
    re-evaluate structures an earlier attempt already saw under a tighter
    clock; sizing and timing change, but the activity does not, so the
    memo spares the re-simulation. It holds counters only, never
    netlists: a kept netlist per structure would cost far more memory
    than the rebuild it saves. Mutex-guarded so it may be shared across
    domains. *)
module Activity_memo = struct
  type t = { tbl : (string, activity) Hashtbl.t; lock : Mutex.t }

  let create () = { tbl = Hashtbl.create 16; lock = Mutex.create () }

  (** [find_or_measure t key measure] — the stored activity of [key], or
      [measure ()] stored under it. *)
  let find_or_measure t key measure =
    match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl key) with
    | Some a ->
        Metrics.incr m_activity_hits;
        a
    | None ->
        let a = measure () in
        Metrics.incr m_activity_misses;
        Mutex.protect t.lock (fun () ->
            if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key a);
        a
end

(** [measure_power_packed lib m ~freq_hz ~vdd ~input_density
    ~weight_density ~macs] — the bit-sliced Monte Carlo form of
    {!measure_power}: one {!Sim_packed} run streams [macs] MACs in
    [n_lanes] (default all 63) concurrent replicas, each with its own
    random weights and input stream, and the lane-summed toggle
    statistics fold into the standard accounting as the average power of
    one replica ({!Power.estimate_packed}). Same simulated cycle count,
    [n_lanes ×] the sample mass. *)
let measure_power_packed ?(seed = 0xD1C) ?loads ?n_lanes lib
    (m : Macro_rtl.t) ~freq_hz ~vdd ~input_density ~weight_density ~macs =
  let rng = Rng.create seed in
  let sim = Sim_packed.create ?n_lanes m.Macro_rtl.design in
  if m.cfg.mcr > 1 then Sim_packed.set_bus sim "copy_sel" 0;
  Testbench.load_weights_lanes m sim ~copy:0
    (Array.init (Sim_packed.lanes_of sim) (fun _ ->
         Testbench.random_weights rng m ~density:weight_density));
  Sim_packed.reset_stats sim;
  Testbench.run_stream_packed m sim ~rng ~macs ~input_density;
  Power.estimate_packed m.design lib sim ~freq_hz ~vdd ?loads ()

(** [measure_power_sliced (module E) lib m ...] — {!measure_power_packed}
    generalized over the slice engine: any {!Slice.S} implementation
    (63-lane packed, 126/252-lane multi-word) streams the same Monte
    Carlo workload and folds its lane-summed counters through
    {!Power.estimate_activity} with [lanes × cycles] effective cycles.
    Given the same [n_lanes], every engine draws the identical stimulus
    and produces bit-identical counters, hence bit-identical reports —
    the conformance property the test suite pins. *)
let measure_power_sliced (module E : Slice.S) ?(seed = 0xD1C) ?loads
    ?n_lanes lib (m : Macro_rtl.t) ~freq_hz ~vdd ~input_density
    ~weight_density ~macs =
  let module B = Testbench.Sliced (E) in
  let rng = Rng.create seed in
  let sim = E.create ?n_lanes m.Macro_rtl.design in
  if m.cfg.mcr > 1 then E.set_bus sim "copy_sel" 0;
  B.load_weights_lanes m sim ~copy:0
    (Array.init (E.lanes_of sim) (fun _ ->
         Testbench.random_weights rng m ~density:weight_density));
  E.reset_stats sim;
  B.run_stream m sim ~rng ~macs ~input_density;
  Power.estimate_activity m.design lib ~toggles:(E.toggles sim)
    ~en_cycles:(E.en_cycles sim)
    ~cycles:(E.cycles sim * E.lanes_of sim)
    ~weight_flips:(E.weight_flips sim) ~freq_hz ~vdd ?loads ()

(** [evaluate ?activity lib spec cfg] builds and measures one candidate;
    [activity] reuses the switching activity of a structure measured
    before. *)
let evaluate ?activity (lib : Library.t) (spec : Spec.t)
    (cfg : Macro_rtl.config) : t =
  let macro = Macro_rtl.build lib cfg in
  let budget = Spec.search_budget_ps spec lib.Library.node in
  (* sizing's last analysis is the timing of the sized design, and its
     load map serves power too *)
  let sized = Sizing.speed_up macro.design lib ~target_ps:budget in
  let sta = sized.Sizing.sta in
  let stats = Stats.of_design macro.design lib in
  let measure () =
    measure_activity macro ~input_density:search_input_density
      ~weight_density:search_weight_density ~macs:search_macs
  in
  let act =
    match activity with
    | Some memo -> Activity_memo.find_or_measure memo (config_key cfg) measure
    | None -> measure ()
  in
  let power =
    power_of_activity ~loads:sized.Sizing.loads lib macro act
      ~freq_hz:spec.Spec.mac_freq_hz ~vdd:spec.Spec.vdd
  in
  let wupd_ps =
    Driver.weight_update_ps lib ~rows:spec.Spec.rows
    *. Voltage.delay_scale lib.Library.node ~vdd:spec.Spec.vdd
  in
  {
    cfg;
    macro;
    sta;
    crit_ps = sta.Sta.crit_ps;
    upsized = sized.Sizing.upsized;
    area_um2 = stats.Stats.area_um2;
    power_w = power.Power.total_w;
    meets_mac = sta.Sta.crit_ps <= budget +. 0.5;
    meets_wupd = wupd_ps <= 1e12 /. spec.Spec.weight_update_freq_hz;
    tops = throughput_tops macro ~freq_hz:spec.Spec.mac_freq_hz;
  }

(** Which pipeline stage owns the critical path: the dominant subcircuit
    tag among the combinational instances on it. Drives Algorithm 1's
    branch between MAC-path and OFU-path techniques. *)
type stage = Mac_path | Ofu_path | Sa_path | Align_path

let stage_name = function
  | Mac_path -> "mac"
  | Ofu_path -> "ofu"
  | Sa_path -> "shift_adder"
  | Align_path -> "fp_align"

let critical_stage (p : t) : stage =
  let share = Hashtbl.create 8 in
  let bump key w =
    let cur = try Hashtbl.find share key with Not_found -> 0.0 in
    Hashtbl.replace share key (cur +. w)
  in
  let design = p.macro.Macro_rtl.design in
  List.iter
    (fun (s : Sta.path_step) ->
      if s.Sta.inst >= 0 then
        let inst = design.Ir.insts.(s.Sta.inst) in
        if not (Cell.is_sequential inst.Ir.kind) then
          let key =
            match inst.Ir.tag with
            | Ir.Subcircuit ("wl_driver" | "mulmux" | "adder_tree") -> Mac_path
            | Ir.Weight_bit _ -> Mac_path
            | Ir.Subcircuit "ofu" -> Ofu_path
            | Ir.Subcircuit "shift_adder" -> Sa_path
            | Ir.Subcircuit "fp_align" -> Align_path
            | Ir.Subcircuit _ | Ir.Pipeline_reg _ | Ir.Plain -> Mac_path
          in
          bump key 1.0)
    p.sta.Sta.path;
  let best = ref Mac_path and best_w = ref 0.0 in
  Hashtbl.iter
    (fun k w ->
      if w > !best_w then begin
        best := k;
        best_w := w
      end)
    share;
  !best

let summary (p : t) =
  Printf.sprintf
    "%s tree, split=%d, mul=%s, regs(tree=%b,sa=%b), retime(rca=%b,ofu=%b), \
     pipe=%b: crit %.0f ps, %.2f mW, %.3f mm2, %s"
    (Adder_tree.topology_name p.cfg.tree)
    p.cfg.tree_split
    (Cell.kind_to_string (Cell.Mul p.cfg.mul_kind))
    p.cfg.reg_after_tree p.cfg.reg_sa_to_ofu p.cfg.retime_final_rca
    p.cfg.ofu_retime p.cfg.ofu_extra_pipe p.crit_ps (p.power_w *. 1e3)
    (p.area_um2 /. 1e6)
    (if p.meets_mac then "MEETS" else "VIOLATES")
