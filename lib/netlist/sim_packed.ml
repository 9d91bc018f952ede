(** Bit-sliced cycle simulator: up to {!lanes} independent simulations of
    one design, packed one lane per bit of a native [int] per net.

    Gate evaluation is word-level (the formulas of {!Cell.eval_word_into},
    run over the flat tape {!Sim.compile_tape} builds, as scalar {!Sim}
    does): one bitwise expression settles a cell for every lane at once,
    so a full-width run advances 63 simulations for roughly the cost the
    scalar {!Sim} pays for one. The lanes are completely independent —
    different inputs, different weights, different register histories —
    which is exactly the shape of the two workloads that dominate the
    compiler:

    - power Monte Carlo: 63 random MAC replicas per simulated cycle, so
      toggle statistics converge with a fraction of the wall clock;
    - verification fan-out: 63 spec-fuzzer vectors checked against
      {!Golden} per netlist pass, with a failing lane shrunk back to a
      single scalar reproduction.

    Toggle accounting stays exact per lane: a net's counter advances by
    [popcount ((old lxor new) land mask)], the total number of lane
    transitions, which is bit-for-bit the sum of the per-lane scalar
    counters. OCaml's boxed-free [int] has 63 usable bits (one bit of
    the machine word is the pointer tag), hence 63 lanes, not 64. *)

(** Number of packed lanes a full-width simulator runs: the native [int]
    width (63 on 64-bit platforms). *)
let lanes = Sys.int_size

type t = {
  d : Ir.design;
  n_lanes : int;  (** active lanes; bits above are kept zero *)
  mask : int;  (** [2^n_lanes - 1]: the active-lane mask *)
  values : int array;  (** current value word per net, one bit per lane *)
  seq_state : int array;  (** per instance id; only sequential slots used *)
  storage_state : int array;  (** per instance id; only storage slots used *)
  toggles : int array;
      (** output toggle count per net, summed over lanes — the exact sum
          of the 63 per-lane scalar counters *)
  en_cycles : int array;
      (** per instance: lane-summed cycles an enabled flip-flop saw its
          enable high *)
  mutable cycles : int;  (** cycles advanced (per lane, not lane-summed) *)
  mutable weight_flips : int;  (** SRAM bits flipped by writes, lane-summed *)
  mutable weight_writes : int;  (** SRAM write ops, lane-summed *)
  tape : Sim.tape;  (** the compiled combinational logic {!eval} runs *)
  seq_next : int array;  (** {!clock}'s next-state staging, per seq slot *)
}

let create ?n_lanes (d : Ir.design) =
  let n_lanes = match n_lanes with None -> lanes | Some l -> l in
  if n_lanes < 1 || n_lanes > lanes then
    invalid_arg
      (Printf.sprintf
         "Sim_packed.create: requested %d lanes, valid range is 1..%d"
         n_lanes lanes);
  let mask = if n_lanes = lanes then -1 else (1 lsl n_lanes) - 1 in
  let n = Ir.n_insts d in
  let t =
    {
      d;
      n_lanes;
      mask;
      values = Array.make d.n_nets 0;
      seq_state = Array.make (max n 1) 0;
      storage_state = Array.make (max n 1) 0;
      toggles = Array.make d.n_nets 0;
      en_cycles = Array.make (max n 1) 0;
      cycles = 0;
      weight_flips = 0;
      weight_writes = 0;
      tape = Sim.compile_tape d;
      seq_next = Array.make (max (Array.length d.seq) 1) 0;
    }
  in
  t.values.(Ir.const1) <- t.mask;
  t

let lanes_of t = t.n_lanes

(** [broadcast t b] is the value word driving every active lane to [b]. *)
let broadcast t b = if b then t.mask else 0

(** [set_net t net w] drives [net] with the lane word [w] (masked to the
    active lanes) and charges one toggle per lane that changed. *)
let[@inline] set_net t net w =
  let w = w land t.mask in
  let old = t.values.(net) in
  if old <> w then begin
    t.values.(net) <- w;
    t.toggles.(net) <- t.toggles.(net) + Intmath.popcount (old lxor w)
  end

(** [set_bus t name v] drives the named input bus with the low bits of
    [v], broadcast identically to every lane — the control-signal path:
    all lanes share one MAC schedule. *)
let set_bus t name v =
  let bus = Ir.input_bus t.d.src name in
  Array.iteri
    (fun i net -> set_net t net (broadcast t ((v asr i) land 1 = 1)))
    bus

(** [set_bus_lanes t name vs] drives the named input bus with a distinct
    integer per lane: bit [i] of [vs.(l)] lands in lane [l] of bus bit
    [i]. Lanes beyond [Array.length vs] are driven to zero. *)
let set_bus_lanes t name (vs : int array) =
  let bus = Ir.input_bus t.d.src name in
  let n = min (Array.length vs) t.n_lanes in
  Array.iteri
    (fun i net ->
      let w = ref 0 in
      for l = 0 to n - 1 do
        w := !w lor (((vs.(l) asr i) land 1) lsl l)
      done;
      set_net t net !w)
    bus

(** [read_bus_lane t name lane] reads the named output bus of one lane as
    an unsigned integer. *)
let read_bus_lane t name lane =
  assert (lane >= 0 && lane < t.n_lanes);
  let bus = Ir.output_bus t.d.src name in
  let v = ref 0 in
  for i = 0 to Array.length bus - 1 do
    if (t.values.(bus.(i)) lsr lane) land 1 = 1 then v := !v lor (1 lsl i)
  done;
  !v

(** [read_bus_signed_lane t name lane] — {!read_bus_lane} as a signed
    two's-complement integer. *)
let read_bus_signed_lane t name lane =
  let bus = Ir.output_bus t.d.src name in
  Intmath.sign_extend ~width:(Array.length bus) (read_bus_lane t name lane)

(** [extract_lane t lane] snapshots one lane's net values as the bool
    array the scalar simulator holds — the cross-check hook the
    equivalence property drives. *)
let extract_lane t lane : bool array =
  assert (lane >= 0 && lane < t.n_lanes);
  Array.map (fun w -> (w lsr lane) land 1 = 1) t.values

(** [seq_state_lane t lane] / [storage_state_lane t lane] — one lane's
    register / SRAM state, for cross-checking against [Sim.seq_state] /
    [Sim.storage_state]. *)
let seq_state_lane t lane : bool array =
  Array.map (fun w -> (w lsr lane) land 1 = 1) t.seq_state

let storage_state_lane t lane : bool array =
  Array.map (fun w -> (w lsr lane) land 1 = 1) t.storage_state

(** [set_weight t ~row ~col ~copy w] writes one SRAM weight bit per lane
    through its (row, col, copy) address: bit [l] of [w] is lane [l]'s
    bit. Every active lane performs a write; only flipped lanes are
    charged a flip. *)
let set_weight t ~row ~col ~copy w =
  let i = Ir.weight_inst t.d ~row ~col ~copy in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Sim_packed.set_weight: no weight bit (%d,%d,%d)" row
         col copy)
  else begin
    let w = w land t.mask in
    t.weight_writes <- t.weight_writes + t.n_lanes;
    let old = t.storage_state.(i) in
    if old <> w then begin
      t.storage_state.(i) <- w;
      t.weight_flips <- t.weight_flips + Intmath.popcount (old lxor w)
    end;
    set_net t t.d.insts.(i).outs.(0) w
  end

(** [set_weight_all t ~row ~col ~copy bit] — the broadcast form: every
    lane stores the same [bit]. *)
let set_weight_all t ~row ~col ~copy bit =
  set_weight t ~row ~col ~copy (broadcast t bit)

(** [eval t] settles all combinational logic, all lanes at once: one
    pass over the tape {!Sim.compile_tape} built, each op applying the
    word-level formula of {!Cell.eval_word_into} to every lane and
    driving its outputs through {!set_net}. Allocation-free. *)
let eval t =
  let { Sim.ops; fan_in = fi; fan_out = fo } = t.tape in
  let v = t.values in
  let p = ref 0 and q = ref 0 in
  for k = 0 to Array.length ops - 1 do
    let i = !p and o = !q in
    match ops.(k) with
    | Sim.Inv ->
        set_net t fo.(o) (lnot v.(fi.(i)));
        p := i + 1;
        q := o + 1
    | Sim.Buf ->
        set_net t fo.(o) v.(fi.(i));
        p := i + 1;
        q := o + 1
    | Sim.Nand2 ->
        set_net t fo.(o) (lnot (v.(fi.(i)) land v.(fi.(i + 1))));
        p := i + 2;
        q := o + 1
    | Sim.Nor2 ->
        set_net t fo.(o) (lnot (v.(fi.(i)) lor v.(fi.(i + 1))));
        p := i + 2;
        q := o + 1
    | Sim.And2 ->
        set_net t fo.(o) (v.(fi.(i)) land v.(fi.(i + 1)));
        p := i + 2;
        q := o + 1
    | Sim.Or2 ->
        set_net t fo.(o) (v.(fi.(i)) lor v.(fi.(i + 1)));
        p := i + 2;
        q := o + 1
    | Sim.Xor2 ->
        set_net t fo.(o) (v.(fi.(i)) lxor v.(fi.(i + 1)));
        p := i + 2;
        q := o + 1
    | Sim.Xnor2 ->
        set_net t fo.(o) (lnot (v.(fi.(i)) lxor v.(fi.(i + 1))));
        p := i + 2;
        q := o + 1
    | Sim.Mux2 ->
        let sel = v.(fi.(i + 2)) in
        set_net t fo.(o)
          ((sel land v.(fi.(i + 1))) lor (lnot sel land v.(fi.(i))));
        p := i + 3;
        q := o + 1
    | Sim.Aoi22 ->
        set_net t fo.(o)
          (lnot
             ((v.(fi.(i)) land v.(fi.(i + 1)))
             lor (v.(fi.(i + 2)) land v.(fi.(i + 3)))));
        p := i + 4;
        q := o + 1
    | Sim.Oai22 ->
        set_net t fo.(o)
          (lnot
             ((v.(fi.(i)) lor v.(fi.(i + 1)))
             land (v.(fi.(i + 2)) lor v.(fi.(i + 3)))));
        p := i + 4;
        q := o + 1
    | Sim.Ha ->
        let a = v.(fi.(i)) and b = v.(fi.(i + 1)) in
        set_net t fo.(o) (a lxor b);
        set_net t fo.(o + 1) (a land b);
        p := i + 2;
        q := o + 2
    | Sim.Fa ->
        let a = v.(fi.(i)) and b = v.(fi.(i + 1)) and c = v.(fi.(i + 2)) in
        set_net t fo.(o) (a lxor b lxor c);
        set_net t fo.(o + 1) ((a land b) lor (a land c) lor (b land c));
        p := i + 3;
        q := o + 2
    | Sim.Comp42 ->
        let a = v.(fi.(i)) and b = v.(fi.(i + 1)) and c = v.(fi.(i + 2)) in
        let d = v.(fi.(i + 3)) and cin = v.(fi.(i + 4)) in
        let s1 = a lxor b lxor c in
        set_net t fo.(o) (s1 lxor d lxor cin);
        set_net t fo.(o + 1) ((s1 land d) lor (s1 land cin) lor (d land cin));
        set_net t fo.(o + 2) ((a land b) lor (a land c) lor (b land c));
        p := i + 5;
        q := o + 3
    | Sim.Mul_oai22 ->
        let sel = v.(fi.(i + 3)) in
        set_net t fo.(o)
          (v.(fi.(i))
          land ((sel land v.(fi.(i + 2))) lor (lnot sel land v.(fi.(i + 1)))));
        p := i + 4;
        q := o + 1
  done

(** [clock t] commits every flip-flop in every lane: a plain DFF captures
    D, an enabled DFF captures D lane-wise where EN is high and holds
    elsewhere. Enabled-cycle accounting advances by the popcount of the
    enable word, the lane-summed duty the power model charges. *)
let clock t =
  let d = t.d in
  let next = t.seq_next in
  Array.iteri
    (fun idx i ->
      let inst = d.insts.(i) in
      next.(idx) <-
        (match inst.kind with
        | Cell.Dff -> t.values.(inst.ins.(0))
        | Cell.Dff_en ->
            let en = t.values.(inst.ins.(1)) in
            if en <> 0 then
              t.en_cycles.(i) <- t.en_cycles.(i) + Intmath.popcount en;
            (en land t.values.(inst.ins.(0)))
            lor (lnot en land t.seq_state.(i))
        | _ -> assert false))
    d.seq;
  Array.iteri
    (fun idx i ->
      let w = next.(idx) land t.mask in
      t.seq_state.(i) <- w;
      set_net t t.d.insts.(i).outs.(0) w)
    d.seq;
  t.cycles <- t.cycles + 1

(** [step t] = eval then clock: one full cycle with inputs already set. *)
let step t =
  eval t;
  clock t

(** [reset_stats t] clears toggle and cycle counters (state is kept). *)
let reset_stats t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  Array.fill t.en_cycles 0 (Array.length t.en_cycles) 0;
  t.cycles <- 0;
  t.weight_flips <- 0;
  t.weight_writes <- 0
