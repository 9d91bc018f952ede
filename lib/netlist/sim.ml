(** Cycle-accurate functional simulator with toggle counting.

    Drives a frozen design one clock cycle at a time: set the primary
    inputs, {!eval} settles combinational logic in topological order,
    {!clock} commits every flip-flop. SRAM storage bits are written through
    {!set_weight} (the BL-driver write path), and every write that flips a
    bit is charged SRAM write energy.

    Toggle counts per net accumulate across the run; the power engine
    multiplies them by per-cell switching energies.

    {!create} compiles the design's [comb_order] into a flat tape: one
    opcode per combinational instance, plus the fan-in and fan-out net
    ids of every instance laid end to end. {!eval} is a single loop over
    the tape. Each opcode's arity is fixed, so a running cursor replaces
    per-instance offsets. The tape belongs to the simulator, not to the
    frozen design: most frozen designs are never simulated by this
    engine, and a design kept alive by a search would otherwise carry
    its tape too. *)

(** The combinational functions of {!Cell.kind}, one constructor per
    distinct truth table: the transmission-gate and pass-transistor
    muxes evaluate as [Mux2], the two-input multipliers as [And2]. *)
type op =
  | Inv
  | Buf
  | Nand2
  | Nor2
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2
  | Aoi22
  | Oai22
  | Ha
  | Fa
  | Comp42
  | Mul_oai22

let op_of_kind : Cell.kind -> op = function
  | Cell.Inv -> Inv
  | Cell.Buf -> Buf
  | Cell.Nand2 -> Nand2
  | Cell.Nor2 -> Nor2
  | Cell.And2 | Cell.Mul (Cell.Tg_nor | Cell.Pass_1t) -> And2
  | Cell.Or2 -> Or2
  | Cell.Xor2 -> Xor2
  | Cell.Xnor2 -> Xnor2
  | Cell.Mux2 | Cell.Tgmux2 | Cell.Ptmux2 -> Mux2
  | Cell.Aoi22 -> Aoi22
  | Cell.Oai22 -> Oai22
  | Cell.Ha -> Ha
  | Cell.Fa -> Fa
  | Cell.Comp42 -> Comp42
  | Cell.Mul Cell.Oai22_fused -> Mul_oai22
  | Cell.Dff | Cell.Dff_en | Cell.Sram _ ->
      invalid_arg "Sim.op_of_kind: sequential/storage cell"

type tape = {
  ops : op array;  (** one per combinational instance, in [comb_order] *)
  fan_in : int array;  (** input nets of every op, concatenated *)
  fan_out : int array;  (** output nets of every op, concatenated *)
}

let compile_tape (d : Ir.design) : tape =
  let n_in = ref 0 and n_out = ref 0 in
  Array.iter
    (fun i ->
      let inst = d.insts.(i) in
      n_in := !n_in + Array.length inst.Ir.ins;
      n_out := !n_out + Array.length inst.Ir.outs)
    d.comb_order;
  let fan_in = Array.make !n_in 0 and fan_out = Array.make !n_out 0 in
  let p = ref 0 and q = ref 0 in
  let ops =
    Array.map
      (fun i ->
        let inst = d.insts.(i) in
        Array.blit inst.Ir.ins 0 fan_in !p (Array.length inst.Ir.ins);
        Array.blit inst.Ir.outs 0 fan_out !q (Array.length inst.Ir.outs);
        p := !p + Array.length inst.Ir.ins;
        q := !q + Array.length inst.Ir.outs;
        op_of_kind inst.Ir.kind)
      d.comb_order
  in
  { ops; fan_in; fan_out }

type t = {
  d : Ir.design;
  values : bool array;  (** current value per net *)
  seq_state : bool array;  (** per instance id; only sequential slots used *)
  storage_state : bool array;  (** per instance id; only storage slots used *)
  toggles : int array;  (** output toggle count per net *)
  en_cycles : int array;
      (** per instance: cycles an enabled flip-flop saw its enable high —
          the clock-gating duty the power model charges instead of every
          cycle *)
  mutable cycles : int;
  mutable weight_flips : int;  (** SRAM bits flipped by writes *)
  mutable weight_writes : int;  (** SRAM write operations *)
  tape : tape;  (** the compiled combinational logic {!eval} runs *)
  seq_next : bool array;  (** {!clock}'s next-state staging, per seq slot *)
}

let create (d : Ir.design) =
  let n = Ir.n_insts d in
  let t =
    {
      d;
      values = Array.make d.n_nets false;
      seq_state = Array.make (max n 1) false;
      storage_state = Array.make (max n 1) false;
      toggles = Array.make d.n_nets 0;
      en_cycles = Array.make (max n 1) 0;
      cycles = 0;
      weight_flips = 0;
      weight_writes = 0;
      tape = compile_tape d;
      seq_next = Array.make (max (Array.length d.seq) 1) false;
    }
  in
  t.values.(Ir.const1) <- true;
  t

let[@inline] set_net t net v =
  if t.values.(net) <> v then begin
    t.values.(net) <- v;
    t.toggles.(net) <- t.toggles.(net) + 1
  end

(** [set_bus t name v] drives the named input bus with the low bits of the
    (possibly signed) integer [v]. *)
let set_bus t name v =
  let bus = Ir.input_bus t.d.src name in
  Array.iteri (fun i net -> set_net t net ((v asr i) land 1 = 1)) bus

(** [set_bus_bits t name bits] drives the named input bus bit-by-bit. *)
let set_bus_bits t name bits =
  let bus = Ir.input_bus t.d.src name in
  assert (Array.length bits = Array.length bus);
  Array.iteri (fun i net -> set_net t net bits.(i)) bus

(** [read_bus t name] reads the named output bus as an unsigned integer.
    Allocation-free: it runs once per result group per MAC in the bench
    hot path. *)
let read_bus t name =
  let bus = Ir.output_bus t.d.src name in
  let v = ref 0 in
  for i = 0 to Array.length bus - 1 do
    if t.values.(bus.(i)) then v := !v lor (1 lsl i)
  done;
  !v

(** [read_bus_signed t name] reads the named output bus as a signed
    two's-complement integer. *)
let read_bus_signed t name =
  let bus = Ir.output_bus t.d.src name in
  Intmath.sign_extend ~width:(Array.length bus) (read_bus t name)

(** [set_weight t ~row ~col ~copy bit] writes one SRAM weight bit through
    its (row, col, copy) address. *)
let set_weight t ~row ~col ~copy bit =
  let i = Ir.weight_inst t.d ~row ~col ~copy in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Sim.set_weight: no weight bit (%d,%d,%d)" row col copy)
  else begin
    t.weight_writes <- t.weight_writes + 1;
    if t.storage_state.(i) <> bit then begin
      t.storage_state.(i) <- bit;
      t.weight_flips <- t.weight_flips + 1
    end;
    set_net t t.d.insts.(i).outs.(0) bit
  end

(** [eval t] settles all combinational logic from the current inputs and
    register/storage state: one pass over the tape, each op reading its
    inputs and driving its outputs through {!set_net}. Allocation-free,
    because it runs per cycle of every power simulation the searcher
    issues. *)
let eval t =
  let { ops; fan_in = fi; fan_out = fo } = t.tape in
  let v = t.values in
  let p = ref 0 and q = ref 0 in
  for k = 0 to Array.length ops - 1 do
    let i = !p and o = !q in
    match ops.(k) with
    | Inv ->
        set_net t fo.(o) (not v.(fi.(i)));
        p := i + 1;
        q := o + 1
    | Buf ->
        set_net t fo.(o) v.(fi.(i));
        p := i + 1;
        q := o + 1
    | Nand2 ->
        set_net t fo.(o) (not (v.(fi.(i)) && v.(fi.(i + 1))));
        p := i + 2;
        q := o + 1
    | Nor2 ->
        set_net t fo.(o) (not (v.(fi.(i)) || v.(fi.(i + 1))));
        p := i + 2;
        q := o + 1
    | And2 ->
        set_net t fo.(o) (v.(fi.(i)) && v.(fi.(i + 1)));
        p := i + 2;
        q := o + 1
    | Or2 ->
        set_net t fo.(o) (v.(fi.(i)) || v.(fi.(i + 1)));
        p := i + 2;
        q := o + 1
    | Xor2 ->
        set_net t fo.(o) (v.(fi.(i)) <> v.(fi.(i + 1)));
        p := i + 2;
        q := o + 1
    | Xnor2 ->
        set_net t fo.(o) (v.(fi.(i)) = v.(fi.(i + 1)));
        p := i + 2;
        q := o + 1
    | Mux2 ->
        set_net t fo.(o) (if v.(fi.(i + 2)) then v.(fi.(i + 1)) else v.(fi.(i)));
        p := i + 3;
        q := o + 1
    | Aoi22 ->
        set_net t fo.(o)
          (not
             ((v.(fi.(i)) && v.(fi.(i + 1)))
             || (v.(fi.(i + 2)) && v.(fi.(i + 3)))));
        p := i + 4;
        q := o + 1
    | Oai22 ->
        set_net t fo.(o)
          (not
             ((v.(fi.(i)) || v.(fi.(i + 1)))
             && (v.(fi.(i + 2)) || v.(fi.(i + 3)))));
        p := i + 4;
        q := o + 1
    | Ha ->
        let a = v.(fi.(i)) and b = v.(fi.(i + 1)) in
        set_net t fo.(o) (a <> b);
        set_net t fo.(o + 1) (a && b);
        p := i + 2;
        q := o + 2
    | Fa ->
        let a = v.(fi.(i)) and b = v.(fi.(i + 1)) and c = v.(fi.(i + 2)) in
        set_net t fo.(o) (a <> b <> c);
        set_net t fo.(o + 1) (Cell.maj3 a b c);
        p := i + 3;
        q := o + 2
    | Comp42 ->
        let a = v.(fi.(i)) and b = v.(fi.(i + 1)) and c = v.(fi.(i + 2)) in
        let d = v.(fi.(i + 3)) and cin = v.(fi.(i + 4)) in
        let s1 = a <> b <> c in
        set_net t fo.(o) (s1 <> d <> cin);
        set_net t fo.(o + 1) (Cell.maj3 s1 d cin);
        set_net t fo.(o + 2) (Cell.maj3 a b c);
        p := i + 5;
        q := o + 3
    | Mul_oai22 ->
        set_net t fo.(o)
          (v.(fi.(i)) && if v.(fi.(i + 3)) then v.(fi.(i + 2)) else v.(fi.(i + 1)));
        p := i + 4;
        q := o + 1
  done

(** [clock t] commits every flip-flop: a plain DFF captures D, an
    enabled DFF captures D only when EN is high. New Q values are driven
    onto the nets; call {!eval} afterwards to propagate. *)
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
            if t.values.(inst.ins.(1)) then begin
              t.en_cycles.(i) <- t.en_cycles.(i) + 1;
              t.values.(inst.ins.(0))
            end
            else t.seq_state.(i)
        | _ -> assert false))
    d.seq;
  Array.iteri
    (fun idx i ->
      t.seq_state.(i) <- next.(idx);
      set_net t t.d.insts.(i).outs.(0) next.(idx))
    d.seq;
  t.cycles <- t.cycles + 1

(** [step t] = eval then clock: one full cycle with inputs already set. *)
let step t =
  eval t;
  clock t

(** [reset_stats t] clears toggle and cycle counters (state is kept), so
    warm-up cycles can be excluded from power measurement. *)
let reset_stats t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  Array.fill t.en_cycles 0 (Array.length t.en_cycles) 0;
  t.cycles <- 0;
  t.weight_flips <- 0;
  t.weight_writes <- 0
