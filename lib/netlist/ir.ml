(** Gate-level netlist intermediate representation.

    A netlist is a set of cell instances connected by integer-identified
    nets, with named input/output buses. Nets 0 and 1 are the constant-0
    and constant-1 nets. A netlist under construction is mutable; {!freeze}
    validates it (single driver per net, no combinational cycles) and
    derives the views the simulator, STA and power engines need. *)

type net = int

(** Semantic label attached to an instance so higher layers can address it:
    weight bits are written by the test bench / BL driver model, and
    pipeline registers are what the searcher's retiming moves. *)
type tag =
  | Plain
  | Weight_bit of { row : int; col : int; copy : int }
  | Pipeline_reg of string
  | Subcircuit of string
      (** which paper subcircuit the instance belongs to, e.g. "adder_tree";
          used for per-subcircuit PPA breakdowns *)

type inst = {
  kind : Cell.kind;
  mutable drive : Cell.drive;  (** mutable: the sizing fine-tuning pass *)
  ins : net array;
  outs : net array;
  tag : tag;
}

type t = {
  mutable n_nets : int;
  insts : inst Vec.t;
  mutable inputs : (string * net array) list;  (** named input buses *)
  mutable outputs : (string * net array) list;  (** named output buses *)
  mutable name : string;
}

let const0 : net = 0
let const1 : net = 1

let create ?(name = "top") () =
  let dummy =
    { kind = Cell.Inv; drive = Cell.X1; ins = [||]; outs = [||]; tag = Plain }
  in
  { n_nets = 2; insts = Vec.create dummy; inputs = []; outputs = []; name }

(** [new_net t] allocates a fresh net. *)
let new_net t =
  let n = t.n_nets in
  t.n_nets <- n + 1;
  n

(** [new_bus t width] allocates [width] fresh nets, LSB first. *)
let new_bus t width = Array.init width (fun _ -> new_net t)

(** [add t kind ~ins ~outs] appends an instance and returns its id. *)
let add ?(tag = Plain) ?(drive = Cell.X1) t kind ~ins ~outs =
  assert (Array.length ins = Cell.n_inputs kind);
  assert (Array.length outs = Cell.n_outputs kind);
  Vec.push t.insts { kind; drive; ins; outs; tag }

(** [add_input t name bus] registers a named primary input bus. *)
let add_input t name bus = t.inputs <- t.inputs @ [ (name, bus) ]

(** [add_output t name bus] registers a named primary output bus. *)
let add_output t name bus = t.outputs <- t.outputs @ [ (name, bus) ]

let find_bus buses name =
  match List.assoc_opt name buses with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir: no bus named %s" name)

let input_bus t = find_bus t.inputs
let output_bus t = find_bus t.outputs

(** A frozen, validated netlist with derived connectivity.

    Connectivity is stored flat, so freezing allocates a handful of int
    arrays and nothing per pin. A pin is encoded as one int: an output
    pin as [inst * 4 + out_pin] (at most 3 outputs), an input pin as
    [inst * 8 + in_pin] (at most 5 inputs). A net's consumers are the
    CSR (compressed sparse row) slice
    [fanout.(fanout_start.(net)) .. fanout.(fanout_start.(net + 1) - 1)],
    in descending instance id, and by descending pin within one
    instance. Read them through {!driver}, {!driver_pin},
    {!n_consumers} and {!iter_consumers}. *)
type design = {
  src : t;
  insts : inst array;
  n_nets : int;
  driver : int array;
      (** net -> [inst * 4 + out_pin] of its driver, or -1 if undriven *)
  fanout_start : int array;
      (** net -> first index of its consumers in [fanout]; length
          [n_nets + 1] *)
  fanout : int array;  (** consumer pins [inst * 8 + in_pin], net by net *)
  comb_order : int array;
      (** combinational instances in topological evaluation order *)
  seq : int array;  (** DFF-like instances *)
  storage : int array;  (** SRAM storage instances *)
  weight_dims : int * int * int;
      (** one past the largest (row, col, copy) of any weight bit *)
  weight_slots : int array;
      (** dense (row, col, copy) -> storage instance id, -1 where no
          weight bit sits; read through {!weight_inst} *)
}

exception Multiple_drivers of net
exception Combinational_cycle of int

(* the [weight_slots] index of a weight bit, row-major in [weight_dims] *)
let weight_slot (_, cols, copies) ~row ~col ~copy =
  (((row * cols) + col) * copies) + copy

(** [freeze t] validates and derives the evaluation views. Raises
    {!Multiple_drivers} or {!Combinational_cycle} on malformed input. *)
let freeze (t : t) : design =
  let insts = Vec.to_array t.insts in
  let n = Array.length insts in
  let n_nets = t.n_nets in
  (* drivers, and consumer counts shifted by one for the prefix sum *)
  let driver = Array.make n_nets (-1) in
  let fanout_start = Array.make (n_nets + 1) 0 in
  for i = 0 to n - 1 do
    let inst = insts.(i) in
    Array.iteri
      (fun o net ->
        if driver.(net) >= 0 then raise (Multiple_drivers net);
        driver.(net) <- (i * 4) + o)
      inst.outs;
    Array.iter
      (fun net -> fanout_start.(net + 1) <- fanout_start.(net + 1) + 1)
      inst.ins
  done;
  for net = 1 to n_nets do
    fanout_start.(net) <- fanout_start.(net) + fanout_start.(net - 1)
  done;
  (* fill each net's slice walking instances and pins downwards, so the
     consumers come out in descending instance id *)
  let fanout = Array.make fanout_start.(n_nets) 0 in
  let cursor = Array.sub fanout_start 0 n_nets in
  for i = n - 1 downto 0 do
    let ins = insts.(i).ins in
    for p = Array.length ins - 1 downto 0 do
      let net = ins.(p) in
      fanout.(cursor.(net)) <- (i * 8) + p;
      cursor.(net) <- cursor.(net) + 1
    done
  done;
  (* Topological order over combinational instances only: sequential and
     storage outputs are sources, so they never appear in the dependency
     graph as producers. *)
  let comb =
    Array.map
      (fun inst ->
        (not (Cell.is_sequential inst.kind)) && not (Cell.is_storage inst.kind))
      insts
  in
  let indeg = Array.make n 0 in
  let n_comb = ref 0 in
  for i = 0 to n - 1 do
    if comb.(i) then begin
      incr n_comb;
      Array.iter
        (fun net ->
          let dv = driver.(net) in
          if dv >= 0 && comb.(dv / 4) then indeg.(i) <- indeg.(i) + 1)
        insts.(i).ins
    end
  done;
  (* Kahn's sort with the order as its own FIFO queue: [order.(head ..
     tail - 1)] are ready but not yet expanded *)
  let order = Array.make !n_comb 0 in
  let tail = ref 0 in
  for i = 0 to n - 1 do
    if comb.(i) && indeg.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    Array.iter
      (fun net ->
        for k = fanout_start.(net) to fanout_start.(net + 1) - 1 do
          let j = fanout.(k) / 8 in
          if comb.(j) then begin
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then begin
              order.(!tail) <- j;
              incr tail
            end
          end
        done)
      insts.(i).outs
  done;
  if !tail <> !n_comb then begin
    (* find one instance stuck in a cycle for the error message *)
    let stuck = ref (-1) in
    Array.iteri
      (fun i d -> if comb.(i) && d > 0 && !stuck < 0 then stuck := i)
      indeg;
    raise (Combinational_cycle !stuck)
  end;
  let seq = Vec.create 0 and storage = Vec.create 0 in
  let rows = ref 0 and cols = ref 0 and copies = ref 0 in
  Array.iteri
    (fun i inst ->
      if Cell.is_sequential inst.kind then ignore (Vec.push seq i);
      if Cell.is_storage inst.kind then begin
        ignore (Vec.push storage i);
        match inst.tag with
        | Weight_bit { row; col; copy } ->
            rows := max !rows (row + 1);
            cols := max !cols (col + 1);
            copies := max !copies (copy + 1)
        | Plain | Pipeline_reg _ | Subcircuit _ -> ()
      end)
    insts;
  let storage = Vec.to_array storage in
  let weight_dims = (!rows, !cols, !copies) in
  let weight_slots = Array.make (!rows * !cols * !copies) (-1) in
  Array.iter
    (fun i ->
      match insts.(i).tag with
      | Weight_bit { row; col; copy } ->
          weight_slots.(weight_slot weight_dims ~row ~col ~copy) <- i
      | Plain | Pipeline_reg _ | Subcircuit _ -> ())
    storage;
  {
    src = t;
    insts;
    n_nets;
    driver;
    fanout_start;
    fanout;
    comb_order = order;
    seq = Vec.to_array seq;
    storage;
    weight_dims;
    weight_slots;
  }

(** [n_insts d] is the number of instances. *)
let n_insts d = Array.length d.insts

(** [driver d net] is the instance driving [net], or -1 for a primary
    input or an undriven net. *)
let[@inline] driver d net =
  let dv = d.driver.(net) in
  if dv < 0 then -1 else dv / 4

(** [driver_pin d net] is the output pin of {!driver} that drives [net];
    only meaningful when [driver d net >= 0]. *)
let[@inline] driver_pin d net = d.driver.(net) land 3

(** [n_consumers d net] is the number of input pins [net] feeds. *)
let[@inline] n_consumers d net = d.fanout_start.(net + 1) - d.fanout_start.(net)

(** [iter_consumers d net f] calls [f inst pin] for every input pin [net]
    feeds, in descending instance id. *)
let[@inline] iter_consumers d net f =
  for k = d.fanout_start.(net) to d.fanout_start.(net + 1) - 1 do
    let c = d.fanout.(k) in
    f (c / 8) (c land 7)
  done

(** [weight_inst d ~row ~col ~copy] is the storage instance holding that
    weight bit, or -1 if the design has none there. *)
let weight_inst d ~row ~col ~copy =
  let rows, cols, copies = d.weight_dims in
  if row < 0 || row >= rows || col < 0 || col >= cols || copy < 0
     || copy >= copies
  then -1
  else d.weight_slots.(weight_slot d.weight_dims ~row ~col ~copy)

(** [iter_weights d f] calls [f row col copy inst] for every weight bit,
    in ascending (row, col, copy) order. *)
let iter_weights d f =
  let _, cols, copies = d.weight_dims in
  Array.iteri
    (fun k i ->
      if i >= 0 then
        f (k / (cols * copies)) (k / copies mod cols) (k mod copies) i)
    d.weight_slots

(** [fanout_load d lib ~wire_cap net] is the capacitive load on [net]: the
    input-pin capacitance of every consumer plus optional routed-wire
    capacitance from the layout. *)
let fanout_load (d : design) (lib : Library.t) ?(wire_cap = fun _ -> 0.0) net =
  let pins = ref 0.0 in
  for k = d.fanout_start.(net) to d.fanout_start.(net + 1) - 1 do
    let inst = d.insts.(d.fanout.(k) / 8) in
    let prm = Library.params lib inst.kind inst.drive in
    pins := !pins +. prm.input_cap_ff
  done;
  !pins +. wire_cap net

(** [fanout_loads d lib ~wire_cap ()] — {!fanout_load} for every net at
    once, as one array indexed by net id. STA forward/backward passes and
    the power estimator all walk loads per net per iteration; computing
    the map once per frozen design (per sizing round — loads depend on
    the mutable instance drives) and sharing it replaces thousands of
    consumer-list folds per evaluation. *)
let fanout_loads (d : design) (lib : Library.t) ?(wire_cap = fun _ -> 0.0) ()
    : float array =
  let loads = Array.make d.n_nets 0.0 in
  Array.iter
    (fun inst ->
      let prm = Library.params lib inst.kind inst.drive in
      let cap = prm.Library.input_cap_ff in
      Array.iter (fun net -> loads.(net) <- loads.(net) +. cap) inst.ins)
    d.insts;
  for net = 0 to d.n_nets - 1 do
    loads.(net) <- loads.(net) +. wire_cap net
  done;
  loads
