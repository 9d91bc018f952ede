(* The reference netlist freeze: the list-based derivation [Ir.freeze]
   used before it stored connectivity as CSR arrays. Each net's drivers
   are an option and its consumers a list of (inst, pin) pairs, prepended
   in instance order; Kahn's sort runs over a [Queue]. It shares no code
   with [Ir.freeze], so tests pin the frozen views against it. *)

type views = {
  driver : (int * int) option array;  (** net -> (inst, out pin) *)
  consumers : (int * int) list array;  (** net -> [(inst, in pin)] *)
  comb_order : int array;
  seq : int array;
  storage : int array;
  weight_index : (int * int * int, int) Hashtbl.t;
}

(* Raises [Ir.Multiple_drivers] / [Ir.Combinational_cycle] with the
   payload the old freeze computed. *)
let freeze (t : Ir.t) : views =
  let insts = Vec.to_array t.Ir.insts in
  let n_nets = t.Ir.n_nets in
  let driver = Array.make n_nets None in
  let consumers = Array.make n_nets [] in
  Array.iteri
    (fun i (inst : Ir.inst) ->
      Array.iteri
        (fun o net ->
          (match driver.(net) with
          | Some _ -> raise (Ir.Multiple_drivers net)
          | None -> ());
          driver.(net) <- Some (i, o))
        inst.outs;
      Array.iteri
        (fun p net -> consumers.(net) <- (i, p) :: consumers.(net))
        inst.ins)
    insts;
  let is_comb i =
    let k = insts.(i).Ir.kind in
    (not (Cell.is_sequential k)) && not (Cell.is_storage k)
  in
  let indeg = Array.make (Array.length insts) 0 in
  Array.iteri
    (fun i (inst : Ir.inst) ->
      if is_comb i then
        Array.iter
          (fun net ->
            match driver.(net) with
            | Some (j, _) when is_comb j -> indeg.(i) <- indeg.(i) + 1
            | Some _ | None -> ())
          inst.ins)
    insts;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if is_comb i && d = 0 then Queue.add i queue) indeg;
  let order = Vec.create 0 in
  let n_comb = ref 0 in
  Array.iteri (fun i _ -> if is_comb i then incr n_comb) insts;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    ignore (Vec.push order i);
    Array.iter
      (fun net ->
        List.iter
          (fun (j, _) ->
            if is_comb j then begin
              indeg.(j) <- indeg.(j) - 1;
              if indeg.(j) = 0 then Queue.add j queue
            end)
          consumers.(net))
      insts.(i).Ir.outs
  done;
  if Vec.length order <> !n_comb then begin
    let stuck = ref (-1) in
    Array.iteri
      (fun i d -> if is_comb i && d > 0 && !stuck < 0 then stuck := i)
      indeg;
    raise (Ir.Combinational_cycle !stuck)
  end;
  let seq = Vec.create 0 and storage = Vec.create 0 in
  let weight_index = Hashtbl.create 1024 in
  Array.iteri
    (fun i (inst : Ir.inst) ->
      if Cell.is_sequential inst.kind then ignore (Vec.push seq i);
      if Cell.is_storage inst.kind then begin
        ignore (Vec.push storage i);
        match inst.tag with
        | Ir.Weight_bit { row; col; copy } ->
            Hashtbl.replace weight_index (row, col, copy) i
        | Ir.Plain | Ir.Pipeline_reg _ | Ir.Subcircuit _ -> ()
      end)
    insts;
  {
    driver;
    consumers;
    comb_order = Vec.to_array order;
    seq = Vec.to_array seq;
    storage = Vec.to_array storage;
    weight_index;
  }
