(* The reference combinational settle for {!Sim}: the per-instance
   interpreter that walks [comb_order], stages each instance's inputs,
   evaluates the cell with [Cell.eval_into] and drives its outputs through
   [Sim.set_net]. It shares no code with the simulator's compiled tape,
   so tests pin [Sim.eval] against it. *)

let eval (t : Sim.t) =
  let d = t.Sim.d in
  let ins_buf = Array.make Cell.max_inputs false in
  let outs_buf = Array.make Cell.max_outputs false in
  Array.iter
    (fun i ->
      let inst = d.Ir.insts.(i) in
      Array.iteri (fun p net -> ins_buf.(p) <- t.Sim.values.(net)) inst.Ir.ins;
      Cell.eval_into inst.Ir.kind ins_buf outs_buf;
      Array.iteri (fun o net -> Sim.set_net t net outs_buf.(o)) inst.Ir.outs)
    d.Ir.comb_order
