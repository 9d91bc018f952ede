(* Tests for the netlist IR, builder combinators, simulator and the
   Verilog writer. Builder arithmetic is validated exhaustively or by
   randomized property against native integer arithmetic. *)

let lib = Library.n40 ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* helper: build a combinational design with one input bus per named
   operand, evaluate it on concrete values, read the output bus *)
let comb_harness ~inputs ~build =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let buses =
    List.map
      (fun (name, width) ->
        let b = Ir.new_bus ir width in
        Ir.add_input ir name b;
        (name, b))
      inputs
  in
  let out = build c (fun name -> List.assoc name buses) in
  Ir.add_output ir "out" out;
  let d = Ir.freeze ir in
  let sim = Sim.create d in
  fun values ->
    List.iter (fun (name, v) -> Sim.set_bus sim name v) values;
    Sim.eval sim;
    Sim.read_bus sim "out"

(* ---------------- IR validation ---------------- *)

let test_multiple_drivers_rejected () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let o = Builder.inv c a in
  (* second driver onto o *)
  ignore (Ir.add ir Cell.Buf ~ins:[| a |] ~outs:[| o |]);
  check_bool "raises, naming the net" true
    (try
       ignore (Ir.freeze ir);
       false
     with Ir.Multiple_drivers net -> net = o)

let test_comb_cycle_rejected () =
  let ir = Ir.create () in
  let a = Ir.new_net ir and b = Ir.new_net ir in
  let x = Ir.new_net ir and y = Ir.new_net ir in
  (* a clean gate first, so the stuck instance is not simply id 0 *)
  ignore (Ir.add ir Cell.Inv ~ins:[| x |] ~outs:[| y |]);
  ignore (Ir.add ir Cell.Inv ~ins:[| a |] ~outs:[| b |]);
  ignore (Ir.add ir Cell.Inv ~ins:[| b |] ~outs:[| a |]);
  check_bool "raises, naming the first stuck instance" true
    (try
       ignore (Ir.freeze ir);
       false
     with Ir.Combinational_cycle i -> i = 1)

let test_register_feedback_allowed () =
  (* a register in the loop makes it legal *)
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let q = Ir.new_net ir in
  let d = Builder.inv c q in
  Builder.dff_into c ~d ~q;
  Ir.add_output ir "q" [| q |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  (* toggles every cycle *)
  Sim.step sim;
  let v1 = Sim.read_bus sim "q" in
  Sim.step sim;
  let v2 = Sim.read_bus sim "q" in
  check_bool "oscillates" true (v1 <> v2)

let test_arity_checked () =
  let ir = Ir.create () in
  check_bool "bad arity" true
    (try
       ignore (Ir.add ir Cell.Nand2 ~ins:[| 0 |] ~outs:[| Ir.new_net ir |]);
       false
     with Assert_failure _ -> true)

let test_fanout_load () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  for _ = 1 to 5 do
    ignore (Builder.inv c a)
  done;
  let d = Ir.freeze ir in
  let inv_cap = (Library.params lib Cell.Inv Cell.X1).Library.input_cap_ff in
  Alcotest.(check (float 1e-6)) "5 inverter loads" (5.0 *. inv_cap)
    (Ir.fanout_load d lib a)

(* ---------------- arithmetic builders ---------------- *)

let test_rca_add_exhaustive () =
  let run =
    comb_harness ~inputs:[ ("a", 4); ("b", 4) ] ~build:(fun c bus ->
        let sum, co = Builder.rca_add c (bus "a") (bus "b") Ir.const0 in
        Array.append sum [| co |])
  in
  for a = 0 to 15 do
    for b = 0 to 15 do
      check_int
        (Printf.sprintf "%d+%d" a b)
        (a + b)
        (run [ ("a", a); ("b", b) ])
    done
  done

let test_carry_select_exhaustive () =
  let run =
    comb_harness ~inputs:[ ("a", 6); ("b", 6) ] ~build:(fun c bus ->
        let sum, co =
          Builder.carry_select_add c (bus "a") (bus "b") Ir.const0 ~block:2
        in
        Array.append sum [| co |])
  in
  for a = 0 to 63 do
    for b = 0 to 63 do
      check_int "csel" (a + b) (run [ ("a", a); ("b", b) ])
    done
  done

let test_carry_select_with_cin () =
  let run =
    comb_harness ~inputs:[ ("a", 5); ("b", 5) ] ~build:(fun c bus ->
        let sum, co =
          Builder.carry_select_add c (bus "a") (bus "b") Ir.const1 ~block:3
        in
        Array.append sum [| co |])
  in
  for a = 0 to 31 do
    check_int "cin" (a + 17 + 1) (run [ ("a", a); ("b", 17) ])
  done

let signed_read v ~width = Intmath.sign_extend ~width v

let test_addsub_signed () =
  let width = 6 in
  let run =
    comb_harness ~inputs:[ ("a", 6); ("b", 6); ("s", 1) ]
      ~build:(fun c bus ->
        Builder.addsub_signed c ~sub:(bus "s").(0) (bus "a") (bus "b") ~width)
  in
  for a = -8 to 7 do
    for b = -8 to 7 do
      check_int "add" (a + b)
        (signed_read ~width (run [ ("a", a); ("b", b); ("s", 0) ]));
      check_int "sub" (a - b)
        (signed_read ~width (run [ ("a", a); ("b", b); ("s", 1) ]))
    done
  done

let test_sub_and_neg () =
  let width = 7 in
  let sub =
    comb_harness ~inputs:[ ("a", 7); ("b", 7) ] ~build:(fun c bus ->
        Builder.sub_signed c (bus "a") (bus "b") ~width)
  in
  let neg =
    comb_harness ~inputs:[ ("a", 7) ] ~build:(fun c bus ->
        Builder.neg_signed c (bus "a") ~width)
  in
  for a = -20 to 20 do
    check_int "neg" (-a) (signed_read ~width (neg [ ("a", a) ]));
    check_int "sub" (a - 13)
      (signed_read ~width (sub [ ("a", a); ("b", 13) ]))
  done

let test_barrel_shifter () =
  let run =
    comb_harness ~inputs:[ ("a", 8); ("s", 3) ] ~build:(fun c bus ->
        Builder.barrel_shift_right c (bus "a") (bus "s"))
  in
  for s = 0 to 7 do
    check_int "shift" (0xB5 lsr s) (run [ ("a", 0xB5); ("s", s) ])
  done

let test_greater_than () =
  let run =
    comb_harness ~inputs:[ ("a", 5); ("b", 5) ] ~build:(fun c bus ->
        [| Builder.greater_than c (bus "a") (bus "b") |])
  in
  for a = 0 to 31 do
    for b = 0 to 31 do
      check_int "gt" (if a > b then 1 else 0) (run [ ("a", a); ("b", b) ])
    done
  done

let test_equal_const_and_reduce () =
  let run =
    comb_harness ~inputs:[ ("a", 4) ] ~build:(fun c bus ->
        [| Builder.equal_const c (bus "a") 9; Builder.or_reduce c (bus "a") |])
  in
  for a = 0 to 15 do
    let v = run [ ("a", a) ] in
    check_int "eq9" (if a = 9 then 1 else 0) (v land 1);
    check_int "or" (if a <> 0 then 1 else 0) (v lsr 1)
  done

let test_mux_and_shift_wiring () =
  let run =
    comb_harness ~inputs:[ ("a", 4); ("b", 4); ("s", 1) ]
      ~build:(fun c bus ->
        let m = Builder.mux_bus c ~sel:(bus "s").(0) (bus "a") (bus "b") in
        Builder.shift_left m 2 ~width:6)
  in
  check_int "mux0 shift" (5 lsl 2) (run [ ("a", 5); ("b", 9); ("s", 0) ]);
  check_int "mux1 shift" (9 lsl 2) (run [ ("a", 5); ("b", 9); ("s", 1) ])

(* ---------------- simulator semantics ---------------- *)

let test_dff_en_hold () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let d = Ir.new_net ir and en = Ir.new_net ir in
  Ir.add_input ir "d" [| d |];
  Ir.add_input ir "en" [| en |];
  let q = Builder.dff_en c ~en d in
  Ir.add_output ir "q" [| q |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  Sim.set_bus sim "d" 1;
  Sim.set_bus sim "en" 1;
  Sim.step sim;
  check_int "captured" 1 (Sim.read_bus sim "q");
  Sim.set_bus sim "d" 0;
  Sim.set_bus sim "en" 0;
  Sim.step sim;
  check_int "held" 1 (Sim.read_bus sim "q");
  Sim.set_bus sim "en" 1;
  Sim.step sim;
  check_int "released" 0 (Sim.read_bus sim "q")

let test_en_cycles_counted () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let d = Ir.new_net ir and en = Ir.new_net ir in
  Ir.add_input ir "d" [| d |];
  Ir.add_input ir "en" [| en |];
  ignore (Builder.dff_en c ~en d);
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  Sim.set_bus sim "en" 1;
  Sim.step sim;
  Sim.step sim;
  Sim.set_bus sim "en" 0;
  Sim.step sim;
  let i = dsg.Ir.seq.(0) in
  check_int "2 of 3 enabled" 2 sim.Sim.en_cycles.(i)

let test_toggle_counting () =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let o = Builder.inv c a in
  Ir.add_output ir "o" [| o |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  for i = 0 to 9 do
    Sim.set_bus sim "a" (i mod 2);
    Sim.step sim
  done;
  (* a toggled 9 times after the first set; output follows *)
  check_bool "output toggles counted" true (sim.Sim.toggles.(o) >= 9)

let test_weight_storage () =
  let ir = Ir.create () in
  let out = Ir.new_net ir in
  ignore
    (Ir.add
       ~tag:(Ir.Weight_bit { row = 3; col = 5; copy = 1 })
       ir (Cell.Sram Cell.S6t) ~ins:[||] ~outs:[| out |]);
  Ir.add_output ir "w" [| out |];
  let dsg = Ir.freeze ir in
  let sim = Sim.create dsg in
  Sim.set_weight sim ~row:3 ~col:5 ~copy:1 true;
  Sim.eval sim;
  check_int "stored" 1 (Sim.read_bus sim "w");
  check_int "one flip" 1 sim.Sim.weight_flips;
  Sim.set_weight sim ~row:3 ~col:5 ~copy:1 true;
  check_int "no flip on same value" 1 sim.Sim.weight_flips;
  check_bool "bad address" true
    (try
       Sim.set_weight sim ~row:0 ~col:0 ~copy:0 true;
       false
     with Invalid_argument _ -> true)

(* ---------------- stats + verilog ---------------- *)

let small_macro () =
  Macro_rtl.build lib
    (Macro_rtl.default ~rows:4 ~cols:4 ~mcr:1 ~input_prec:Precision.int4
       ~weight_prec:Precision.int4)

let test_stats () =
  let m = small_macro () in
  let st = Stats.of_design m.Macro_rtl.design lib in
  check_bool "area positive" true (st.Stats.area_um2 > 0.0);
  check_int "insts match" (Ir.n_insts m.Macro_rtl.design) st.Stats.n_insts;
  let total = List.fold_left (fun a (_, n) -> a + n) 0 st.Stats.by_kind in
  check_int "kind counts sum" st.Stats.n_insts total;
  let sub = Stats.area_by_subcircuit m.Macro_rtl.design lib in
  let sum = List.fold_left (fun a (_, x) -> a +. x) 0.0 sub in
  check_bool "subcircuit areas sum to total" true
    (Float.abs (sum -. st.Stats.area_um2) < 1e-6)

let test_verilog_writer () =
  let m = small_macro () in
  let v = Verilog.to_string m.Macro_rtl.design in
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "module header" true (contains "module dcim_macro");
  check_bool "endmodule" true (contains "endmodule");
  check_bool "instantiates srams" true (contains "SRAM6T_X1");
  check_bool "clock port" true (contains ".CK(clk)");
  check_bool "result port" true (contains "result0")

let test_sim_determinism () =
  (* two simulators over the same design and stimulus agree exactly,
     including statistics *)
  let mk () =
    let m = small_macro () in
    let sim = Sim.create m.Macro_rtl.design in
    let rng = Rng.create 77 in
    let w = Testbench.random_weights rng m ~density:0.5 in
    Testbench.load_weights m sim ~copy:0 w;
    Testbench.run_stream m sim ~rng ~macs:3 ~input_density:0.5;
    (Array.fold_left ( + ) 0 sim.Sim.toggles, sim.Sim.cycles)
  in
  let t1, c1 = mk () and t2, c2 = mk () in
  check_int "same toggles" t1 t2;
  check_int "same cycles" c1 c2

let test_reset_stats () =
  let m = small_macro () in
  let sim = Sim.create m.Macro_rtl.design in
  let rng = Rng.create 3 in
  Testbench.load_weights m sim ~copy:0
    (Testbench.random_weights rng m ~density:0.5);
  Testbench.run_stream m sim ~rng ~macs:2 ~input_density:0.5;
  check_bool "activity happened" true
    (Array.exists (fun t -> t > 0) sim.Sim.toggles);
  Sim.reset_stats sim;
  check_int "cycles cleared" 0 sim.Sim.cycles;
  check_bool "toggles cleared" true
    (Array.for_all (fun t -> t = 0) sim.Sim.toggles);
  check_int "writes cleared" 0 sim.Sim.weight_flips

let test_missing_bus () =
  let m = small_macro () in
  let sim = Sim.create m.Macro_rtl.design in
  check_bool "unknown bus rejected" true
    (try
       Sim.set_bus sim "no_such_bus" 1;
       false
     with Invalid_argument _ -> true)

let qtest_rca_random =
  QCheck.Test.make ~name:"rca 12-bit random" ~count:200
    QCheck.(pair (int_range 0 4095) (int_range 0 4095))
    (fun (a, b) ->
      let run =
        comb_harness ~inputs:[ ("a", 12); ("b", 12) ] ~build:(fun c bus ->
            let sum, co = Builder.rca_add c (bus "a") (bus "b") Ir.const0 in
            Array.append sum [| co |])
      in
      run [ ("a", a); ("b", b) ] = a + b)

(* ---------------- the compiled tape ---------------- *)

let bits n v = Array.init n (fun b -> (v lsr b) land 1 = 1)

(* One instance of every combinational kind, driven through all 2^n
   input patterns in order: the tape's outputs must equal [Cell.eval],
   and each output's toggle count must equal the changes of [Cell.eval]
   between consecutive patterns (from the all-zero power-up state). *)
let test_tape_every_kind () =
  List.iter
    (fun k ->
      if not (Cell.is_sequential k || Cell.is_storage k) then begin
        let n = Cell.n_inputs k and m = Cell.n_outputs k in
        let ir = Ir.create () in
        let a = Ir.new_bus ir n and y = Ir.new_bus ir m in
        Ir.add_input ir "a" a;
        ignore (Ir.add ir k ~ins:a ~outs:y);
        Ir.add_output ir "y" y;
        let sim = Sim.create (Ir.freeze ir) in
        let name = Cell.kind_to_string k in
        let prev = ref (Array.make m false) and toggles = Array.make m 0 in
        for v = 0 to (1 lsl n) - 1 do
          Sim.set_bus sim "a" v;
          Sim.eval sim;
          let want = Cell.eval k (bits n v) in
          Array.iteri
            (fun o net ->
              if want.(o) <> !prev.(o) then toggles.(o) <- toggles.(o) + 1;
              check_bool
                (Printf.sprintf "%s out %d on %d" name o v)
                want.(o) sim.Sim.values.(net))
            y;
          prev := want
        done;
        Array.iteri
          (fun o net ->
            check_int (Printf.sprintf "%s out %d toggles" name o) toggles.(o)
              sim.Sim.toggles.(net))
          y
      end)
    Cell.all_kinds

(* Specgen macros, with the multiplier variant drawn too so the mux
   cells and the fused multiplier appear: after every random cycle the
   tape simulator and the reference interpreter hold identical net values
   and toggle counts. *)
let qtest_tape_vs_reference =
  QCheck.Test.make ~name:"tape sim = reference interpreter on Specgen macros"
    ~count:12 QCheck.small_nat (fun seed ->
      let spec = List.hd (Specgen.generate ~seed ~count:1) in
      let mul_kind =
        match seed mod 3 with
        | 0 -> Cell.Tg_nor
        | 1 -> Cell.Pass_1t
        | _ -> if spec.Spec.mcr <= 2 then Cell.Oai22_fused else Cell.Tg_nor
      in
      let m =
        Macro_rtl.build lib { (Spec.initial_config spec) with Macro_rtl.mul_kind }
      in
      let d = m.Macro_rtl.design in
      let tape = Sim.create d and reference = Sim.create d in
      let rng = Random.State.make [| seed |] in
      Ir.iter_weights d (fun row col copy _ ->
          let bit = Random.State.bool rng in
          Sim.set_weight tape ~row ~col ~copy bit;
          Sim.set_weight reference ~row ~col ~copy bit);
      let same () =
        tape.Sim.values = reference.Sim.values
        && tape.Sim.toggles = reference.Sim.toggles
      in
      let ok = ref true in
      for _ = 1 to 24 do
        List.iter
          (fun (name, bus) ->
            let v = Random.State.bits rng land ((1 lsl Array.length bus) - 1) in
            Sim.set_bus tape name v;
            Sim.set_bus reference name v)
          d.Ir.src.Ir.inputs;
        Sim.eval tape;
        Ref_sim.eval reference;
        ok := !ok && same ();
        Sim.clock tape;
        Sim.clock reference;
        ok := !ok && same ()
      done;
      !ok)

(* ---------------- the freeze against its reference ---------------- *)

(* [Ir.freeze] and [Ref_freeze.freeze] on the same netlist agree on
   every view, or raise the same exception with the same payload. *)
let freeze_outcome f =
  match f () with
  | v -> Ok v
  | exception Ir.Multiple_drivers n -> Error (Printf.sprintf "drivers %d" n)
  | exception Ir.Combinational_cycle i -> Error (Printf.sprintf "cycle %d" i)

let freeze_matches_reference (ir : Ir.t) =
  match
    (freeze_outcome (fun () -> Ir.freeze ir),
     freeze_outcome (fun () -> Ref_freeze.freeze ir))
  with
  | Error e, Error e' -> e = e'
  | Ok _, Error _ | Error _, Ok _ -> false
  | Ok d, Ok r ->
      let consumers net =
        let acc = ref [] in
        Ir.iter_consumers d net (fun i p -> acc := (i, p) :: !acc);
        List.rev !acc
      in
      let nets_agree = ref true in
      for net = 0 to d.Ir.n_nets - 1 do
        let drv =
          let i = Ir.driver d net in
          if i < 0 then None else Some (i, Ir.driver_pin d net)
        in
        nets_agree :=
          !nets_agree && drv = r.Ref_freeze.driver.(net)
          && consumers net = r.Ref_freeze.consumers.(net)
          && Ir.n_consumers d net = List.length r.Ref_freeze.consumers.(net)
      done;
      let weights = ref 0 and weights_agree = ref true in
      Ir.iter_weights d (fun row col copy i ->
          incr weights;
          weights_agree :=
            !weights_agree
            && Hashtbl.find_opt r.Ref_freeze.weight_index (row, col, copy)
               = Some i
            && Ir.weight_inst d ~row ~col ~copy = i);
      !nets_agree && !weights_agree
      && !weights = Hashtbl.length r.Ref_freeze.weight_index
      && d.Ir.comb_order = r.Ref_freeze.comb_order
      && d.Ir.seq = r.Ref_freeze.seq
      && d.Ir.storage = r.Ref_freeze.storage

(* Every Specgen macro and every searcher move applied to it, frozen
   as built, then corrupted twice: a two-gate loop spliced into the
   input of an existing instance, so everything downstream of that
   instance is stuck, then a second driver on an instance's output. *)
let qtest_freeze_vs_reference =
  QCheck.Test.make ~name:"freeze = reference freeze on Specgen macros"
    ~count:16 QCheck.small_nat (fun seed ->
      let spec = List.hd (Specgen.generate ~seed ~count:1) in
      let rng = Random.State.make [| seed |] in
      let configs =
        Spec.initial_config spec :: List.map snd (Metamorph.variants spec)
      in
      List.for_all
        (fun cfg ->
          let src = (Macro_rtl.build lib cfg).Macro_rtl.design.Ir.src in
          let intact = freeze_matches_reference src in
          let n = Vec.length src.Ir.insts in
          let rec pick_inst () =
            let inst = Vec.get src.Ir.insts (Random.State.int rng n) in
            if Array.length inst.Ir.ins > 0 then inst else pick_inst ()
          in
          let looped =
            let x = Ir.new_net src in
            let y = Builder.and2 (Builder.ctx_plain src) Ir.const1 x in
            ignore (Ir.add src Cell.Inv ~ins:[| y |] ~outs:[| x |]);
            (pick_inst ()).Ir.ins.(0) <- x;
            freeze_matches_reference src
          in
          let redriven =
            let out = (pick_inst ()).Ir.outs.(0) in
            ignore
              (Ir.add src Cell.Buf ~ins:[| Ir.const0 |] ~outs:[| out |]);
            freeze_matches_reference src
          in
          intact && looped && redriven)
        configs)

let () =
  Alcotest.run "netlist"
    [
      ( "ir",
        [
          Alcotest.test_case "multiple drivers" `Quick
            test_multiple_drivers_rejected;
          Alcotest.test_case "comb cycle" `Quick test_comb_cycle_rejected;
          Alcotest.test_case "register feedback" `Quick
            test_register_feedback_allowed;
          Alcotest.test_case "arity check" `Quick test_arity_checked;
          Alcotest.test_case "fanout load" `Quick test_fanout_load;
        ] );
      ( "builder",
        [
          Alcotest.test_case "rca exhaustive" `Quick test_rca_add_exhaustive;
          Alcotest.test_case "carry-select exhaustive" `Quick
            test_carry_select_exhaustive;
          Alcotest.test_case "carry-select cin" `Quick
            test_carry_select_with_cin;
          Alcotest.test_case "addsub signed" `Quick test_addsub_signed;
          Alcotest.test_case "sub/neg" `Quick test_sub_and_neg;
          Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter;
          Alcotest.test_case "greater_than" `Quick test_greater_than;
          Alcotest.test_case "equal/or-reduce" `Quick
            test_equal_const_and_reduce;
          Alcotest.test_case "mux + shift wiring" `Quick
            test_mux_and_shift_wiring;
        ] );
      ( "sim",
        [
          Alcotest.test_case "dff_en hold" `Quick test_dff_en_hold;
          Alcotest.test_case "enable cycles" `Quick test_en_cycles_counted;
          Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
          Alcotest.test_case "weight storage" `Quick test_weight_storage;
        ] );
      ( "views",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "verilog writer" `Quick test_verilog_writer;
          Alcotest.test_case "sim determinism" `Quick test_sim_determinism;
          Alcotest.test_case "reset stats" `Quick test_reset_stats;
          Alcotest.test_case "missing bus" `Quick test_missing_bus;
        ] );
      ( "tape",
        [
          Alcotest.test_case "every combinational kind" `Quick
            test_tape_every_kind;
          QCheck_alcotest.to_alcotest qtest_tape_vs_reference;
          QCheck_alcotest.to_alcotest qtest_freeze_vs_reference;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qtest_rca_random ]);
    ]
