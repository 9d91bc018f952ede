(* Tests for the bit-sliced simulators: popcount (single- and
   multi-word), exhaustive word-level cell evaluation (all input
   combinations packed as lanes), directed lane edge tests at both ends
   of each native word (lanes 0/62 for Sim_packed, 62..126 for
   Sim_multiword), lane-count validation including the full-width
   mask = -1 edge, and packed power accounting.

   The cross-engine equivalence battery (per-lane state, counters,
   verify/diffcheck/equiv verdict parity) lives in conformance.ml and
   runs from test_conformance.ml for every engine pair. *)

let lib = Library.n40 ()
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- popcount ---------------- *)

let naive_popcount w =
  let c = ref 0 in
  for i = 0 to Sys.int_size - 1 do
    if (w lsr i) land 1 = 1 then incr c
  done;
  !c

let test_popcount_directed () =
  check_int "0" 0 (Intmath.popcount 0);
  check_int "1" 1 (Intmath.popcount 1);
  check_int "-1 (all 63 bits)" Sys.int_size (Intmath.popcount (-1));
  check_int "max_int" (Sys.int_size - 1) (Intmath.popcount max_int);
  check_int "min_int (sign bit only)" 1 (Intmath.popcount min_int);
  check_int "0xF0F" 8 (Intmath.popcount 0xF0F)

let popcount_prop =
  QCheck.Test.make ~count:500 ~name:"popcount matches bit loop"
    QCheck.int (fun w -> Intmath.popcount w = naive_popcount w)

(* Multi-word arrays, as Sim_multiword accounts toggles: the popcount
   of a k-word lane vector is the sum of the per-word popcounts, and it
   must match one naive bit loop over the whole array. *)
let popcount_multiword_prop =
  QCheck.Test.make ~count:300
    ~name:"multi-word popcount sum matches naive bit loop over the array"
    QCheck.(array_of_size (Gen.int_range 1 4) int)
    (fun ws ->
      Array.fold_left (fun acc w -> acc + Intmath.popcount w) 0 ws
      = Array.fold_left (fun acc w -> acc + naive_popcount w) 0 ws)

(* ---------------- word-level cell eval, exhaustive ---------------- *)

(* Every input combination of a cell packed as one lane each: lane [c]
   carries combination [c], so a single eval_word call checks the whole
   truth table against the scalar eval. *)
let test_eval_word_exhaustive () =
  List.iter
    (fun k ->
      if not (Cell.is_sequential k || Cell.is_storage k) then begin
        let n = Cell.n_inputs k in
        let combos = 1 lsl n in
        assert (combos <= Sim_packed.lanes);
        let ins_w =
          Array.init n (fun p ->
              let w = ref 0 in
              for c = 0 to combos - 1 do
                w := !w lor (((c lsr p) land 1) lsl c)
              done;
              !w)
        in
        let outs_w = Cell.eval_word k ins_w in
        for c = 0 to combos - 1 do
          let ins = Array.init n (fun p -> (c lsr p) land 1 = 1) in
          let outs = Cell.eval k ins in
          Array.iteri
            (fun o expected ->
              check_bool
                (Printf.sprintf "%s combo %d out %d" (Cell.kind_to_string k)
                   c o)
                expected
                ((outs_w.(o) lsr c) land 1 = 1))
            outs
        done
      end)
    Cell.all_kinds

(* ---------------- the compiled tape ---------------- *)

(* One instance of every combinational kind in a one-cell netlist, with
   all 2^n input patterns packed as the lanes of one simulator: lane [c]
   sees pattern [c], then its complement. After each [eval] every lane's
   outputs must equal [Cell.eval], and every net's lane-summed toggle
   count must equal the sum of the per-lane scalar [Sim] counts. *)
let test_tape_every_kind () =
  List.iter
    (fun k ->
      if not (Cell.is_sequential k || Cell.is_storage k) then begin
        let n = Cell.n_inputs k and m = Cell.n_outputs k in
        let combos = 1 lsl n in
        let ir = Ir.create () in
        let a = Ir.new_bus ir n and y = Ir.new_bus ir m in
        Ir.add_input ir "a" a;
        ignore (Ir.add ir k ~ins:a ~outs:y);
        Ir.add_output ir "y" y;
        let d = Ir.freeze ir in
        let packed = Sim_packed.create ~n_lanes:combos d in
        let scalars = Array.init combos (fun _ -> Sim.create d) in
        let name = Cell.kind_to_string k in
        List.iter
          (fun pattern ->
            let vs = Array.init combos pattern in
            Sim_packed.set_bus_lanes packed "a" vs;
            Sim_packed.eval packed;
            Array.iteri
              (fun c sim ->
                Sim.set_bus sim "a" vs.(c);
                Sim.eval sim;
                let bit p = (vs.(c) lsr p) land 1 = 1 in
                let want = Cell.eval k (Array.init n bit) in
                check_int
                  (Printf.sprintf "%s lane %d outputs" name c)
                  (Array.fold_right
                     (fun b acc -> (acc lsl 1) lor Bool.to_int b)
                     want 0)
                  (Sim_packed.read_bus_lane packed "y" c))
              scalars;
            for net = 0 to d.Ir.n_nets - 1 do
              check_int
                (Printf.sprintf "%s net %d toggles" name net)
                (Array.fold_left
                   (fun acc sim -> acc + sim.Sim.toggles.(net))
                   0 scalars)
                packed.Sim_packed.toggles.(net)
            done)
          [ (fun c -> c); (fun c -> lnot c land (combos - 1)) ]
      end)
    Cell.all_kinds

(* ---------------- directed lane edge tests ---------------- *)

(* A 3-bit inverter: lane 0 and lane 62 carry distinct payloads, every
   other lane idles at zero — the two ends of the word must not leak
   into each other or into the middle. *)
let inverter_harness () =
  let ir = Ir.create () in
  let a = Ir.new_bus ir 3 in
  Ir.add_input ir "a" a;
  let out =
    Array.map
      (fun net ->
        let o = Ir.new_net ir in
        ignore (Ir.add ir Cell.Inv ~ins:[| net |] ~outs:[| o |]);
        o)
      a
  in
  Ir.add_output ir "out" out;
  Ir.freeze ir

let test_lane_edges () =
  let d = inverter_harness () in
  let psim = Sim_packed.create d in
  check_int "full width" Sys.int_size (Sim_packed.lanes_of psim);
  let vs = Array.make Sim_packed.lanes 0 in
  vs.(0) <- 5;
  vs.(Sim_packed.lanes - 1) <- 2;
  Sim_packed.set_bus_lanes psim "a" vs;
  Sim_packed.eval psim;
  check_int "lane 0" (lnot 5 land 7) (Sim_packed.read_bus_lane psim "out" 0);
  check_int "lane 62"
    (lnot 2 land 7)
    (Sim_packed.read_bus_lane psim "out" (Sim_packed.lanes - 1));
  check_int "idle middle lane" 7 (Sim_packed.read_bus_lane psim "out" 31);
  (* toggle accounting is exact per lane: only the two driven lanes
     toggled bits 0 and 2 of the input bus *)
  let bus = Ir.input_bus d.Ir.src "a" in
  check_int "bit0 toggles (only lane 0's 0b101)" 1
    psim.Sim_packed.toggles.(bus.(0));
  check_int "bit1 toggles (only lane 62's 0b010)" 1
    psim.Sim_packed.toggles.(bus.(1));
  check_int "bit2 toggles (only lane 0's 0b101)" 1
    psim.Sim_packed.toggles.(bus.(2));
  (* re-driving the identical pattern adds no toggles *)
  Sim_packed.set_bus_lanes psim "a" vs;
  check_int "no toggle on identical drive" 1
    psim.Sim_packed.toggles.(bus.(0))

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects_with f expected =
  try
    f ();
    `Accepted
  with Invalid_argument msg ->
    if contains msg expected then `Rejected_as_expected
    else `Wrong_message msg

let check_rejects name f expected =
  match rejects_with f expected with
  | `Rejected_as_expected -> ()
  | `Accepted -> Alcotest.failf "%s: accepted" name
  | `Wrong_message msg ->
      Alcotest.failf "%s: message %S lacks %S" name msg expected

let test_lane_count_validation () =
  let d = inverter_harness () in
  (* the rejection message reports the caller's requested width and the
     engine's valid range *)
  check_rejects "0 lanes rejected"
    (fun () -> ignore (Sim_packed.create ~n_lanes:0 d))
    (Printf.sprintf "requested 0 lanes, valid range is 1..%d"
       Sim_packed.lanes);
  check_rejects "64 lanes rejected"
    (fun () -> ignore (Sim_packed.create ~n_lanes:(Sim_packed.lanes + 1) d))
    (Printf.sprintf "requested %d lanes, valid range is 1..%d"
       (Sim_packed.lanes + 1) Sim_packed.lanes);
  let one = Sim_packed.create ~n_lanes:1 d in
  check_int "single lane" 1 (Sim_packed.lanes_of one)

(* Explicitly requesting all [lanes] lanes takes the mask = -1 branch
   (all 63 bits set, which is the all-ones native int): every lane must
   drive, read back and account toggles independently — in particular
   lane 62, whose bit reaches the word's sign position. *)
let test_full_width_mask_edge () =
  let d = inverter_harness () in
  let psim = Sim_packed.create ~n_lanes:Sim_packed.lanes d in
  check_int "explicit full width" Sys.int_size (Sim_packed.lanes_of psim);
  let vs = Array.init Sim_packed.lanes (fun l -> l land 7) in
  Sim_packed.set_bus_lanes psim "a" vs;
  Sim_packed.eval psim;
  for l = 0 to Sim_packed.lanes - 1 do
    check_int
      (Printf.sprintf "lane %d inverted" l)
      (lnot vs.(l) land 7)
      (Sim_packed.read_bus_lane psim "out" l)
  done;
  (* per-bit toggles: bit [b] of the input bus toggled once in every
     lane whose payload has bit [b] set *)
  let bus = Ir.input_bus d.Ir.src "a" in
  Array.iteri
    (fun b net ->
      let expected =
        Array.fold_left
          (fun acc v -> acc + ((v lsr b) land 1))
          0 vs
      in
      check_int
        (Printf.sprintf "bit %d toggles" b)
        expected
        psim.Sim_packed.toggles.(net))
    bus

(* ---------------- multi-word lane boundaries ---------------- *)

(* Payloads pinned to both sides of every 63-lane word boundary of a
   252-lane Sim_multiword: lanes 62/63 straddle the first boundary,
   125/126 the second, 251 is the last lane of the last word. No lane
   may leak into a neighbour, and word-local toggle accounting must sum
   exactly. *)
let test_multiword_word_boundaries () =
  let d = inverter_harness () in
  let n = 4 * Sim_packed.lanes in
  let sim = Sim_multiword.create ~n_lanes:n d in
  check_int "252 lanes" n (Sim_multiword.lanes_of sim);
  check_int "4 words" 4 (Sim_multiword.words_of sim);
  let driven = [ 0; 62; 63; 64; 125; 126; 251 ] in
  let vs = Array.make n 0 in
  List.iteri (fun i l -> vs.(l) <- (i + 1) land 7) driven;
  Sim_multiword.set_bus_lanes sim "a" vs;
  Sim_multiword.eval sim;
  List.iter
    (fun l ->
      check_int
        (Printf.sprintf "lane %d inverted" l)
        (lnot vs.(l) land 7)
        (Sim_multiword.read_bus_lane sim "out" l))
    driven;
  (* neighbours of each boundary lane stay idle *)
  List.iter
    (fun l ->
      check_int
        (Printf.sprintf "idle lane %d" l)
        7
        (Sim_multiword.read_bus_lane sim "out" l))
    [ 1; 61; 65; 124; 127; 250 ];
  let bus = Ir.input_bus d.Ir.src "a" in
  Array.iteri
    (fun b net ->
      let expected =
        Array.fold_left (fun acc v -> acc + ((v lsr b) land 1)) 0 vs
      in
      check_int
        (Printf.sprintf "bit %d toggles across words" b)
        expected
        sim.Sim_multiword.toggles.(net))
    bus;
  (* re-driving the identical pattern adds no toggles *)
  let before = Array.copy sim.Sim_multiword.toggles in
  Sim_multiword.set_bus_lanes sim "a" vs;
  check_bool "no toggle on identical drive" true
    (before = sim.Sim_multiword.toggles)

(* extract_lane / per-lane reads at the word-boundary lanes of a
   partial last word (127 lanes = 2 words + 1 lane) *)
let test_multiword_partial_last_word () =
  let d = inverter_harness () in
  let sim = Sim_multiword.create ~n_lanes:127 d in
  check_int "3 words for 127 lanes" 3 (Sim_multiword.words_of sim);
  let vs = Array.make 127 0 in
  List.iter (fun l -> vs.(l) <- l land 7) [ 62; 63; 64; 125; 126 ];
  Sim_multiword.set_bus_lanes sim "a" vs;
  Sim_multiword.eval sim;
  List.iter
    (fun l ->
      check_int
        (Printf.sprintf "lane %d read" l)
        (lnot vs.(l) land 7)
        (Sim_multiword.read_bus_lane sim "out" l);
      let values = Sim_multiword.extract_lane sim l in
      let bus = Ir.input_bus d.Ir.src "a" in
      Array.iteri
        (fun b net ->
          check_bool
            (Printf.sprintf "lane %d extract bit %d" l b)
            ((vs.(l) lsr b) land 1 = 1)
            values.(net))
        bus)
    [ 62; 63; 64; 125; 126 ];
  check_rejects "128 lanes rejected at width 127"
    (fun () ->
      let module E = (val Slice.multiword 127) in
      ignore (E.create ~n_lanes:128 d))
    "requested 128 lanes, valid range is 1..127";
  check_rejects "beyond max_lanes rejected"
    (fun () -> ignore (Sim_multiword.create ~n_lanes:(Sim_multiword.max_lanes + 1) d))
    (Printf.sprintf "requested %d lanes, valid range is 1..%d"
       (Sim_multiword.max_lanes + 1) Sim_multiword.max_lanes)

(* ---------------- packed power accounting ---------------- *)

(* With a single lane, the packed Monte Carlo path must reproduce the
   scalar power estimate to float tolerance: same counters, same
   effective cycles. *)
let test_packed_power_single_lane () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:8 ~cols:16 ~mcr:1
         ~input_prec:Precision.int4 ~weight_prec:Precision.int4)
  in
  let run estimate create load stream =
    let rng = Rng.create 0xACC in
    let sim = create m.Macro_rtl.design in
    load rng sim;
    stream rng sim;
    estimate sim
  in
  let scalar =
    run
      (fun sim -> Power.estimate m.Macro_rtl.design lib sim ~freq_hz:5e8 ~vdd:0.9 ())
      Sim.create
      (fun rng sim ->
        Testbench.load_weights m sim ~copy:0
          (Testbench.random_weights rng m ~density:0.5);
        Sim.reset_stats sim)
      (fun rng sim ->
        Testbench.run_stream m sim ~rng ~macs:3 ~input_density:0.5)
  in
  let packed =
    run
      (fun sim ->
        Power.estimate_packed m.Macro_rtl.design lib sim ~freq_hz:5e8
          ~vdd:0.9 ())
      (Sim_packed.create ~n_lanes:1)
      (fun rng sim ->
        Testbench.load_weights_lanes m sim ~copy:0
          [| Testbench.random_weights rng m ~density:0.5 |];
        Sim_packed.reset_stats sim)
      (fun rng sim ->
        Testbench.run_stream_packed m sim ~rng ~macs:3 ~input_density:0.5)
  in
  let close a b =
    abs_float (a -. b) <= 1e-9 *. (abs_float a +. abs_float b +. 1.0)
  in
  check_bool "total power" true (close scalar.Power.total_w packed.Power.total_w);
  check_bool "dynamic power" true
    (close scalar.Power.dynamic_w packed.Power.dynamic_w);
  check_bool "clock power" true (close scalar.Power.clock_w packed.Power.clock_w);
  check_bool "energy/cycle" true
    (close scalar.Power.energy_per_cycle_fj packed.Power.energy_per_cycle_fj)

(* full-width Monte Carlo run: sane report, lanes× sample mass *)
let test_packed_power_full_width () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:8 ~cols:16 ~mcr:1
         ~input_prec:Precision.int4 ~weight_prec:Precision.int4)
  in
  let p =
    Design_point.measure_power_packed lib m ~freq_hz:5e8 ~vdd:0.9
      ~input_density:0.5 ~weight_density:0.5 ~macs:3
  in
  check_bool "positive total" true (p.Power.total_w > 0.0);
  check_bool "dynamic dominated sanity" true
    (p.Power.dynamic_w > 0.0 && p.Power.clock_w > 0.0)

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "sim_packed"
    [
      ( "popcount",
        [
          Alcotest.test_case "directed" `Quick test_popcount_directed;
          QCheck_alcotest.to_alcotest popcount_prop;
          QCheck_alcotest.to_alcotest popcount_multiword_prop;
        ] );
      ( "eval_word",
        [
          Alcotest.test_case "exhaustive truth tables vs scalar eval" `Quick
            test_eval_word_exhaustive;
        ] );
      ( "tape",
        [
          Alcotest.test_case "every combinational kind, patterns as lanes"
            `Quick test_tape_every_kind;
        ] );
      ( "lane_edges",
        [
          Alcotest.test_case "lane 0 / lane 62 edges" `Quick test_lane_edges;
          Alcotest.test_case "lane count validation" `Quick
            test_lane_count_validation;
          Alcotest.test_case "full-width mask = -1 edge" `Quick
            test_full_width_mask_edge;
          Alcotest.test_case "multi-word 63-lane boundaries" `Quick
            test_multiword_word_boundaries;
          Alcotest.test_case "multi-word partial last word" `Quick
            test_multiword_partial_last_word;
        ] );
      ( "power",
        [
          Alcotest.test_case "single-lane packed == scalar estimate" `Quick
            test_packed_power_single_lane;
          Alcotest.test_case "full-width Monte Carlo report" `Quick
            test_packed_power_full_width;
        ] );
    ]
