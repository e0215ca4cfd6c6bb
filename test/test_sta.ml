(* Tests for timing windows, delay calculation, STA propagation and
   critical-path extraction. *)

module TW = Tka_sta.Timing_window
module DC = Tka_sta.Delay_calc
module Analysis = Tka_sta.Analysis
module CP = Tka_sta.Critical_path
module N = Tka_circuit.Netlist
module Builder = Tka_circuit.Builder
module Topo = Tka_circuit.Topo
module Lib = Tka_cell.Default_lib
module Interval = Tka_util.Interval

let check_f = Alcotest.(check (float 1e-9))
let check_f6 = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Timing_window                                                      *)
(* ------------------------------------------------------------------ *)

let test_window_make () =
  let w = TW.make ~eat:1. ~lat:2. ~slew_early:0.1 ~slew_late:0.2 in
  check_f "width" 1. (TW.width w);
  check_f "interval lo" 1. (Interval.lo (TW.interval w));
  check_f "interval hi" 2. (Interval.hi (TW.interval w))

let test_window_invalid () =
  Alcotest.(check bool) "eat > lat" true
    (try
       ignore (TW.make ~eat:2. ~lat:1. ~slew_early:0.1 ~slew_late:0.1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad slew" true
    (try
       ignore (TW.make ~eat:0. ~lat:1. ~slew_early:0. ~slew_late:0.1);
       false
     with Invalid_argument _ -> true)

let test_window_point () =
  let w = TW.point ~t50:3. ~slew:0.1 in
  check_f "width" 0. (TW.width w);
  check_f "eat = lat" w.TW.eat w.TW.lat

let test_window_merge () =
  let a = TW.make ~eat:1. ~lat:2. ~slew_early:0.10 ~slew_late:0.20 in
  let b = TW.make ~eat:0.5 ~lat:1.5 ~slew_early:0.30 ~slew_late:0.40 in
  let m = TW.merge a b in
  check_f "eat" 0.5 m.TW.eat;
  check_f "lat" 2. m.TW.lat;
  check_f "slew of earliest" 0.30 m.TW.slew_early;
  check_f "slew of latest" 0.20 m.TW.slew_late

let test_window_shift_extend () =
  let w = TW.make ~eat:1. ~lat:2. ~slew_early:0.1 ~slew_late:0.2 in
  let s = TW.shift 1. w in
  check_f "shift eat" 2. s.TW.eat;
  check_f "shift lat" 3. s.TW.lat;
  let e = TW.extend_lat 0.5 w in
  check_f "extend lat" 2.5 e.TW.lat;
  check_f "extend eat unchanged" 1. e.TW.eat

let test_window_onset_interval () =
  let w = TW.make ~eat:1. ~lat:2. ~slew_early:0.2 ~slew_late:0.4 in
  let o = TW.onset_interval w in
  check_f "onset lo" 0.9 (Interval.lo o);
  check_f "onset hi" 1.8 (Interval.hi o)

let test_window_latest_transition () =
  let w = TW.make ~eat:1. ~lat:2. ~slew_early:0.1 ~slew_late:0.3 in
  let t = TW.latest_transition w in
  check_f "t50" 2. t.Tka_waveform.Transition.t50;
  check_f "slew" 0.3 t.Tka_waveform.Transition.slew

(* ------------------------------------------------------------------ *)
(* Chains and trees                                                   *)
(* ------------------------------------------------------------------ *)

let chain n =
  let b = Builder.create ~name:"chain" () in
  let first = Builder.add_input b "in" in
  let prev = ref first in
  for i = 1 to n do
    let net = Builder.add_net b (Printf.sprintf "c%d" i) in
    ignore
      (Builder.add_gate b
         ~name:(Printf.sprintf "g%d" i)
         ~cell:Lib.inverter
         ~inputs:[ ("A", !prev) ]
         ~output:net);
    prev := net
  done;
  Builder.mark_output b !prev;
  Builder.finalize b

let test_delay_calc_net_load () =
  let nl = chain 2 in
  let n1 = (N.find_net_exn nl "c1").N.net_id in
  (* load of c1 = wire cap + INV_X1 pin cap *)
  check_f6 "load"
    ((N.net nl n1).N.wire_cap +. Tka_cell.Cell.input_capacitance Lib.inverter "A")
    (DC.net_load nl n1)

let test_stage_delay_includes_wire_rc () =
  let nl = chain 1 in
  let g = (Option.get (N.find_gate nl "g1")).N.gate_id in
  let out = (N.gate nl g).N.fanout in
  let load = DC.net_load nl out in
  let expect =
    Tka_cell.Delay_model.gate_delay ~cell:Lib.inverter ~load
    +. ((N.net nl out).N.wire_res *. 0.5 *. load)
  in
  check_f6 "stage delay" expect (DC.stage_delay nl g)

let test_holding_resistance_pi () =
  let nl = chain 1 in
  let pi = List.hd (N.inputs nl) in
  check_f6 "PI holding"
    (DC.input_driver_resistance +. (N.net nl pi).N.wire_res)
    (DC.holding_resistance nl pi)

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

let test_sta_chain_sums_delays () =
  let nl = chain 4 in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let expect =
    List.fold_left
      (fun acc i ->
        acc +. DC.stage_delay nl (Option.get (N.find_gate nl (Printf.sprintf "g%d" i))).N.gate_id)
      0. [ 1; 2; 3; 4 ]
  in
  check_f6 "circuit delay" expect (Analysis.circuit_delay a)

let test_sta_pi_window () =
  let nl = chain 1 in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let w = Analysis.window a (List.hd (N.inputs nl)) in
  check_f "PI at zero" 0. w.TW.lat;
  check_f "degenerate" 0. (TW.width w)

let test_sta_custom_input_arrival () =
  let nl = chain 1 in
  let topo = Topo.create nl in
  let input_arrival _ = TW.make ~eat:0.1 ~lat:0.4 ~slew_early:0.05 ~slew_late:0.06 in
  let a = Analysis.run ~input_arrival topo in
  let out = List.hd (N.outputs nl) in
  let w = Analysis.window a out in
  check_f6 "window width preserved" 0.3 (TW.width w)

let test_sta_extra_lat_propagates () =
  let nl = chain 3 in
  let topo = Topo.create nl in
  let base = Analysis.run topo in
  let bump = (N.find_net_exn nl "c1").N.net_id in
  let a = Analysis.run ~extra_lat:(fun nid -> if nid = bump then 0.1 else 0.) topo in
  check_f6 "downstream shifted" (Analysis.circuit_delay base +. 0.1)
    (Analysis.circuit_delay a);
  (* EAT unchanged *)
  let out = List.hd (N.outputs nl) in
  check_f6 "eat unchanged" (Analysis.window base out).TW.eat
    (Analysis.window a out).TW.eat

let test_sta_negative_extra_rejected () =
  let nl = chain 1 in
  let topo = Topo.create nl in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Analysis.run ~extra_lat:(fun _ -> -1.) topo);
       false
     with Invalid_argument _ -> true)

(* diverging paths: out via short (1 gate) and long (3 gates) branches *)
let diamond () =
  let b = Builder.create ~name:"diamond" () in
  let a = Builder.add_input b "a" in
  let n1 = Builder.add_net b "n1" in
  let n2 = Builder.add_net b "n2" in
  let n3 = Builder.add_net b "n3" in
  let out = Builder.add_net b "out" in
  ignore (Builder.add_gate b ~name:"s1" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n1);
  ignore (Builder.add_gate b ~name:"l1" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n2);
  ignore (Builder.add_gate b ~name:"l2" ~cell:Lib.inverter ~inputs:[ ("A", n2) ] ~output:n3);
  ignore
    (Builder.add_gate b ~name:"j" ~cell:(Lib.find_exn "NAND2_X1")
       ~inputs:[ ("A", n1); ("B", n3) ]
       ~output:out);
  Builder.mark_output b out;
  Builder.finalize b

let test_sta_window_merge_at_join () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let out = List.hd (N.outputs nl) in
  let w = Analysis.window a out in
  Alcotest.(check bool) "window has width" true (TW.width w > 0.);
  (* LAT comes from the longer branch *)
  let d_join = DC.stage_delay nl (Option.get (N.find_gate nl "j")).N.gate_id in
  let n3 = (N.find_net_exn nl "n3").N.net_id in
  check_f6 "lat via n3" ((Analysis.window a n3).TW.lat +. d_join) w.TW.lat

let test_worst_output () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  Alcotest.(check int) "single PO" (List.hd (N.outputs nl)) (Analysis.worst_output a);
  Alcotest.(check int) "arrivals list" 1 (List.length (Analysis.output_arrivals a))

(* ------------------------------------------------------------------ *)
(* Critical path                                                      *)
(* ------------------------------------------------------------------ *)

let test_critical_path_chain () =
  let nl = chain 3 in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let path = CP.worst a in
  Alcotest.(check int) "all nets on path" 4 (List.length path);
  (* input first, output last, arrivals non-decreasing *)
  let arrivals = List.map (fun s -> s.CP.step_arrival) path in
  let rec non_decreasing = function
    | a :: (b :: _ as tl) -> a <= b +. 1e-9 && non_decreasing tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone arrivals" true (non_decreasing arrivals);
  (match path with
  | first :: _ ->
    Alcotest.(check int) "starts at PI" (List.hd (N.inputs nl)) first.CP.step_net
  | [] -> Alcotest.fail "empty path")

let test_critical_path_diamond_takes_long_branch () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let path = CP.worst a in
  let names = List.map (fun s -> (N.net nl s.CP.step_net).N.net_name) path in
  Alcotest.(check bool) "goes through n2/n3" true
    (List.mem "n2" names && List.mem "n3" names)

let test_near_critical_enumerates_both () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  (* with a huge slack allowance both branches appear *)
  let paths = CP.near_critical ~slack:10. a in
  Alcotest.(check bool) "at least two" true (List.length paths >= 2);
  (* worst first *)
  (match paths with
  | first :: _ ->
    let worst_names = List.map (fun s -> (N.net nl s.CP.step_net).N.net_name) (CP.worst a) in
    let got = List.map (fun s -> (N.net nl s.CP.step_net).N.net_name) first in
    Alcotest.(check (list string)) "worst first" worst_names got
  | [] -> Alcotest.fail "no paths");
  (* zero slack keeps only the critical one *)
  let tight = CP.near_critical ~slack:0. a in
  Alcotest.(check int) "only critical" 1 (List.length tight)

let test_near_critical_limit () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let paths = CP.near_critical ~slack:10. ~limit:1 a in
  Alcotest.(check int) "limited" 1 (List.length paths)

(* ------------------------------------------------------------------ *)
(* Constraints                                                        *)
(* ------------------------------------------------------------------ *)

module Con = Tka_sta.Constraints

let test_constraints_default_period () =
  let nl = chain 3 in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let c = Con.create a in
  check_f6 "5%% guard band" (1.05 *. Analysis.circuit_delay a) (Con.clock_period c);
  Alcotest.(check bool) "worst slack positive" true (Con.worst_slack c > 0.);
  Alcotest.(check (list int)) "no violations" [] (Con.violations c)

let test_constraints_required_propagates () =
  let nl = chain 3 in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let c = Con.create ~clock_period:1.0 a in
  let out = List.hd (N.outputs nl) in
  check_f6 "required at PO" 1.0 (Con.required c out);
  (* required upstream = PO required minus downstream stage delays *)
  let g3 = (Option.get (N.find_gate nl "g3")).N.gate_id in
  let c2 = (N.find_net_exn nl "c2").N.net_id in
  check_f6 "required one stage up"
    (1.0 -. Tka_sta.Delay_calc.stage_delay nl g3)
    (Con.required c c2)

let test_constraints_violations () =
  let nl = chain 3 in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let tight = 0.5 *. Analysis.circuit_delay a in
  let c = Con.create ~clock_period:tight a in
  Alcotest.(check bool) "worst slack negative" true (Con.worst_slack c < 0.);
  let v = Con.violations c in
  Alcotest.(check bool) "violations found" true (v <> []);
  (* worst first *)
  (match v with
  | first :: _ ->
    check_f6 "worst is head" (Con.worst_slack c) (Con.slack c first)
  | [] -> ());
  Alcotest.(check bool) "critical query" true
    (Con.critical_through c (List.hd v))

let test_constraints_pinned_output () =
  let nl = chain 2 in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let out = List.hd (N.outputs nl) in
  let c =
    Con.create ~clock_period:9.
      ~output_required:(fun po -> if po = out then Some 0.01 else None)
      a
  in
  Alcotest.(check bool) "pinned requirement violated" true (Con.slack c out < 0.)

(* ------------------------------------------------------------------ *)
(* SDF-lite (written against this library's stage delays)             *)
(* ------------------------------------------------------------------ *)

module Sdf = Tka_circuit.Sdf_lite

let test_sdf_roundtrip () =
  let nl = diamond () in
  let delay_of (g : N.gate) = DC.stage_delay nl g.N.gate_id in
  let text = Sdf.print ~delay_of nl in
  let ann = Sdf.parse text in
  Alcotest.(check (option string)) "design" (Some "diamond") ann.Sdf.sdf_design;
  (* one arc per gate input pin *)
  let expected_arcs =
    Array.fold_left (fun acc g -> acc + List.length g.N.fanin) 0 (N.gates nl)
  in
  Alcotest.(check int) "arc count" expected_arcs (List.length ann.Sdf.sdf_arcs);
  Alcotest.(check (list (triple string (float 1e-9) (float 1e-9))))
    "no mismatches" []
    (Sdf.check_against ann ~delay_of nl)

let test_sdf_check_detects_mismatch () =
  let nl = diamond () in
  let delay_of (g : N.gate) = DC.stage_delay nl g.N.gate_id in
  let text = Sdf.print ~delay_of nl in
  let ann = Sdf.parse text in
  let skewed (g : N.gate) = delay_of g +. 0.1 in
  let mismatches = Sdf.check_against ann ~delay_of:skewed nl in
  Alcotest.(check int) "all arcs mismatch" (List.length ann.Sdf.sdf_arcs)
    (List.length mismatches)

let test_sdf_noisy_export () =
  (* exporting noisy delays: arcs grow by the per-net noise *)
  let nl = diamond () in
  let bump = (N.find_net_exn nl "n3").N.net_id in
  let noisy (g : N.gate) =
    DC.stage_delay nl g.N.gate_id +. (if g.N.fanout = bump then 0.05 else 0.)
  in
  let ann = Sdf.parse (Sdf.print ~delay_of:noisy nl) in
  let l2 = List.filter (fun (i, _, _, _) -> i = "l2") ann.Sdf.sdf_arcs in
  (match l2 with
  | [ (_, _, _, d) ] ->
    let g = Option.get (N.find_gate nl "l2") in
    check_f6 "noise included" (DC.stage_delay nl g.N.gate_id +. 0.05) d
  | _ -> Alcotest.fail "expected one l2 arc")

let expect_sdf_error src =
  try
    ignore (Sdf.parse src);
    Alcotest.fail "expected Parse_error"
  with Tka_util.Scan.Parse_error _ -> ()

let test_sdf_errors () =
  expect_sdf_error "";
  expect_sdf_error "(DELAYFILE";
  expect_sdf_error "(DELAYFILE (WHAT))";
  expect_sdf_error "(DELAYFILE (CELL (DELAY (ABSOLUTE))))";
  expect_sdf_error
    "(DELAYFILE (CELL (INSTANCE g) (DELAY (ABSOLUTE (IOPATH A Y (oops))))))"

(* ------------------------------------------------------------------ *)
(* Report_timing                                                      *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_timing_basic () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let r = Tka_sta.Report_timing.worst a in
  Alcotest.(check bool) "mentions a cell" true (contains_sub r "INV_X1");
  Alcotest.(check bool) "mentions gate/net points" true (contains_sub r "l2/n3");
  Alcotest.(check bool) "input marked" true (contains_sub r "(input)")

let test_report_timing_with_constraints () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let met = Con.create ~clock_period:9. a in
  let r = Tka_sta.Report_timing.worst ~constraints:met a in
  Alcotest.(check bool) "met" true (contains_sub r "MET");
  let tight = Con.create ~clock_period:0.01 a in
  let r2 = Tka_sta.Report_timing.worst ~constraints:tight a in
  Alcotest.(check bool) "violated" true (contains_sub r2 "VIOLATED")

let test_report_timing_noise_column () =
  let nl = diamond () in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let bump = (N.find_net_exn nl "n3").N.net_id in
  let r =
    Tka_sta.Report_timing.worst
      ~extra_delay:(fun nid -> if nid = bump then 0.123 else 0.)
      a
  in
  Alcotest.(check bool) "noise column rendered" true (contains_sub r "0.1230")

(* ------------------------------------------------------------------ *)
(* QCheck window properties                                           *)
(* ------------------------------------------------------------------ *)

let arb_window =
  QCheck.make
    ~print:(fun w -> Format.asprintf "%a" TW.pp w)
    QCheck.Gen.(
      let* eat = float_range 0. 5. in
      let* width = float_range 0. 2. in
      let* s1 = float_range 0.01 0.5 in
      let* s2 = float_range 0.01 0.5 in
      return (TW.make ~eat ~lat:(eat +. width) ~slew_early:s1 ~slew_late:s2))

let window_qcheck =
  let open QCheck in
  [
    Test.make ~name:"merge is commutative" ~count:200 (pair arb_window arb_window)
      (fun (a, b) -> TW.equal (TW.merge a b) (TW.merge b a));
    Test.make ~name:"merge is associative" ~count:200
      (triple arb_window arb_window arb_window) (fun (a, b, c) ->
        TW.equal (TW.merge a (TW.merge b c)) (TW.merge (TW.merge a b) c));
    Test.make ~name:"merge widens" ~count:200 (pair arb_window arb_window)
      (fun (a, b) ->
        let m = TW.merge a b in
        TW.width m >= TW.width a -. 1e-9 || TW.width m >= TW.width b -. 1e-9);
    Test.make ~name:"merge contains both intervals" ~count:200
      (pair arb_window arb_window) (fun (a, b) ->
        let m = TW.merge a b in
        Interval.subset (TW.interval a) (TW.interval m)
        && Interval.subset (TW.interval b) (TW.interval m));
    Test.make ~name:"shift preserves width" ~count:200
      (pair (float_range (-3.) 3.) arb_window) (fun (d, w) ->
        Float.abs (TW.width (TW.shift d w) -. TW.width w) < 1e-9);
    Test.make ~name:"onset interval inside shifted window" ~count:200 arb_window
      (fun w ->
        let o = TW.onset_interval w in
        Interval.lo o <= w.TW.eat && Interval.hi o <= w.TW.lat);
  ]

let () =
  Alcotest.run "tka_sta"
    [
      ( "timing_window",
        [
          Alcotest.test_case "make" `Quick test_window_make;
          Alcotest.test_case "invalid" `Quick test_window_invalid;
          Alcotest.test_case "point" `Quick test_window_point;
          Alcotest.test_case "merge" `Quick test_window_merge;
          Alcotest.test_case "shift/extend" `Quick test_window_shift_extend;
          Alcotest.test_case "onset interval" `Quick test_window_onset_interval;
          Alcotest.test_case "latest transition" `Quick test_window_latest_transition;
        ] );
      ( "delay_calc",
        [
          Alcotest.test_case "net load" `Quick test_delay_calc_net_load;
          Alcotest.test_case "stage delay" `Quick test_stage_delay_includes_wire_rc;
          Alcotest.test_case "PI holding" `Quick test_holding_resistance_pi;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "chain sums" `Quick test_sta_chain_sums_delays;
          Alcotest.test_case "PI window" `Quick test_sta_pi_window;
          Alcotest.test_case "custom arrivals" `Quick test_sta_custom_input_arrival;
          Alcotest.test_case "extra_lat propagates" `Quick test_sta_extra_lat_propagates;
          Alcotest.test_case "negative extra" `Quick test_sta_negative_extra_rejected;
          Alcotest.test_case "window merge" `Quick test_sta_window_merge_at_join;
          Alcotest.test_case "worst output" `Quick test_worst_output;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "default period" `Quick test_constraints_default_period;
          Alcotest.test_case "required propagates" `Quick
            test_constraints_required_propagates;
          Alcotest.test_case "violations" `Quick test_constraints_violations;
          Alcotest.test_case "pinned output" `Quick test_constraints_pinned_output;
        ] );
      ( "report_timing",
        [
          Alcotest.test_case "basic" `Quick test_report_timing_basic;
          Alcotest.test_case "constraints" `Quick test_report_timing_with_constraints;
          Alcotest.test_case "noise column" `Quick test_report_timing_noise_column;
        ] );
      ("window properties", List.map QCheck_alcotest.to_alcotest window_qcheck);
      ( "sdf",
        [
          Alcotest.test_case "roundtrip" `Quick test_sdf_roundtrip;
          Alcotest.test_case "mismatch detection" `Quick test_sdf_check_detects_mismatch;
          Alcotest.test_case "noisy export" `Quick test_sdf_noisy_export;
          Alcotest.test_case "errors" `Quick test_sdf_errors;
        ] );
      ( "critical_path",
        [
          Alcotest.test_case "chain" `Quick test_critical_path_chain;
          Alcotest.test_case "long branch" `Quick
            test_critical_path_diamond_takes_long_branch;
          Alcotest.test_case "near critical" `Quick test_near_critical_enumerates_both;
          Alcotest.test_case "limit" `Quick test_near_critical_limit;
        ] );
    ]
