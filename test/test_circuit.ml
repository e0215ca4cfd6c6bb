(* Tests for netlist construction, topological utilities and the two
   interchange parsers. *)

module N = Tka_circuit.Netlist
module Builder = Tka_circuit.Builder
module Topo = Tka_circuit.Topo
module Nf = Tka_circuit.Netlist_format
module Spef = Tka_circuit.Spef_lite
module Dot = Tka_circuit.Dot
module Cs = Tka_circuit.Circuit_stats
module Lib = Tka_cell.Default_lib

let check_f = Alcotest.(check (float 1e-9))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* a -> inv -> n1 -> nand2(n1, b) -> n2 (output), coupling n1~n2 *)
let small () =
  let b = Builder.create ~name:"small" () in
  let a = Builder.add_input b "a" in
  let bb = Builder.add_input b "b" in
  let n1 = Builder.add_net b ~wire_cap:0.01 ~wire_res:1.0 "n1" in
  let n2 = Builder.add_net b "n2" in
  let g1 =
    Builder.add_gate b ~name:"g1" ~cell:Lib.inverter ~inputs:[ ("A", a) ]
      ~output:n1
  in
  let g2 =
    Builder.add_gate b ~name:"g2" ~cell:(Lib.find_exn "NAND2_X1")
      ~inputs:[ ("A", n1); ("B", bb) ]
      ~output:n2
  in
  Builder.mark_output b n2;
  let c = Builder.add_coupling b n1 n2 0.004 in
  (Builder.finalize b, a, bb, n1, n2, g1, g2, c)

(* ------------------------------------------------------------------ *)
(* Builder and netlist                                                *)
(* ------------------------------------------------------------------ *)

let test_build_small () =
  let nl, a, _, n1, n2, g1, _, c = small () in
  Alcotest.(check int) "nets" 4 (N.num_nets nl);
  Alcotest.(check int) "gates" 2 (N.num_gates nl);
  Alcotest.(check int) "couplings" 1 (N.num_couplings nl);
  Alcotest.(check int) "inputs" 2 (List.length (N.inputs nl));
  Alcotest.(check (list int)) "outputs" [ n2 ] (N.outputs nl);
  Alcotest.(check bool) "a is PI" true ((N.net nl a).N.driver = N.Primary_input);
  (match (N.net nl n1).N.driver with
  | N.Driven_by g -> Alcotest.(check int) "driver" g1 g
  | N.Primary_input -> Alcotest.fail "n1 should be driven");
  Alcotest.(check int) "n1 sinks" 1 (List.length (N.net nl n1).N.sinks);
  Alcotest.(check int) "coupling id" 0 c

let test_netlist_lookup () =
  let nl, _, _, n1, _, _, _, _ = small () in
  (match N.find_net nl "n1" with
  | Some n -> Alcotest.(check int) "by name" n1 n.N.net_id
  | None -> Alcotest.fail "n1 not found");
  Alcotest.(check bool) "missing" true (N.find_net nl "zz" = None);
  Alcotest.(check bool) "gate by name" true (N.find_gate nl "g2" <> None);
  Alcotest.(check bool) "find_net_exn raises" true
    (try
       ignore (N.find_net_exn nl "zz");
       false
     with Not_found -> true)

let test_netlist_caps () =
  let nl, _, _, n1, n2, _, _, _ = small () in
  check_f "wire cap" 0.01 (N.net nl n1).N.wire_cap;
  (* n1 feeds NAND2_X1 pin A *)
  check_f "pin cap" 0.0034 (N.total_pin_cap nl n1);
  check_f "ground = wire + pins" (0.01 +. 0.0034) (N.ground_cap nl n1);
  check_f "coupling" 0.004 (N.total_coupling_cap nl n1);
  check_f "total" (0.01 +. 0.0034 +. 0.004) (N.total_cap nl n1);
  check_f "n2 no pins" 0. (N.total_pin_cap nl n2)

let test_coupling_partner () =
  let nl, _, _, n1, n2, _, _, c = small () in
  Alcotest.(check int) "partner of n1" n2 (N.coupling_partner nl c n1);
  Alcotest.(check int) "partner of n2" n1 (N.coupling_partner nl c n2);
  Alcotest.(check bool) "bad net raises" true
    (try
       ignore (N.coupling_partner nl c 0);
       false
     with Invalid_argument _ -> true)

let test_fan_queries () =
  let nl, a, bb, n1, n2, _, _, _ = small () in
  Alcotest.(check (list int)) "fanin of n2" [ n1; bb ] (N.fanin_nets nl n2);
  Alcotest.(check (list int)) "fanout of a" [ n1 ] (N.fanout_nets nl a);
  Alcotest.(check (list int)) "fanin of PI" [] (N.fanin_nets nl a)

let expect_invalid f =
  try
    ignore (f ());
    Alcotest.fail "expected Builder.Invalid"
  with Builder.Invalid _ -> ()

let test_builder_duplicate_net () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      ignore (Builder.add_input b "x");
      Builder.add_net b "x")

let test_builder_duplicate_gate () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let a = Builder.add_input b "a" in
      let n1 = Builder.add_net b "n1" in
      let n2 = Builder.add_net b "n2" in
      ignore (Builder.add_gate b ~name:"g" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n1);
      Builder.add_gate b ~name:"g" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n2)

let test_builder_multiple_drivers () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let a = Builder.add_input b "a" in
      let n1 = Builder.add_net b "n1" in
      ignore (Builder.add_gate b ~name:"g1" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n1);
      Builder.add_gate b ~name:"g2" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n1)

let test_builder_drive_input () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let a = Builder.add_input b "a" in
      let x = Builder.add_input b "x" in
      Builder.add_gate b ~name:"g" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:x)

let test_builder_wrong_pins () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let a = Builder.add_input b "a" in
      let n1 = Builder.add_net b "n1" in
      Builder.add_gate b ~name:"g" ~cell:(Lib.find_exn "NAND2_X1")
        ~inputs:[ ("A", a) ] ~output:n1)

let test_builder_undriven_net () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let a = Builder.add_input b "a" in
      let n1 = Builder.add_net b "n1" in
      let orphan = Builder.add_net b "orphan" in
      ignore orphan;
      ignore (Builder.add_gate b ~name:"g" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n1);
      Builder.finalize b)

let test_builder_cycle () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let n1 = Builder.add_net b "n1" in
      let n2 = Builder.add_net b "n2" in
      ignore (Builder.add_gate b ~name:"g1" ~cell:Lib.inverter ~inputs:[ ("A", n2) ] ~output:n1);
      ignore (Builder.add_gate b ~name:"g2" ~cell:Lib.inverter ~inputs:[ ("A", n1) ] ~output:n2);
      Builder.finalize b)

let test_builder_self_coupling () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let a = Builder.add_input b "a" in
      Builder.add_coupling b a a 0.001)

let test_builder_negative_coupling () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      let a = Builder.add_input b "a" in
      let x = Builder.add_input b "x" in
      Builder.add_coupling b a x (-0.001))

let test_builder_implicit_outputs () =
  let b = Builder.create () in
  let a = Builder.add_input b "a" in
  let n1 = Builder.add_net b "n1" in
  ignore (Builder.add_gate b ~name:"g" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n1);
  let nl = Builder.finalize b in
  Alcotest.(check (list int)) "sink-less is output" [ n1 ] (N.outputs nl)

let test_builder_set_wire () =
  let b = Builder.create () in
  let a = Builder.add_input b "a" in
  Builder.set_wire b a ~cap:0.123 ~res:4.5;
  let n1 = Builder.add_net b "n1" in
  ignore (Builder.add_gate b ~name:"g" ~cell:Lib.inverter ~inputs:[ ("A", a) ] ~output:n1);
  let nl = Builder.finalize b in
  check_f "cap" 0.123 (N.net nl a).N.wire_cap;
  check_f "res" 4.5 (N.net nl a).N.wire_res

(* ------------------------------------------------------------------ *)
(* Topo                                                                *)
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

let test_topo_order_respects_edges () =
  let nl, _, _, _, _, _, _, _ = small () in
  let topo = Topo.create nl in
  let pos = Array.make (N.num_nets nl) 0 in
  Array.iteri (fun i nid -> pos.(nid) <- i) (Topo.net_order topo);
  Array.iter
    (fun g ->
      List.iter
        (fun (_, src) ->
          Alcotest.(check bool) "fanin before fanout" true
            (pos.(src) < pos.(g.N.fanout)))
        g.N.fanin)
    (N.gates nl)

let test_topo_levels_chain () =
  let nl = chain 5 in
  let topo = Topo.create nl in
  Alcotest.(check int) "depth" 5 (Topo.max_level topo);
  Alcotest.(check int) "PI level" 0 (Topo.net_level topo (List.hd (N.inputs nl)));
  Alcotest.(check int) "output level" 5
    (Topo.net_level topo (List.hd (N.outputs nl)))

let test_topo_fanin_cone () =
  (* in -> c1 -> c2 -> c3, with c1 coupled to a side net: the coupling
     lies two gates up the fanin cone of c3 and outside the cone of in *)
  let b = Builder.create ~name:"cone" () in
  let pi = Builder.add_input b "in" in
  let side = Builder.add_input b "side" in
  let prev = ref pi in
  let nets =
    List.init 3 (fun i ->
        let net = Builder.add_net b (Printf.sprintf "c%d" (i + 1)) in
        ignore
          (Builder.add_gate b
             ~name:(Printf.sprintf "g%d" (i + 1))
             ~cell:Lib.inverter
             ~inputs:[ ("A", !prev) ]
             ~output:net);
        prev := net;
        net)
  in
  Builder.mark_output b !prev;
  let c = Builder.add_coupling b (List.hd nets) side 0.004 in
  let nl = Builder.finalize b in
  let topo = Topo.create nl in
  Alcotest.(check (list int)) "coupling in the cone of c3" [ c ]
    (Topo.fanin_cone_couplings topo !prev);
  Alcotest.(check (list int)) "touches the root c1" []
    (Topo.fanin_cone_couplings topo (List.hd nets));
  Alcotest.(check (list int)) "nothing above in" []
    (Topo.fanin_cone_couplings topo pi)

let test_topo_fanin_cone_couplings () =
  let nl, _, _, n1, n2, _, _, c = small () in
  let topo = Topo.create nl in
  (* the only coupling touches n2 itself, so it is excluded for n2... *)
  Alcotest.(check (list int)) "excluded for n2" [] (Topo.fanin_cone_couplings topo n2);
  ignore n1;
  ignore c

let test_topo_reachable_outputs () =
  let nl, a, _, _, n2, _, _, _ = small () in
  let topo = Topo.create nl in
  Alcotest.(check (list int)) "a reaches out" [ n2 ] (Topo.sinks_reachable_from topo a)

(* ------------------------------------------------------------------ *)
(* Netlist text format                                                *)
(* ------------------------------------------------------------------ *)

let test_format_roundtrip () =
  let nl, _, _, _, _, _, _, _ = small () in
  let text = Nf.print nl in
  let nl2 = Nf.parse ~lookup:Lib.find text in
  Alcotest.(check string) "name" (N.name nl) (N.name nl2);
  Alcotest.(check int) "nets" (N.num_nets nl) (N.num_nets nl2);
  Alcotest.(check int) "gates" (N.num_gates nl) (N.num_gates nl2);
  Alcotest.(check int) "couplings" (N.num_couplings nl) (N.num_couplings nl2);
  Alcotest.(check string) "stable fixpoint" text (Nf.print nl2)

let test_format_parse_minimal () =
  let src =
    "circuit t\n# comment line\ninput a\nnet n1 cap=0.01 res=0.5\ngate g1 \
     INV_X1 A=a Y=n1\noutput n1\n"
  in
  let nl = Nf.parse ~lookup:Lib.find src in
  Alcotest.(check int) "gates" 1 (N.num_gates nl);
  check_f "cap" 0.01 (N.find_net_exn nl "n1").N.wire_cap;
  check_f "res" 0.5 (N.find_net_exn nl "n1").N.wire_res

let expect_parse_error src =
  try
    ignore (Nf.parse ~lookup:Lib.find src);
    Alcotest.fail "expected Parse_error"
  with Nf.Parse_error { line; _ } ->
    Alcotest.(check bool) "line positive" true (line >= 0)

let test_format_errors () =
  expect_parse_error "input a\ninput a\n";
  expect_parse_error "gate g1 INV_X1 A=a Y=n1\n";
  expect_parse_error "input a\nnet n1\ngate g1 NOPE A=a Y=n1\n";
  expect_parse_error "input a\nnet n1\ngate g1 INV_X1 A=a\n";
  expect_parse_error "frobnicate x\n";
  expect_parse_error "input a\nnet n1 cap=abc\n";
  expect_parse_error "input a\ncircuit late\n";
  expect_parse_error "coupling a b cap=0.1\n"

let test_format_comments_and_blank () =
  let src = "\n\n# full comment\ncircuit c\ninput a # trailing comment\n" in
  let nl = Nf.parse ~lookup:Lib.find src in
  Alcotest.(check string) "name" "c" (N.name nl)

(* ------------------------------------------------------------------ *)
(* SPEF-lite                                                          *)
(* ------------------------------------------------------------------ *)

let test_spef_roundtrip () =
  let nl, _, _, _, _, _, _, _ = small () in
  let text = Spef.print nl in
  let ann = Spef.parse text in
  let nl2 = Spef.apply ann nl in
  Alcotest.(check int) "couplings preserved" (N.num_couplings nl) (N.num_couplings nl2);
  Array.iter
    (fun n ->
      let n2 = N.find_net_exn nl2 n.N.net_name in
      check_f (n.N.net_name ^ " cap") n.N.wire_cap n2.N.wire_cap;
      check_f (n.N.net_name ^ " res") n.N.wire_res n2.N.wire_res)
    (N.nets nl)

let test_spef_parse_fields () =
  let src =
    {|*SPEF "IEEE 1481-lite"
*DESIGN demo
*T_UNIT 1 NS
*C_UNIT 1 PF
*R_UNIT 1 KOHM

*D_NET n1 0.014
*RES 1.3
*CAP
1 n1 0.0093
2 n1 n2 0.0030
*END

*D_NET n2 0.02
*CAP
1 n2 0.0170
2 n2 n1 0.0030
*END
|}
  in
  let ann = Spef.parse src in
  Alcotest.(check (option string)) "design" (Some "demo") ann.Spef.design;
  Alcotest.(check int) "grounds" 2 (List.length ann.Spef.ground);
  (* the duplicated coupling listing collapses to one *)
  Alcotest.(check int) "couplings deduped" 1 (List.length ann.Spef.couplings)

let expect_spef_error src =
  try
    ignore (Spef.parse src);
    Alcotest.fail "expected Parse_error"
  with Spef.Parse_error _ -> ()

let test_spef_errors () =
  expect_spef_error "*CAP\n";
  expect_spef_error "*END\n";
  expect_spef_error "*D_NET a 1\n*D_NET b 1\n";
  expect_spef_error "*D_NET a 1\n*CAP\n1 b 0.1\n*END\n";
  expect_spef_error "*D_NET a x\n"

let test_spef_apply_unknown_net () =
  let nl, _, _, _, _, _, _, _ = small () in
  let ann = { Spef.design = None; ground = []; couplings = [ ("zz", "n1", 0.001) ] } in
  match Spef.apply ann nl with
  | _ -> Alcotest.fail "expected Link_error"
  | exception N.Link_error { source; message } ->
    Alcotest.(check string) "source" "spef" source;
    Alcotest.(check bool) "names the net" true (contains_sub message "zz")

(* ------------------------------------------------------------------ *)
(* Transform                                                          *)
(* ------------------------------------------------------------------ *)

module T = Tka_circuit.Transform

let test_transform_identity () =
  let nl, _, _, _, _, _, _, _ = small () in
  let nl2 = T.map nl in
  Alcotest.(check string) "identical print" (Nf.print nl) (Nf.print nl2)

(* The shield, spacing and resize edits (Tka_incr.Edit) are these
   hooks of [map]. *)
let test_transform_remove_couplings () =
  let nl, _, _, _, _, _, _, c = small () in
  let nl2 =
    T.map ~name:"small_fixed" ~keep_coupling:(fun cp -> cp.N.coupling_id <> c) nl
  in
  Alcotest.(check int) "coupling gone" 0 (N.num_couplings nl2);
  Alcotest.(check string) "renamed" "small_fixed" (N.name nl2);
  Alcotest.(check int) "structure kept" (N.num_gates nl) (N.num_gates nl2)

let test_transform_scale_coupling () =
  let nl, _, _, _, _, _, _, c = small () in
  let scaled f = T.map ~coupling_cap_of:(fun cp -> f *. cp.N.coupling_cap) nl in
  check_f "halved" 0.002 (N.coupling (scaled 0.5) c).N.coupling_cap;
  (* scaling to zero removes the cap *)
  Alcotest.(check int) "zero removes" 0 (N.num_couplings (scaled 0.))

let test_transform_resize_driver () =
  let nl, _, _, _, _, g1, _, _ = small () in
  let x4 = Lib.find_exn "INV_X4" in
  let nl2 = T.map ~cell_of:(fun g -> if g.N.gate_id = g1 then x4 else g.N.cell) nl in
  Alcotest.(check string) "cell swapped" "INV_X4"
    (N.gate nl2 g1).N.cell.Tka_cell.Cell.name;
  (* other gates untouched *)
  Alcotest.(check string) "other kept" "NAND2_X1"
    (N.gate nl2 (g1 + 1)).N.cell.Tka_cell.Cell.name

let test_transform_wire_of () =
  let nl, a, _, _, _, _, _, _ = small () in
  let nl2 = T.map ~wire_of:(fun n -> (n.N.wire_cap *. 2., n.N.wire_res)) nl in
  check_f "cap doubled" ((N.net nl a).N.wire_cap *. 2.) (N.net nl2 a).N.wire_cap

(* ------------------------------------------------------------------ *)
(* Verilog-lite                                                       *)
(* ------------------------------------------------------------------ *)

module V = Tka_circuit.Verilog_lite

let verilog_src =
  {|
// a mapped netlist
module demo (a, b, y);
  input a, b;
  output y;
  wire n1;

  NAND2_X1 g1 (.A(a), .B(b), .Y(n1));
  INV_X1   g2 (.A(n1), .Y(y));
endmodule
|}

let test_verilog_parse () =
  let nl = V.parse ~lookup:Lib.find verilog_src in
  Alcotest.(check string) "module name" "demo" (N.name nl);
  Alcotest.(check int) "gates" 2 (N.num_gates nl);
  Alcotest.(check int) "inputs" 2 (List.length (N.inputs nl));
  Alcotest.(check (list int)) "outputs"
    [ (N.find_net_exn nl "y").N.net_id ]
    (N.outputs nl);
  (* connectivity: n1 drives g2's A pin *)
  let n1 = N.find_net_exn nl "n1" in
  Alcotest.(check int) "n1 fanout" 1 (List.length n1.N.sinks)

let test_verilog_roundtrip () =
  let nl = V.parse ~lookup:Lib.find verilog_src in
  let nl2 = V.parse ~lookup:Lib.find (V.print nl) in
  Alcotest.(check int) "gates" (N.num_gates nl) (N.num_gates nl2);
  Alcotest.(check int) "nets" (N.num_nets nl) (N.num_nets nl2);
  Alcotest.(check string) "stable fixpoint" (V.print nl) (V.print nl2)

let test_verilog_print_of_builder_netlist () =
  let nl, _, _, _, _, _, _, _ = small () in
  let nl2 = V.parse ~lookup:Lib.find (V.print nl) in
  Alcotest.(check int) "gates" (N.num_gates nl) (N.num_gates nl2);
  (* couplings are not representable in Verilog *)
  Alcotest.(check int) "no couplings" 0 (N.num_couplings nl2)

let test_verilog_spef_flow () =
  (* the standard flow: structural Verilog + SPEF parasitics *)
  let nl, _, _, _, _, _, _, _ = small () in
  let spef = Spef.print nl in
  let bare = V.parse ~lookup:Lib.find (V.print nl) in
  let annotated = Spef.apply (Spef.parse spef) bare in
  Alcotest.(check int) "couplings recovered" (N.num_couplings nl)
    (N.num_couplings annotated);
  let n1 = N.find_net_exn nl "n1" in
  let n1' = N.find_net_exn annotated "n1" in
  check_f "wire cap recovered" n1.N.wire_cap n1'.N.wire_cap

let hierarchical_src =
  {|
module leaf (a, b, y);
  input a, b;
  output y;
  wire t;
  NAND2_X1 u1 (.A(a), .B(b), .Y(t));
  INV_X1   u2 (.A(t), .Y(y));
endmodule

module top (x1, x2, x3, out);
  input x1, x2, x3;
  output out;
  wire m;
  leaf i0 (.a(x1), .b(x2), .y(m));
  leaf i1 (.a(m), .b(x3), .y(out));
endmodule
|}

let test_verilog_hierarchy_flattens () =
  let nl = V.parse ~lookup:Lib.find hierarchical_src in
  Alcotest.(check string) "top chosen" "top" (N.name nl);
  (* two leaf instances x two gates each *)
  Alcotest.(check int) "gates" 4 (N.num_gates nl);
  Alcotest.(check bool) "hierarchical gate names" true
    (N.find_gate nl "i0/u1" <> None && N.find_gate nl "i1/u2" <> None);
  (* the internal wire of each instance is prefixed *)
  Alcotest.(check bool) "prefixed nets" true (N.find_net nl "i0/t" <> None);
  (* port connections are shared, not duplicated: m is one net *)
  let m = N.find_net_exn nl "m" in
  Alcotest.(check int) "m has one driver and one sink" 1 (List.length m.N.sinks);
  (* the flattened design is a valid four-level DAG *)
  let topo = Topo.create nl in
  Alcotest.(check int) "four logic levels" 4 (Topo.max_level topo)

let test_verilog_hierarchy_deep () =
  let src =
    {|
module inner (a, y);
  input a;
  output y;
  INV_X1 g (.A(a), .Y(y));
endmodule
module mid (a, y);
  input a;
  output y;
  wire w;
  inner p (.a(a), .y(w));
  inner q (.a(w), .y(y));
endmodule
module top2 (a, y);
  input a;
  output y;
  mid m0 (.a(a), .y(y));
endmodule
|}
  in
  let nl = V.parse ~lookup:Lib.find src in
  Alcotest.(check int) "two inverters" 2 (N.num_gates nl);
  Alcotest.(check bool) "nested prefix" true (N.find_net nl "m0/w" <> None);
  Alcotest.(check bool) "nested gate" true (N.find_gate nl "m0/p/g" <> None)

let test_verilog_hierarchy_errors () =
  let parses src =
    try
      ignore (V.parse ~lookup:Lib.find src);
      true
    with V.Parse_error _ -> false
  in
  (* recursion *)
  Alcotest.(check bool) "recursion rejected" false
    (parses
       "module a (x, y); input x; output y; a g (.x(x), .y(y)); endmodule");
  (* bad port name on a module instance, reachable from the top *)
  Alcotest.(check bool) "bad port rejected" false
    (parses
       {|
module leaf2 (a, y);
  input a;
  output y;
  INV_X1 g (.A(a), .Y(y));
endmodule
module badtop (z, w);
  input z;
  output w;
  leaf2 l (.nope(z), .y(w));
endmodule
|});
  (* duplicate module *)
  Alcotest.(check bool) "duplicate module rejected" false
    (parses
       "module d (x); input x; endmodule\nmodule d (x); input x; endmodule")

let expect_verilog_error src =
  try
    ignore (V.parse ~lookup:Lib.find src);
    Alcotest.fail "expected Parse_error"
  with V.Parse_error { line; _ } ->
    Alcotest.(check bool) "line recorded" true (line >= 1)

let test_verilog_errors () =
  expect_verilog_error "wire w;";
  expect_verilog_error "module m (a); input a;";
  expect_verilog_error "module m (a); input a; assign b = a; endmodule";
  expect_verilog_error "module m (a); input a[3:0]; endmodule";
  expect_verilog_error
    "module m (a, y); input a; output y; NOPE_X9 g (.A(a), .Y(y)); endmodule";
  expect_verilog_error
    "module m (a, y); input a; output y; INV_X1 g (.A(zz), .Y(y)); endmodule";
  expect_verilog_error
    "module m (a, y); input a; output y; INV_X1 g (.A(a)); endmodule";
  expect_verilog_error
    "module m (a); input a; input a; endmodule"

(* ------------------------------------------------------------------ *)
(* Table-driven error paths: every parser reports the offending line  *)
(* ------------------------------------------------------------------ *)

module Sdf = Tka_circuit.Sdf_lite

(* Each table row is (case, source, expected line, message substring). *)
let check_error_table what err table =
  List.iter
    (fun (case, src, want_line, want_sub) ->
      match err src with
      | None ->
        Alcotest.fail (Printf.sprintf "%s/%s: expected Parse_error" what case)
      | Some (line, message) ->
        Alcotest.(check int)
          (Printf.sprintf "%s/%s: line" what case)
          want_line line;
        if not (contains_sub message want_sub) then
          Alcotest.fail
            (Printf.sprintf "%s/%s: message %S does not mention %S" what case
               message want_sub))
    table

let nf_err src =
  match Nf.parse ~lookup:Lib.find src with
  | _ -> None
  | exception Nf.Parse_error { line; message } -> Some (line, message)

let spef_err src =
  match Spef.parse src with
  | _ -> None
  | exception Spef.Parse_error { line; message } -> Some (line, message)

let sdf_err src =
  match Sdf.parse src with
  | _ -> None
  | exception Sdf.Parse_error { line; message } -> Some (line, message)

let v_err src =
  match V.parse ~lookup:Lib.find src with
  | _ -> None
  | exception V.Parse_error { line; message } -> Some (line, message)

let test_error_table_netlist () =
  check_error_table "nf" nf_err
    [
      ("duplicate input", "circuit t\ninput a\ninput a\n", 3, "duplicate net");
      ( "unknown cell",
        "circuit t\ninput a\nnet n1\ngate g1 NOPE A=a Y=n1\noutput n1\n",
        4,
        "unknown cell" );
      ("malformed number", "circuit t\ninput a cap=abc\n", 2, "malformed number");
      ("nan rejected", "circuit t\ninput a cap=nan\n", 2, "non-finite");
      ("inf rejected", "circuit t\ninput a cap=inf\n", 2, "non-finite");
      ("overflow rejected", "circuit t\ninput a cap=1e999\n", 2, "non-finite");
      ( "missing output binding",
        "circuit t\ninput a\nnet n1\ngate g1 INV_X1 A=a\n",
        4,
        "missing output binding" );
      ( "truncated file: undriven net is a whole-file (line 0) error",
        "circuit t\ninput a\nnet n1\noutput n1\n",
        0,
        "no driver" );
    ]

let test_error_table_spef () =
  check_error_table "spef" spef_err
    [
      ("*CAP outside *D_NET", "*CAP\n", 1, "*CAP outside");
      ("*END without *D_NET", "*END\n", 1, "*END without");
      ( "duplicate *D_NET before *END",
        "*D_NET a 1\n*D_NET b 1\n",
        2,
        "without closing" );
      ( "foreign ground net",
        "*D_NET a 1\n*CAP\n1 b 0.1\n*END\n",
        3,
        "foreign net" );
      ("malformed number", "*D_NET a x\n", 1, "malformed number");
      ("non-finite total", "*D_NET a inf\n", 1, "non-finite");
      ( "non-finite ground cap",
        "*D_NET a 1\n*CAP\n1 a 1e999\n*END\n",
        3,
        "non-finite" );
      ( "truncated file: unterminated *D_NET reports its opening line",
        "*SPEF lite\n*D_NET a 0.1\n*CAP\n1 a 0.05\n",
        2,
        "unterminated *D_NET" );
    ]

let test_error_table_sdf () =
  check_error_table "sdf" sdf_err
    [
      ("empty input", "", 1, "expected a single");
      ("unexpected rparen", ")", 1, "unexpected ')'");
      ( "truncated file names the unclosed paren",
        "(DELAYFILE\n  (CELL (INSTANCE g1)\n",
        2,
        "missing ')' for '(' on line 2" );
      ("unterminated string", "(DELAYFILE (DESIGN \"x", 1, "unterminated string");
      ( "bad delay on its own line",
        "(DELAYFILE\n(CELL (CELLTYPE \"c\") (INSTANCE g1)\n(DELAY (ABSOLUTE\n\
         (IOPATH A Y (oops))))))\n",
        4,
        "bad delay" );
      ( "non-finite delay",
        "(DELAYFILE\n(CELL (CELLTYPE \"c\") (INSTANCE g1)\n(DELAY (ABSOLUTE\n\
         (IOPATH A Y (1e999))))))\n",
        4,
        "non-finite delay" );
      ( "malformed IOPATH",
        "(DELAYFILE\n(CELL (INSTANCE g1)\n(DELAY (ABSOLUTE\n\
         (IOPATH A Y)))))\n",
        4,
        "malformed IOPATH" );
      ( "expected ABSOLUTE",
        "(DELAYFILE\n(CELL (INSTANCE g1)\n(DELAY (RELATIVE))))\n",
        3,
        "expected ABSOLUTE" );
      ( "CELL without INSTANCE",
        "(DELAYFILE\n(CELL (CELLTYPE \"c\")))\n",
        2,
        "CELL without INSTANCE" );
      ( "newline inside quoted string still counted",
        "(DELAYFILE\n(DESIGN \"a\nb\")\nBAD)\n",
        4,
        "unexpected item" );
    ]

let test_error_table_verilog () =
  check_error_table "verilog" v_err
    [
      ( "vector",
        "module m (a);\ninput a[3:0];\nendmodule\n",
        2,
        "vectors are not supported" );
      ( "behavioural",
        "module m (a);\ninput a;\nassign b = a;\nendmodule\n",
        3,
        "behavioural" );
      ( "module defined twice",
        "module m (a); input a; endmodule\nmodule m (a); input a; endmodule\n",
        2,
        "defined twice" );
      ( "duplicate declaration reported at the module line",
        "module m (a);\ninput a;\ninput a;\nendmodule\n",
        1,
        "declared twice" );
      ("truncated file", "module m (a);\ninput a;", 2, "missing endmodule");
      ( "unknown cell",
        "module m (a, y);\ninput a;\noutput y;\nNOPE_X9 g (.A(a), .Y(y));\n\
         endmodule\n",
        1,
        "unknown cell" );
    ]

(* Valid documents with CRLF line endings and blank lines must parse,
   and numbers followed by a CR must not be rejected as malformed. *)
let test_crlf_and_blank_lines () =
  let nl =
    Nf.parse ~lookup:Lib.find
      "circuit t\r\n\r\ninput a\r\nnet n1 cap=0.01\r\ngate g1 INV_X1 A=a \
       Y=n1\r\noutput n1\r\n"
  in
  Alcotest.(check int) "nf gates" 1 (N.num_gates nl);
  check_f "nf cap survives CR" 0.01 (N.find_net_exn nl "n1").N.wire_cap;
  let ann = Spef.parse "*D_NET n1 0.1\r\n*CAP\r\n\r\n1 n1 0.5\r\n*END\r\n" in
  (match ann.Spef.ground with
  | [ (net, cap, _res) ] ->
    Alcotest.(check string) "spef net" "n1" net;
    check_f "spef cap survives CR" 0.5 cap
  | _ -> Alcotest.fail "expected exactly one ground entry");
  let modules = "module m (a, y);\r\ninput a;\r\noutput y;\r\nINV_X1 g (.A(a), .Y(y));\r\nendmodule\r\n" in
  let nl2 = V.parse ~lookup:Lib.find modules in
  Alcotest.(check int) "verilog gates" 1 (N.num_gates nl2)

let test_sdf_roundtrip_and_link_error () =
  let nl, _, _, _, _, _, _, _ = small () in
  let src = Sdf.print ~delay_of:(fun _ -> 0.05) nl in
  let ann = Sdf.parse src in
  (* g1 has one input arc, g2 two *)
  Alcotest.(check int) "arcs" 3 (List.length ann.Sdf.sdf_arcs);
  Alcotest.(check (list (triple string (float 1e-9) (float 1e-9))))
    "no mismatches"
    []
    (Sdf.check_against ann ~delay_of:(fun _ -> 0.05) nl);
  let bad = { ann with Sdf.sdf_arcs = [ ("gX", "A", "Y", 0.1) ] } in
  match Sdf.check_against bad ~delay_of:(fun _ -> 0.1) nl with
  | _ -> Alcotest.fail "expected Link_error"
  | exception N.Link_error { source; message } ->
    Alcotest.(check string) "source" "sdf" source;
    Alcotest.(check bool) "names the instance" true (contains_sub message "gX")

(* ------------------------------------------------------------------ *)
(* Dot and stats                                                      *)
(* ------------------------------------------------------------------ *)

let test_dot_render () =
  let nl, _, _, _, _, _, _, _ = small () in
  let s = Dot.render nl in
  Alcotest.(check bool) "digraph" true (contains_sub s "digraph");
  Alcotest.(check bool) "gate node" true (contains_sub s "g_g1");
  Alcotest.(check bool) "coupling edge" true (contains_sub s "style=dashed");
  let s2 = Dot.render ~couplings:false nl in
  Alcotest.(check bool) "no coupling edge" false (contains_sub s2 "style=dashed")

let test_stats () =
  let nl, _, _, _, _, _, _, _ = small () in
  let st = Cs.compute nl in
  Alcotest.(check int) "gates" 2 st.Cs.gates;
  Alcotest.(check int) "all nets" 4 st.Cs.all_nets;
  Alcotest.(check int) "internal nets" 2 st.Cs.nets;
  Alcotest.(check int) "couplings" 1 st.Cs.coupling_caps;
  Alcotest.(check int) "depth" 2 st.Cs.max_logic_depth;
  Alcotest.(check int) "header/row same width" (List.length Cs.header)
    (List.length (Cs.row st))

(* ------------------------------------------------------------------ *)
(* Parser robustness: random input never escapes Parse_error          *)
(* ------------------------------------------------------------------ *)

let parser_robustness =
  let open QCheck in
  let arb_garbage =
    make ~print:(Printf.sprintf "%S")
      Gen.(
        let* n = int_range 0 200 in
        string_size ~gen:(char_range ' ' '~') (return n))
  in
  let never_panics name parse =
    Test.make ~name ~count:300 arb_garbage (fun src ->
        try
          ignore (parse src);
          true
        with
        | Nf.Parse_error _ | Spef.Parse_error _
        | Tka_circuit.Verilog_lite.Parse_error _
        | Tka_cell.Liberty_lite.Parse_error _ ->
          true)
  in
  (* mutation fuzzing digs deeper than pure garbage: start from a valid
     document and corrupt a few characters *)
  let mutate_of base =
    make
      ~print:(Printf.sprintf "%S")
      Gen.(
        let* edits = int_range 1 6 in
        let* seeds = list_repeat edits (pair (int_bound (String.length base - 1)) (char_range ' ' '~')) in
        let b = Bytes.of_string base in
        List.iter (fun (i, c) -> Bytes.set b i c) seeds;
        return (Bytes.to_string b))
  in
  let never_panics_mutated name base parse =
    Test.make ~name ~count:300 (mutate_of base) (fun src ->
        try
          ignore (parse src);
          true
        with
        | Nf.Parse_error _ | Spef.Parse_error _
        | Tka_circuit.Verilog_lite.Parse_error _
        | Tka_cell.Liberty_lite.Parse_error _ ->
          true)
  in
  let nl0, _, _, _, _, _, _, _ = small () in
  [
    never_panics "netlist format never panics" (Nf.parse ~lookup:Lib.find);
    never_panics "spef never panics" Spef.parse;
    never_panics "verilog never panics"
      (Tka_circuit.Verilog_lite.parse ~lookup:Lib.find);
    never_panics "liberty never panics" Tka_cell.Liberty_lite.parse;
    (let open QCheck in
     Test.make ~name:"sdf never panics" ~count:300
       (make ~print:(Printf.sprintf "%S")
          Gen.(
            let* n = int_range 0 200 in
            string_size ~gen:(char_range ' ' '~') (return n)))
       (fun src ->
         try
           ignore (Tka_circuit.Sdf_lite.parse src);
           true
         with Tka_circuit.Sdf_lite.Parse_error _ -> true));
    never_panics_mutated "mutated netlist never panics" (Nf.print nl0)
      (Nf.parse ~lookup:Lib.find);
    never_panics_mutated "mutated spef never panics" (Spef.print nl0) Spef.parse;
    never_panics_mutated "mutated verilog never panics"
      (Tka_circuit.Verilog_lite.print nl0)
      (Tka_circuit.Verilog_lite.parse ~lookup:Lib.find);
    never_panics_mutated "mutated liberty never panics"
      (Tka_cell.Default_lib.to_liberty ())
      Tka_cell.Liberty_lite.parse;
  ]

let () =
  Alcotest.run "tka_circuit"
    [
      ( "netlist",
        [
          Alcotest.test_case "build small" `Quick test_build_small;
          Alcotest.test_case "lookup" `Quick test_netlist_lookup;
          Alcotest.test_case "caps" `Quick test_netlist_caps;
          Alcotest.test_case "coupling partner" `Quick test_coupling_partner;
          Alcotest.test_case "fan queries" `Quick test_fan_queries;
        ] );
      ( "builder",
        [
          Alcotest.test_case "duplicate net" `Quick test_builder_duplicate_net;
          Alcotest.test_case "duplicate gate" `Quick test_builder_duplicate_gate;
          Alcotest.test_case "multiple drivers" `Quick test_builder_multiple_drivers;
          Alcotest.test_case "drive input" `Quick test_builder_drive_input;
          Alcotest.test_case "wrong pins" `Quick test_builder_wrong_pins;
          Alcotest.test_case "undriven net" `Quick test_builder_undriven_net;
          Alcotest.test_case "cycle" `Quick test_builder_cycle;
          Alcotest.test_case "self coupling" `Quick test_builder_self_coupling;
          Alcotest.test_case "negative coupling" `Quick test_builder_negative_coupling;
          Alcotest.test_case "implicit outputs" `Quick test_builder_implicit_outputs;
          Alcotest.test_case "set wire" `Quick test_builder_set_wire;
        ] );
      ( "topo",
        [
          Alcotest.test_case "order respects edges" `Quick test_topo_order_respects_edges;
          Alcotest.test_case "levels" `Quick test_topo_levels_chain;
          Alcotest.test_case "fanin cone" `Quick test_topo_fanin_cone;
          Alcotest.test_case "cone couplings" `Quick test_topo_fanin_cone_couplings;
          Alcotest.test_case "reachable outputs" `Quick test_topo_reachable_outputs;
        ] );
      ( "netlist_format",
        [
          Alcotest.test_case "roundtrip" `Quick test_format_roundtrip;
          Alcotest.test_case "parse minimal" `Quick test_format_parse_minimal;
          Alcotest.test_case "errors" `Quick test_format_errors;
          Alcotest.test_case "comments" `Quick test_format_comments_and_blank;
        ] );
      ( "spef",
        [
          Alcotest.test_case "roundtrip" `Quick test_spef_roundtrip;
          Alcotest.test_case "parse fields" `Quick test_spef_parse_fields;
          Alcotest.test_case "errors" `Quick test_spef_errors;
          Alcotest.test_case "unknown net" `Quick test_spef_apply_unknown_net;
        ] );
      ( "transform",
        [
          Alcotest.test_case "identity" `Quick test_transform_identity;
          Alcotest.test_case "remove couplings" `Quick test_transform_remove_couplings;
          Alcotest.test_case "scale coupling" `Quick test_transform_scale_coupling;
          Alcotest.test_case "resize driver" `Quick test_transform_resize_driver;
          Alcotest.test_case "wire_of" `Quick test_transform_wire_of;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "parse" `Quick test_verilog_parse;
          Alcotest.test_case "roundtrip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "print builder netlist" `Quick
            test_verilog_print_of_builder_netlist;
          Alcotest.test_case "verilog+spef flow" `Quick test_verilog_spef_flow;
          Alcotest.test_case "hierarchy flattens" `Quick test_verilog_hierarchy_flattens;
          Alcotest.test_case "hierarchy deep" `Quick test_verilog_hierarchy_deep;
          Alcotest.test_case "hierarchy errors" `Quick test_verilog_hierarchy_errors;
          Alcotest.test_case "errors" `Quick test_verilog_errors;
        ] );
      ( "parser error tables",
        [
          Alcotest.test_case "netlist format" `Quick test_error_table_netlist;
          Alcotest.test_case "spef" `Quick test_error_table_spef;
          Alcotest.test_case "sdf" `Quick test_error_table_sdf;
          Alcotest.test_case "verilog" `Quick test_error_table_verilog;
          Alcotest.test_case "crlf and blank lines" `Quick
            test_crlf_and_blank_lines;
          Alcotest.test_case "sdf roundtrip and link error" `Quick
            test_sdf_roundtrip_and_link_error;
        ] );
      ("parser robustness", List.map QCheck_alcotest.to_alcotest parser_robustness);
      ( "dot+stats",
        [
          Alcotest.test_case "dot" `Quick test_dot_render;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
