(* Using your own cell library: write (or load) a Liberty-lite file,
   parse it, build a netlist against it, and run the analyses. The same
   flow works for a real PDK reduced to the linear model's four
   parameters per cell.

     dune exec examples/custom_library.exe *)

module Liberty = Tka_cell.Liberty_lite
module Cell = Tka_cell.Cell
module Builder = Tka_circuit.Builder
module Topo = Tka_circuit.Topo
module Iterate = Tka_noise.Iterate
module Report = Tka_topk.Report

(* A tiny two-cell library: a fast inverter and a slow, weak buffer
   whose victims will be the noise-sensitive ones. *)
let my_lib =
  {|
library(demo_pdk) {
  cell(FAST_INV) {
    intrinsic_delay : 0.010;
    drive_resistance : 0.6;
    intrinsic_slew : 0.008;
    slew_resistance : 0.7;
    function : "!A";
    pin(A) { direction : input; capacitance : 0.004; }
    pin(Y) { direction : output; }
  }
  cell(WEAK_BUF) {
    intrinsic_delay : 0.045;
    drive_resistance : 4.5;
    intrinsic_slew : 0.040;
    slew_resistance : 5.0;
    function : "A";
    pin(A) { direction : input; capacitance : 0.002; }
    pin(Y) { direction : output; }
  }
}
|}

let () =
  let lib = Liberty.parse my_lib in
  Printf.printf "parsed library %s with %d cells\n" lib.Liberty.library_name
    (List.length lib.Liberty.cells);
  let cell name = Option.get (Liberty.find lib name) in

  (* an aggressor driven by the fast inverter couples onto a victim
     driven by the weak buffer: the worst combination *)
  let b = Builder.create ~name:"pdk_demo" () in
  let ia = Builder.add_input b "ia" in
  let iv = Builder.add_input b "iv" in
  let agg = Builder.add_net b "agg" in
  let vic = Builder.add_net b "vic" in
  let out = Builder.add_net b "out" in
  ignore (Builder.add_gate b ~name:"u_agg" ~cell:(cell "FAST_INV") ~inputs:[ ("A", ia) ] ~output:agg);
  ignore (Builder.add_gate b ~name:"u_vic" ~cell:(cell "WEAK_BUF") ~inputs:[ ("A", iv) ] ~output:vic);
  ignore (Builder.add_gate b ~name:"u_out" ~cell:(cell "WEAK_BUF") ~inputs:[ ("A", vic) ] ~output:out);
  Builder.mark_output b out;
  Builder.mark_output b agg;
  ignore (Builder.add_coupling b agg vic 0.006);
  let nl = Builder.finalize b in
  let topo = Topo.create nl in

  let r = Iterate.run topo in
  Printf.printf "noiseless %.4f ns -> noisy %.4f ns (weak victim driver)\n"
    (Iterate.noiseless_delay r) (Iterate.circuit_delay r);

  (* upsizing the victim driver is the classic alternative fix to
     shielding: compare both *)
  let u_vic = (Option.get (Tka_circuit.Netlist.find_gate nl "u_vic")).Tka_circuit.Netlist.gate_id in
  let edit es = fst (Tka_incr.Edit.apply nl es) in
  let upsized = edit [ Tka_incr.Edit.Resize_driver { gate = u_vic; cell = cell "FAST_INV" } ] in
  let r2 = Iterate.run (Topo.create upsized) in
  Printf.printf "after upsizing the victim driver: noisy %.4f ns\n"
    (Iterate.circuit_delay r2);
  let shielded = edit [ Tka_incr.Edit.Remove_coupling 0 ] in
  let r3 = Iterate.run (Topo.create shielded) in
  Printf.printf "after shielding the coupling:     noisy %.4f ns\n"
    (Iterate.circuit_delay r3);

  print_newline ();
  let add = Tka_topk.Addition.compute ~k:2 topo in
  print_string (Report.addition nl add ~ks:[ 1; 2 ])
