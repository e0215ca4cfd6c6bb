(* Figure 1 of the paper: indirect aggressors. Noise from a2 widens the
   timing window of the primary aggressor a1, which in turn couples
   more delay noise onto the victim v1 — an effect that only appears
   across noise-analysis iterations.

     dune exec examples/indirect_aggressors.exe *)

module N = Tka_circuit.Netlist
module Builder = Tka_circuit.Builder
module Topo = Tka_circuit.Topo
module Iterate = Tka_noise.Iterate
module CN = Tka_noise.Coupled_noise
module Lib = Tka_cell.Default_lib

let build () =
  let b = Builder.create ~name:"fig1" () in
  let i1 = Builder.add_input b "i1" in
  let i2 = Builder.add_input b "i2" in
  let i3 = Builder.add_input b "i3" in
  let iv = Builder.add_input b "iv" in
  let a3 = Builder.add_net b ~wire_cap:0.001 "a3" in
  let a2 = Builder.add_net b ~wire_cap:0.001 "a2" in
  let a1 = Builder.add_net b ~wire_cap:0.001 "a1" in
  let v1 = Builder.add_net b ~wire_cap:0.001 "v1" in
  let x4 = Lib.find_exn "INV_X4" in
  ignore (Builder.add_gate b ~name:"ga3" ~cell:x4 ~inputs:[ ("A", i3) ] ~output:a3);
  ignore (Builder.add_gate b ~name:"ga2" ~cell:x4 ~inputs:[ ("A", i2) ] ~output:a2);
  ignore (Builder.add_gate b ~name:"ga1" ~cell:x4 ~inputs:[ ("A", i1) ] ~output:a1);
  ignore (Builder.add_gate b ~name:"gv1" ~cell:Lib.inverter ~inputs:[ ("A", iv) ] ~output:v1);
  List.iter (Builder.mark_output b) [ v1; a1; a2; a3 ];
  let c32 = Builder.add_coupling b a3 a2 0.008 in
  let c21 = Builder.add_coupling b a2 a1 0.008 in
  let c1v = Builder.add_coupling b a1 v1 0.008 in
  (Builder.finalize b, c32, c21, c1v)

let () =
  let nl, c32, c21, c1v = build () in
  let topo = Topo.create nl in
  let v1 = (N.find_net_exn nl "v1").N.net_id in
  let a1 = (N.find_net_exn nl "a1").N.net_id in
  let report label couplings =
    (* both directed sides of each named cap *)
    let ids =
      List.concat_map (fun c -> [ CN.with_coupling 0 c; CN.with_coupling 1 c ]) couplings
    in
    let r = Iterate.run ~active:(Iterate.Only ids) topo in
    Printf.printf "%-34s noise(v1) = %.5f ns, noise(a1) = %.5f ns, %d iterations\n"
      label (Iterate.net_noise r v1) (Iterate.net_noise r a1) r.Iterate.iterations
  in
  Printf.printf
    "coupling chain: a3 ~ a2 ~ a1 ~ v1 (victim v1, primary aggressor a1,\n\
     secondary a2, tertiary a3)\n\n";
  report "primary only (a1~v1):" [ c1v ];
  report "+ secondary (a2~a1):" [ c1v; c21 ];
  report "+ tertiary (a3~a2):" [ c1v; c21; c32 ];
  Printf.printf
    "\nThe secondary aggressor never touches v1, yet v1's delay noise grows:\n\
     a2's noise widens a1's switching window, and the wider envelope drags\n\
     v1's crossing further — the indirect-aggressor effect that makes the\n\
     top-k problem span transitive fanin cones.\n"
