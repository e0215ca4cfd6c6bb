(* The ECO loop, closed: analyze -> pick the top elimination set ->
   shield (remove) those couplings -> re-verify INCREMENTALLY -> repeat
   until the crosstalk wins run out.

   The circuit is the same hierarchical ripple-carry adder as
   ripple_adder.ml, with couplings packed along the carry chain. Each
   round removes the current best elimination set through
   Tka_incr.Analyzer, whose content-addressed cache re-uses every
   victim the edit did not disturb — results stay bit-identical to a
   from-scratch analysis (checked every round here).

     dune exec examples/eco_loop.exe        (defaults to 8 bits) *)

module N = Tka_circuit.Netlist
module V = Tka_circuit.Verilog_lite
module Spef = Tka_circuit.Spef_lite
module Lib = Tka_cell.Default_lib
module Elimination = Tka_topk.Elimination
module Analyzer = Tka_incr.Analyzer
module Eco = Tka_incr.Eco

let full_adder_module =
  {|
module full_adder (a, b, cin, s, cout);
  input a, b, cin;
  output s, cout;
  wire axb, g1, g2;
  XOR2_X1 x1 (.A(a), .B(b), .Y(axb));
  XOR2_X1 x2 (.A(axb), .B(cin), .Y(s));
  AND2_X1 a1 (.A(axb), .B(cin), .Y(g1));
  AND2_X1 a2 (.A(a), .B(b), .Y(g2));
  OR2_X1  o1 (.A(g1), .B(g2), .Y(cout));
endmodule
|}

let ripple_top bits =
  let buf = Buffer.create 1024 in
  let ports =
    List.concat
      [
        List.init bits (fun i -> Printf.sprintf "a%d" i);
        List.init bits (fun i -> Printf.sprintf "b%d" i);
        [ "cin" ];
        List.init bits (fun i -> Printf.sprintf "s%d" i);
        [ "cout" ];
      ]
  in
  Buffer.add_string buf
    (Printf.sprintf "module ripple (%s);\n" (String.concat ", " ports));
  Buffer.add_string buf
    (Printf.sprintf "  input %s, cin;\n"
       (String.concat ", "
          (List.init bits (fun i -> Printf.sprintf "a%d" i)
          @ List.init bits (fun i -> Printf.sprintf "b%d" i))));
  Buffer.add_string buf
    (Printf.sprintf "  output %s, cout;\n"
       (String.concat ", " (List.init bits (fun i -> Printf.sprintf "s%d" i))));
  if bits > 1 then
    Buffer.add_string buf
      (Printf.sprintf "  wire %s;\n"
         (String.concat ", "
            (List.init (bits - 1) (fun i -> Printf.sprintf "c%d" i))));
  for i = 0 to bits - 1 do
    let cin = if i = 0 then "cin" else Printf.sprintf "c%d" (i - 1) in
    let cout = if i = bits - 1 then "cout" else Printf.sprintf "c%d" i in
    Buffer.add_string buf
      (Printf.sprintf
         "  full_adder fa%d (.a(a%d), .b(b%d), .cin(%s), .s(s%d), .cout(%s));\n"
         i i i cin i cout)
  done;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let build bits =
  let flat = V.parse ~lookup:Lib.find (full_adder_module ^ ripple_top bits) in
  let carry_out i = if i = bits - 1 then "cout" else Printf.sprintf "c%d" i in
  let couplings =
    List.concat
      [
        List.init (bits - 1) (fun i -> (carry_out i, carry_out (i + 1), 0.0045));
        List.init (bits - 1) (fun i ->
            (Printf.sprintf "s%d" i, Printf.sprintf "s%d" (i + 1), 0.0030));
      ]
  in
  Spef.apply { Spef.design = None; ground = []; couplings } flat

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let bits = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 8 in
  let nl = build bits in
  Printf.printf "%d-bit ripple adder: %d gates, %d nets, %d couplings\n\n" bits
    (N.num_gates nl) (N.num_nets nl) (N.num_couplings nl);

  let rec round i az =
    let elim, st = Analyzer.run az in
    Printf.printf "round %d: delay %.4f ns (cache: %d hits, %d misses)\n" i
      (Elimination.all_aggressor_delay elim)
      st.Analyzer.rs_hits st.Analyzer.rs_misses;
    (* every round, re-check the incremental contract from scratch *)
    if not (Eco.elim_identical (Elimination.compute ~k:3 (Analyzer.topo az)) elim) then
      failwith "incremental result diverged from scratch";
    match
      if i > 3 then None
      else Tka_topk.Refine.best_choice (Elimination.ranking elim) 1
    with
    | None -> Printf.printf "\nno elimination candidates left; done.\n"
    | Some (set, fixed_delay) ->
      Printf.printf "  fix: remove %s  (delay -> %.4f ns)\n"
        (String.concat ", "
           (Tka_topk.Report.set_lines (Analyzer.netlist az) set))
        fixed_delay;
      let az', dirty = Analyzer.apply az (Eco.removal_edits set) in
      Printf.printf "  dirty closure: %d nets\n" dirty;
      round (i + 1) az'
  in
  round 1 (Analyzer.create ~k:3 nl)
