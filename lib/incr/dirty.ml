module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo

let closure topo seeds =
  let nl = Topo.netlist topo in
  let mark = Array.make (N.num_nets nl) false in
  let rec go id =
    if not mark.(id) then begin
      mark.(id) <- true;
      List.iter go (N.fanout_nets nl id);
      List.iter
        (fun cid -> go (N.coupling_partner nl cid id))
        (N.couplings_of_net nl id)
    end
  in
  List.iter go seeds;
  mark

let count mark = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 mark
