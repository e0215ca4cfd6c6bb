module N = Netlist

let map ?name ?wire_of ?cell_of ?(keep_coupling = fun _ -> true)
    ?(coupling_cap_of = fun c -> c.N.coupling_cap) nl =
  let b = Builder.create ~name:(Option.value ~default:(N.name nl) name) () in
  let wire n =
    match wire_of with
    | Some f -> f n
    | None -> (n.N.wire_cap, n.N.wire_res)
  in
  let ids = Array.make (N.num_nets nl) 0 in
  Array.iter
    (fun n ->
      let cap, res = wire n in
      ids.(n.N.net_id) <-
        (match n.N.driver with
        | N.Primary_input -> Builder.add_input b ~wire_cap:cap ~wire_res:res n.N.net_name
        | N.Driven_by _ -> Builder.add_net b ~wire_cap:cap ~wire_res:res n.N.net_name))
    (N.nets nl);
  Array.iter
    (fun g ->
      let cell = match cell_of with Some f -> f g | None -> g.N.cell in
      ignore
        (Builder.add_gate b ~name:g.N.gate_name ~cell
           ~inputs:(List.map (fun (p, nid) -> (p, ids.(nid))) g.N.fanin)
           ~output:ids.(g.N.fanout)))
    (N.gates nl);
  List.iter (fun nid -> Builder.mark_output b ids.(nid)) (N.outputs nl);
  Array.iter
    (fun c ->
      if keep_coupling c then begin
        let cap = coupling_cap_of c in
        if cap > 0. then
          ignore (Builder.add_coupling b ids.(c.N.net_a) ids.(c.N.net_b) cap)
      end)
    (N.couplings nl);
  Builder.finalize b
