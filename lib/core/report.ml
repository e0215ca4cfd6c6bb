module N = Tka_circuit.Netlist

let set_lines nl s =
  let module CN = Tka_noise.Coupled_noise in
  List.map
    (fun id ->
      let d = CN.of_directed_id nl id in
      let c = N.coupling nl d.CN.dc_coupling in
      Printf.sprintf "  %s -> %s (%.4g pF)"
        (N.net nl d.CN.dc_aggressor).N.net_name
        (N.net nl d.CN.dc_victim).N.net_name c.N.coupling_cap)
    (Coupling_set.to_list s)

(* The set and the delay printed for a k come from one re-ranking. *)
let topk nl (r : Refine.t) ~ks =
  let res = r.Refine.result in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Top-k %s analysis of %s: noiseless %.4f ns, all-aggressor %.4f ns\n"
       (Engine.mode_name res.Engine.res_mode) (N.name nl)
       res.Engine.res_noiseless_delay res.Engine.res_noisy_delay);
  List.iter
    (fun k ->
      match Refine.best_choice r k with
      | None -> Buffer.add_string buf (Printf.sprintf "top-%d: (no candidate)\n" k)
      | Some (s, d) ->
        Buffer.add_string buf
          (Printf.sprintf "top-%d: estimated %.4f ns, evaluated %.4f ns\n" k
             (Engine.estimated_delay res k) d);
        List.iter
          (fun l -> Buffer.add_string buf (l ^ "\n"))
          (set_lines nl s))
    ks;
  Buffer.contents buf

let addition nl t ~ks = topk nl (Addition.ranking t) ~ks
let elimination nl t ~ks = topk nl (Elimination.ranking t) ~ks
