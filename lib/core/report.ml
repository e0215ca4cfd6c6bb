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

(* [choice k] is the exact re-ranking winner and its delay; each k is
   scored once, so the printed set is the one the delay belongs to. *)
let generic ~label ~noiseless ~noisy ~choice ~estimated nl ks =
  let chosen = Hashtbl.create 8 in
  let choice k =
    match Hashtbl.find_opt chosen k with
    | Some c -> c
    | None ->
      let c = choice k in
      Hashtbl.replace chosen k c;
      c
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s analysis of %s: noiseless %.4f ns, all-aggressor %.4f ns\n"
       label (N.name nl) noiseless noisy);
  List.iter
    (fun k ->
      match choice k with
      | None -> Buffer.add_string buf (Printf.sprintf "top-%d: (no candidate)\n" k)
      | Some (s, d) ->
        Buffer.add_string buf
          (Printf.sprintf "top-%d: estimated %.4f ns, evaluated %.4f ns\n" k
             (estimated k) d);
        List.iter
          (fun l -> Buffer.add_string buf (l ^ "\n"))
          (set_lines nl s))
    ks;
  Buffer.contents buf

let addition nl (t : Addition.t) ~ks =
  generic ~label:"Top-k addition" ~noiseless:(Addition.noiseless_delay t)
    ~noisy:(Addition.all_aggressor_delay t) ~choice:(Addition.best_choice t)
    ~estimated:(Addition.estimated_delay t) nl ks

let elimination nl (t : Elimination.t) ~ks =
  generic ~label:"Top-k elimination" ~noiseless:(Elimination.noiseless_delay t)
    ~noisy:(Elimination.all_aggressor_delay t) ~choice:(Elimination.best_choice t)
    ~estimated:(Elimination.estimated_delay t) nl ks

let csv ~estimated ~evaluate ks =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "k,estimated_delay_ns,exact_delay_ns\n";
  List.iter
    (fun k ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%.6f,%.6f\n" k (estimated k) (evaluate k)))
    ks;
  Buffer.contents buf

let csv_addition (t : Addition.t) ~ks =
  csv ~estimated:(Addition.estimated_delay t) ~evaluate:(Addition.evaluate t) ks

let csv_elimination (t : Elimination.t) ~ks =
  csv ~estimated:(Elimination.estimated_delay t) ~evaluate:(Elimination.evaluate t)
    ks
