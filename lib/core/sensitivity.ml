module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Rng = Tka_util.Rng

type report = {
  sr_k : int;
  sr_trials : int;
  sr_jaccard_mean : float;
  sr_jaccard_min : float;
  sr_always_chosen : Coupling_set.t;
  sr_delay_spread : float * float;
}

let jaccard a b =
  let inter = Coupling_set.cardinality (Coupling_set.inter a b) in
  let union = Coupling_set.cardinality (Coupling_set.union a b) in
  if union = 0 then 1.0 else float_of_int inter /. float_of_int union

let perturb ~rng ~noise_pct nl =
  Tka_circuit.Transform.map
    ~coupling_cap_of:(fun c ->
      c.N.coupling_cap *. (1. +. Rng.float_in rng (-.noise_pct) noise_pct))
    nl

let assess ?(trials = 10) ?(noise_pct = 0.15) ~mode ~rng ~k nl =
  if trials < 1 then invalid_arg "Sensitivity: trials must be >= 1";
  if noise_pct < 0. || noise_pct >= 1. then
    invalid_arg "Sensitivity: noise_pct outside [0, 1)";
  let solve nl =
    let r = Refine.compute ~mode ~k (Topo.create nl) in
    match Refine.best_choice r k with
    | Some choice -> choice
    | None -> (Coupling_set.empty, Engine.fallback_delay r.Refine.result)
  in
  let nominal_set, _ = solve nl in
  let results =
    List.init trials (fun _ ->
        let perturbed = perturb ~rng ~noise_pct nl in
        solve perturbed)
  in
  let jaccards = List.map (fun (s, _) -> jaccard nominal_set s) results in
  let delays = List.map snd results in
  let always =
    List.fold_left
      (fun acc (s, _) -> Coupling_set.inter acc s)
      nominal_set results
  in
  {
    sr_k = k;
    sr_trials = trials;
    sr_jaccard_mean = Tka_util.Stats.mean jaccards;
    sr_jaccard_min = fst (Tka_util.Stats.min_max jaccards);
    sr_always_chosen = always;
    sr_delay_spread = Tka_util.Stats.min_max delays;
  }

let addition ?trials ?noise_pct ~rng ~k nl =
  assess ?trials ?noise_pct ~mode:Engine.Addition ~rng ~k nl

let elimination ?trials ?noise_pct ~rng ~k nl =
  assess ?trials ?noise_pct ~mode:Engine.Elimination ~rng ~k nl
