type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Tka_noise.Iterate.ctx;
  dual : Engine.result;
}

let compute ?filter ?fixpoint ?victim_cache ~k topo =
  let r =
    Refine.compute ?filter ?fixpoint ?victim_cache ~mode:Engine.Elimination ~k topo
  in
  { result = r.Refine.result; topo; ctx = r.Refine.ctx; dual = Option.get r.Refine.dual }

let ranking t =
  { Refine.result = t.result; dual = Some t.dual; topo = t.topo; ctx = t.ctx }

let set t = Refine.pick t.result
let dual_set t = Refine.pick t.dual
let evaluate t = Refine.evaluate (ranking t)
let evaluate_curve t = Refine.evaluate_curve (ranking t)
let estimated_delay t = Engine.estimated_delay t.result
let noiseless_delay t = t.result.Engine.res_noiseless_delay
let all_aggressor_delay t = t.result.Engine.res_noisy_delay
