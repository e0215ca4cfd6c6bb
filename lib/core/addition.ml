type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Tka_noise.Iterate.ctx;
}

let compute ?filter ?fixpoint ~k topo =
  let r = Refine.compute ?filter ?fixpoint ~mode:Engine.Addition ~k topo in
  { result = r.Refine.result; topo; ctx = r.Refine.ctx }

let ranking t = { Refine.result = t.result; dual = None; topo = t.topo; ctx = t.ctx }
let set t i = Option.map fst (Refine.best_choice (ranking t) i)
let evaluate t = Refine.evaluate (ranking t)
let evaluate_curve t = Refine.evaluate_curve (ranking t)
let estimated_delay t = Engine.estimated_delay t.result
let noiseless_delay t = t.result.Engine.res_noiseless_delay
let all_aggressor_delay t = t.result.Engine.res_noisy_delay
