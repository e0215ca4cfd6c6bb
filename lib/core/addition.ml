module Iterate = Tka_noise.Iterate

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Iterate.ctx;
      (* shared by every exact re-evaluation below: the recombination
         pool re-runs the iterative analysis over near-identical
         active sets, which share the noiseless base and most victim
         evaluations. Scores are bitwise identical to fresh
         evaluation. Confined to the (sequential) re-ranking loops —
         [t] must not be re-ranked from several threads at once. *)
}

let compute ?(capacity = Ilist.default_capacity) ?(use_pseudo = true)
    ?(use_higher_order = true) ?(filter = Tka_filter.Mode.Off) ?fixpoint ~k
    topo =
  let config = { Engine.k; capacity; use_pseudo; use_higher_order; filter } in
  {
    result = Engine.compute ~config ?fixpoint ~mode:Engine.Addition topo;
    topo;
    ctx = Iterate.context topo;
  }

let candidates t i =
  if i < 1 || i >= Array.length t.result.Engine.res_top then []
  else List.map (fun c -> c.Engine.ch_set) t.result.Engine.res_top.(i)

let estimated_delay t i = Engine.estimated_delay t.result i

let evaluate_set topo s =
  Iterate.circuit_delay
    (Iterate.run ~active:(Iterate.Only (Coupling_set.to_list s)) topo)

let score t s =
  Iterate.circuit_delay
    (Iterate.run ~active:(Iterate.Only (Coupling_set.to_list s)) ~ctx:t.ctx t.topo)

(* Recombination pool: every directed coupling named by a retained
   candidate. Cardinality 1 first — the static ranking is exact for
   singles (k = 1 matches brute force), so individually strong members
   are the likeliest optimum members and must survive truncation. *)
let ranked_members t i =
  List.concat_map
    (fun j -> List.concat_map Coupling_set.to_list (candidates t (j + 1)))
    (List.init i Fun.id)

(* The engine's objectives are first-order; the paper evaluates the
   whole sink I-list. Rank the retained candidates by the exact
   iterative analysis — together with a bounded recombination of their
   members (see {!Refine}) — and keep the strongest. *)
let pool t i =
  let universe =
    2 * Tka_circuit.Netlist.num_couplings (Tka_circuit.Topo.netlist t.topo)
  in
  let cands = candidates t i in
  let recombined =
    if cands = [] then []
    else Refine.subsets ~universe ~k:i ~members:(ranked_members t i) ()
  in
  Coupling_set.dedup (cands @ recombined)

(* exact scores; the first strictly greatest delay wins *)
let best_of t sets =
  match List.map (fun s -> (s, score t s)) sets with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun (bs, bd) (s, d) -> if d > bd then (s, d) else (bs, bd))
         first rest)

let best_choice t i = best_of t (pool t i)

let set t i = Option.map fst (best_choice t i)

let evaluate t i =
  match best_choice t i with
  | None -> t.result.Engine.res_noiseless_delay
  | Some (_, d) -> d

(* Exact, monotone top-k curve: each cardinality's set is re-evaluated
   with the full iterative analysis; when the engine's pick evaluates
   worse than the previous cardinality's, the previous set padded with
   an extra coupling is used instead (sound: supersets are always at
   least as strong). *)
let evaluate_curve t ~ks =
  let nl = Tka_circuit.Topo.netlist t.topo in
  let universe = 2 * Tka_circuit.Netlist.num_couplings nl in
  let ks = List.sort_uniq Int.compare ks in
  let best = ref None in
  List.filter_map
    (fun k ->
      let cands =
        candidates t k
        @ (match !best with
          | Some (s, _) -> Option.to_list (Coupling_set.pad ~universe ~target:k s)
          | None -> [])
      in
      Option.map
        (fun (s, d) ->
          best := Some (s, d);
          (k, s, d))
        (best_of t cands))
    ks

let noiseless_delay t = t.result.Engine.res_noiseless_delay
let all_aggressor_delay t = t.result.Engine.res_noisy_delay
let runtime t = t.result.Engine.res_runtime
