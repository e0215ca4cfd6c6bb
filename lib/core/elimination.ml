module Iterate = Tka_noise.Iterate

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Iterate.ctx;
      (* shared by the exact re-evaluations of the recombination pool —
         see [Addition.t]; sequential use only *)
  dual : Engine.result;
      (* addition-mode enumeration over the same circuit: the paper's
         dual problem. The strongest noise *contributors* are also prime
         removal candidates, and the addition objective sees the
         window-feedback amplification that the first-order removal
         benefit misses; per-k reports pick whichever candidate
         evaluates better. *)
}

let compute ?(capacity = Ilist.default_capacity) ?(use_pseudo = true)
    ?(use_higher_order = true) ?(filter = Tka_filter.Mode.Off) ?fixpoint
    ?victim_cache ~k topo =
  let config = { Engine.k; capacity; use_pseudo; use_higher_order; filter } in
  (* the two dual enumerations share one all-aggressor fixpoint *)
  let fixpoint =
    match fixpoint with Some f -> f | None -> Iterate.run topo
  in
  (* each mode has its own cache view: keys hash the mode *)
  let vc mode = Option.bind victim_cache (fun f -> f mode) in
  {
    result =
      Engine.compute ~config ~fixpoint
        ?victim_cache:(vc Engine.Elimination)
        ~mode:Engine.Elimination topo;
    topo;
    ctx = Iterate.context topo;
    dual =
      Engine.compute ~config ~fixpoint
        ?victim_cache:(vc Engine.Addition)
        ~mode:Engine.Addition topo;
  }

let set_of_result (r : Engine.result) i =
  if i < 1 || i >= Array.length r.Engine.res_per_k then None
  else Option.map (fun c -> c.Engine.ch_set) r.Engine.res_per_k.(i)

let top_of_result (r : Engine.result) i =
  if i < 1 || i >= Array.length r.Engine.res_top then []
  else List.map (fun c -> c.Engine.ch_set) r.Engine.res_top.(i)

let set t i = set_of_result t.result i
let dual_set t i = set_of_result t.dual i

(* candidates for exact re-ranking: the elimination engine's retained
   sink entries plus the dual (addition) engine's best pick *)
let candidates t i =
  Coupling_set.dedup
    (top_of_result t.result i @ Option.to_list (set_of_result t.dual i))

let estimated_delay t i = Engine.estimated_delay t.result i

let evaluate_set topo s =
  Iterate.circuit_delay
    (Iterate.run ~active:(Iterate.Except (Coupling_set.to_list s)) topo)

let score t s =
  Iterate.circuit_delay
    (Iterate.run ~active:(Iterate.Except (Coupling_set.to_list s)) ~ctx:t.ctx t.topo)

(* Recombination pool: members of the retained elimination candidates
   and of the dual engine's sink lists. Cardinality 1 first — the
   static ranking is exact for singles, so individually strong members
   are the likeliest optimum members and must survive truncation. *)
let ranked_members t i =
  List.concat_map
    (fun j ->
      let i' = j + 1 in
      List.concat_map Coupling_set.to_list
        (candidates t i' @ top_of_result t.dual i'))
    (List.init i Fun.id)

(* exact re-ranking over the retained candidates, the dual pick, and a
   bounded recombination of their members (see {!Refine}) *)
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

(* exact scores; the first strictly smallest delay wins *)
let best_of t sets =
  match List.map (fun s -> (s, score t s)) sets with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun (bs, bd) (s, d) -> if d < bd then (s, d) else (bs, bd))
         first rest)

let best_choice t i = best_of t (pool t i)

let evaluate t i =
  match best_choice t i with
  | None -> t.result.Engine.res_noisy_delay
  | Some (_, d) -> d

(* Exact, monotone top-k curve; see Addition.evaluate_curve. For each
   cardinality both the elimination pick and the dual (addition) pick
   are evaluated and the better kept; if neither beats the previous
   cardinality's set, that set padded with one more coupling is used
   (removing a superset never recovers less). *)
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
let runtime t = t.result.Engine.res_runtime +. t.dual.Engine.res_runtime
