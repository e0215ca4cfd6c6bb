module Iterate = Tka_noise.Iterate
module Trace = Tka_obs.Trace
module J = Tka_obs.Jsonx

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        let acc' = acc * (n - k + i) / i in
        if acc' < acc then max_int (* overflow *) else go acc' (i + 1)
    in
    go 1 1
  end

let exact_delay ~mode ?ctx topo set =
  let ids = Coupling_set.to_list set in
  let active =
    match mode with
    | Engine.Addition -> Iterate.Only ids
    | Engine.Elimination -> Iterate.Except ids
  in
  Iterate.circuit_delay (Iterate.run ~active ?ctx topo)

let default_budget = 128

let subsets ?(budget = default_budget) ~universe ~k ~members () =
  if k < 1 then []
  else begin
    let seen = Hashtbl.create 16 in
    let rev_pool = ref [] in
    let push d =
      if d >= 0 && d < universe && not (Hashtbl.mem seen d) then begin
        Hashtbl.replace seen d ();
        rev_pool := d :: !rev_pool
      end
    in
    (* directly retained members first: a slot spent on a partner
       direction must never evict a coupling the engine itself kept *)
    List.iter push members;
    (* then the opposite directions of the same physical couplings:
       mutual aggression is exactly the interaction static ranking
       misses *)
    List.iter (fun d -> push (d lxor 1)) members;
    let pool = Array.of_list (List.rev !rev_pool) in
    let n = ref (Array.length pool) in
    while !n > k && binomial !n k > budget do
      decr n
    done;
    let n = !n in
    if n < k then []
    else begin
      let out = ref [] in
      let rec go idx chosen set =
        if chosen = k then out := set :: !out
        else if n - idx < k - chosen then ()
        else begin
          go (idx + 1) (chosen + 1) (Coupling_set.add pool.(idx) set);
          go (idx + 1) chosen set
        end
      in
      go 0 0 Coupling_set.empty;
      List.rev !out
    end
  end

type t = {
  result : Engine.result;
  dual : Engine.result option;
  topo : Tka_circuit.Topo.t;
  ctx : Iterate.ctx;
}

let compute ?(filter = Tka_filter.Mode.Off) ?fixpoint ?victim_cache ~mode ~k topo =
  let config = { (Engine.default_config ~k) with Engine.filter } in
  (* one all-aggressor fixpoint for the engine runs and the exact
     scores *)
  let fixpoint = match fixpoint with Some f -> f | None -> Iterate.run topo in
  (* each mode has its own cache view: keys hash the mode *)
  let engine m =
    Engine.compute ~config ~fixpoint
      ?victim_cache:(Option.bind victim_cache (fun f -> f m))
      ~mode:m topo
  in
  let result, dual =
    match mode with
    | Engine.Addition -> (engine Engine.Addition, None)
    | Engine.Elimination ->
      let dual = engine Engine.Addition in
      (engine Engine.Elimination, Some dual)
  in
  { result; dual; topo; ctx = Iterate.context fixpoint }

let mode t = t.result.Engine.res_mode

let pick (r : Engine.result) i =
  if i < 1 || i >= Array.length r.Engine.res_per_k then None
  else Option.map (fun c -> c.Engine.ch_set) r.Engine.res_per_k.(i)

let tops (r : Engine.result) i =
  if i < 1 || i >= Array.length r.Engine.res_top then []
  else List.map (fun c -> c.Engine.ch_set) r.Engine.res_top.(i)

(* the engine's retained sink candidates, then the dual engine's pick *)
let candidates t i =
  Coupling_set.dedup
    (tops t.result i @ Option.to_list (Option.bind t.dual (fun d -> pick d i)))

(* Recombination pool members: those of the candidates and of the dual
   engine's sink lists, cardinality 1 first — the static ranking is
   exact for singles, so individually strong members are the likeliest
   optimum members and must survive truncation. *)
let ranked_members t i =
  List.concat_map
    (fun j ->
      let i' = j + 1 in
      let dual_tops = match t.dual with Some d -> tops d i' | None -> [] in
      List.concat_map Coupling_set.to_list (candidates t i' @ dual_tops))
    (List.init i Fun.id)

let universe t =
  2 * Tka_circuit.Netlist.num_couplings (Tka_circuit.Topo.netlist t.topo)

let pool t i =
  let cands = candidates t i in
  let recombined =
    if cands = [] then []
    else subsets ~universe:(universe t) ~k:i ~members:(ranked_members t i) ()
  in
  Coupling_set.dedup (cands @ recombined)

(* exact scores through the shared ctx; the first strictly better delay
   wins *)
let best_of t ~k sets =
  Trace.with_span ~cat:"refine"
    ~args:[ ("k", J.Int k); ("sets", J.Int (List.length sets)) ]
    "refine.best_choice"
  @@ fun () ->
  let better = Engine.better (mode t) in
  match
    List.map (fun s -> (s, exact_delay ~mode:(mode t) ~ctx:t.ctx t.topo s)) sets
  with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun (bs, bd) (s, d) -> if better d bd then (s, d) else (bs, bd))
         first rest)

let best_choice t i = best_of t ~k:i (pool t i)

let evaluate t i =
  match best_choice t i with
  | None -> Engine.fallback_delay t.result
  | Some (_, d) -> d

(* When no candidate of a cardinality beats the previous cardinality's
   set, that set padded with one more coupling is used instead: a
   superset is always at least as strong, whether added or removed. *)
let evaluate_curve t ~ks =
  let ks = List.sort_uniq Int.compare ks in
  let best = ref None in
  List.filter_map
    (fun k ->
      let cands =
        candidates t k
        @ (match !best with
          | Some (s, _) ->
            Option.to_list (Coupling_set.pad ~universe:(universe t) ~target:k s)
          | None -> [])
      in
      Option.map
        (fun (s, d) ->
          best := Some (s, d);
          (k, s, d))
        (best_of t ~k cands))
    ks
