module N = Tka_circuit.Netlist
module Iterate = Tka_noise.Iterate
module Pool = Tka_parallel.Pool
module Clock = Tka_obs.Clock

type outcome = {
  bf_set : Coupling_set.t option;
  bf_delay : float;
  bf_evaluated : int;
  bf_total : int;
  bf_completed : bool;
  bf_runtime : float;
}

(* Combinatorial number system: the k-subset of [0..n-1] at position
   [rank] of the lexicographic order. Element i is the smallest value
   above its predecessor whose block of completions — C(n-1-v, k-1-i)
   subsets — still contains the remaining rank. Used to hand each
   domain a self-contained rank range. *)
let subset_of_rank ~n ~k rank =
  let idx = Array.make k 0 in
  let r = ref rank in
  let c = ref 0 in
  for i = 0 to k - 1 do
    let v = ref !c in
    let rec skip () =
      let block = Refine.binomial (n - 1 - !v) (k - 1 - i) in
      if block <= !r then begin
        r := !r - block;
        incr v;
        skip ()
      end
    in
    skip ();
    idx.(i) <- !v;
    c := !v + 1
  done;
  idx

(* advance [idx] to the next k-subset in lexicographic order *)
let advance ~n ~k idx =
  let rec find i =
    if i < 0 then false
    else if idx.(i) < n - k + i then begin
      idx.(i) <- idx.(i) + 1;
      for j = i + 1 to k - 1 do
        idx.(j) <- idx.(j - 1) + 1
      done;
      true
    end
    else find (i - 1)
  in
  find (k - 1)

(* Enumerate [count] k-subsets of [0..n-1] in lexicographic order
   starting at [rank], calling [visit] until it returns false (budget
   expired) or the range is exhausted. *)
let iter_subsets_from ~n ~k ~rank ~count visit =
  if k <= n && k > 0 && count > 0 then begin
    let idx = subset_of_rank ~n ~k rank in
    let remaining = ref count in
    let continue_ = ref true in
    let running = ref true in
    while !running && !continue_ && !remaining > 0 do
      continue_ := visit (Array.to_list idx);
      decr remaining;
      if !continue_ && !remaining > 0 then running := advance ~n ~k idx
    done
  end

(* Best-so-far fold shared by both paths: a candidate replaces the
   incumbent only when strictly better, so the winner is the
   lexicographically first subset achieving the optimal delay. *)
let consider ~mode best set d =
  match !best with
  | Some (_, bd) when not (Engine.better mode d bd) -> ()
  | Some _ | None -> best := Some (set, d)

(* One domain's share: scan ranks [rank, rank + count), tracking the
   local best / evaluation count / completion under the shared wall
   clock deadline. Every set of the range is scored through one
   re-ranking ctx of its own, made from the shared all-aggressor
   [fixpoint]: a ctx never crosses domains, and the scores are the same
   bits as fresh evaluations. *)
let scan_range ~t0 ~budget_s ~n ~k ~mode ~fixpoint topo (rank, count) =
  let ctx = Iterate.context fixpoint in
  let best = ref None in
  let evaluated = ref 0 in
  let completed = ref true in
  iter_subsets_from ~n ~k ~rank ~count (fun ids ->
      if Clock.now_s () -. t0 > budget_s then begin
        completed := false;
        false
      end
      else begin
        let set = Coupling_set.of_list ids in
        let d = Refine.exact_delay ~mode ~ctx topo set in
        incr evaluated;
        consider ~mode best set d;
        true
      end);
  (!best, !evaluated, !completed)

let search ?(budget_s = 60.) ~mode ~k topo =
  let nl = Tka_circuit.Topo.netlist topo in
  let n = 2 * N.num_couplings nl in
  let total = Refine.binomial n k in
  let t0 = Clock.now_s () in
  let pool = Pool.get_default () in
  let jobs = Pool.size pool in
  (* The rank-range split needs an exact [total] (no overflow
     saturation) and only pays off with work to share. *)
  let use_parallel = jobs > 1 && total < max_int && total >= 2 * jobs in
  let fixpoint = Iterate.run topo in
  let best, evaluated, completed =
    if not use_parallel then
      scan_range ~t0 ~budget_s ~n ~k ~mode ~fixpoint topo (0, total)
    else begin
      let per = max 1 (total / (jobs * 4)) in
      let chunks =
        let rec build rank acc =
          if rank >= total then List.rev acc
          else build (rank + per) ((rank, min per (total - rank)) :: acc)
        in
        Array.of_list (build 0 [])
      in
      let results =
        Pool.map ~chunk:1 pool
          (scan_range ~t0 ~budget_s ~n ~k ~mode ~fixpoint topo)
          chunks
      in
      (* Ordered reduction in rank order: merging local bests with the
         same strictly-better rule reproduces the sequential scan's
         winner bit for bit when the enumeration completes. *)
      Array.fold_left
        (fun (b, ev, comp) (cb, cev, ccomp) ->
          let b =
            match (b, cb) with
            | None, x | x, None -> x
            | Some (_, bd), Some (cs, cd) ->
              if Engine.better mode cd bd then Some (cs, cd) else b
          in
          (b, ev + cev, comp && ccomp))
        (None, 0, true) results
    end
  in
  let bf_set, bf_delay =
    match best with
    | Some (s, d) -> (Some s, d)
    | None -> (None, Float.nan)
  in
  {
    bf_set;
    bf_delay;
    bf_evaluated = evaluated;
    bf_total = total;
    bf_completed = completed;
    bf_runtime = Clock.now_s () -. t0;
  }

let addition ?budget_s ~k topo = search ?budget_s ~mode:Engine.Addition ~k topo
let elimination ?budget_s ~k topo = search ?budget_s ~mode:Engine.Elimination ~k topo
