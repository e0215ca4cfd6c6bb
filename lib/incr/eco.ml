module N = Tka_circuit.Netlist
module Engine = Tka_topk.Engine
module Elimination = Tka_topk.Elimination
module CS = Tka_topk.Coupling_set
module Ilist = Tka_topk.Ilist
module CN = Tka_noise.Coupled_noise
module J = Tka_obs.Jsonx
module Log = Tka_obs.Log

let log_src = Log.Src.create "eco" ~doc:"incremental ECO loop"

type rule = Rule_elim | Rule_dual | Rule_none

let rule_name = function
  | Rule_elim -> "elim"
  | Rule_dual -> "dual"
  | Rule_none -> "none"

type verify = {
  v_identical : bool;
  v_t_full_s : float;
  v_t_incr_s : float;
  v_speedup : float;
}

type report = {
  eco_design : string;
  eco_fix_k : int;
  eco_rule : rule;
  eco_set : CS.t option;
  eco_edits : Edit.t list;
  eco_delay_noisy : float;
  eco_delay_fixed : float;
  eco_dirty_nets : int;
  eco_couplings : int;
  eco_before : Analyzer.run_stats;
  eco_after : Analyzer.run_stats;
  eco_verify : verify option;
}

(* Bitwise equality on every semantic field of an engine result —
   the incremental correctness contract. Runtime is excluded (it is
   the one field meant to differ). *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let choice_eq (a : Engine.choice) (b : Engine.choice) =
  CS.equal a.Engine.ch_set b.Engine.ch_set
  && feq a.Engine.ch_objective b.Engine.ch_objective
  && a.Engine.ch_sink = b.Engine.ch_sink

let stats_eq (a : Ilist.stats) (b : Ilist.stats) =
  a.Ilist.candidates = b.Ilist.candidates
  && a.Ilist.dominated = b.Ilist.dominated
  && a.Ilist.duplicates = b.Ilist.duplicates
  && a.Ilist.capped = b.Ilist.capped
  && a.Ilist.checks = b.Ilist.checks

let results_identical (a : Engine.result) (b : Engine.result) =
  a.Engine.res_mode = b.Engine.res_mode
  && Array.length a.Engine.res_per_k = Array.length b.Engine.res_per_k
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some x, Some y -> choice_eq x y
         | _ -> false)
       a.Engine.res_per_k b.Engine.res_per_k
  && Array.for_all2
       (fun x y -> List.length x = List.length y && List.for_all2 choice_eq x y)
       a.Engine.res_top b.Engine.res_top
  && stats_eq a.Engine.res_stats b.Engine.res_stats
  && feq a.Engine.res_noiseless_delay b.Engine.res_noiseless_delay
  && feq a.Engine.res_noisy_delay b.Engine.res_noisy_delay

let elim_identical (a : Elimination.t) (b : Elimination.t) =
  results_identical a.Elimination.result b.Elimination.result
  && results_identical a.Elimination.dual b.Elimination.dual

let removal_edits set =
  CS.to_list set
  |> List.map CN.coupling_of_directed_id
  |> List.sort_uniq Int.compare
  |> List.map (fun c -> Edit.Remove_coupling c)

(* Prefer the elimination-side set; fall back to the dual (addition)
   engine's, and *say which rule won* — a silent fallback made a
   dual-only fix indistinguishable from an elimination one, and a
   None/None outcome indistinguishable from an empty fix. *)
let choose_fix elim ~fix_k =
  match Elimination.set elim fix_k with
  | Some _ as s -> (Rule_elim, s)
  | None -> (
    match Elimination.dual_set elim fix_k with
    | Some _ as s ->
      Log.info log_src (fun m ->
          m ~fields:[ Log.int "fix_k" fix_k ]
            "elimination rule produced no k=%d set; using the dual rule" fix_k);
      (Rule_dual, s)
    | None ->
      Log.warn log_src (fun m ->
          m ~fields:[ Log.int "fix_k" fix_k ] "no fix set exists at k=%d" fix_k);
      (Rule_none, None))

let check_fix_k ~k fix_k =
  if fix_k < 1 || fix_k > k then
    invalid_arg (Printf.sprintf "fix_k must be in [1, k] = [1, %d], got %d" k fix_k)

let no_run = { Analyzer.rs_hits = 0; rs_misses = 0; rs_reused = false }

let run ?cache ?checkpoint ?(verify = true) ~fix_k a =
  let k = Analyzer.k a in
  check_fix_k ~k fix_k;
  Option.iter (Analyzer.warm_start a) checkpoint;
  (* 1. analyze: the paper's top-k elimination sets *)
  let elim0, before = Analyzer.run a in
  (* checkpoint now, before any edit remaps the cache to the edited
     coupling table: this is the state a rerun on the same input
     design can reuse (the edited-universe cache would be flushed by
     the universe guard on reload) *)
  Option.iter (Analyzer.save_checkpoint a) checkpoint;
  (* 2. mitigate: shield (remove) the reported couplings *)
  let rule, set = choose_fix elim0 ~fix_k in
  let nl = Analyzer.netlist a in
  let delay0 = Elimination.all_aggressor_delay elim0 in
  let unchanged =
    {
      eco_design = N.name nl;
      eco_fix_k = fix_k;
      eco_rule = rule;
      eco_set = set;
      eco_edits = [];
      eco_delay_noisy = delay0;
      eco_delay_fixed = delay0;
      eco_dirty_nets = 0;
      eco_couplings = N.num_couplings nl;
      eco_before = before;
      eco_after = no_run;
      eco_verify = None;
    }
  in
  match Option.fold ~none:[] ~some:removal_edits set with
  | [] ->
    (* no fix: the design, and so its analysis, stays as it is, and
       there is nothing to re-analyze or re-verify *)
    (unchanged, a)
  | edits ->
    let a', dirty = Analyzer.apply ?cache a edits in
    (* 3. re-verify incrementally and, unless told not to, from scratch *)
    let wall = Tka_obs.Clock.now_s in
    let full =
      if not verify then None
      else
        let t0 = wall () in
        let full = Elimination.compute ~k (Analyzer.topo a') in
        Some (full, wall () -. t0)
    in
    let t0 = wall () in
    let incr, after = Analyzer.run a' in
    let t_incr = wall () -. t0 in
    let check (full, t_full) =
      {
        v_identical = elim_identical full incr;
        v_t_full_s = t_full;
        v_t_incr_s = t_incr;
        v_speedup = t_full /. Float.max t_incr 1e-9;
      }
    in
    ( {
        unchanged with
        eco_edits = edits;
        eco_delay_fixed = Elimination.all_aggressor_delay incr;
        eco_dirty_nets = dirty;
        eco_couplings = N.num_couplings (Analyzer.netlist a');
        eco_after = after;
        eco_verify = Option.map check full;
      },
      a' )

let report_json r =
  let set = Option.fold ~none:[] ~some:CS.to_list r.eco_set in
  J.Obj
    ([
       ("design", J.Str r.eco_design);
       ("fix_k", J.Int r.eco_fix_k);
       ("rule", J.Str (rule_name r.eco_rule));
       ("delay_noisy_ns", J.Float r.eco_delay_noisy);
       ("analysis_hits", J.Int r.eco_before.Analyzer.rs_hits);
       ("analysis_misses", J.Int r.eco_before.Analyzer.rs_misses);
       ("set", J.List (List.map (fun d -> J.Int d) set));
       ("edits", J.Int (List.length r.eco_edits));
       ("dirty_nets", J.Int r.eco_dirty_nets);
       ("delay_fixed_ns", J.Float r.eco_delay_fixed);
       ("cache_hits", J.Int r.eco_after.Analyzer.rs_hits);
       ("cache_misses", J.Int r.eco_after.Analyzer.rs_misses);
     ]
    @ (if r.eco_edits = [] then [] else [ ("couplings", J.Int r.eco_couplings) ])
    @
    match r.eco_verify with
    | None -> []
    | Some v ->
      [
        ("identical", J.Bool v.v_identical);
        ("t_full_s", J.Float v.v_t_full_s);
        ("t_incr_s", J.Float v.v_t_incr_s);
        ("speedup_incr", J.Float v.v_speedup);
      ])
