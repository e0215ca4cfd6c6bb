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

type report = {
  eco_circuit : string;
  eco_k : int;
  eco_fix_k : int;
  eco_rule : rule;
  eco_set : CS.t option;
  eco_edits : Edit.t list;
  eco_delay_noisy : float;
  eco_delay_fixed : float;
  eco_dirty_nets : int;
  eco_before : Analyzer.run_stats;
  eco_after : Analyzer.run_stats;
  eco_t_full_s : float;
  eco_t_incr_s : float;
  eco_speedup : float;
  eco_identical : bool;
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

let run ?cache ?checkpoint ?(verify = true) ~fix_k a =
  let k = Analyzer.k a in
  check_fix_k ~k fix_k;
  Option.iter (Analyzer.warm_start a) checkpoint;
  (* 1. analyze: the paper's top-k elimination sets *)
  let elim0, st0 = Analyzer.run a in
  (* checkpoint now, before any edit remaps the cache to the edited
     coupling table: this is the state a rerun on the same input
     design can reuse (the edited-universe cache would be flushed by
     the universe guard on reload) *)
  Option.iter (Analyzer.save_checkpoint a) checkpoint;
  (* 2. mitigate: shield (remove) the reported couplings; with no fix
     the design, and so its analysis, stays as it is *)
  let rule, set = choose_fix elim0 ~fix_k in
  let edits = Option.fold ~none:[] ~some:removal_edits set in
  let a', dirty = if edits = [] then (a, 0) else Analyzer.apply ?cache a edits in
  (* 3. re-verify incrementally and, unless told not to, from scratch *)
  let wall = Tka_obs.Clock.now_s in
  let full, t_full =
    if not verify then (None, 0.)
    else
      let t0 = wall () in
      let full = Elimination.compute ~k (Analyzer.topo a') in
      (Some full, wall () -. t0)
  in
  let t0 = wall () in
  let incr, st = Analyzer.run a' in
  let t_incr = wall () -. t0 in
  let report =
    {
      eco_circuit = N.name (Analyzer.netlist a);
      eco_k = k;
      eco_fix_k = fix_k;
      eco_rule = rule;
      eco_set = set;
      eco_edits = edits;
      eco_delay_noisy = Elimination.all_aggressor_delay elim0;
      eco_delay_fixed = Elimination.all_aggressor_delay incr;
      eco_dirty_nets = dirty;
      eco_before = st0;
      eco_after = st;
      eco_t_full_s = t_full;
      eco_t_incr_s = t_incr;
      eco_speedup = t_full /. Float.max t_incr 1e-9;
      eco_identical = Option.fold ~none:true ~some:(fun f -> elim_identical f incr) full;
    }
  in
  (report, a')

let report_json r =
  J.Obj
    [
      ("circuit", J.Str r.eco_circuit);
      ("k", J.Int r.eco_k);
      ("fix_k", J.Int r.eco_fix_k);
      ("rule", J.Str (rule_name r.eco_rule));
      ( "set",
        match r.eco_set with
        | None -> J.Null
        | Some s -> J.List (List.map (fun d -> J.Int d) (CS.to_list s)) );
      ("edits", J.Int (List.length r.eco_edits));
      ("delay_noisy_ns", J.Float r.eco_delay_noisy);
      ("delay_fixed_ns", J.Float r.eco_delay_fixed);
      ("dirty_nets", J.Int r.eco_dirty_nets);
      ("analysis_hits", J.Int r.eco_before.Analyzer.rs_hits);
      ("cache_hits", J.Int r.eco_after.Analyzer.rs_hits);
      ("cache_misses", J.Int r.eco_after.Analyzer.rs_misses);
      ("t_full_s", J.Float r.eco_t_full_s);
      ("t_incr_s", J.Float r.eco_t_incr_s);
      ("speedup_incr", J.Float r.eco_speedup);
      ("identical", J.Bool r.eco_identical);
    ]
