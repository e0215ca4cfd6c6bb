module N = Tka_circuit.Netlist
module Engine = Tka_topk.Engine
module Elimination = Tka_topk.Elimination
module CS = Tka_topk.Coupling_set
module Analysis = Tka_sta.Analysis
module CP = Tka_sta.Critical_path
module Iterate = Tka_noise.Iterate
module J = Tka_obs.Jsonx
module Log = Tka_obs.Log
module Trace = Tka_obs.Trace
module Metrics = Tka_obs.Metrics

let log_src = Log.Src.create "repair" ~doc:"autonomous ECO repair loop"
let m_trials = Metrics.Counter.make "repair.trials"
let m_accepted = Metrics.Counter.make "repair.accepted"

type move = Shield | Space | Strengthen

let move_name = function
  | Shield -> "shield"
  | Space -> "space"
  | Strengthen -> "strengthen"

let move_of_name = function
  | "shield" -> Ok Shield
  | "space" -> Ok Space
  | "strengthen" -> Ok Strengthen
  | m -> Error (Printf.sprintf "unknown repair move %S" m)

type entry = {
  en_iter : int;
  en_move : move;
  en_edits : Edit.t list;
  en_accepted : bool;
  en_delay_before : float;
  en_delay_after : float;
  en_tns_before : float;
  en_tns_after : float;
  en_dirty_nets : int;
  en_cache_hits : int;
  en_cache_misses : int;
}

type outcome = Target_met | Budget_exhausted | Converged | No_candidates

let outcome_name = function
  | Target_met -> "target_met"
  | Budget_exhausted -> "budget_exhausted"
  | Converged -> "converged"
  | No_candidates -> "no_candidates"

type report = {
  rp_circuit : string;
  rp_k : int;
  rp_fix_k : int;
  rp_budget : int;
  rp_dry_run : bool;
  rp_target_delay : float;
  rp_noiseless_delay : float;
  rp_initial_delay : float;
  rp_final_delay : float;
  rp_iterations : int;
  rp_edits_applied : int;
  rp_rejected : int;
  rp_outcome : outcome;
  rp_journal : entry list;
  rp_curve : (int * float) list;
  rp_identical : bool;
  rp_t_total_s : float;
}

(* ------------------------------------------------------------------ *)
(* journal serialisation                                              *)
(* ------------------------------------------------------------------ *)

let entry_json e =
  J.Obj
    [
      ("iter", J.Int e.en_iter);
      ("move", J.Str (move_name e.en_move));
      ("accepted", J.Bool e.en_accepted);
      ("edits", J.List (List.map Edit.to_json e.en_edits));
      ("delay_before_ns", J.Float e.en_delay_before);
      ("delay_after_ns", J.Float e.en_delay_after);
      ("tns_before_ns", J.Float e.en_tns_before);
      ("tns_after_ns", J.Float e.en_tns_after);
      ("dirty_nets", J.Int e.en_dirty_nets);
      ("cache_hits", J.Int e.en_cache_hits);
      ("cache_misses", J.Int e.en_cache_misses);
    ]

let entry_of_json ~lookup j =
  let ( let* ) = Result.bind in
  let int key =
    match J.member key j with
    | Some (J.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "journal entry: missing int field %S" key)
  in
  let num key =
    match J.member key j with
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "journal entry: missing number field %S" key)
  in
  let* en_iter = int "iter" in
  let* en_move =
    match J.member "move" j with
    | Some (J.Str m) -> move_of_name m
    | _ -> Error "journal entry: missing string field \"move\""
  in
  let* en_accepted =
    match J.member "accepted" j with
    | Some (J.Bool b) -> Ok b
    | _ -> Error "journal entry: missing bool field \"accepted\""
  in
  let* en_edits =
    match J.member "edits" j with
    | Some (J.List items) -> Edit.list_of_json ~lookup items
    | _ -> Error "journal entry: missing list field \"edits\""
  in
  let* en_delay_before = num "delay_before_ns" in
  let* en_delay_after = num "delay_after_ns" in
  let* en_tns_before = num "tns_before_ns" in
  let* en_tns_after = num "tns_after_ns" in
  let* en_dirty_nets = int "dirty_nets" in
  let* en_cache_hits = int "cache_hits" in
  let* en_cache_misses = int "cache_misses" in
  Ok
    {
      en_iter;
      en_move;
      en_edits;
      en_accepted;
      en_delay_before;
      en_delay_after;
      en_tns_before;
      en_tns_after;
      en_dirty_nets;
      en_cache_hits;
      en_cache_misses;
    }

let journal_header ~circuit ~k ~fix_k =
  J.Obj
    [
      ("format", J.Str "tka-repair-journal");
      ("version", J.Int 1);
      ("circuit", J.Str circuit);
      ("k", J.Int k);
      ("fix_k", J.Int fix_k);
    ]

let load_journal ~lookup path =
  let ( let* ) = Result.bind in
  let at lineno = Result.map_error (Printf.sprintf "%s:%d: %s" path lineno) in
  match J.read_ndjson path with
  | [] -> Error (Printf.sprintf "%s: empty journal" path)
  | (lineno, header) :: entries ->
    let* hj = at lineno header in
    let* () =
      match J.member "format" hj with
      | Some (J.Str "tka-repair-journal") -> Ok ()
      | _ -> at lineno (Error "not a tka-repair-journal")
    in
    List.fold_left
      (fun acc (lineno, j) ->
        let* acc = acc in
        let* j = at lineno j in
        let* e = at lineno (entry_of_json ~lookup j) in
        Ok (e :: acc))
      (Ok []) entries
    |> Result.map List.rev

let replay nl entries =
  List.fold_left
    (fun nl e -> if e.en_accepted then fst (Edit.apply nl e.en_edits) else nl)
    nl entries

(* ------------------------------------------------------------------ *)
(* candidate synthesis                                                *)
(* ------------------------------------------------------------------ *)

(* Total negative slack against the delay target: the loop's
   acceptance objective. The circuit delay (max over outputs) is a
   plateau — with two outputs tied at the max, fixing one does not
   move it and the loop would stall; the TNS sum credits every
   improved endpoint, which is why repair_timing-style optimizers
   drive it. Target met ⇔ TNS = 0 ⇔ circuit delay ≤ target. *)
let tns an ~target =
  List.fold_left
    (fun acc (_, a) -> acc +. Float.max 0. (a -. target))
    0.
    (Analysis.output_arrivals an)

let spacing_factor = 0.5
let strengthen_factor = 1.5

(* Candidate edit scripts for one iteration, aimed at the violating
   endpoints (outputs whose noisy arrival exceeds the target), worst
   first:

   - shield / space: the top fix_k elimination set retained for a
     violating sink (elimination side first, dual as fallback — the
     same preference order as [Eco.run]);
   - strengthen: the driver of the noisiest net on the worst violating
     endpoint's critical path. *)
let candidates a elim ~fix_k ~target =
  let fx = Analyzer.fixpoint a in
  let an = fx.Iterate.analysis in
  let violating =
    Analysis.output_arrivals an
    |> List.filter (fun (_, a) -> a > target)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  match violating with
  | [] -> []
  | (worst_po, _) :: _ ->
    let choice_for po =
      let scan (res : Engine.result) =
        if fix_k >= Array.length res.Engine.res_top then None
        else
          List.find_opt
            (fun ch -> ch.Engine.ch_sink = po)
            res.Engine.res_top.(fix_k)
      in
      match scan elim.Elimination.result with
      | Some _ as c -> c
      | None -> scan elim.Elimination.dual
    in
    let shield_space =
      match List.find_map (fun (po, _) -> choice_for po) violating with
      | None -> []
      | Some ch ->
        let shield = Eco.removal_edits ch.Engine.ch_set in
        let space =
          List.filter_map
            (function
              | Edit.Remove_coupling c ->
                Some (Edit.Scale_coupling { coupling = c; factor = spacing_factor })
              | _ -> None)
            shield
        in
        [ (Shield, shield); (Space, space) ]
    in
    let strengthen =
      CP.to_output an worst_po
      |> List.filter_map (fun (st : CP.step) ->
             let n = st.CP.step_net in
             match N.driver_gate (Analyzer.netlist a) n with
             | Some g -> Some (g.N.gate_id, Iterate.net_noise fx n)
             | None -> None)
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      |> function
      | (gate, _) :: _ ->
        [
          ( Strengthen,
            [ Edit.Strengthen_driver { gate; factor = strengthen_factor } ] );
        ]
      | [] -> []
    in
    List.filter (fun (_, es) -> es <> []) (shield_space @ strengthen)

(* ------------------------------------------------------------------ *)
(* the loop                                                           *)
(* ------------------------------------------------------------------ *)

(* A design state of the loop, with its analysis and its TNS. *)
type point = { p_state : Analyzer.t; p_elim : Elimination.t; p_tns : float }

(* A trialed candidate: its edits, the point they lead to, and what
   the trial re-analysis cost. *)
type trial = {
  tr_move : move;
  tr_edits : Edit.t list;
  tr_to : point;
  tr_dirty : int;
  tr_stats : Analyzer.run_stats;
}

let run ?(k = 10) ?(fix_k = 1) ?(budget = 10) ?target_delay ?(recover = 0.5)
    ?(dry_run = false) ?(verify = true) ?(filter = Tka_filter.Mode.Off)
    ?journal ?checkpoint nl =
  let wall = Tka_obs.Clock.now_s in
  let t_start = wall () in
  let a0 = Analyzer.create ~k nl in
  Eco.check_fix_k ~k fix_k;
  if budget < 0 then invalid_arg (Printf.sprintf "budget must be >= 0, got %d" budget);
  if not (recover >= 0. && recover <= 1.) then
    invalid_arg (Printf.sprintf "recover must be in [0, 1], got %g" recover);
  Option.iter (Analyzer.warm_start a0) checkpoint;
  let save_ckpt a =
    if not dry_run then Option.iter (Analyzer.save_checkpoint a) checkpoint
  in
  let elim0, _ = Analyzer.run ~filter a0 in
  save_ckpt a0;
  let noiseless = Elimination.noiseless_delay elim0 in
  let initial = Elimination.all_aggressor_delay elim0 in
  let target =
    match target_delay with
    | Some t -> t
    | None -> initial -. (recover *. (initial -. noiseless))
  in
  (* candidate targeting and the TNS read each state's fixpoint: the
     one its analysis ran on *)
  let tns_of a = tns (Analyzer.fixpoint a).Iterate.analysis ~target in
  let delay a = Iterate.circuit_delay (Analyzer.fixpoint a) in
  let jout =
    match journal with
    | Some path when not dry_run ->
      let oc = open_out path in
      output_string oc
        (J.to_string (journal_header ~circuit:(N.name nl) ~k ~fix_k) ^ "\n");
      flush oc;
      Some oc
    | _ -> None
  in
  let journal_rev = ref [] in
  let rejected = ref 0 in
  let emit e =
    journal_rev := e :: !journal_rev;
    if not e.en_accepted then incr rejected;
    match jout with
    | Some oc ->
      output_string oc (J.to_string (entry_json e) ^ "\n");
      flush oc
    | None -> ()
  in
  (* the initial point, then each accepted trial's *)
  let cur = ref { p_state = a0; p_elim = elim0; p_tns = tns_of a0 } in
  let curve = ref [ (0, initial) ] in
  let applied = ref 0 in
  let iter = ref 0 in
  let outcome = ref (if !cur.p_tns <= 0. then Some Target_met else None) in
  (* Trial a candidate on a *snapshot*: [Analyzer.apply] makes the
     edited state over a remapped copy of the live state's cache.
     Rejecting the candidate is then a no-op — the pre-edit state was
     never touched, which is what makes rollback bit-exact. *)
  let trial (mv, edits) =
    Trace.with_span ~cat:"incr" ~args:[ ("edits", J.Int (List.length edits)) ] "repair.trial"
    @@ fun () ->
    Metrics.Counter.incr m_trials;
    let a', dirty = Analyzer.apply !cur.p_state edits in
    let tns_after = tns_of a' in
    let elim', st = Analyzer.run ~filter a' in
    {
      tr_move = mv;
      tr_edits = edits;
      tr_to = { p_state = a'; p_elim = elim'; p_tns = tns_after };
      tr_dirty = dirty;
      tr_stats = st;
    }
  in
  while !outcome = None do
    incr iter;
    let cands = candidates !cur.p_state !cur.p_elim ~fix_k ~target in
    if cands = [] then outcome := Some No_candidates
    else begin
      let fitting =
        List.filter (fun (_, es) -> List.length es <= budget - !applied) cands
      in
      if fitting = [] then outcome := Some Budget_exhausted
      else begin
        let before = !cur in
        let trials = List.map trial fitting in
        (* lowest resulting TNS wins; first in move order on a tie *)
        let best =
          List.fold_left
            (fun acc t ->
              match acc with
              | Some b when b.tr_to.p_tns <= t.tr_to.p_tns -> acc
              | _ -> Some t)
            None trials
        in
        let accepted =
          match best with
          | Some b when b.tr_to.p_tns < before.p_tns -> Some b
          | _ -> None
        in
        List.iter
          (fun t ->
            emit
              {
                en_iter = !iter;
                en_move = t.tr_move;
                en_edits = t.tr_edits;
                en_accepted = Option.fold ~none:false ~some:(( == ) t) accepted;
                en_delay_before = delay before.p_state;
                en_delay_after = delay t.tr_to.p_state;
                en_tns_before = before.p_tns;
                en_tns_after = t.tr_to.p_tns;
                en_dirty_nets = t.tr_dirty;
                en_cache_hits = t.tr_stats.Analyzer.rs_hits;
                en_cache_misses = t.tr_stats.Analyzer.rs_misses;
              })
          trials;
        match accepted with
        | None -> outcome := Some Converged
        | Some t ->
          Metrics.Counter.incr m_accepted;
          cur := t.tr_to;
          applied := !applied + List.length t.tr_edits;
          curve := (!applied, delay t.tr_to.p_state) :: !curve;
          save_ckpt t.tr_to.p_state;
          Log.info log_src (fun m ->
              m
                ~fields:
                  [
                    Log.int "iter" !iter;
                    Log.str "move" (move_name t.tr_move);
                    Log.int "edits" (List.length t.tr_edits);
                  ]
                "accepted %s: TNS %.6f -> %.6f ns" (move_name t.tr_move)
                before.p_tns t.tr_to.p_tns);
          if t.tr_to.p_tns <= 0. then outcome := Some Target_met
          else if !applied >= budget then outcome := Some Budget_exhausted
      end
    end
  done;
  (match jout with Some oc -> close_out oc | None -> ());
  let final = !cur in
  let identical =
    (not verify)
    || Eco.elim_identical
         (Elimination.compute ~filter ~k (Analyzer.topo final.p_state))
         final.p_elim
  in
  let report =
    {
      rp_circuit = N.name nl;
      rp_k = k;
      rp_fix_k = fix_k;
      rp_budget = budget;
      rp_dry_run = dry_run;
      rp_target_delay = target;
      rp_noiseless_delay = noiseless;
      rp_initial_delay = initial;
      rp_final_delay = delay final.p_state;
      rp_iterations = !iter;
      rp_edits_applied = !applied;
      rp_rejected = !rejected;
      rp_outcome = Option.value ~default:Converged !outcome;
      rp_journal = List.rev !journal_rev;
      rp_curve = List.rev !curve;
      rp_identical = identical;
      rp_t_total_s = wall () -. t_start;
    }
  in
  (report, final.p_state, final.p_elim)

let report_json r =
  J.Obj
    [
      ("circuit", J.Str r.rp_circuit);
      ("k", J.Int r.rp_k);
      ("fix_k", J.Int r.rp_fix_k);
      ("budget", J.Int r.rp_budget);
      ("dry_run", J.Bool r.rp_dry_run);
      ("target_delay_ns", J.Float r.rp_target_delay);
      ("noiseless_delay_ns", J.Float r.rp_noiseless_delay);
      ("initial_delay_ns", J.Float r.rp_initial_delay);
      ("final_delay_ns", J.Float r.rp_final_delay);
      ( "delay_recovered_ps",
        J.Float ((r.rp_initial_delay -. r.rp_final_delay) *. 1000.) );
      ("iterations", J.Int r.rp_iterations);
      ("edits_applied", J.Int r.rp_edits_applied);
      ("rejected", J.Int r.rp_rejected);
      ("outcome", J.Str (outcome_name r.rp_outcome));
      ("target_met", J.Bool (r.rp_outcome = Target_met));
      ( "curve",
        J.List
          (List.map
             (fun (n, d) ->
               J.Obj [ ("edits", J.Int n); ("delay_ns", J.Float d) ])
             r.rp_curve) );
      ("journal", J.List (List.map entry_json r.rp_journal));
      ("identical", J.Bool r.rp_identical);
      ("t_total_s", J.Float r.rp_t_total_s);
    ]
