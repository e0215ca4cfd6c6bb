module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination
module BF = Tka_topk.Brute_force
module Engine = Tka_topk.Engine
module Refine = Tka_topk.Refine
module CS = Tka_topk.Coupling_set
module Pool = Tka_parallel.Pool
module Eco = Tka_incr.Eco
module Analyzer = Tka_incr.Analyzer

type verdict = Pass | Skip of string | Fail of string

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Tolerances mirror the regression suite, the same for both modes:
   top-1 is exact (the engine scores every single-coupling candidate),
   larger sets are a heuristic with a 1%-of-optimum contract, and in no
   case may the engine beat the optimum by more than rounding — both
   sides score sets with the same exact analysis. *)
let brute_miss_tolerance ~k opt =
  if k = 1 then 1e-6 else (0.01 *. Float.abs opt) +. 1e-9

let brute_beat_tolerance = 1e-9

let brute ?(budget_s = 30.) ~k topo =
  if k < 1 || k > 3 then invalid_arg "Oracle.brute: k must be in [1, 3]";
  let nl = Topo.netlist topo in
  let check mode =
    let name = Engine.mode_name mode in
    let d = Refine.evaluate (Refine.compute ~mode ~k topo) k in
    let bf =
      match mode with
      | Engine.Addition -> BF.addition ~budget_s ~k topo
      | Engine.Elimination -> BF.elimination ~budget_s ~k topo
    in
    let opt = bf.BF.bf_delay in
    let gap = Float.abs (d -. opt) in
    let tol = brute_miss_tolerance ~k opt in
    if not bf.BF.bf_completed then
      Skip (Printf.sprintf "brute-force %s budget expired" name)
    else if Engine.better mode d opt && gap > brute_beat_tolerance then
      Fail
        (Printf.sprintf
           "%s k=%d: engine delay %.9f beats the brute-force optimum %.9f" name
           k d opt)
    else if Engine.better mode opt d && gap > tol then
      Fail
        (Printf.sprintf
           "%s k=%d: engine delay %.9f misses the brute-force optimum %.9f by \
            more than %.1e"
           name k d opt tol)
    else Pass
  in
  if 2 * N.num_couplings nl < k then Skip "universe smaller than k"
  else
    match check Engine.Addition with
    | Pass -> check Engine.Elimination
    | (Skip _ | Fail _) as v -> v

let duality ~set topo =
  let nl = Topo.netlist topo in
  let u = 2 * N.num_couplings nl in
  if u = 0 then Skip "no couplings"
  else begin
    let complement =
      CS.of_list (List.filter (fun d -> not (CS.mem d set)) (List.init u Fun.id))
    in
    let d_elim = Refine.exact_delay ~mode:Engine.Elimination topo set in
    let d_add = Refine.exact_delay ~mode:Engine.Addition topo complement in
    if feq d_elim d_add then Pass
    else
      Fail
        (Printf.sprintf
           "duality: eliminating %s gives %.17g but activating the complement gives %.17g"
           (Format.asprintf "%a" CS.pp set)
           d_elim d_add)
  end

(* Every set of each cardinality's re-ranking pool, scored through the
   shared ctx in pool order (as [Refine.best_choice] scores them) and again
   through a fresh evaluation: the two must be the same bits. *)
let rerank ~k topo =
  let nl = Topo.netlist topo in
  if N.num_couplings nl = 0 then Skip "no couplings"
  else begin
    let check mode =
      let r = Refine.compute ~mode ~k topo in
      List.find_map
        (fun i ->
          List.find_map
            (fun s ->
              let shared = Refine.exact_delay ~mode ~ctx:r.Refine.ctx topo s
              and scratch = Refine.exact_delay ~mode topo s in
              if feq shared scratch then None
              else
                Some
                  (Printf.sprintf
                     "rerank: %s k=%d set %s scores %.17g through the shared ctx but %.17g fresh"
                     (Engine.mode_name mode) i
                     (Format.asprintf "%a" CS.pp s)
                     shared scratch))
            (Refine.pool r i))
        (List.init k (fun i -> i + 1))
    in
    match List.find_map check [ Engine.Addition; Engine.Elimination ] with
    | Some d -> Fail d
    | None -> Pass
  end

let jobs ?(jobs = 4) ~k topo =
  let saved = Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) @@ fun () ->
  Pool.set_default_jobs 1;
  let seq = Elimination.compute ~k topo in
  Pool.set_default_jobs jobs;
  let par = Elimination.compute ~k topo in
  if Eco.elim_identical seq par then Pass
  else
    Fail
      (Printf.sprintf
         "jobs: k=%d results differ bitwise between --jobs 1 and --jobs %d" k
         jobs)

(* Structural FNV-1a over every net, gate binding and coupling in id
   order: pins the exact generated structure, not just the counts, so
   any drift in the generator's draw order shows up as a new value. *)
let netlist_fingerprint nl =
  let h = ref 0x64_9c_9e_66_9c_9e_64_9c in
  let mix i = h := (!h lxor i) * 0x100000001b3 land max_int in
  let mix_str s =
    mix (String.length s);
    String.iter (fun c -> mix (Char.code c)) s
  in
  let mix_f f = mix (Int64.to_int (Int64.bits_of_float f) land max_int) in
  Array.iter
    (fun n ->
      mix n.N.net_id;
      mix_str n.N.net_name;
      mix (if n.N.is_output then 1 else 0))
    (N.nets nl);
  Array.iter
    (fun g ->
      mix_str g.N.gate_name;
      mix_str g.N.cell.Tka_cell.Cell.name;
      List.iter
        (fun (pin, src) ->
          mix_str pin;
          mix src)
        g.N.fanin;
      mix g.N.fanout)
    (N.gates nl);
  Array.iter
    (fun c ->
      mix c.N.net_a;
      mix c.N.net_b;
      mix_f c.N.coupling_cap)
    (N.couplings nl);
  Printf.sprintf "%016x" !h

let table2x ?expected spec =
  let a = netlist_fingerprint (Tka_layout.Table2x.generate spec) in
  let b = netlist_fingerprint (Tka_layout.Table2x.generate spec) in
  if a <> b then
    Fail
      (Printf.sprintf
         "table2x: %s (seed %d) is not regeneration-deterministic: %s vs %s"
         spec.Tka_layout.Table2x.tx_name spec.Tka_layout.Table2x.tx_seed a b)
  else
    match expected with
    | None -> Pass
    | Some e when e = a -> Pass
    | Some e ->
      Fail
        (Printf.sprintf
           "table2x: %s (seed %d) fingerprint drifted: expected %s, got %s"
           spec.Tka_layout.Table2x.tx_name spec.Tka_layout.Table2x.tx_seed e a)

(* The repair loop makes three claims worth falsifying: its final
   incremental state matches a scratch re-analysis (rp_identical), its
   journal replays to the exact final netlist, and the journal survives
   a JSON round-trip without losing that property. The loop only emits
   remove/scale/strengthen edits, so the round-trip needs no cell
   lookup. *)
let repair ?(budget = 3) ~k nl =
  let module Repair = Tka_incr.Repair in
  if N.num_couplings nl = 0 then Skip "no couplings"
  else begin
    let report, final, elim_final = Repair.run ~k ~fix_k:1 ~budget nl in
    let nl_final = Tka_incr.Analyzer.netlist final in
    let journal = report.Repair.rp_journal in
    if not report.Repair.rp_identical then
      Fail
        (Printf.sprintf
           "repair: final incremental state differs bitwise from a scratch \
            re-analysis after %d applied edit(s)"
           report.Repair.rp_edits_applied)
    else if
      netlist_fingerprint (Repair.replay nl journal)
      <> netlist_fingerprint nl_final
    then Fail "repair: replaying the journal does not reproduce the final netlist"
    else begin
      let round_tripped =
        List.map
          (fun e ->
            match
              Repair.entry_of_json ~lookup:(fun _ -> None)
                (Repair.entry_json e)
            with
            | Ok e -> e
            | Error m -> failwith m)
          journal
      in
      match round_tripped with
      | exception Failure m ->
        Fail
          (Printf.sprintf "repair: journal entry does not survive a JSON round-trip: %s" m)
      | entries ->
        let replayed = Repair.replay nl entries in
        if netlist_fingerprint replayed <> netlist_fingerprint nl_final then
          Fail
            "repair: replaying the JSON round-tripped journal does not \
             reproduce the final netlist"
        else
          let scratch = Elimination.compute ~k (Topo.create replayed) in
          if Eco.elim_identical scratch elim_final then Pass
          else
            Fail
              "repair: scratch analysis of the replayed netlist differs \
               bitwise from the loop's final state"
    end
  end

(* The aggressor filter makes three falsifiable claims (docs/filtering.md):
   [Off] is bit-identical to the historical default; [Window]/[Logic]
   are relaxations (the addition estimate can only shrink, the
   elimination estimate can only grow — fewer/smaller envelopes mean
   less noise found and less removal benefit); and every drop carries a
   certificate. Window drops are certified against the waveform layer —
   the envelope the engine would have built must be identically zero on
   the victim's dominance interval, checked with [Pwl.max_on] rather
   than the filter's own interval arithmetic. Logic drops are certified
   by exhaustive boolean simulation of the netlist: every abstract
   value the implication analysis assigned must hold under all 2^n
   primary-input assignments (capped at 2^16 inputs; generator
   circuits have 2–3). *)
(* Logic certificates simulate every primary-input assignment, so
   they are skipped beyond this many inputs. *)
let max_sim_inputs = 16

let filter_consistency ~k topo =
  let module Dominance = Tka_topk.Dominance in
  let module Iterate = Tka_noise.Iterate in
  let module CN = Tka_noise.Coupled_noise in
  let module EB = Tka_noise.Envelope_builder in
  let module Analysis = Tka_sta.Analysis in
  let module TW = Tka_sta.Timing_window in
  let module Filter = Tka_filter.Filter in
  let module Mode = Tka_filter.Mode in
  let module Implication = Tka_filter.Implication in
  let module Envelope = Tka_waveform.Envelope in
  let module Pwl = Tka_waveform.Pwl in
  let module Transition = Tka_waveform.Transition in
  let exception Cert_fail of string in
  let nl = Topo.netlist topo in
  if N.num_couplings nl = 0 then Skip "no couplings"
  else begin
    let fix = Iterate.run topo in
    (* 1. Off is bit-identical to the default at any jobs count (the
       default IS Off; this guards the plumbing, not a tautology — the
       screened path must return the untouched candidate list). *)
    let base_elim = Elimination.compute ~fixpoint:fix ~k topo in
    let off_elim =
      Elimination.compute ~filter:Mode.Off ~fixpoint:fix ~k topo
    in
    if not (Eco.elim_identical base_elim off_elim) then
      Fail "filter: explicit --filter none differs bitwise from the default"
    else begin
      let base_add = Addition.compute ~fixpoint:fix ~k topo in
      let tol v = (0.01 *. Float.abs v) +. 1e-9 in
      let relaxation m =
        let fadd = Addition.compute ~filter:m ~fixpoint:fix ~k topo in
        let felim = Elimination.compute ~filter:m ~fixpoint:fix ~k topo in
        let rec per_k i =
          if i > k then None
          else
            let ea = Addition.estimated_delay base_add i in
            let ea_f = Addition.estimated_delay fadd i in
            let ee = Elimination.estimated_delay base_elim i in
            let ee_f = Elimination.estimated_delay felim i in
            if ea_f > ea +. tol ea then
              Some
                (Printf.sprintf
                   "filter %s: k=%d addition estimate %.9f exceeds the \
                    unfiltered estimate %.9f (filtering may only shrink it)"
                   (Mode.to_string m) i ea_f ea)
            else if ee_f < ee -. tol ee then
              Some
                (Printf.sprintf
                   "filter %s: k=%d elimination estimate %.9f is below the \
                    unfiltered estimate %.9f (filtering may only raise it)"
                   (Mode.to_string m) i ee_f ee)
            else per_k (i + 1)
        in
        per_k 1
      in
      (* 3a. window-drop certificates, for both engines' window sets *)
      let base_w = Analysis.window fix.Iterate.base in
      let noisy_w = Analysis.window fix.Iterate.analysis in
      let certify_drops m =
        List.iter
          (fun (engine_mode, mode_w) ->
            let filt = Filter.prepare ~mode:m ~windows:mode_w topo in
            for v = 0 to N.num_nets nl - 1 do
              List.iter
                (fun (d : CN.directed) ->
                  match Filter.decide filt d with
                  | Filter.Drop Filter.Window_disjoint ->
                    let victim =
                      Transition.make ~t50:(base_w v).TW.lat
                        ~slew:(mode_w v).TW.slew_late
                    in
                    let interval = Dominance.interval ~victim in
                    let env = EB.of_directed nl ~windows:mode_w d in
                    if Pwl.max_on interval (Envelope.waveform env) > 1e-9
                    then
                      raise
                        (Cert_fail
                           (Printf.sprintf
                              "filter %s (%s windows): dropped aggressor \
                               %d->%d as non-overlapping but its envelope \
                               is non-zero on the dominance interval"
                              (Mode.to_string m) engine_mode
                              d.CN.dc_aggressor d.CN.dc_victim))
                  | Filter.Drop _ | Filter.Keep | Filter.Derate _ -> ())
                (CN.aggressors_of_victim nl v)
            done)
          [ ("base", base_w); ("noisy", noisy_w) ]
      in
      (* 3b. logic certificates: every abstract implication value must
         agree with exhaustive simulation *)
      let certify_logic () =
        let pis = N.inputs nl in
        let npi = List.length pis in
        if npi > max_sim_inputs then ()
        else begin
          let values = Implication.analyze topo in
          let pi_arr = Array.of_list pis in
          let assigned = Array.make (N.num_nets nl) false in
          for mask = 0 to (1 lsl npi) - 1 do
            Array.iteri
              (fun bit pi -> assigned.(pi) <- (mask lsr bit) land 1 = 1)
              pi_arr;
            match Implication.eval_all nl ~assignment:(fun n -> assigned.(n)) with
            | exception Implication.Parse_error -> ()
            | sim ->
              Array.iteri
                (fun n v ->
                  let claim =
                    match (v : Implication.value) with
                    | Implication.Mixed -> None
                    | Implication.Const b -> Some b
                    | Implication.Fn { root; at0; at1 } ->
                      Some (if sim.(root) then at1 else at0)
                  in
                  match claim with
                  | Some expected when sim.(n) <> expected ->
                    raise
                      (Cert_fail
                         (Printf.sprintf
                            "filter logic: implication value of net %d is \
                             wrong under input assignment %#x"
                            n mask))
                  | _ -> ())
                values
          done
        end
      in
      match
        List.find_map relaxation [ Mode.Window; Mode.Logic ]
      with
      | Some msg -> Fail msg
      | None -> (
        match
          certify_drops Mode.Window;
          certify_drops Mode.Logic;
          certify_logic ()
        with
        | () -> Pass
        | exception Cert_fail msg -> Fail msg)
    end
  end

let incremental ~k nl edits =
  match edits with
  | [] -> Skip "empty edit script"
  | _ :: _ ->
    let az = Analyzer.create ~k nl in
    let _warmup = Analyzer.run az in
    let az', _dirty = Analyzer.apply az edits in
    let incr, _stats = Analyzer.run az' in
    let full = Elimination.compute ~k (Analyzer.topo az') in
    if Eco.elim_identical full incr then Pass
    else
      Fail
        (Printf.sprintf
           "incremental: k=%d cached re-analysis differs bitwise from scratch after %d edit(s)"
           k (List.length edits))
