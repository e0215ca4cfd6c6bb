(* Tests for the top-k core: coupling sets, dominance, irredundant
   lists, pseudo aggressors, the enumeration engine, the brute-force
   baseline and reports. Includes the paper's Fig. 4 (non-monotonic set
   content) and the Table 1 validation (agreement with brute force for
   small k). *)

module CS = Tka_topk.Coupling_set
module Dominance = Tka_topk.Dominance
module Ilist = Tka_topk.Ilist
module Pseudo = Tka_topk.Pseudo
module Engine = Tka_topk.Engine
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination
module BF = Tka_topk.Brute_force
module Report = Tka_topk.Report
module N = Tka_circuit.Netlist
module Builder = Tka_circuit.Builder
module Topo = Tka_circuit.Topo
module CN = Tka_noise.Coupled_noise
module VN = Tka_noise.Victim_noise
module Envelope = Tka_waveform.Envelope
module Pulse = Tka_waveform.Pulse
module Transition = Tka_waveform.Transition
module Interval = Tka_util.Interval
module B = Tka_layout.Benchmarks
module Lib = Tka_cell.Default_lib
module Metrics = Tka_obs.Metrics

let check_f6 = Alcotest.(check (float 1e-6))

let tiny_topo =
  lazy
    (let nl = B.tiny () in
     (nl, Topo.create nl))

(* ------------------------------------------------------------------ *)
(* Coupling_set                                                       *)
(* ------------------------------------------------------------------ *)

let test_cs_basics () =
  let s = CS.of_list [ 3; 1; 2; 1 ] in
  Alcotest.(check int) "dedup" 3 (CS.cardinality s);
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (CS.to_list s);
  Alcotest.(check bool) "mem" true (CS.mem 2 s);
  Alcotest.(check bool) "not mem" false (CS.mem 9 s);
  Alcotest.(check int) "empty" 0 (CS.cardinality CS.empty)

let test_cs_algebra () =
  let a = CS.of_list [ 1; 2; 3 ] and b = CS.of_list [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (CS.to_list (CS.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (CS.to_list (CS.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (CS.to_list (CS.diff a b));
  Alcotest.(check bool) "subset" true (CS.subset (CS.of_list [ 1; 3 ]) a);
  Alcotest.(check bool) "not subset" false (CS.subset b a);
  Alcotest.(check bool) "disjoint" true (CS.disjoint (CS.of_list [ 1 ]) (CS.of_list [ 2 ]));
  Alcotest.(check bool) "not disjoint" false (CS.disjoint a b)

let test_cs_predicates () =
  let nl, _ = Lazy.force tiny_topo in
  let d = List.hd (CN.aggressors_of_victim nl (N.find_net_exn nl "n1").N.net_id) in
  let s = CS.singleton (CN.directed_id d) in
  (* [Iterate.Only]/[Except] name a set by its members' directed ids *)
  Alcotest.(check bool) "contains" true (CS.mem (CN.directed_id d) s);
  Alcotest.(check (list int)) "members" [ CN.directed_id d ] (CS.to_list s)

let cs_qcheck =
  let open QCheck in
  let arb_set = map CS.of_list (list_of_size (Gen.int_range 0 10) (int_bound 20)) in
  [
    Test.make ~name:"union commutative" ~count:200 (pair arb_set arb_set)
      (fun (a, b) -> CS.equal (CS.union a b) (CS.union b a));
    Test.make ~name:"inter subset of both" ~count:200 (pair arb_set arb_set)
      (fun (a, b) ->
        let i = CS.inter a b in
        CS.subset i a && CS.subset i b);
    Test.make ~name:"diff disjoint from subtrahend" ~count:200 (pair arb_set arb_set)
      (fun (a, b) -> CS.disjoint (CS.diff a b) b);
    Test.make ~name:"union cardinality" ~count:200 (pair arb_set arb_set)
      (fun (a, b) ->
        CS.cardinality (CS.union a b)
        = CS.cardinality a + CS.cardinality b - CS.cardinality (CS.inter a b));
    Test.make ~name:"add then mem" ~count:200 (pair (int_bound 30) arb_set)
      (fun (x, s) -> CS.mem x (CS.add x s));
  ]

(* The struct-of-arrays rewrite must be observationally identical to
   the string-keyed sorted-list implementation it replaced: same
   canonical hash_key (memo tables keyed on it survive the swap), same
   ordering, and the same verdicts from every operation the dominance
   and dedupe machinery relies on. [Ref] is that old implementation,
   kept list-wise on purpose. *)
module Ref_cs = struct
  let of_list l = List.sort_uniq Int.compare l
  let hash_key l = String.concat "," (List.map string_of_int l)
  let compare = List.compare Int.compare
  let subset a b = List.for_all (fun x -> List.mem x b) a
  let union a b = List.sort_uniq Int.compare (a @ b)
  let inter a b = List.filter (fun x -> List.mem x b) a
  let diff a b = List.filter (fun x -> not (List.mem x b)) a
end

let cs_roundtrip_qcheck =
  let open QCheck in
  let arb_ids = list_of_size (Gen.int_range 0 12) (int_bound 24) in
  let both l = (CS.of_list l, Ref_cs.of_list l) in
  let sign i = Stdlib.compare i 0 in
  [
    Test.make ~name:"to_list round-trips through the reference" ~count:300
      arb_ids (fun l ->
        let s, r = both l in
        CS.to_list s = r);
    Test.make ~name:"hash_key matches the string-id reference" ~count:300
      arb_ids (fun l ->
        let s, r = both l in
        CS.hash_key s = Ref_cs.hash_key r);
    Test.make ~name:"compare matches the reference order" ~count:300
      (pair arb_ids arb_ids) (fun (la, lb) ->
        let sa, ra = both la and sb, rb = both lb in
        sign (CS.compare sa sb) = sign (Ref_cs.compare ra rb));
    Test.make ~name:"subset verdicts agree (dominance precondition)"
      ~count:300 (pair arb_ids arb_ids) (fun (la, lb) ->
        let sa, ra = both la and sb, rb = both lb in
        CS.subset sa sb = Ref_cs.subset ra rb
        && CS.equal sa sb = (ra = rb)
        && CS.mem 7 sa = List.mem 7 ra);
    Test.make ~name:"union/inter/diff round-trip" ~count:300
      (pair arb_ids arb_ids) (fun (la, lb) ->
        let sa, ra = both la and sb, rb = both lb in
        CS.to_list (CS.union sa sb) = Ref_cs.union ra rb
        && CS.to_list (CS.inter sa sb) = Ref_cs.inter ra rb
        && CS.to_list (CS.diff sa sb) = Ref_cs.diff ra rb);
    Test.make ~name:"equal sets hash equal and Tbl finds them" ~count:300
      arb_ids (fun l ->
        let s, _ = both l in
        let s' = CS.of_list (List.rev l) in
        let tbl = CS.Tbl.create 4 in
        CS.Tbl.replace tbl s ();
        CS.hash s = CS.hash s' && CS.Tbl.mem tbl s');
  ]

(* ------------------------------------------------------------------ *)
(* Dominance                                                          *)
(* ------------------------------------------------------------------ *)

let victim = Transition.make ~t50:1.0 ~slew:0.1 ()

let env ~peak ~window_lo ~window_hi =
  Envelope.of_pulse
    ~window:(Interval.make window_lo window_hi)
    (Pulse.make ~onset:0. ~peak ~rise:0.05 ~decay:0.1)

let test_dominance_interval () =
  let i = Dominance.interval ~victim in
  Alcotest.(check bool) "covers t50" true (Interval.contains i 1.0);
  Alcotest.(check bool) "upper bounded by saturation" true
    (Interval.hi i <= 1.0 +. (VN.saturation_slews +. 1.) *. 0.1)

let dominates ~interval a b =
  Dominance.dominates ~interval a (Dominance.ends ~interval a) b
    (Dominance.ends ~interval b)

let test_dominance_partial_order () =
  let i = Dominance.interval ~victim in
  let small = env ~peak:0.1 ~window_lo:0.9 ~window_hi:1.0 in
  let big = env ~peak:0.3 ~window_lo:0.8 ~window_hi:1.1 in
  Alcotest.(check bool) "big dominates small" true (dominates ~interval:i big small);
  Alcotest.(check bool) "small not dominates big" false
    (dominates ~interval:i small big);
  Alcotest.(check bool) "reflexive" true (dominates ~interval:i small small)

let test_dominance_fig6_incomparable () =
  let i = Dominance.interval ~victim in
  (* A tall narrow early vs short wide late: neither encapsulates *)
  let a = env ~peak:0.4 ~window_lo:0.95 ~window_hi:1.0 in
  let b = env ~peak:0.15 ~window_lo:0.9 ~window_hi:1.3 in
  Alcotest.(check (pair bool bool)) "mutually undominated" (false, false)
    (Dominance.dominates_pair ~interval:i a (Dominance.ends ~interval:i a) b
       (Dominance.ends ~interval:i b))

let test_dominance_implies_more_noise () =
  (* Theorem 1: dominating envelope yields at least as much delay noise,
     also after adding the same extra envelope to both *)
  let i = Dominance.interval ~victim in
  let p = env ~peak:0.3 ~window_lo:0.8 ~window_hi:1.1 in
  let q = env ~peak:0.15 ~window_lo:0.9 ~window_hi:1.0 in
  let extra = env ~peak:0.2 ~window_lo:1.0 ~window_hi:1.05 in
  Alcotest.(check bool) "p dominates q" true (dominates ~interval:i p q);
  let noise e = VN.delay_noise_of_envelope ~victim e in
  Alcotest.(check bool) "noise order" true (noise p >= noise q -. 1e-9);
  Alcotest.(check bool) "noise order preserved under union" true
    (noise (Envelope.add p extra) >= noise (Envelope.add q extra) -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Ilist                                                              *)
(* ------------------------------------------------------------------ *)

let entry couplings envelope objective = { Ilist.couplings; envelope; objective }

let test_ilist_prune_dominated () =
  let i = Dominance.interval ~victim in
  let stats = Ilist.fresh_stats () in
  let big = env ~peak:0.3 ~window_lo:0.8 ~window_hi:1.1 in
  let small = env ~peak:0.1 ~window_lo:0.9 ~window_hi:1.0 in
  let kept =
    Ilist.prune ~interval:i ~stats
      [
        entry (CS.singleton 1) small 0.01;
        entry (CS.singleton 2) big 0.05;
      ]
  in
  Alcotest.(check int) "one survives" 1 (List.length kept);
  Alcotest.(check int) "dominated counted" 1 stats.Ilist.dominated;
  (match kept with
  | [ e ] -> Alcotest.(check (list int)) "the big one" [ 2 ] (CS.to_list e.Ilist.couplings)
  | _ -> Alcotest.fail "expected one")

let test_ilist_prune_keeps_incomparable () =
  let i = Dominance.interval ~victim in
  let stats = Ilist.fresh_stats () in
  let a = env ~peak:0.4 ~window_lo:0.95 ~window_hi:1.0 in
  let b = env ~peak:0.15 ~window_lo:0.9 ~window_hi:1.3 in
  let kept =
    Ilist.prune ~interval:i ~stats
      [ entry (CS.singleton 1) a 0.03; entry (CS.singleton 2) b 0.02 ]
  in
  Alcotest.(check int) "both survive" 2 (List.length kept)

let test_ilist_prune_dedupes () =
  let i = Dominance.interval ~victim in
  let stats = Ilist.fresh_stats () in
  let e = env ~peak:0.2 ~window_lo:0.9 ~window_hi:1.0 in
  let kept =
    Ilist.prune ~interval:i ~stats
      [ entry (CS.of_list [ 1; 2 ]) e 0.02; entry (CS.of_list [ 2; 1 ]) e 0.02 ]
  in
  Alcotest.(check int) "deduped" 1 (List.length kept);
  Alcotest.(check int) "duplicate counted" 1 stats.Ilist.duplicates

let test_ilist_capacity () =
  let i = Dominance.interval ~victim in
  let stats = Ilist.fresh_stats () in
  (* incomparable family: increasing peak, shrinking width *)
  let entries =
    List.init 10 (fun j ->
        let peak = 0.05 +. (0.03 *. float_of_int j) in
        let hi = 1.3 -. (0.03 *. float_of_int j) in
        entry (CS.singleton j) (env ~peak ~window_lo:0.9 ~window_hi:hi)
          (float_of_int j))
  in
  let kept = Ilist.prune ~capacity:4 ~interval:i ~stats entries in
  Alcotest.(check bool) "capped at 4" true (List.length kept <= 4);
  Alcotest.(check bool) "cap counted" true (stats.Ilist.capped > 0);
  (* objective-descending *)
  let rec desc = function
    | a :: (b :: _ as tl) -> a.Ilist.objective >= b.Ilist.objective && desc tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (desc kept)

let test_ilist_best () =
  Alcotest.(check bool) "empty none" true (Ilist.best [] = None);
  let e = entry (CS.singleton 1) Envelope.zero 0.5 in
  (match Ilist.best [ e ] with
  | Some b -> check_f6 "best objective" 0.5 b.Ilist.objective
  | None -> Alcotest.fail "expected best")

let test_ilist_merge_stats () =
  let a = Ilist.fresh_stats () in
  let b = Ilist.fresh_stats () in
  b.Ilist.candidates <- 5;
  b.Ilist.dominated <- 2;
  Ilist.merge_stats a b;
  Alcotest.(check int) "candidates" 5 a.Ilist.candidates;
  Alcotest.(check int) "dominated" 2 a.Ilist.dominated

(* The engine drops a repeated extension set before building its
   envelope and hands [prune] the count instead. Stats and the
   [engine.*] counter deltas must equal those of passing the repeats
   through [prune]'s own dedupe. *)
let prune_counters =
  [
    "engine.candidate_sets";
    "engine.duplicate_sets";
    "engine.sets_pruned";
    "engine.capacity_evictions";
    "engine.dominance_checks";
  ]

let prune_accounted ?capacity ?skipped_duplicates entries =
  let values () =
    List.map
      (fun n -> Metrics.Counter.value (Option.get (Metrics.find_counter n)))
      prune_counters
  in
  let stats = Ilist.fresh_stats () in
  Metrics.with_enabled true (fun () ->
      let before = values () in
      let kept =
        Ilist.prune ?capacity ?skipped_duplicates
          ~interval:(Dominance.interval ~victim) ~stats entries
      in
      let deltas = List.map2 ( - ) (values ()) before in
      let s = stats in
      ( List.map (fun e -> (CS.to_list e.Ilist.couplings, e.Ilist.objective)) kept,
        [ s.Ilist.candidates; s.Ilist.dominated; s.Ilist.duplicates; s.Ilist.capped;
          s.Ilist.checks ],
        deltas ))

let test_ilist_skipped_duplicates () =
  let a = entry (CS.of_list [ 1; 2 ]) (env ~peak:0.3 ~window_lo:0.8 ~window_hi:1.1) 0.05 in
  let b = entry (CS.of_list [ 1; 3 ]) (env ~peak:0.1 ~window_lo:0.9 ~window_hi:1.0) 0.01 in
  let c = entry (CS.of_list [ 2; 3 ]) (env ~peak:0.15 ~window_lo:0.9 ~window_hi:1.3) 0.02 in
  (* a repeat of a set; what it carries is never looked at *)
  let again e = { e with Ilist.envelope = Envelope.zero; objective = 1. } in
  List.iter
    (fun (name, capacity, full, deduped, skipped) ->
      let kept, stats, deltas = prune_accounted ?capacity full in
      let kept', stats', deltas' =
        prune_accounted ?capacity ~skipped_duplicates:skipped deduped
      in
      Alcotest.(check (list (pair (list int) (float 0.)))) (name ^ ": kept") kept kept';
      Alcotest.(check (list int)) (name ^ ": stats") stats stats';
      Alcotest.(check (list int)) (name ^ ": counter deltas") deltas deltas';
      Alcotest.(check int) (name ^ ": duplicates counted") skipped (List.nth stats 2);
      Alcotest.(check int) (name ^ ": duplicate_sets delta") skipped (List.nth deltas 1))
    [
      ("general", None, [ a; b; again a; c; again b; again a ], [ a; b; c ], 3);
      ("capacity 1", Some 1, [ a; again a; b; c; again c ], [ a; b; c ], 2);
      (* dedupe leaves one candidate: [prune]'s singleton fast path *)
      ("singleton", None, [ a; again a; again a ], [ a ], 2);
    ]

(* ------------------------------------------------------------------ *)
(* Pseudo                                                              *)
(* ------------------------------------------------------------------ *)

let test_pseudo_zero_shift () =
  Alcotest.(check bool) "zero" true
    (Envelope.is_zero (Pseudo.envelope ~victim ~shift:0.))

let test_pseudo_shift_recovery () =
  List.iter
    (fun shift ->
      let e = Pseudo.envelope ~victim ~shift in
      check_f6
        (Printf.sprintf "shift %g recovered" shift)
        shift
        (Pseudo.shift_of_envelope ~victim e))
    [ 0.01; 0.05; 0.1 ]

let test_pseudo_monotone () =
  let e1 = Pseudo.envelope ~victim ~shift:0.02 in
  let e2 = Pseudo.envelope ~victim ~shift:0.06 in
  Alcotest.(check bool) "bigger shift dominates" true (Envelope.encapsulates e2 e1)

let test_pseudo_reduction_decomposes () =
  let total = 0.08 and removed = 0.03 in
  let full = Pseudo.envelope ~victim ~shift:total in
  let red = Pseudo.reduction_envelope ~victim ~total ~removed in
  let rest = Pseudo.envelope ~victim ~shift:(total -. removed) in
  Alcotest.(check bool) "full = rest + reduction" true
    (Envelope.equal ~eps:1e-9 full (Envelope.add rest red))

let test_pseudo_reduction_validation () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pseudo.reduction_envelope ~victim ~total:0.01 ~removed:0.05);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fig. 4: non-monotone top-k content                                 *)
(* ------------------------------------------------------------------ *)

let test_fig4_nonmonotonic_sets () =
  (* The Fig. 4 situation: a1 alone produces the most delay noise, so
     the top-1 set is {a1}; but a2 and a3 together stack above the
     half-supply level and ride the victim crossing far out along their
     later windows, so the top-2 set is {a2, a3} — not a superset of
     the top-1 set. *)
  let v = Transition.make ~t50:1.0 ~slew:0.1 () in
  let noise es = VN.delay_noise_of_envelope ~victim:v (Envelope.combine es) in
  let a1 =
    (* tallest single pulse, but window ends at the victim transition *)
    Envelope.of_pulse
      ~window:(Interval.make 0.6 1.0)
      (Pulse.make ~onset:0. ~peak:0.42 ~rise:0.02 ~decay:0.02)
  in
  let a23 =
    (* individually weaker, but the window extends past the transition *)
    Envelope.of_pulse
      ~window:(Interval.make 0.6 1.15)
      (Pulse.make ~onset:0. ~peak:0.30 ~rise:0.02 ~decay:0.02)
  in
  let a2 = a23 and a3 = a23 in
  let n1 = noise [ a1 ] and n2 = noise [ a2 ] and n3 = noise [ a3 ] in
  Alcotest.(check bool) "top-1 is {a1}" true (n1 > n2 && n1 > n3);
  let n23 = noise [ a2; a3 ] in
  let n12 = noise [ a1; a2 ] and n13 = noise [ a1; a3 ] in
  Alcotest.(check bool) "top-2 is {a2,a3}" true (n23 > n12 && n23 > n13);
  Alcotest.(check bool) "pair effect is strongly superadditive" true
    (n23 > 2. *. (n2 +. n3))

(* ------------------------------------------------------------------ *)
(* Engine: addition / elimination                                     *)
(* ------------------------------------------------------------------ *)

let test_table1_addition_matches_brute_force () =
  (* the validation circuit of the benchmark harness: exact agreement *)
  let spec =
    {
      B.sp_name = "v0";
      sp_gates = 20;
      sp_inputs = 4;
      sp_depth = 4;
      sp_couplings = 24;
      sp_seed = 4242;
    }
  in
  let topo = Topo.create (B.generate spec) in
  let add = Addition.compute ~k:3 topo in
  List.iter
    (fun k ->
      let bf = BF.addition ~budget_s:120. ~k topo in
      Alcotest.(check bool) (Printf.sprintf "k=%d completed" k) true bf.BF.bf_completed;
      check_f6
        (Printf.sprintf "k=%d same delay as brute force" k)
        bf.BF.bf_delay (Addition.evaluate add k))
    [ 1; 2; 3 ]

let test_tiny_addition_near_brute_force () =
  (* tiny's k=3 optimum relies on an in-set feedback interaction the
     static envelope model ranks ~1% lower (see EXPERIMENTS.md, known
     deviations): exact match at k <= 2, within 1%% of the brute-force
     delay at k = 3 *)
  let _, topo = Lazy.force tiny_topo in
  let add = Addition.compute ~k:3 topo in
  List.iter
    (fun k ->
      let bf = BF.addition ~budget_s:120. ~k topo in
      check_f6
        (Printf.sprintf "k=%d exact" k)
        bf.BF.bf_delay (Addition.evaluate add k))
    [ 1; 2 ];
  let bf3 = BF.addition ~budget_s:120. ~k:3 topo in
  let d3 = Addition.evaluate add 3 in
  Alcotest.(check bool) "k=3 within 1% of optimum" true
    (Float.abs (d3 -. bf3.BF.bf_delay) <= 0.01 *. bf3.BF.bf_delay);
  Alcotest.(check bool) "k=3 not above optimum" true
    (d3 <= bf3.BF.bf_delay +. 1e-9)

let test_elimination_matches_brute_force_small () =
  let _, topo = Lazy.force tiny_topo in
  let elim = Elimination.compute ~k:2 topo in
  List.iter
    (fun k ->
      let bf = BF.elimination ~budget_s:120. ~k topo in
      check_f6
        (Printf.sprintf "k=%d same delay as brute force" k)
        bf.BF.bf_delay (Elimination.evaluate elim k))
    [ 1; 2 ]

let test_addition_objectives_monotone () =
  let _, topo = Lazy.force tiny_topo in
  let r = Engine.compute ~config:(Engine.default_config ~k:5) ~mode:Engine.Addition topo in
  let objs =
    Array.to_list r.Engine.res_per_k
    |> List.filter_map (Option.map (fun c -> c.Engine.ch_objective))
  in
  let rec nondec = function
    | a :: (b :: _ as tl) -> a <= b +. 1e-9 && nondec tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone" true (nondec objs)

let test_elimination_objectives_monotone () =
  let _, topo = Lazy.force tiny_topo in
  let r =
    Engine.compute ~config:(Engine.default_config ~k:5) ~mode:Engine.Elimination topo
  in
  let objs =
    Array.to_list r.Engine.res_per_k
    |> List.filter_map (Option.map (fun c -> c.Engine.ch_objective))
  in
  let rec nondec = function
    | a :: (b :: _ as tl) -> a <= b +. 1e-9 && nondec tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone" true (nondec objs)

let test_addition_delays_bracketed () =
  let _, topo = Lazy.force tiny_topo in
  let add = Addition.compute ~k:4 topo in
  List.iter
    (fun k ->
      let d = Addition.evaluate add k in
      Alcotest.(check bool) "above noiseless" true
        (d >= Addition.noiseless_delay add -. 1e-9);
      Alcotest.(check bool) "below all-aggressor" true
        (d <= Addition.all_aggressor_delay add +. 1e-6))
    [ 1; 2; 3; 4 ]

let test_elimination_delays_bracketed () =
  let _, topo = Lazy.force tiny_topo in
  let elim = Elimination.compute ~k:4 topo in
  List.iter
    (fun k ->
      let d = Elimination.evaluate elim k in
      Alcotest.(check bool) "above noiseless" true
        (d >= Elimination.noiseless_delay elim -. 1e-6);
      Alcotest.(check bool) "below all-aggressor" true
        (d <= Elimination.all_aggressor_delay elim +. 1e-9))
    [ 1; 2; 3; 4 ]

let test_set_cardinalities () =
  let _, topo = Lazy.force tiny_topo in
  let add = Addition.compute ~k:4 topo in
  List.iter
    (fun k ->
      match Addition.set add k with
      | Some s -> Alcotest.(check int) "cardinality" k (CS.cardinality s)
      | None -> Alcotest.fail "expected a set")
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "k=0 none" true (Addition.set add 0 = None);
  Alcotest.(check bool) "beyond k none" true (Addition.set add 99 = None)

(* a PO whose only noise arrives from an upstream victim: the pseudo
   aggressor machinery is what finds it *)
let upstream_only () =
  let b = Builder.create ~name:"upstream" () in
  let i1 = Builder.add_input b "i1" in
  let ia = Builder.add_input b "ia" in
  let mid = Builder.add_net b "mid" in
  let agg = Builder.add_net b "agg" in
  let out = Builder.add_net b "out" in
  ignore (Builder.add_gate b ~name:"g1" ~cell:Lib.inverter ~inputs:[ ("A", i1) ] ~output:mid);
  ignore (Builder.add_gate b ~name:"ga" ~cell:Lib.inverter ~inputs:[ ("A", ia) ] ~output:agg);
  ignore (Builder.add_gate b ~name:"g2" ~cell:Lib.inverter ~inputs:[ ("A", mid) ] ~output:out);
  Builder.mark_output b out;
  Builder.mark_output b agg;
  ignore (Builder.add_coupling b mid agg 0.006);
  Builder.finalize b

let test_pseudo_ablation () =
  let nl = upstream_only () in
  let topo = Topo.create nl in
  let addition ~use_pseudo =
    let config = { (Engine.default_config ~k:1) with Engine.use_pseudo } in
    Engine.compute ~config ~mode:Engine.Addition topo
  in
  let with_pseudo = addition ~use_pseudo:true in
  let without = addition ~use_pseudo:false in
  let obj r =
    match r.Engine.res_per_k.(1) with
    | Some c -> c.Engine.ch_objective
    | None -> 0.
  in
  (* the noise on "out" can only be seen by propagating "mid"'s noise *)
  Alcotest.(check bool) "pseudo finds upstream noise" true (obj with_pseudo > 1e-6);
  Alcotest.(check bool) "ablation loses it" true (obj without < obj with_pseudo)

let test_higher_order_ablation_never_better_off () =
  let _, topo = Lazy.force tiny_topo in
  let addition ~use_higher_order =
    let config = { (Engine.default_config ~k:3) with Engine.use_higher_order } in
    Engine.compute ~config ~mode:Engine.Addition topo
  in
  let on = addition ~use_higher_order:true in
  let off = addition ~use_higher_order:false in
  let obj r k =
    match r.Engine.res_per_k.(k) with
    | Some c -> c.Engine.ch_objective
    | None -> 0.
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) "higher-order candidates never hurt" true
        (obj on k >= obj off k -. 1e-9))
    [ 1; 2; 3 ]

let test_engine_stats_populated () =
  let _, topo = Lazy.force tiny_topo in
  let r = Engine.compute ~config:(Engine.default_config ~k:3) ~mode:Engine.Addition topo in
  Alcotest.(check bool) "candidates seen" true (r.Engine.res_stats.Ilist.candidates > 0);
  Alcotest.(check bool) "runtime recorded" true (r.Engine.res_runtime >= 0.)

let test_engine_estimated_delay_bounds () =
  let _, topo = Lazy.force tiny_topo in
  let r = Engine.compute ~config:(Engine.default_config ~k:3) ~mode:Engine.Addition topo in
  List.iter
    (fun k ->
      Alcotest.(check bool) "estimate above noiseless" true
        (Engine.estimated_delay r k >= r.Engine.res_noiseless_delay -. 1e-9))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "bad k raises" true
    (try
       ignore (Engine.estimated_delay r 99);
       false
     with Invalid_argument _ -> true)

let test_engine_k_validation () =
  let _, topo = Lazy.force tiny_topo in
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Engine.compute ~config:(Engine.default_config ~k:0) ~mode:Engine.Addition topo);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Brute force                                                        *)
(* ------------------------------------------------------------------ *)

let test_binomial () =
  Alcotest.(check int) "C(5,2)" 10 (Tka_topk.Refine.binomial 5 2);
  Alcotest.(check int) "C(16,3)" 560 (Tka_topk.Refine.binomial 16 3);
  Alcotest.(check int) "C(n,0)" 1 (Tka_topk.Refine.binomial 7 0);
  Alcotest.(check int) "C(n,n)" 1 (Tka_topk.Refine.binomial 7 7);
  Alcotest.(check int) "k>n" 0 (Tka_topk.Refine.binomial 3 5)

let test_brute_force_counts () =
  let _, topo = Lazy.force tiny_topo in
  let bf = BF.addition ~budget_s:120. ~k:1 topo in
  Alcotest.(check bool) "completed" true bf.BF.bf_completed;
  Alcotest.(check int) "evaluated all" bf.BF.bf_total bf.BF.bf_evaluated;
  Alcotest.(check int) "16 directed singletons" 16 bf.BF.bf_total

let test_brute_force_budget () =
  let _, topo = Lazy.force tiny_topo in
  let bf = BF.addition ~budget_s:(-1.) ~k:2 topo in
  Alcotest.(check bool) "incomplete" false bf.BF.bf_completed;
  Alcotest.(check bool) "evaluated none" true (bf.BF.bf_evaluated = 0)

let test_brute_force_directions_differ () =
  (* the two directions of one coupling are distinct units *)
  let _, topo = Lazy.force tiny_topo in
  let bf = BF.elimination ~budget_s:120. ~k:1 topo in
  Alcotest.(check bool) "found a set" true (bf.BF.bf_set <> None)

(* ------------------------------------------------------------------ *)
(* K_value (the paper's future-work item)                             *)
(* ------------------------------------------------------------------ *)

module Kv = Tka_topk.K_value

let test_kvalue_knee () =
  (* sharply saturating curve: knee at the corner *)
  let curve = [ (1, 0.1); (2, 0.7); (3, 0.9); (4, 0.92); (5, 0.93) ] in
  let k = Kv.knee_of_curve curve in
  Alcotest.(check bool) "knee near the corner" true (k = 2 || k = 3);
  Alcotest.(check bool) "degenerate raises" true
    (try
       ignore (Kv.knee_of_curve [ (1, 0.5) ]);
       false
     with Invalid_argument _ -> true)

let test_kvalue_sampling () =
  let ks = Kv.sample_ks ~kmax:20 in
  Alcotest.(check bool) "dense head" true (List.mem 3 ks && List.mem 7 ks);
  Alcotest.(check bool) "sparse tail" true
    (List.mem 15 ks && not (List.mem 13 ks));
  Alcotest.(check bool) "kmax included" true (List.mem 20 ks)

let test_kvalue_addition_recommendation () =
  let _, topo = Lazy.force tiny_topo in
  let r = Kv.addition ~coverage:0.5 ~kmax:8 topo in
  Alcotest.(check bool) "curve non-empty" true (r.Kv.kv_curve <> []);
  (* fractions are within [0, 1+eps] and non-decreasing *)
  let fr = List.map (fun p -> p.Kv.kv_fraction) r.Kv.kv_curve in
  List.iter
    (fun f -> Alcotest.(check bool) "fraction in range" true (f >= -0.01 && f <= 1.01))
    fr;
  let rec nondec = function
    | a :: (b :: _ as tl) -> a <= b +. 1e-9 && nondec tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone fractions" true (nondec fr);
  (match r.Kv.kv_coverage_k with
  | Some k ->
    let p = List.find (fun p -> p.Kv.kv_k = k) r.Kv.kv_curve in
    Alcotest.(check bool) "coverage reached" true (p.Kv.kv_fraction >= 0.5)
  | None -> ());
  Alcotest.(check bool) "knee inside range" true
    (r.Kv.kv_knee_k >= 1 && r.Kv.kv_knee_k <= 8)

let test_kvalue_elimination_recommendation () =
  let _, topo = Lazy.force tiny_topo in
  let r = Kv.elimination ~coverage:0.3 ~kmax:6 topo in
  Alcotest.(check bool) "curve non-empty" true (r.Kv.kv_curve <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "recovery in range" true
        (p.Kv.kv_fraction >= -0.01 && p.Kv.kv_fraction <= 1.01))
    r.Kv.kv_curve

(* ------------------------------------------------------------------ *)
(* Random-circuit engine properties                                   *)
(* ------------------------------------------------------------------ *)

(* small random circuits via the benchmark generator *)
let random_topo seed =
  let spec =
    {
      B.sp_name = Printf.sprintf "r%d" seed;
      sp_gates = 12 + (seed mod 8);
      sp_inputs = 3;
      sp_depth = 3 + (seed mod 3);
      sp_couplings = 12 + (seed mod 10);
      sp_seed = seed;
    }
  in
  Topo.create (B.generate spec)

let engine_qcheck =
  let open QCheck in
  [
    Test.make ~name:"addition top-1 matches brute force" ~count:8
      (int_range 1 1000) (fun seed ->
        let topo = random_topo seed in
        let add = Addition.compute ~k:1 topo in
        let bf = BF.addition ~budget_s:60. ~k:1 topo in
        bf.BF.bf_completed
        && Float.abs (Addition.evaluate add 1 -. bf.BF.bf_delay) < 1e-6);
    Test.make ~name:"addition bracketed on random circuits" ~count:8
      (int_range 1 1000) (fun seed ->
        let topo = random_topo seed in
        let add = Addition.compute ~k:3 topo in
        List.for_all
          (fun k ->
            let d = Addition.evaluate add k in
            d >= Addition.noiseless_delay add -. 1e-9
            && d <= Addition.all_aggressor_delay add +. 1e-6)
          [ 1; 2; 3 ]);
    Test.make ~name:"elimination bracketed on random circuits" ~count:8
      (int_range 1 1000) (fun seed ->
        let topo = random_topo seed in
        let elim = Elimination.compute ~k:3 topo in
        List.for_all
          (fun k ->
            let d = Elimination.evaluate elim k in
            d >= Elimination.noiseless_delay elim -. 1e-6
            && d <= Elimination.all_aggressor_delay elim +. 1e-9)
          [ 1; 2; 3 ]);
    Test.make ~name:"evaluate_curve is monotone" ~count:8 (int_range 1 1000)
      (fun seed ->
        let topo = random_topo seed in
        let add = Addition.compute ~k:4 topo in
        let curve = Addition.evaluate_curve add ~ks:[ 1; 2; 3; 4 ] in
        let rec nondec = function
          | (_, _, a) :: ((_, _, b) :: _ as tl) -> a <= b +. 1e-9 && nondec tl
          | [ _ ] | [] -> true
        in
        nondec curve);
  ]

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

module Sens = Tka_topk.Sensitivity

let test_jaccard () =
  let a = CS.of_list [ 1; 2; 3 ] and b = CS.of_list [ 2; 3; 4 ] in
  Alcotest.(check (float 1e-9)) "2/4" 0.5 (Sens.jaccard a b);
  Alcotest.(check (float 1e-9)) "self" 1.0 (Sens.jaccard a a);
  Alcotest.(check (float 1e-9)) "empties" 1.0 (Sens.jaccard CS.empty CS.empty);
  Alcotest.(check (float 1e-9)) "disjoint" 0.
    (Sens.jaccard (CS.of_list [ 1 ]) (CS.of_list [ 2 ]))

let test_sensitivity_zero_noise_is_stable () =
  let nl, _ = Lazy.force tiny_topo in
  let rng = Tka_util.Rng.create 3 in
  let r = Sens.addition ~trials:3 ~noise_pct:0.0 ~rng ~k:2 nl in
  Alcotest.(check (float 1e-9)) "identical sets" 1.0 r.Sens.sr_jaccard_mean;
  Alcotest.(check int) "core is whole set" 2
    (CS.cardinality r.Sens.sr_always_chosen);
  let lo, hi = r.Sens.sr_delay_spread in
  Alcotest.(check (float 1e-9)) "no delay spread" lo hi

let test_sensitivity_perturbed () =
  let nl, _ = Lazy.force tiny_topo in
  let rng = Tka_util.Rng.create 4 in
  let r = Sens.addition ~trials:5 ~noise_pct:0.2 ~rng ~k:2 nl in
  Alcotest.(check bool) "jaccard in range" true
    (r.Sens.sr_jaccard_mean >= 0. && r.Sens.sr_jaccard_mean <= 1.);
  Alcotest.(check bool) "min <= mean" true
    (r.Sens.sr_jaccard_min <= r.Sens.sr_jaccard_mean +. 1e-9);
  Alcotest.(check bool) "core inside nominal" true
    (CS.cardinality r.Sens.sr_always_chosen <= 2);
  Alcotest.(check bool) "validation" true
    (try
       ignore (Sens.addition ~trials:0 ~rng ~k:1 nl);
       false
     with Invalid_argument _ -> true)

let test_sensitivity_elimination_runs () =
  let nl, _ = Lazy.force tiny_topo in
  let rng = Tka_util.Rng.create 5 in
  let r = Sens.elimination ~trials:3 ~noise_pct:0.1 ~rng ~k:2 nl in
  Alcotest.(check int) "trials recorded" 3 r.Sens.sr_trials;
  let lo, hi = r.Sens.sr_delay_spread in
  Alcotest.(check bool) "spread ordered" true (lo <= hi +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_addition () =
  let nl, topo = Lazy.force tiny_topo in
  let add = Addition.compute ~k:2 topo in
  let s = Report.addition nl add ~ks:[ 1; 2 ] in
  Alcotest.(check bool) "mentions top-1" true (contains_sub s "top-1");
  Alcotest.(check bool) "mentions top-2" true (contains_sub s "top-2");
  Alcotest.(check bool) "mentions circuit" true (contains_sub s "tiny")

let () =
  Alcotest.run "tka_topk"
    [
      ( "coupling_set",
        [
          Alcotest.test_case "basics" `Quick test_cs_basics;
          Alcotest.test_case "algebra" `Quick test_cs_algebra;
          Alcotest.test_case "predicates" `Quick test_cs_predicates;
        ] );
      ("coupling_set properties", List.map QCheck_alcotest.to_alcotest cs_qcheck);
      ( "coupling_set vs string-id reference",
        List.map QCheck_alcotest.to_alcotest cs_roundtrip_qcheck );
      ( "dominance",
        [
          Alcotest.test_case "interval" `Quick test_dominance_interval;
          Alcotest.test_case "partial order" `Quick test_dominance_partial_order;
          Alcotest.test_case "Fig 6 incomparable" `Quick test_dominance_fig6_incomparable;
          Alcotest.test_case "implies more noise" `Quick test_dominance_implies_more_noise;
        ] );
      ( "ilist",
        [
          Alcotest.test_case "prunes dominated" `Quick test_ilist_prune_dominated;
          Alcotest.test_case "keeps incomparable" `Quick test_ilist_prune_keeps_incomparable;
          Alcotest.test_case "dedupes" `Quick test_ilist_prune_dedupes;
          Alcotest.test_case "capacity" `Quick test_ilist_capacity;
          Alcotest.test_case "best" `Quick test_ilist_best;
          Alcotest.test_case "merge stats" `Quick test_ilist_merge_stats;
          Alcotest.test_case "skipped duplicates" `Quick test_ilist_skipped_duplicates;
        ] );
      ( "pseudo",
        [
          Alcotest.test_case "zero shift" `Quick test_pseudo_zero_shift;
          Alcotest.test_case "shift recovery" `Quick test_pseudo_shift_recovery;
          Alcotest.test_case "monotone" `Quick test_pseudo_monotone;
          Alcotest.test_case "reduction decomposes" `Quick test_pseudo_reduction_decomposes;
          Alcotest.test_case "reduction validation" `Quick test_pseudo_reduction_validation;
        ] );
      ("fig4", [ Alcotest.test_case "non-monotone sets" `Quick test_fig4_nonmonotonic_sets ]);
      ( "engine",
        [
          Alcotest.test_case "Table 1: addition = brute force (v0)" `Slow
            test_table1_addition_matches_brute_force;
          Alcotest.test_case "tiny near brute force" `Slow
            test_tiny_addition_near_brute_force;
          Alcotest.test_case "elimination = brute force (small k)" `Slow
            test_elimination_matches_brute_force_small;
          Alcotest.test_case "addition monotone" `Quick test_addition_objectives_monotone;
          Alcotest.test_case "elimination monotone" `Quick
            test_elimination_objectives_monotone;
          Alcotest.test_case "addition bracketed" `Quick test_addition_delays_bracketed;
          Alcotest.test_case "elimination bracketed" `Quick test_elimination_delays_bracketed;
          Alcotest.test_case "set cardinalities" `Quick test_set_cardinalities;
          Alcotest.test_case "pseudo ablation" `Quick test_pseudo_ablation;
          Alcotest.test_case "higher-order ablation" `Quick
            test_higher_order_ablation_never_better_off;
          Alcotest.test_case "stats populated" `Quick test_engine_stats_populated;
          Alcotest.test_case "estimate bounds" `Quick test_engine_estimated_delay_bounds;
          Alcotest.test_case "k validation" `Quick test_engine_k_validation;
        ] );
      ( "brute_force",
        [
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "counts" `Quick test_brute_force_counts;
          Alcotest.test_case "budget" `Quick test_brute_force_budget;
          Alcotest.test_case "directions" `Quick test_brute_force_directions_differ;
        ] );
      ( "k_value",
        [
          Alcotest.test_case "knee" `Quick test_kvalue_knee;
          Alcotest.test_case "sampling" `Quick test_kvalue_sampling;
          Alcotest.test_case "addition recommendation" `Quick
            test_kvalue_addition_recommendation;
          Alcotest.test_case "elimination recommendation" `Quick
            test_kvalue_elimination_recommendation;
        ] );
      ("engine properties", List.map QCheck_alcotest.to_alcotest engine_qcheck);
      ( "sensitivity",
        [
          Alcotest.test_case "jaccard" `Quick test_jaccard;
          Alcotest.test_case "zero noise stable" `Quick
            test_sensitivity_zero_noise_is_stable;
          Alcotest.test_case "perturbed" `Quick test_sensitivity_perturbed;
          Alcotest.test_case "elimination" `Quick test_sensitivity_elimination_runs;
        ] );
      ( "report",
        [
          Alcotest.test_case "addition" `Quick test_report_addition;
        ] );
    ]
