(* Tests for the pre-engine aggressor candidate filter (Tka_filter):
   timing-window overlap queries against an interval-arithmetic
   reference, the implication analysis against hand-computed tables and
   exhaustive simulation, the Off mode's physical-identity contract,
   window drop/derate behaviour under synthetic windows, the
   false-aggressor drops under base windows (the decisions
   [tka falseagg] lists) and their zero-noise soundness, the Ilist
   singleton fast path, and the victim memo's bitwise identity. *)

module N = Tka_circuit.Netlist
module Builder = Tka_circuit.Builder
module Topo = Tka_circuit.Topo
module TW = Tka_sta.Timing_window
module Analysis = Tka_sta.Analysis
module CN = Tka_noise.Coupled_noise
module EB = Tka_noise.Envelope_builder
module Iterate = Tka_noise.Iterate
module Interval = Tka_util.Interval
module Envelope = Tka_waveform.Envelope
module Pulse = Tka_waveform.Pulse
module Mode = Tka_filter.Mode
module Overlap = Tka_filter.Overlap
module Derate = Tka_filter.Derate
module Implication = Tka_filter.Implication
module Filter = Tka_filter.Filter
module Ilist = Tka_topk.Ilist
module CS = Tka_topk.Coupling_set
module Lib = Tka_cell.Default_lib

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Timing-window overlap queries (qcheck)                             *)
(* ------------------------------------------------------------------ *)

let arb_window =
  QCheck.make
    ~print:(fun w -> Format.asprintf "%a" TW.pp w)
    QCheck.Gen.(
      let* eat = float_bound_inclusive 10. in
      let* width = float_bound_inclusive 5. in
      let* s_e = float_bound_inclusive 0.2 in
      let* s_l = float_bound_inclusive 0.2 in
      return
        (TW.make ~eat ~lat:(eat +. width) ~slew_early:(0.001 +. s_e)
           ~slew_late:(0.001 +. s_l)))

let prop_overlaps_reflexive =
  QCheck.Test.make ~name:"TW.overlaps is reflexive" ~count:300 arb_window
    (fun w -> TW.overlaps w w)

let prop_overlaps_symmetric =
  QCheck.Test.make ~name:"TW.overlaps is symmetric" ~count:300
    (QCheck.pair arb_window arb_window) (fun (a, b) ->
      TW.overlaps a b = TW.overlaps b a)

(* The reference: arrival intervals built by hand, compared through the
   same Interval primitive the contract names. *)
let prop_overlaps_reference =
  QCheck.Test.make ~name:"TW.overlaps agrees with interval arithmetic"
    ~count:300
    (QCheck.pair arb_window arb_window)
    (fun (a, b) ->
      TW.overlaps a b
      = Interval.overlaps
          (Interval.make a.TW.eat a.TW.lat)
          (Interval.make b.TW.eat b.TW.lat))

let prop_fraction_bounds =
  QCheck.Test.make ~name:"TW.overlap_fraction in [0,1], 0 iff disjoint"
    ~count:300
    (QCheck.pair arb_window arb_window)
    (fun (a, b) ->
      let f = TW.overlap_fraction a b in
      f >= 0. && f <= 1. && if TW.overlaps a b then true else f = 0.)

let prop_fraction_symmetric =
  QCheck.Test.make ~name:"TW.overlap_fraction is symmetric" ~count:300
    (QCheck.pair arb_window arb_window)
    (fun (a, b) -> feq (TW.overlap_fraction a b) (TW.overlap_fraction b a))

let prop_fraction_containment =
  QCheck.Test.make ~name:"TW.overlap_fraction = 1 on containment" ~count:300
    (QCheck.pair arb_window arb_window)
    (fun (a, b) ->
      (* force b inside a *)
      let mid = 0.5 *. (a.TW.eat +. a.TW.lat) in
      let half = 0.25 *. (a.TW.lat -. a.TW.eat) in
      let b =
        TW.make ~eat:(mid -. half) ~lat:(mid +. half)
          ~slew_early:b.TW.slew_early ~slew_late:b.TW.slew_late
      in
      TW.overlap_fraction a b = 1.)

(* ------------------------------------------------------------------ *)
(* Implication analysis: hand-computed tables                         *)
(* ------------------------------------------------------------------ *)

(* A tiny builder wrapper for logic-only netlists: every net we care
   about is returned by name. *)
let cell = Lib.find_exn

let value_name = function
  | Implication.Const b -> Printf.sprintf "Const %b" b
  | Implication.Fn { at0; at1; _ } -> Printf.sprintf "Fn{%b,%b}" at0 at1
  | Implication.Mixed -> "Mixed"

let check_value name expected got =
  Alcotest.(check string) name (value_name expected) (value_name got)

(* xor(a,a) and friends: constants must propagate. *)
let test_implication_constants () =
  let b = Builder.create ~name:"consts" () in
  let a = Builder.add_input b "a" in
  let xa = Builder.add_net b "xa" in
  ignore
    (Builder.add_gate b ~name:"gx" ~cell:(cell "XOR2_X1")
       ~inputs:[ ("A", a); ("B", a) ]
       ~output:xa);
  let na = Builder.add_net b "na" in
  ignore
    (Builder.add_gate b ~name:"gn" ~cell:Lib.inverter ~inputs:[ ("A", a) ]
       ~output:na);
  let ta = Builder.add_net b "ta" in
  ignore
    (Builder.add_gate b ~name:"go" ~cell:(cell "OR2_X1")
       ~inputs:[ ("A", a); ("B", na) ]
       ~output:ta);
  (* a constant absorbs even a Mixed operand: and-false is false *)
  let m = Builder.add_input b "m" in
  let m2 = Builder.add_input b "m2" in
  let mx = Builder.add_net b "mx" in
  ignore
    (Builder.add_gate b ~name:"gm" ~cell:(cell "AND2_X1")
       ~inputs:[ ("A", m); ("B", m2) ]
       ~output:mx);
  let z = Builder.add_net b "z" in
  ignore
    (Builder.add_gate b ~name:"gz" ~cell:(cell "AND2_X1")
       ~inputs:[ ("A", xa); ("B", mx) ]
       ~output:z);
  Builder.mark_output b ta;
  Builder.mark_output b z;
  let nl = Builder.finalize b in
  let values = Implication.analyze (Topo.create nl) in
  let v name = values.((N.find_net_exn nl name).N.net_id) in
  check_value "xor(a,a) = 0" (Implication.Const false) (v "xa");
  check_value "a + !a = 1" (Implication.Const true) (v "ta");
  check_value "a*b is Mixed" Implication.Mixed (v "mx");
  check_value "0 * Mixed = 0 (absorption)" (Implication.Const false) (v "z")

(* Inverter chains: phase alternates, the root never changes. *)
let test_implication_chain () =
  let b = Builder.create ~name:"chain" () in
  let a = Builder.add_input b "a" in
  let prev = ref a in
  for i = 1 to 5 do
    let n = Builder.add_net b (Printf.sprintf "n%d" i) in
    ignore
      (Builder.add_gate b
         ~name:(Printf.sprintf "g%d" i)
         ~cell:Lib.inverter
         ~inputs:[ ("A", !prev) ]
         ~output:n);
    prev := n
  done;
  Builder.mark_output b !prev;
  let nl = Builder.finalize b in
  let values = Implication.analyze (Topo.create nl) in
  let v name = values.((N.find_net_exn nl name).N.net_id) in
  let root = (N.find_net_exn nl "a").N.net_id in
  check_value "input is the identity"
    (Implication.Fn { root; at0 = false; at1 = true })
    values.(root);
  for i = 1 to 5 do
    let inverted = i mod 2 = 1 in
    check_value
      (Printf.sprintf "stage %d parity" i)
      (Implication.Fn { root; at0 = inverted; at1 = not inverted })
      (v (Printf.sprintf "n%d" i))
  done;
  (* same phase justifies a drop; opposite phase never does *)
  let id name = (N.find_net_exn nl name).N.net_id in
  Alcotest.(check bool)
    "even stages same-phase" true
    (Implication.relate values ~victim:(id "n2") ~aggressor:(id "n4")
    = Implication.Same_phase);
  Alcotest.(check bool)
    "odd vs even opposite-phase" true
    (Implication.relate values ~victim:(id "n2") ~aggressor:(id "n3")
    = Implication.Opposite_phase)

(* Reconvergent fanout must stay conservative: two roots -> Mixed,
   even where boolean simplification could do better. *)
let test_implication_reconvergence () =
  let b = Builder.create ~name:"reconv" () in
  let x = Builder.add_input b "x" in
  let y = Builder.add_input b "y" in
  let nx = Builder.add_net b "nx" in
  ignore
    (Builder.add_gate b ~name:"g1" ~cell:Lib.inverter ~inputs:[ ("A", x) ]
       ~output:nx);
  let w = Builder.add_net b "w" in
  ignore
    (Builder.add_gate b ~name:"g2" ~cell:(cell "NAND2_X1")
       ~inputs:[ ("A", x); ("B", y) ]
       ~output:w);
  (* w * !x is actually !x * !(x*y) — still two roots, must be Mixed *)
  let r = Builder.add_net b "r" in
  ignore
    (Builder.add_gate b ~name:"g3" ~cell:(cell "AND2_X1")
       ~inputs:[ ("A", w); ("B", nx) ]
       ~output:r);
  Builder.mark_output b r;
  let nl = Builder.finalize b in
  let values = Implication.analyze (Topo.create nl) in
  let v name = values.((N.find_net_exn nl name).N.net_id) in
  check_value "two-root gate is Mixed" Implication.Mixed (v "w");
  check_value "reconvergence stays Mixed" Implication.Mixed (v "r");
  (* and the whole table still agrees with exhaustive simulation *)
  List.iter
    (fun (xv, yv) ->
      let assignment n =
        if n = (N.find_net_exn nl "x").N.net_id then xv else yv
      in
      let sim = Implication.eval_all nl ~assignment in
      Array.iteri
        (fun n value ->
          match value with
          | Implication.Mixed -> ()
          | Implication.Const b ->
            Alcotest.(check bool) "Const claim holds" b sim.(n)
          | Implication.Fn { root; at0; at1 } ->
            Alcotest.(check bool)
              "Fn claim holds"
              (if sim.(root) then at1 else at0)
              sim.(n))
        values)
    [ (false, false); (false, true); (true, false); (true, true) ]

(* The expression parser: grammar corners and the failure contract. *)
let test_implication_parse () =
  let ok s = Option.is_some (Implication.parse s) in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "parses %S" s) true (ok s))
    [ "A"; "!A"; "!(A*B)"; "A^B"; "!((A+B)*C)"; "!(A*B*C)"; "  A + B "; "!!A" ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "rejects %S" s) false (ok s))
    [ ""; "A+"; "(A"; "A)"; "*A"; "A!B"; "A B" ]

(* ------------------------------------------------------------------ *)
(* Filter decisions                                                   *)
(* ------------------------------------------------------------------ *)

(* Aggressor/victim pair with one coupling, windows injected by hand. *)
let pair_netlist () =
  let b = Builder.create ~name:"pair" () in
  let ia = Builder.add_input b "ia" in
  let iv = Builder.add_input b "iv" in
  let a1 = Builder.add_net b "a1" in
  ignore
    (Builder.add_gate b ~name:"ga" ~cell:Lib.inverter ~inputs:[ ("A", ia) ]
       ~output:a1);
  let v1 = Builder.add_net b "v1" in
  ignore
    (Builder.add_gate b ~name:"gv" ~cell:Lib.inverter ~inputs:[ ("A", iv) ]
       ~output:v1);
  ignore (Builder.add_coupling b a1 v1 0.004);
  Builder.mark_output b a1;
  Builder.mark_output b v1;
  Builder.finalize b

let windows_with nl ~agg_eat ~agg_lat =
  let agg = (N.find_net_exn nl "a1").N.net_id in
  fun n ->
    if n = agg then
      TW.make ~eat:agg_eat ~lat:agg_lat ~slew_early:0.02 ~slew_late:0.02
    else TW.make ~eat:0.5 ~lat:0.6 ~slew_early:0.02 ~slew_late:0.02

let victim_directed nl =
  let v1 = (N.find_net_exn nl "v1").N.net_id in
  match CN.aggressors_of_victim nl v1 with
  | [ d ] -> d
  | ds -> Alcotest.failf "expected 1 directed coupling, got %d" (List.length ds)

let test_window_decisions () =
  let nl = pair_netlist () in
  let topo = Topo.create nl in
  let d = victim_directed nl in
  let decide ~agg_eat ~agg_lat =
    let windows = windows_with nl ~agg_eat ~agg_lat in
    Filter.decide (Filter.prepare ~mode:Mode.Window ~windows topo) d
  in
  (* far-future aggressor: provably disjoint *)
  (match decide ~agg_eat:50. ~agg_lat:51. with
  | Filter.Drop Filter.Window_disjoint -> ()
  | _ -> Alcotest.fail "far aggressor must be dropped");
  (* the same aggressor well inside the sensitive interval is kept *)
  (match decide ~agg_eat:0.5 ~agg_lat:0.6 with
  | Filter.Keep -> ()
  | Filter.Derate f -> Alcotest.failf "overlapping aggressor derated to %g" f
  | Filter.Drop _ -> Alcotest.fail "overlapping aggressor dropped");
  (* a wide window straddling the sensitive interval's edge derates,
     and the factor is a genuine fraction *)
  match decide ~agg_eat:(-40.) ~agg_lat:1.0 with
  | Filter.Derate f ->
    Alcotest.(check bool)
      "derate factor in (0, threshold)" true
      (f > 0. && f < Filter.derate_threshold)
  | Filter.Keep -> Alcotest.fail "straddling aggressor kept undeeded"
  | Filter.Drop _ -> Alcotest.fail "straddling aggressor dropped"

let test_off_identity () =
  let nl = pair_netlist () in
  let topo = Topo.create nl in
  let windows = windows_with nl ~agg_eat:0.5 ~agg_lat:0.6 in
  let filt = Filter.prepare ~mode:Mode.Off ~windows topo in
  Alcotest.(check bool) "is_off" true (Filter.is_off filt);
  let v1 = (N.find_net_exn nl "v1").N.net_id in
  let ds = CN.aggressors_of_victim nl v1 in
  let kept, derate = Filter.screen filt ds in
  Alcotest.(check bool) "Off returns the input list physically" true (kept == ds);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        "Off never derates" true
        (derate (CN.directed_id d) = 1.))
    ds;
  match Filter.decide filt (List.hd ds) with
  | Filter.Keep -> ()
  | _ -> Alcotest.fail "Off must keep everything"

let test_screen_subset () =
  let nl = pair_netlist () in
  let topo = Topo.create nl in
  let windows = windows_with nl ~agg_eat:50. ~agg_lat:51. in
  let filt = Filter.prepare ~mode:Mode.Window ~windows topo in
  let v1 = (N.find_net_exn nl "v1").N.net_id in
  let ds = CN.aggressors_of_victim nl v1 in
  let kept, _ = Filter.screen filt ds in
  Alcotest.(check int) "disjoint aggressor screened out" 0 (List.length kept);
  (* the survey walks every victim: the coupling is directed both ways,
     and with the windows this far apart both directions are dropped *)
  let sv = Filter.survey filt in
  Alcotest.(check int) "survey counts both drops" 2 sv.Filter.sv_dropped_window;
  Alcotest.(check int) "survey total matches" 2 sv.Filter.sv_candidates

let test_derate_factor () =
  let sensitive = Interval.make 0. 10. in
  Alcotest.(check bool)
    "disjoint reach -> 0" true
    (Derate.factor ~reach:(Interval.make 20. 30.) ~sensitive = 0.);
  Alcotest.(check bool)
    "contained reach -> 1" true
    (Derate.factor ~reach:(Interval.make 2. 3.) ~sensitive = 1.);
  let f = Derate.factor ~reach:(Interval.make ~-.5. 5.) ~sensitive in
  Alcotest.(check (float 1e-9)) "half overlap -> 0.5" 0.5 f

(* ------------------------------------------------------------------ *)
(* False aggressors: window drops under the noiseless base windows    *)
(* ------------------------------------------------------------------ *)

(* The victim sits behind a 6-inverter chain, far later than the
   aggressor: the aggressor's pulse is long gone when it switches. *)
let far_apart () =
  let b = Builder.create ~name:"far" () in
  let ia = Builder.add_input b "ia" in
  let iv = Builder.add_input b "iv" in
  let agg = Builder.add_net b "agg" in
  let prev = ref iv in
  for i = 1 to 6 do
    let n = Builder.add_net b (Printf.sprintf "d%d" i) in
    ignore
      (Builder.add_gate b ~name:(Printf.sprintf "gd%d" i) ~cell:Lib.inverter
         ~inputs:[ ("A", !prev) ] ~output:n);
    prev := n
  done;
  let vic = Builder.add_net b "vic" in
  ignore
    (Builder.add_gate b ~name:"ga" ~cell:Lib.inverter ~inputs:[ ("A", ia) ]
       ~output:agg);
  ignore
    (Builder.add_gate b ~name:"gv" ~cell:Lib.inverter
       ~inputs:[ ("A", !prev) ] ~output:vic);
  Builder.mark_output b vic;
  Builder.mark_output b agg;
  ignore (Builder.add_coupling b agg vic 0.004);
  Builder.finalize b

(* Two parallel 2-stage inverter chains with the same input timing,
   coupled stage by stage. *)
let two_chains () =
  let b = Builder.create ~name:"pair" () in
  let chain prefix input =
    let prev = ref input in
    List.map
      (fun i ->
        let n = Builder.add_net b (Printf.sprintf "%s%d" prefix i) in
        ignore
          (Builder.add_gate b ~name:(Printf.sprintf "g%s%d" prefix i)
             ~cell:Lib.inverter ~inputs:[ ("A", !prev) ] ~output:n);
        prev := n;
        n)
      [ 1; 2 ]
  in
  let agg = chain "a" (Builder.add_input b "ia") in
  let vic = chain "v" (Builder.add_input b "iv") in
  List.iter2 (fun a v -> ignore (Builder.add_coupling b a v 0.004)) agg vic;
  Builder.mark_output b (List.nth agg 1);
  Builder.mark_output b (List.nth vic 1);
  Builder.finalize b

let base_window_filter nl =
  let topo = Topo.create nl in
  Filter.prepare ~mode:Mode.Window
    ~windows:(Analysis.window (Analysis.run topo)) topo

let all_directed nl =
  List.concat_map (CN.aggressors_of_victim nl) (List.init (N.num_nets nl) Fun.id)

let is_window_drop filt d =
  match Filter.decide filt d with
  | Filter.Drop Filter.Window_disjoint -> true
  | Filter.Keep | Filter.Derate _ | Filter.Drop _ -> false

let test_far_apart_dropped () =
  let nl = far_apart () in
  let filt = base_window_filter nl in
  let vic = (N.find_net_exn nl "vic").N.net_id in
  match CN.aggressors_of_victim nl vic with
  | [ d ] ->
    Alcotest.(check bool) "agg -> vic is window-inert" true (is_window_drop filt d)
  | ds -> Alcotest.failf "expected 1 directed coupling, got %d" (List.length ds)

let test_window_drops_sound_i1 () =
  (* every base-window drop really contributes zero delay noise alone *)
  let nl = Option.get (Tka_layout.Benchmarks.by_name "i1") in
  let filt = base_window_filter nl in
  let windows = Analysis.window (Analysis.run (Topo.create nl)) in
  let drops = List.filter (is_window_drop filt) (all_directed nl) in
  Alcotest.(check int)
    "drops match the survey"
    (Filter.survey filt).Filter.sv_dropped_window (List.length drops);
  Alcotest.(check bool) "some couplings dropped" true (drops <> []);
  List.iter
    (fun d ->
      let noise =
        Tka_noise.Victim_noise.delay_noise nl ~windows ~victim:d.CN.dc_victim
          [ d ]
      in
      Alcotest.(check (float 1e-9)) "window-inert means zero" 0. noise)
    drops

let test_near_pairs_kept () =
  let nl = two_chains () in
  let filt = base_window_filter nl in
  Alcotest.(check bool)
    "some aggressor kept" true
    (List.exists (fun d -> not (is_window_drop filt d)) (all_directed nl))

(* ------------------------------------------------------------------ *)
(* Ilist singleton fast path                                          *)
(* ------------------------------------------------------------------ *)

let entry objective =
  let pulse = Pulse.make ~onset:0. ~peak:0.1 ~rise:0.02 ~decay:0.05 in
  {
    Ilist.couplings = CS.of_list [ 0 ];
    envelope = Envelope.of_pulse ~window:(Interval.make 0.4 0.6) pulse;
    objective;
  }

let test_ilist_fast_paths () =
  let interval = Interval.make 0. 2. in
  let stats = Ilist.fresh_stats () in
  Alcotest.(check int)
    "empty input" 0
    (List.length (Ilist.prune ~interval ~stats []));
  Alcotest.(check int) "empty input counts nothing" 0 stats.Ilist.candidates;
  let e = entry 0.5 in
  (match Ilist.prune ~interval ~stats [ e ] with
  | [ e' ] ->
    Alcotest.(check bool) "singleton returned physically" true (e' == e)
  | l -> Alcotest.failf "singleton pruned to %d entries" (List.length l));
  Alcotest.(check int) "singleton counts 1 candidate" 1 stats.Ilist.candidates;
  Alcotest.(check int) "no dominance checks" 0 stats.Ilist.checks;
  Alcotest.(check int) "nothing dominated" 0 stats.Ilist.dominated;
  Alcotest.(check int) "nothing capped" 0 stats.Ilist.capped;
  (* capacity 0 must still go through the general path and cap *)
  let stats0 = Ilist.fresh_stats () in
  Alcotest.(check int)
    "capacity 0 keeps nothing" 0
    (List.length (Ilist.prune ~capacity:0 ~interval ~stats:stats0 [ e ]))

(* ------------------------------------------------------------------ *)
(* Victim memo                                                        *)
(* ------------------------------------------------------------------ *)

let test_ctx_memo_identity () =
  (* a fixpoint through the memoising ctx, first filling the memo and
     then hitting it, is bitwise identical to a fresh one, whichever
     couplings are active *)
  let nl = pair_netlist () in
  let topo = Topo.create nl in
  let id = CN.directed_id (victim_directed nl) in
  let ctx = Iterate.context (Iterate.run topo) in
  List.iter
    (fun active ->
      let run ctx = Iterate.circuit_delay (Iterate.run ~active ?ctx topo) in
      let fresh = run None in
      Alcotest.(check bool) "ctx fixpoint delay bitwise identical" true
        (feq fresh (run (Some ctx)));
      Alcotest.(check bool) "memo hit bitwise identical" true (feq fresh (run (Some ctx))))
    [ Iterate.All; Iterate.Only [ id ]; Iterate.Except [ id ]; Iterate.Except [] ]

(* ------------------------------------------------------------------ *)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "tka_filter"
    [
      qsuite "windows-qcheck"
        [
          prop_overlaps_reflexive; prop_overlaps_symmetric;
          prop_overlaps_reference; prop_fraction_bounds;
          prop_fraction_symmetric; prop_fraction_containment;
        ];
      ( "implication",
        [
          Alcotest.test_case "constants" `Quick test_implication_constants;
          Alcotest.test_case "inverter chain" `Quick test_implication_chain;
          Alcotest.test_case "reconvergence" `Quick
            test_implication_reconvergence;
          Alcotest.test_case "parser" `Quick test_implication_parse;
        ] );
      ( "decisions",
        [
          Alcotest.test_case "window" `Quick test_window_decisions;
          Alcotest.test_case "off identity" `Quick test_off_identity;
          Alcotest.test_case "screen subset" `Quick test_screen_subset;
          Alcotest.test_case "derate factor" `Quick test_derate_factor;
        ] );
      ( "window-inert",
        [
          Alcotest.test_case "detects far-apart" `Quick test_far_apart_dropped;
          Alcotest.test_case "sound on i1" `Quick test_window_drops_sound_i1;
          Alcotest.test_case "near pairs stay true" `Quick test_near_pairs_kept;
        ] );
      ( "ilist",
        [ Alcotest.test_case "fast paths" `Quick test_ilist_fast_paths ] );
      ( "memo",
        [
          Alcotest.test_case "bitwise identity" `Quick
            test_ctx_memo_identity;
        ] );
    ]
