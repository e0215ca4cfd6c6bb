(* Tests for the linear crosstalk noise analysis: pulses, envelope
   construction from timing windows, per-victim delay noise and the
   iterative fixpoint (including indirect aggressors, Fig. 1 of the
   paper). *)

module N = Tka_circuit.Netlist
module Builder = Tka_circuit.Builder
module Topo = Tka_circuit.Topo
module TW = Tka_sta.Timing_window
module Analysis = Tka_sta.Analysis
module CN = Tka_noise.Coupled_noise
module EB = Tka_noise.Envelope_builder
module VN = Tka_noise.Victim_noise
module Iterate = Tka_noise.Iterate
module Envelope = Tka_waveform.Envelope
module Pulse = Tka_waveform.Pulse
module Transition = Tka_waveform.Transition
module Lib = Tka_cell.Default_lib
module B = Tka_layout.Benchmarks

let check_f6 = Alcotest.(check (float 1e-6))

(* Two parallel inverter chains with couplings between stage nets: the
   canonical aggressor/victim pair. *)
let two_chains ~stages ~coupling =
  let b = Builder.create ~name:"pair" () in
  let ia = Builder.add_input b "ia" in
  let iv = Builder.add_input b "iv" in
  let mk prefix input =
    let prev = ref input in
    let nets = ref [] in
    for i = 1 to stages do
      let n = Builder.add_net b (Printf.sprintf "%s%d" prefix i) in
      ignore
        (Builder.add_gate b
           ~name:(Printf.sprintf "g%s%d" prefix i)
           ~cell:Lib.inverter
           ~inputs:[ ("A", !prev) ]
           ~output:n);
      prev := n;
      nets := n :: !nets
    done;
    List.rev !nets
  in
  let agg = mk "a" ia in
  let vic = mk "v" iv in
  List.iter2
    (fun a v -> ignore (Builder.add_coupling b a v coupling))
    agg vic;
  Builder.mark_output b (List.nth vic (stages - 1));
  Builder.mark_output b (List.nth agg (stages - 1));
  Builder.finalize b

(* ------------------------------------------------------------------ *)
(* Coupled_noise                                                      *)
(* ------------------------------------------------------------------ *)

let test_aggressors_of_victim () =
  let nl = two_chains ~stages:2 ~coupling:0.004 in
  let v1 = (N.find_net_exn nl "v1").N.net_id in
  let ds = CN.aggressors_of_victim nl v1 in
  Alcotest.(check int) "one aggressor" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check int) "victim side" v1 d.CN.dc_victim;
  Alcotest.(check int) "aggressor side" (N.find_net_exn nl "a1").N.net_id
    d.CN.dc_aggressor

let test_directed_id_roundtrip () =
  let nl = two_chains ~stages:3 ~coupling:0.004 in
  Array.iter
    (fun c ->
      List.iter
        (fun victim ->
          let d = CN.directed_of_coupling nl ~victim c.N.coupling_id in
          let d' = CN.of_directed_id nl (CN.directed_id d) in
          Alcotest.(check int) "victim preserved" d.CN.dc_victim d'.CN.dc_victim;
          Alcotest.(check int) "aggressor preserved" d.CN.dc_aggressor
            d'.CN.dc_aggressor;
          Alcotest.(check int) "coupling preserved" d.CN.dc_coupling
            d'.CN.dc_coupling)
        [ c.N.net_a; c.N.net_b ])
    (N.couplings nl)

let test_peak_monotone_in_cap () =
  let nl = two_chains ~stages:1 ~coupling:0.004 in
  let v = (N.find_net_exn nl "v1").N.net_id in
  let p1 = CN.peak nl ~victim:v ~coupling_cap:0.001 ~agg_slew:0.05 in
  let p2 = CN.peak nl ~victim:v ~coupling_cap:0.003 ~agg_slew:0.05 in
  Alcotest.(check bool) "monotone" true (p2 > p1);
  Alcotest.(check bool) "below 1" true (p2 < 1.)

let test_peak_decreases_with_slow_aggressor () =
  let nl = two_chains ~stages:1 ~coupling:0.004 in
  let v = (N.find_net_exn nl "v1").N.net_id in
  let fast = CN.peak nl ~victim:v ~coupling_cap:0.004 ~agg_slew:0.01 in
  let slow = CN.peak nl ~victim:v ~coupling_cap:0.004 ~agg_slew:0.50 in
  Alcotest.(check bool) "slow aggressor couples less" true (slow < fast)

let test_pulse_fields () =
  let nl = two_chains ~stages:1 ~coupling:0.004 in
  let v = (N.find_net_exn nl "v1").N.net_id in
  let d = List.hd (CN.aggressors_of_victim nl v) in
  let p = CN.pulse nl ~agg_slew:0.05 d in
  check_f6 "onset at origin" 0. p.Pulse.onset;
  check_f6 "rise is slew" 0.05 p.Pulse.rise;
  Alcotest.(check bool) "decay positive" true (p.Pulse.decay > 0.)

(* ------------------------------------------------------------------ *)
(* Envelope_builder                                                   *)
(* ------------------------------------------------------------------ *)

let windows_of nl =
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  (topo, Analysis.window a)

let test_envelope_window_sweep () =
  let nl = two_chains ~stages:2 ~coupling:0.004 in
  let _, w = windows_of nl in
  let v2 = (N.find_net_exn nl "v2").N.net_id in
  let d = List.hd (CN.aggressors_of_victim nl v2) in
  let e = EB.of_directed nl ~windows:w d in
  Alcotest.(check bool) "non-zero" false (Envelope.is_zero e);
  (* widened version dominates *)
  let ew = EB.of_directed_widened nl ~windows:w ~extra_lat:0.1 d in
  Alcotest.(check bool) "widened dominates" true (Envelope.encapsulates ew e);
  check_f6 "same peak" (Envelope.peak e) (Envelope.peak ew)

let test_envelope_with_window_override () =
  let nl = two_chains ~stages:2 ~coupling:0.004 in
  let _, w = windows_of nl in
  let v2 = (N.find_net_exn nl "v2").N.net_id in
  let d = List.hd (CN.aggressors_of_victim nl v2) in
  let agg_w = w d.CN.dc_aggressor in
  let same = EB.with_window nl ~window:agg_w d in
  Alcotest.(check bool) "explicit window equals implicit" true
    (Envelope.equal same (EB.of_directed nl ~windows:w d))

(* ------------------------------------------------------------------ *)
(* Victim_noise                                                       *)
(* ------------------------------------------------------------------ *)

let test_delay_noise_empty () =
  let nl = two_chains ~stages:1 ~coupling:0.004 in
  let _, w = windows_of nl in
  let v = (N.find_net_exn nl "v1").N.net_id in
  check_f6 "no aggressors no noise" 0. (VN.delay_noise nl ~windows:w ~victim:v [])

let test_delay_noise_monotone_in_set () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let _, w = windows_of nl in
  let v = (N.find_net_exn nl "v2").N.net_id in
  let ds = CN.aggressors_of_victim nl v in
  let d1 = VN.delay_noise nl ~windows:w ~victim:v [ List.hd ds ] in
  let dall = VN.delay_noise nl ~windows:w ~victim:v ds in
  Alcotest.(check bool) "superset never smaller" true (dall >= d1 -. 1e-9)

let test_saturation_cap () =
  let victim = Transition.make ~t50:1.0 ~slew:0.05 () in
  (* a preposterous envelope cannot exceed the saturation bound *)
  let huge =
    Envelope.of_pulse
      ~window:(Tka_util.Interval.make 0. 50.)
      (Pulse.make ~onset:0. ~peak:0.95 ~rise:0.05 ~decay:5.)
  in
  let d = VN.delay_noise_of_envelope ~victim huge in
  Alcotest.(check bool) "capped" true
    (d <= (VN.saturation_slews *. 0.05) +. 1e-9);
  Alcotest.(check bool) "at cap" true (d >= (VN.saturation_slews *. 0.05) -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Iterate                                                            *)
(* ------------------------------------------------------------------ *)

let test_iterate_no_couplings () =
  let nl = two_chains ~stages:2 ~coupling:0.004 in
  let topo = Topo.create nl in
  let r = Iterate.run ~active:(Iterate.Only []) topo in
  check_f6 "same as noiseless" (Iterate.noiseless_delay r) (Iterate.circuit_delay r);
  Alcotest.(check bool) "converged" true r.Iterate.converged;
  check_f6 "no noise" 0. (Iterate.total_delay_noise r)

let test_iterate_adds_noise () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let topo = Topo.create nl in
  let r = Iterate.run topo in
  Alcotest.(check bool) "converged" true r.Iterate.converged;
  Alcotest.(check bool) "noisy >= noiseless" true
    (Iterate.circuit_delay r >= Iterate.noiseless_delay r);
  Alcotest.(check bool) "strictly noisy" true (Iterate.total_delay_noise r > 0.)

let test_iterate_subset_bounded_by_full () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let topo = Topo.create nl in
  let full = Iterate.run topo in
  let one = Iterate.run ~active:(Iterate.Only [ 0 ]) topo in
  Alcotest.(check bool) "subset noise <= full noise" true
    (Iterate.circuit_delay one <= Iterate.circuit_delay full +. 1e-9)

let test_iterate_net_noise_nonneg () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let topo = Topo.create nl in
  let r = Iterate.run topo in
  for v = 0 to N.num_nets nl - 1 do
    Alcotest.(check bool) "nonneg" true (Iterate.net_noise r v >= 0.)
  done

(* Fig. 1: a3 -> a2 -> a1 -> v1 indirect chain. The victim's noise
   grows when indirect aggressors are added because they widen the
   primary aggressor's window across iterations. *)
let indirect_chain () =
  let b = Builder.create ~name:"fig1" () in
  let i1 = Builder.add_input b "i1" in
  let i2 = Builder.add_input b "i2" in
  let i3 = Builder.add_input b "i3" in
  let iv = Builder.add_input b "iv" in
  (* lightly loaded nets with strong drivers: coupling ratios high
     enough that the victim crossing rides the aggressor envelope, so a
     window extension visibly increases delay noise *)
  let a3 = Builder.add_net b ~wire_cap:0.001 "a3" in
  let a2 = Builder.add_net b ~wire_cap:0.001 "a2" in
  let a1 = Builder.add_net b ~wire_cap:0.001 "a1" in
  let v1 = Builder.add_net b ~wire_cap:0.001 "v1" in
  let x4 = Lib.find_exn "INV_X4" in
  ignore (Builder.add_gate b ~name:"ga3" ~cell:x4 ~inputs:[ ("A", i3) ] ~output:a3);
  ignore (Builder.add_gate b ~name:"ga2" ~cell:x4 ~inputs:[ ("A", i2) ] ~output:a2);
  ignore (Builder.add_gate b ~name:"ga1" ~cell:x4 ~inputs:[ ("A", i1) ] ~output:a1);
  ignore (Builder.add_gate b ~name:"gv1" ~cell:Lib.inverter ~inputs:[ ("A", iv) ] ~output:v1);
  Builder.mark_output b v1;
  Builder.mark_output b a1;
  Builder.mark_output b a2;
  Builder.mark_output b a3;
  let c32 = Builder.add_coupling b a3 a2 0.008 in
  let c21 = Builder.add_coupling b a2 a1 0.008 in
  let c1v = Builder.add_coupling b a1 v1 0.008 in
  (Builder.finalize b, c32, c21, c1v)

let test_indirect_aggressors_increase_noise () =
  let nl, c32, c21, c1v = indirect_chain () in
  let topo = Topo.create nl in
  let v1 = (N.find_net_exn nl "v1").N.net_id in
  (* both directed sides of each named cap *)
  let noise_with couplings =
    let ids =
      List.concat_map (fun c -> [ CN.with_coupling 0 c; CN.with_coupling 1 c ]) couplings
    in
    let r = Iterate.run ~active:(Iterate.Only ids) topo in
    Iterate.net_noise r v1
  in
  let only_primary = noise_with [ c1v ] in
  let with_secondary = noise_with [ c1v; c21 ] in
  let with_tertiary = noise_with [ c1v; c21; c32 ] in
  (* the secondary aggressor strictly increases the victim's noise by
     widening the primary's window (needs an extra noise iteration);
     deeper links attenuate, so the tertiary is only required not to
     hurt *)
  Alcotest.(check bool) "secondary strictly helps" true
    (with_secondary > only_primary +. 1e-6);
  Alcotest.(check bool) "tertiary never hurts" true
    (with_tertiary >= with_secondary -. 1e-9)

let test_iterate_converges_on_benchmark () =
  let nl = Option.get (B.by_name "i1") in
  let topo = Topo.create nl in
  let r = Iterate.run topo in
  Alcotest.(check bool) "converged" true r.Iterate.converged;
  Alcotest.(check bool) "few sweeps" true (r.Iterate.iterations <= 12);
  Alcotest.(check bool) "noise fraction sane" true
    (let f = Iterate.total_delay_noise r /. Iterate.noiseless_delay r in
     f > 0.01 && f < 0.6)

(* ------------------------------------------------------------------ *)
(* Glitch screening                                                   *)
(* ------------------------------------------------------------------ *)

module Glitch = Tka_noise.Glitch

let test_glitch_peak_sum () =
  let nl = two_chains ~stages:2 ~coupling:0.004 in
  let _, w = windows_of nl in
  let v = (N.find_net_exn nl "v1").N.net_id in
  let expect =
    List.fold_left
      (fun acc d ->
        let aw = w d.CN.dc_aggressor in
        acc +. (CN.pulse nl ~agg_slew:aw.TW.slew_late d).Pulse.peak)
      0.
      (CN.aggressors_of_victim nl v)
  in
  check_f6 "sum of pulse peaks" expect (Glitch.peak_noise nl ~windows:w v)

let test_glitch_check_threshold () =
  let nl = two_chains ~stages:2 ~coupling:0.004 in
  let topo = Topo.create nl in
  (* an absurdly low margin flags every coupled net, a high one none *)
  let all = Glitch.check ~margin:1e-6 topo in
  Alcotest.(check bool) "low margin flags" true (List.length all > 0);
  let none = Glitch.check ~margin:0.99 topo in
  Alcotest.(check int) "high margin clean" 0 (List.length none);
  (* worst first *)
  let rec desc = function
    | a :: (b :: _ as tl) -> a.Glitch.gl_peak >= b.Glitch.gl_peak && desc tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (desc all)

let test_glitch_default_margin_on_benchmark () =
  let nl = Option.get (B.by_name "i1") in
  let topo = Topo.create nl in
  let v = Glitch.check topo in
  (* the calibrated benchmarks are mostly clean but may have a few hot
     nets; every report must exceed the margin it was checked against *)
  List.iter
    (fun x ->
      Alcotest.(check bool) "peak above margin" true
        (x.Glitch.gl_peak > x.Glitch.gl_margin))
    v

(* ------------------------------------------------------------------ *)
(* Xtalk_report                                                       *)
(* ------------------------------------------------------------------ *)

module Xr = Tka_noise.Xtalk_report

let test_xtalk_breakdown () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let topo = Topo.create nl in
  let analysis = Iterate.run topo in
  let v2 = (N.find_net_exn nl "v2").N.net_id in
  let r = Xr.victim ~analysis v2 in
  Alcotest.(check int) "one aggressor" 1 (List.length r.Xr.xr_contributions);
  List.iter
    (fun c ->
      Alcotest.(check bool) "alone <= total" true (c.Xr.xc_alone <= r.Xr.xr_total +. 1e-9);
      Alcotest.(check bool) "incremental <= total" true
        (c.Xr.xc_incremental <= r.Xr.xr_total +. 1e-9);
      Alcotest.(check bool) "cap recorded" true (c.Xr.xc_cap > 0.))
    r.Xr.xr_contributions

let test_xtalk_single_aggressor_accounts_all () =
  (* with exactly one aggressor, alone = incremental = total *)
  let nl = two_chains ~stages:1 ~coupling:0.006 in
  let topo = Topo.create nl in
  let analysis = Iterate.run topo in
  let v1 = (N.find_net_exn nl "v1").N.net_id in
  let r = Xr.victim ~analysis v1 in
  (match r.Xr.xr_contributions with
  | [ c ] ->
    check_f6 "alone = total" r.Xr.xr_total c.Xr.xc_alone;
    check_f6 "incremental = total" r.Xr.xr_total c.Xr.xc_incremental
  | _ -> Alcotest.fail "expected one contribution")

let test_xtalk_worst_victims () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let topo = Topo.create nl in
  let analysis = Iterate.run topo in
  let worst = Xr.worst_victims ~count:3 analysis in
  Alcotest.(check bool) "some victims" true (worst <> []);
  Alcotest.(check bool) "at most 3" true (List.length worst <= 3);
  let rec desc = function
    | a :: (b :: _ as tl) -> a.Xr.xr_total >= b.Xr.xr_total -. 1e-9 && desc tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (desc worst);
  (* render smoke *)
  let s = Xr.render nl (List.hd worst) in
  Alcotest.(check bool) "render mentions victim" true (String.length s > 10)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo alignment sampling                                     *)
(* ------------------------------------------------------------------ *)

module Mc = Tka_noise.Monte_carlo

let test_monte_carlo_under_bound () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let _, w = windows_of nl in
  let rng = Tka_util.Rng.create 5 in
  List.iter
    (fun name ->
      let v = (N.find_net_exn nl name).N.net_id in
      let s = Mc.sample_victim ~rng ~samples:200 ~windows:w nl v in
      Alcotest.(check bool) (name ^ " max <= bound") true
        (s.Mc.mc_max <= s.Mc.mc_bound +. 1e-9);
      Alcotest.(check bool) "mean <= max" true (s.Mc.mc_mean <= s.Mc.mc_max +. 1e-12);
      Alcotest.(check bool) "p95 between" true
        (s.Mc.mc_p95 >= s.Mc.mc_mean -. 1e-9 && s.Mc.mc_p95 <= s.Mc.mc_max +. 1e-9))
    [ "v1"; "v2"; "v3" ]

let test_monte_carlo_point_window_tight () =
  (* with degenerate windows there is only one alignment: sampling must
     reproduce the bound exactly *)
  let nl = two_chains ~stages:1 ~coupling:0.006 in
  let _, w = windows_of nl in
  let v = (N.find_net_exn nl "v1").N.net_id in
  let rng = Tka_util.Rng.create 6 in
  let s = Mc.sample_victim ~rng ~samples:20 ~windows:w nl v in
  Alcotest.(check (float 1e-6)) "tight" s.Mc.mc_bound s.Mc.mc_max

let test_monte_carlo_validation () =
  Alcotest.(check bool) "samples > 0 required" true
    (let nl = two_chains ~stages:1 ~coupling:0.004 in
     let _, w = windows_of nl in
     try
       ignore
         (Mc.sample_victim ~rng:(Tka_util.Rng.create 1) ~samples:0 ~windows:w nl 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Path noise                                                         *)
(* ------------------------------------------------------------------ *)

module Pn = Tka_noise.Path_noise

let test_path_noise_breakdown () =
  let nl = two_chains ~stages:3 ~coupling:0.006 in
  let topo = Topo.create nl in
  let it = Iterate.run topo in
  let p = Pn.worst_path it in
  Alcotest.(check bool) "has stages" true (List.length p.Pn.pn_stages >= 3);
  (* arrivals monotone along the path, noisy >= noiseless at each net *)
  let rec mono = function
    | a :: (b :: _ as tl) ->
      a.Pn.ps_arrival_noisy <= b.Pn.ps_arrival_noisy +. 1e-9 && mono tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone arrivals" true (mono p.Pn.pn_stages);
  List.iter
    (fun s ->
      Alcotest.(check bool) "noisy >= noiseless" true
        (s.Pn.ps_arrival_noisy >= s.Pn.ps_arrival_noiseless -. 1e-9);
      Alcotest.(check bool) "own noise nonneg" true (s.Pn.ps_own_noise >= 0.))
    p.Pn.pn_stages;
  Alcotest.(check bool) "total positive" true (Pn.total_path_noise p > 0.);
  (* the path's endpoint arrival is the noisy circuit delay *)
  check_f6 "endpoint = circuit delay" (Iterate.circuit_delay it) p.Pn.pn_noisy_arrival;
  (* render smoke *)
  Alcotest.(check bool) "render" true (String.length (Pn.render nl p) > 20)

let test_path_noise_quiet_design () =
  let nl = two_chains ~stages:2 ~coupling:0.004 in
  let topo = Topo.create nl in
  let it = Iterate.run ~active:(Iterate.Only []) topo in
  let p = Pn.worst_path it in
  check_f6 "no noise anywhere" 0. (Pn.total_path_noise p)

let () =
  Alcotest.run "tka_noise"
    [
      ( "coupled_noise",
        [
          Alcotest.test_case "aggressors of victim" `Quick test_aggressors_of_victim;
          Alcotest.test_case "directed id roundtrip" `Quick test_directed_id_roundtrip;
          Alcotest.test_case "peak monotone" `Quick test_peak_monotone_in_cap;
          Alcotest.test_case "slow aggressor" `Quick
            test_peak_decreases_with_slow_aggressor;
          Alcotest.test_case "pulse fields" `Quick test_pulse_fields;
        ] );
      ( "envelope_builder",
        [
          Alcotest.test_case "window sweep" `Quick test_envelope_window_sweep;
          Alcotest.test_case "window override" `Quick test_envelope_with_window_override;
        ] );
      ( "victim_noise",
        [
          Alcotest.test_case "empty" `Quick test_delay_noise_empty;
          Alcotest.test_case "monotone in set" `Quick test_delay_noise_monotone_in_set;
          Alcotest.test_case "saturation" `Quick test_saturation_cap;
        ] );
      ( "monte_carlo",
        [
          Alcotest.test_case "under bound" `Quick test_monte_carlo_under_bound;
          Alcotest.test_case "point window tight" `Quick
            test_monte_carlo_point_window_tight;
          Alcotest.test_case "validation" `Quick test_monte_carlo_validation;
        ] );
      ( "path_noise",
        [
          Alcotest.test_case "breakdown" `Quick test_path_noise_breakdown;
          Alcotest.test_case "quiet design" `Quick test_path_noise_quiet_design;
        ] );
      ( "xtalk_report",
        [
          Alcotest.test_case "breakdown" `Quick test_xtalk_breakdown;
          Alcotest.test_case "single aggressor" `Quick
            test_xtalk_single_aggressor_accounts_all;
          Alcotest.test_case "worst victims" `Quick test_xtalk_worst_victims;
        ] );
      ( "glitch",
        [
          Alcotest.test_case "peak sum" `Quick test_glitch_peak_sum;
          Alcotest.test_case "threshold" `Quick test_glitch_check_threshold;
          Alcotest.test_case "benchmark margins" `Quick
            test_glitch_default_margin_on_benchmark;
        ] );
      ( "iterate",
        [
          Alcotest.test_case "no couplings" `Quick test_iterate_no_couplings;
          Alcotest.test_case "adds noise" `Quick test_iterate_adds_noise;
          Alcotest.test_case "subset bounded" `Quick test_iterate_subset_bounded_by_full;
          Alcotest.test_case "net noise nonneg" `Quick test_iterate_net_noise_nonneg;
          Alcotest.test_case "indirect aggressors (Fig 1)" `Quick
            test_indirect_aggressors_increase_noise;
          Alcotest.test_case "benchmark convergence" `Quick
            test_iterate_converges_on_benchmark;
        ] );
    ]
