module N = Tka_circuit.Netlist
module TW = Tka_sta.Timing_window
module Envelope = Tka_waveform.Envelope
module Transition = Tka_waveform.Transition
module Interval = Tka_util.Interval

let saturation_slews = 3.0

let victim_transition ~windows ~own_noise victim =
  let w : TW.t = windows victim in
  Transition.make ~t50:(w.TW.lat -. own_noise) ~slew:w.TW.slew_late ()

(* Per-stage delay noise saturates at a few victim slews: beyond that,
   the restoring victim driver wins and the linear-superposition figure
   is pure pessimism (cf. Keller et al., ICCAD'04, on robust cell-level
   delay change). The cap also bounds the gain of the window/noise
   feedback loop, which is what makes the iterative analysis settle in
   a handful of sweeps on densely coupled nets. *)
let saturate ~victim noise =
  Float.min noise (saturation_slews *. victim.Transition.slew)

let delay_noise_of_envelope ~victim env =
  saturate ~victim (Envelope.delay_noise ~victim env)

let delay_noise nl ~windows ?(own_noise = 0.) ~victim ds =
  match ds with
  | [] -> 0.
  | _ :: _ ->
    let v = victim_transition ~windows ~own_noise victim in
    let env = Envelope.combine (List.map (Envelope_builder.of_directed nl ~windows) ds) in
    delay_noise_of_envelope ~victim:v env

(* For the infinite-window bound the envelopes must cover every instant
   that could matter: from the victim's transition start out past the
   point the stacked envelopes could push the crossing. A span of
   t50 +- (sum of peaks) * slew * margin is a safe overestimate; we use
   a generous fixed window derived from the victim transition and the
   total pulse tails. *)
let upper_bound nl ~windows ?(own_noise = 0.) ~victim ds =
  match ds with
  | [] -> 0.
  | _ :: _ ->
    let v = victim_transition ~windows ~own_noise victim in
    let pulses =
      List.map
        (fun d ->
          let w : TW.t = windows d.Coupled_noise.dc_aggressor in
          Coupled_noise.pulse nl ~agg_slew:w.TW.slew_late d)
        ds
    in
    let total_tail =
      List.fold_left
        (fun acc p -> acc +. Tka_waveform.Pulse.end_time p)
        0. pulses
    in
    let t50 = v.Transition.t50 in
    (* The span must also cover wherever the *constrained* envelopes
       could act, else the bound would miss late-switching aggressors. *)
    let latest_action =
      List.fold_left2
        (fun acc d p ->
          let w : TW.t = windows d.Coupled_noise.dc_aggressor in
          Float.max acc
            (Interval.hi (TW.onset_interval w) +. Tka_waveform.Pulse.end_time p))
        (t50 +. v.Transition.slew) ds pulses
    in
    let span =
      Interval.make (t50 -. v.Transition.slew) (latest_action +. total_tail)
    in
    let env =
      Envelope.combine
        (List.map (Envelope_builder.unconstrained nl ~windows ~span) ds)
    in
    delay_noise_of_envelope ~victim:v env

let dominance_interval nl ~windows ?(own_noise = 0.) ~victim ds =
  let v = victim_transition ~windows ~own_noise victim in
  let ub = upper_bound nl ~windows ~own_noise ~victim ds in
  Interval.make v.Transition.t50 (v.Transition.t50 +. Float.max 1e-6 ub)
