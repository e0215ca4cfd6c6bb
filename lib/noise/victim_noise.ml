module N = Tka_circuit.Netlist
module TW = Tka_sta.Timing_window
module Envelope = Tka_waveform.Envelope
module Transition = Tka_waveform.Transition

let saturation_slews = 3.0

let sensitive_interval ~earliest ~latest ~slew =
  Tka_util.Interval.make
    (earliest -. (0.5 *. slew))
    (latest +. ((saturation_slews +. 0.75) *. slew))

let victim_transition ~windows ~own_noise victim =
  let w : TW.t = windows victim in
  Transition.make ~t50:(w.TW.lat -. own_noise) ~slew:w.TW.slew_late

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
    let h = Coupled_noise.holding nl victim in
    let write buf s d =
      Coupled_noise.write_swept nl h (windows d.Coupled_noise.dc_aggressor) buf s d
    in
    delay_noise_of_envelope ~victim:v (Envelope.of_swept write ds)
