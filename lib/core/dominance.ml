module Interval = Tka_util.Interval
module Transition = Tka_waveform.Transition
module Envelope = Tka_waveform.Envelope

let interval ~victim =
  let t50 = victim.Transition.t50 in
  let slew = victim.Transition.slew in
  let reach = (Tka_noise.Victim_noise.saturation_slews +. 0.75) *. slew in
  Interval.make (t50 -. (0.5 *. slew)) (t50 +. reach)

let dominates ~interval a b = Envelope.encapsulates ~interval a b

let dominates_pair ~interval a b =
  Tka_waveform.Pwl.dominates_on_pair interval (Envelope.waveform a)
    (Envelope.waveform b)
