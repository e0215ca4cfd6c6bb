module Interval = Tka_util.Interval
module Transition = Tka_waveform.Transition
module Envelope = Tka_waveform.Envelope
module Pwl = Tka_waveform.Pwl

let interval ~victim =
  let t50 = victim.Transition.t50 in
  let slew = victim.Transition.slew in
  let reach = (Tka_noise.Victim_noise.saturation_slews +. 0.75) *. slew in
  Interval.make (t50 -. (0.5 *. slew)) (t50 +. reach)

type ends = Pwl.ends

let ends ~interval e = Pwl.ends interval (Envelope.waveform e)

let dominates ~interval a ea b eb =
  Pwl.dominates_on interval (Envelope.waveform a) ea (Envelope.waveform b) eb

let dominates_pair ~interval a ea b eb =
  Pwl.dominates_on_pair interval (Envelope.waveform a) ea (Envelope.waveform b) eb
