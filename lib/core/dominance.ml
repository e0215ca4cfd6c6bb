module Transition = Tka_waveform.Transition
module Envelope = Tka_waveform.Envelope
module Pwl = Tka_waveform.Pwl

let interval ~victim =
  let t50 = victim.Transition.t50 in
  Tka_noise.Victim_noise.sensitive_interval ~earliest:t50 ~latest:t50
    ~slew:victim.Transition.slew

type ends = Pwl.ends

let ends ~interval e = Pwl.ends interval (Envelope.waveform e)

let dominates ~interval a ea b eb =
  Pwl.dominates_on interval (Envelope.waveform a) ea (Envelope.waveform b) eb

let dominates_pair ~interval a ea b eb =
  Pwl.dominates_on_pair interval (Envelope.waveform a) ea (Envelope.waveform b) eb
