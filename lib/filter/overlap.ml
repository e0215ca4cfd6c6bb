module Interval = Tka_util.Interval
module N = Tka_circuit.Netlist
module TW = Tka_sta.Timing_window
module Pulse = Tka_waveform.Pulse
module CN = Tka_noise.Coupled_noise

(* The engine scores candidates on Dominance.interval
   [t50 - 0.5*slew, t50 + (saturation_slews + 0.75)*slew] anchored at
   the victim's *base* latest arrival. The filter only sees the current
   iteration's window w (base for addition, noisy for elimination), so
   it must bound that anchor from the window alone: eat <= base t50 <=
   lat, and the slews agree. Hence the asymmetric interval below —
   lower edge from the earliest possible anchor, upper edge from the
   latest — which contains the dominance interval for every window the
   engine can hand us: a drop here implies the candidate's envelope is
   identically zero where the engine looks. *)
let sensitive ?(margin = 0.) (w : TW.t) =
  Interval.make
    (w.eat -. (0.5 *. w.slew_late) -. margin)
    (w.lat +. ((Tka_noise.Victim_noise.saturation_slews +. 0.75) *. w.slew_late)
    +. margin)

(* Support of Envelope.of_pulse ~window:(onset_interval w) pulse:
   leading edge at the earliest onset, trailing edge at the latest onset
   plus the pulse's full extent. *)
let reach nl ~(windows : N.net_id -> TW.t) (d : CN.directed) =
  let w = windows d.CN.dc_aggressor in
  let onset = TW.onset_interval w in
  let pulse = CN.pulse nl ~agg_slew:w.TW.slew_late d in
  Interval.make (Interval.lo onset) (Interval.hi onset +. Pulse.end_time pulse)

let cannot_overlap ~reach:r ~sensitive:s = not (Interval.overlaps r s)
