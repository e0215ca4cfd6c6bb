module Interval = Tka_util.Interval
module N = Tka_circuit.Netlist
module TW = Tka_sta.Timing_window
module Pulse = Tka_waveform.Pulse
module CN = Tka_noise.Coupled_noise

(* The engine scores candidates on the sensitive interval at the
   victim's *base* t50. The filter only sees the current iteration's
   window w (base for addition, noisy for elimination), so it takes the
   interval over the window's whole [eat, lat]: eat <= base t50 <= lat
   and the slews agree, so it contains the engine's interval, and a
   drop here implies the candidate's envelope is identically zero where
   the engine looks. *)
let sensitive (w : TW.t) =
  Tka_noise.Victim_noise.sensitive_interval ~earliest:w.eat ~latest:w.lat
    ~slew:w.slew_late

(* Support of Envelope.of_pulse ~window:(onset_interval w) pulse:
   leading edge at the earliest onset, trailing edge at the latest onset
   plus the pulse's full extent. *)
let reach nl ~(windows : N.net_id -> TW.t) (d : CN.directed) =
  let w = windows d.CN.dc_aggressor in
  let onset = TW.onset_interval w in
  let pulse = CN.pulse nl ~agg_slew:w.TW.slew_late d in
  Interval.make (Interval.lo onset) (Interval.hi onset +. Pulse.end_time pulse)

let cannot_overlap ~reach:r ~sensitive:s = not (Interval.overlaps r s)
