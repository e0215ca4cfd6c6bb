module N = Tka_circuit.Netlist
module TW = Tka_sta.Timing_window
module Envelope = Tka_waveform.Envelope

type windows = N.net_id -> TW.t

let swept ~extra_lat nl windows d =
  let w = windows d.Coupled_noise.dc_aggressor in
  let w = if extra_lat > 0. then TW.extend_lat extra_lat w else w in
  (TW.onset_interval w, Coupled_noise.pulse nl ~agg_slew:w.TW.slew_late d)

let swept_pulse nl ~windows d = swept ~extra_lat:0. nl windows d

let of_directed_widened nl ~windows ~extra_lat d =
  if extra_lat < 0. then invalid_arg "Envelope_builder: negative extra_lat";
  let window, pulse = swept ~extra_lat nl windows d in
  Envelope.of_pulse ~window pulse

let of_directed nl ~windows d = of_directed_widened nl ~windows ~extra_lat:0. d

let with_window nl ~window d =
  let pulse = Coupled_noise.pulse nl ~agg_slew:window.TW.slew_late d in
  Envelope.of_pulse ~window:(TW.onset_interval window) pulse
