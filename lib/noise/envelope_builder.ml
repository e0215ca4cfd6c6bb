module N = Tka_circuit.Netlist
module TW = Tka_sta.Timing_window
module Envelope = Tka_waveform.Envelope
module Interval = Tka_util.Interval

type windows = N.net_id -> TW.t

let onset_window ~extra_lat windows d =
  let w = windows d.Coupled_noise.dc_aggressor in
  let w = if extra_lat > 0. then TW.extend_lat extra_lat w else w in
  (w, TW.onset_interval w)

let of_directed_widened nl ~windows ~extra_lat d =
  if extra_lat < 0. then invalid_arg "Envelope_builder: negative extra_lat";
  let w, onset = onset_window ~extra_lat windows d in
  let pulse = Coupled_noise.pulse nl ~agg_slew:w.TW.slew_late d in
  Envelope.of_pulse ~window:onset pulse

let of_directed nl ~windows d = of_directed_widened nl ~windows ~extra_lat:0. d

let with_window nl ~window d =
  let pulse = Coupled_noise.pulse nl ~agg_slew:window.TW.slew_late d in
  Envelope.of_pulse ~window:(TW.onset_interval window) pulse

let unconstrained nl ~windows ~span d =
  let w = windows d.Coupled_noise.dc_aggressor in
  let pulse = Coupled_noise.pulse nl ~agg_slew:w.TW.slew_late d in
  (* Sweep the onset over a window wide enough that the flat top covers
     [span] entirely. *)
  let pulse_len = Tka_waveform.Pulse.end_time pulse -. 0. in
  let window =
    Interval.make (Interval.lo span -. pulse_len) (Interval.hi span +. pulse_len)
  in
  Envelope.of_pulse ~window pulse

let combined nl ~windows ds =
  Envelope.combine (List.map (of_directed nl ~windows) ds)
