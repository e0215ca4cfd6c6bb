module TW = Tka_sta.Timing_window
module Envelope = Tka_waveform.Envelope
module CN = Coupled_noise

type windows = Tka_circuit.Netlist.net_id -> TW.t

let with_window nl ~window d =
  Envelope.of_swept (CN.write_swept nl (CN.holding nl d.CN.dc_victim) window) [ d ]

let of_directed_widened nl ~windows ~extra_lat d =
  if extra_lat < 0. then invalid_arg "Envelope_builder: negative extra_lat";
  let w = windows d.CN.dc_aggressor in
  let w = if extra_lat > 0. then TW.extend_lat extra_lat w else w in
  with_window nl ~window:w d

let of_directed nl ~windows d = of_directed_widened nl ~windows ~extra_lat:0. d
