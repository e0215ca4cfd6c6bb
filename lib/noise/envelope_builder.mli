(** Noise envelopes from timing windows (Fig. 2 of the paper).

    Couples {!Coupled_noise} pulses with aggressor switching windows:
    sweeping the pulse over the window's onset interval produces the
    trapezoidal envelope whose leading edge is the pulse fired at EAT
    and whose trailing edge is the pulse fired at LAT. Every envelope
    here is {!Coupled_noise.write_swept}'s record swept by
    {!Tka_waveform.Envelope.of_swept}. *)

type windows = Tka_circuit.Netlist.net_id -> Tka_sta.Timing_window.t
(** Window accessor, usually [Tka_sta.Analysis.window a]. *)

val of_directed :
  Tka_circuit.Netlist.t ->
  windows:windows ->
  Coupled_noise.directed ->
  Tka_waveform.Envelope.t
(** Envelope of one primary aggressor: its pulse (late-arrival slew)
    swept over its onset window. *)

val of_directed_widened :
  Tka_circuit.Netlist.t ->
  windows:windows ->
  extra_lat:float ->
  Coupled_noise.directed ->
  Tka_waveform.Envelope.t
(** As {!of_directed} with the aggressor's LAT pushed out by
    [extra_lat >= 0] — the envelope of a {e higher-order} aggressor
    whose window grew because of delay noise in its own fanin cone
    (Section 3.3): same height, wider top. *)

val with_window :
  Tka_circuit.Netlist.t ->
  window:Tka_sta.Timing_window.t ->
  Coupled_noise.directed ->
  Tka_waveform.Envelope.t
(** Envelope with an explicitly supplied aggressor window (used by the
    elimination analysis to model a window that {e shrinks} when the
    aggressor's own fanin noise is fixed). *)
