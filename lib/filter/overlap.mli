(** Timing-window overlap queries for the aggressor filter.

    Window mode drops a directed coupling when the aggressor's noise
    pulse — wherever it fires inside the aggressor's own switching
    window — cannot reach the interval over which the victim's delay
    noise is measured. Both intervals are computed from the windows the
    STA pass already produced; no waveforms are built. *)

val sensitive : Tka_sta.Timing_window.t -> Tka_util.Interval.t
(** [sensitive w] is the victim's sensitive interval
    ({!Tka_noise.Victim_noise.sensitive_interval}) over the window's
    [\[eat, lat\]]:
    [\[eat − 0.5·slew_late, lat + (saturation_slews + 0.75)·slew_late\]].
    It contains the engine's dominance interval at any [t50] in
    [\[eat, lat\]] — i.e. for both the base windows (addition) and
    the noisy windows (elimination) the engines filter under — so an
    aggressor whose reach misses it is provably inert. *)

val reach :
  Tka_circuit.Netlist.t ->
  windows:(Tka_circuit.Netlist.net_id -> Tka_sta.Timing_window.t) ->
  Tka_noise.Coupled_noise.directed ->
  Tka_util.Interval.t
(** [reach nl ~windows d]: the support of [d]'s noise envelope —
    earliest pulse onset through latest onset plus the pulse's extent.
    Exactly the support of [Envelope_builder.of_directed], computed
    without building the envelope. *)

val cannot_overlap :
  reach:Tka_util.Interval.t -> sensitive:Tka_util.Interval.t -> bool
(** True when the two intervals are disjoint (tolerant comparison:
    touching intervals overlap, so drops stay conservative). *)
