(** Worst-case delay noise at a single victim net.

    Combines aggressor envelopes (linear superposition) against the
    victim's latest transition and measures the shift of the 50%
    crossing — the per-net quantity the iterative analysis and the
    top-k engine both rank by.

    Per-stage delay noise is saturated at {!saturation_slews} victim
    slews: past that point the restoring victim driver dominates and the
    unsaturated linear figure is pure pessimism (cf. Keller et al.,
    ICCAD'04). The saturation is monotone, so envelope dominance still
    implies delay-noise dominance (Theorem 1 survives). *)

val saturation_slews : float
(** 3.0 — the per-stage saturation bound, in victim slews. *)

val sensitive_interval :
  earliest:float -> latest:float -> slew:float -> Tka_util.Interval.t
(** The victim's sensitive interval, the one interval over which
    envelopes are compared and aggressors screened:
    [\[earliest − 0.5·slew, latest + (saturation_slews + 0.75)·slew\]],
    for a victim whose noiseless [t50] lies in
    [\[earliest, latest\]]. Its lower end is the earliest [t50] less
    half a slew (a pulse ending earlier cannot create delay noise); its
    upper end is the latest [t50] plus the per-stage saturation bound
    — a sound upper bound on where the noisy crossing can land —
    padded by 0.75 slews. The dominance test takes it at one [t50]
    ([Tka_topk.Dominance.interval]); the window filter takes it over a
    timing window's [\[eat, lat\]] ([Tka_filter.Overlap.sensitive]),
    so the filter's interval contains the engine's for every anchor
    the window admits. *)

val saturate : victim:Tka_waveform.Transition.t -> float -> float
(** [saturate ~victim d]: [d] capped at {!saturation_slews} victim
    slews. *)

val victim_transition :
  windows:Envelope_builder.windows ->
  own_noise:float ->
  Tka_circuit.Netlist.net_id ->
  Tka_waveform.Transition.t
(** The victim's latest transition {e before} its own delay noise:
    window LAT minus [own_noise] (the windows of an iterative analysis
    already include each net's noise; subtracting it avoids counting it
    twice when re-evaluating). *)

val delay_noise :
  Tka_circuit.Netlist.t ->
  windows:Envelope_builder.windows ->
  ?own_noise:float ->
  victim:Tka_circuit.Netlist.net_id ->
  Coupled_noise.directed list ->
  float
(** Worst-case (saturated) t50 shift from the given aggressors, which
    all attack [victim]. Their envelopes are superposed in one
    {!Tka_waveform.Envelope.of_swept} pass from
    {!Coupled_noise.write_swept} records, with the victim's
    {!Coupled_noise.holding} read once. *)

val delay_noise_of_envelope :
  victim:Tka_waveform.Transition.t -> Tka_waveform.Envelope.t -> float
(** Same, with an already-built combined envelope. *)
