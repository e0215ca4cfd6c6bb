(** The dominance partial order on noise envelopes (Section 3.2).

    Envelope [A] dominates [B] at a victim when [A] encapsulates [B]
    over the victim's dominance interval; by Theorem 1, extending a
    dominated aggressor set can never produce more delay noise than
    extending the dominating one, so dominated sets are pruned from the
    enumeration. *)

val interval :
  victim:Tka_waveform.Transition.t -> Tka_util.Interval.t
(** The dominance interval of a victim transition. Its lower end is the
    noiseless [t50] (a pulse ending earlier cannot create delay noise);
    its upper end is [t50] plus the per-stage saturation bound
    ({!Tka_noise.Victim_noise.saturation_slews} slews) — a sound upper
    bound on where the noisy crossing can land, slightly padded. *)

type ends = Tka_waveform.Pwl.ends

val ends : interval:Tka_util.Interval.t -> Tka_waveform.Envelope.t -> ends
(** An envelope's values at both ends of the interval and where its
    co-scan enters it ({!Tka_waveform.Pwl.ends}). Computed once per
    envelope, then handed to every dominance test the envelope takes
    part in at this victim. *)

val dominates :
  interval:Tka_util.Interval.t ->
  Tka_waveform.Envelope.t ->
  ends ->
  Tka_waveform.Envelope.t ->
  ends ->
  bool
(** [dominates ~interval a ea b eb]: [a] encapsulates [b] on [interval],
    where [ea] and [eb] are their {!ends}. A (non-strict) partial order:
    reflexive, transitive, antisymmetric up to envelope equality on the
    interval. *)

val dominates_pair :
  interval:Tka_util.Interval.t ->
  Tka_waveform.Envelope.t ->
  ends ->
  Tka_waveform.Envelope.t ->
  ends ->
  bool * bool
(** [dominates_pair ~interval a ea b eb] is exactly
    [(dominates ~interval a ea b eb, dominates ~interval b eb a ea)],
    from one co-scan of the two envelopes
    ({!Tka_waveform.Pwl.dominates_on_pair}). [(false, false)]: neither
    dominates the other (envelopes that cross, like A and B in
    Fig. 6). *)
