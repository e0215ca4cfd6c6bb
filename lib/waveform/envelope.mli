(** Noise envelopes (Figures 2, 3, 5 and 6 of the paper).

    A noise envelope bounds the disturbance an aggressor — or a set of
    aggressors, or the noise propagated from a fanin cone — can couple
    onto a victim at each point in time, given the freedom the aggressor
    has to switch anywhere inside its timing window.

    Envelopes are non-negative PWL waveforms. The key operations are:

    - {!of_pulse}: sweep a single-switching noise pulse over the
      aggressor timing window, producing the trapezoidal envelope of
      Fig. 2 (leading edge of the pulse placed at EAT, flat top, trailing
      edge placed at LAT); {!of_swept} superposes several in one pass;
    - {!combine}: linear superposition of simultaneous aggressors
      (Fig. 3);
    - {!encapsulates}: the dominance test of Section 3.2;
    - {!delay_noise}: worst-case [t50] shift when the envelope is
      superimposed against the victim transition. *)

type t
(** A non-negative PWL disturbance bound. *)

val of_pulse : window:Tka_util.Interval.t -> Pulse.t -> t
(** [of_pulse ~window p] sweeps [p]'s waveform over switching times in
    [window] ([window] gives the possible onset times; [Interval.point]
    for a fixed switching time). *)

val of_swept : (float array -> int -> 'a -> unit) -> 'a list -> t
(** [of_swept write xs] superposes swept pulses written as
    {!Pwl.sum_swept} records of {!Pulse.points} breakpoints. For each
    [x], [write buf s x] stores at [buf.(s)] the record of a pulse [p]
    swept over [window]: [p]'s breakpoints ({!Pulse.write_points}),
    then [Interval.lo window -. p.onset], then [Interval.width window].
    The result is {!combine} of the [of_pulse ~window p], bit for bit,
    without building the operands one at a time: each trapezoid is
    written straight into one arena slice and the sum into the front of
    it. {!of_pulse} is the one-record case. *)

val of_waveform : Pwl.t -> t
(** Clips a PWL to be non-negative. Used for pseudo input aggressor
    envelopes, obtained as (noisy − noiseless) victim transitions. *)

val zero : t

val is_zero : t -> bool

val waveform : t -> Pwl.t

val combine : t list -> t
(** Pointwise sum (linear superposition). [combine [] = zero]. A single
    k-way merge over all operands' breakpoints — combining r envelopes
    costs one pass over their union grid, not r pairwise re-merges. *)

val add : t -> t -> t

val scale : float -> t -> t
(** [scale f e] de-rates the envelope by a factor [f] in [\[0, 1\]] —
    every ordinate multiplied by [f] ([f = 1] returns [e] itself).
    Used by the aggressor filter to discount couplings whose switching
    window only partially overlaps the victim's sensitive interval.
    Pointwise [scale f e <= e], so dominance and objectives computed
    from a de-rated envelope only ever shrink. Raises
    [Invalid_argument] outside [\[0, 1\]]. *)

val widen : float -> t -> t
(** [widen d e] extends the envelope as if the underlying aggressor's
    latest switching time increased by [d >= 0]: sliding-max over the
    extra window. Peak height is unchanged, width grows — exactly the
    higher-order aggressor construction of Section 3.3. Requires a
    unimodal envelope. *)

val peak : t -> float
(** Supremum of the envelope. Memoised inside the waveform: O(n) on the
    first call, O(1) after — [Ilist.prune]'s prefilter and {!is_zero}
    lean on this. *)

val encapsulates : ?interval:Tka_util.Interval.t -> t -> t -> bool
(** [encapsulates a b]: [a] is pointwise >= [b], over the given interval
    if any, else everywhere. [encapsulates a b] implies the delay noise
    of [a] is never below that of [b] (Theorem 1). *)

val delay_noise : victim:Transition.t -> t -> float
(** [delay_noise ~victim e]: increase of the victim's [t50] when [e] is
    subtracted from its normalised rising waveform (opposing-direction
    noise, the worst case for delay). Always >= 0; 0 when the envelope
    cannot move the crossing (e.g. ends before [t50]). *)

val crossing_delay : victim:Transition.t -> neg:bool -> Pwl.t -> t -> float
(** [crossing_delay ~victim ~neg w e]: how far past the victim's [t50]
    the last 0.5 upcrossing of [w - e] ([neg]) or [w + e] lies, 0 when
    it lies earlier or there is none. [delay_noise] is the case
    [w = Transition.waveform victim], [neg = true]; a caller scoring many
    envelopes against one victim builds that ramp once. One fused
    co-scan ({!Pwl.last_upcrossing2}): the sum is never built. *)

val floor : Pwl.t -> t -> Pwl.floor
(** [floor w e] indexes [w - e] at level 0.5 ({!Pwl.floor_index}), for
    {!floor_delay}. The index copies the breakpoints out of the arena. *)

val floor_delay : victim:Transition.t -> Pwl.floor -> t -> float
(** [floor_delay ~victim (floor w e) e'] is
    [crossing_delay ~victim ~neg:false (Pwl.sub w e) e'], bit for bit:
    the delay left when [e'] is taken back out of [e]. It co-scans only
    the part of the floor [e'] can change ({!Pwl.floor_upcrossing}). *)

val noisy_waveform : victim:Transition.t -> t -> Pwl.t
(** The superposition [victim - e], clipped to [\[0, 1\]] below/above
    nothing — the raw subtracted waveform whose crossing [delay_noise]
    measures. *)

val support : t -> Tka_util.Interval.t option

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
