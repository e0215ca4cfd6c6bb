(** Crosstalk noise pulses.

    A noise pulse is the voltage disturbance coupled onto a quiet (or
    switching) victim by a single aggressor transition at a known time.
    In the linear (Thevenin) framework it is well approximated by a
    unimodal PWL bump: a rise over the aggressor transition time followed
    by an exponential-like decay through the victim driver's holding
    resistance, which we linearise as a two-segment PWL tail.

    The pulse is anchored at the aggressor transition: [onset] is the
    time the aggressor transition begins. *)

type t = private {
  onset : float;  (** time the disturbance starts *)
  peak : float;  (** peak magnitude, in Vdd units, > 0 *)
  rise : float;  (** time from onset to peak, > 0 *)
  decay : float;  (** time constant of the tail, > 0 *)
}

val make : onset:float -> peak:float -> rise:float -> decay:float -> t
(** Raises [Invalid_argument] on non-positive [peak], [rise] or
    [decay]. *)

val waveform : t -> Pwl.t
(** Unimodal PWL: 0 at [onset]; [peak] at [onset + rise]; piecewise
    linear tail dropping to [peak/2] after one [decay] constant and to 0
    after three; 0 afterwards. Always satisfies [Pwl.is_unimodal]. *)

val points : int
(** 4, the breakpoint count of {!waveform}. *)

val write_points : t -> float array -> int -> unit
(** [write_points p a o] stores {!waveform}'s breakpoints [(x, y)]
    interleaved at [a.(o) .. a.(o + 2 * points - 1)], before
    {!Pwl.create} sees them. *)

val peak_time : t -> float
(** [onset + rise]. *)

val end_time : t -> float
(** Time the PWL tail reaches zero, [onset + rise + 3 * decay]. *)

val width_at : float -> t -> float
(** [width_at level p]: length of time the pulse exceeds [level *. peak]
    (0 < level < 1). *)

val shift : float -> t -> t

val scale : float -> t -> t
(** Scale the peak magnitude by a positive factor. *)

val pp : Format.formatter -> t -> unit
