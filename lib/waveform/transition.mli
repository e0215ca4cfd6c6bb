(** Switching transitions as saturated-ramp waveforms.

    A transition is characterised by its 50%-crossing time [t50] and
    its transition time [slew] (0% to 100% of the linear ramp).
    Voltages are normalised to [Vdd = 1].

    Noise analysis superimposes noise envelopes on these ramps; because
    delay noise on a rising victim is caused by noise pulling the node
    {e down} (and symmetrically for falling), the analysis is carried out
    in the "normalised rising" frame: every transition is the 0 -> 1
    ramp. *)

type t = { t50 : float; slew : float }

val make : t50:float -> slew:float -> t
(** [make ~t50 ~slew] with [slew > 0]. *)

val waveform : t -> Pwl.t
(** Normalised ramp: 0 before [t50 - slew/2], linear to 1 at
    [t50 + slew/2], 1 after. *)

val start_time : t -> float
(** [t50 - slew/2]. *)

val end_time : t -> float
(** [t50 + slew/2]. *)

val shift : float -> t -> t
(** Translate in time. *)

val t50_of_waveform : Pwl.t -> float option
(** Recover the (last) 50% crossing from a normalised waveform. *)

val pp : Format.formatter -> t -> unit
