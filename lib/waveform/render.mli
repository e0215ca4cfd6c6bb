(** Waveform rendering for debugging and reports.

    Noise-envelope bugs are geometric; being able to {e look} at a
    waveform beats staring at breakpoint lists. This module renders PWL
    waveforms as terminal ASCII plots and as CSV for external plotting.
    Used by the examples and handy in a toplevel. *)

val ascii :
  ?height:int ->
  ?range:Tka_util.Interval.t ->
  (string * Pwl.t) list ->
  string
(** [ascii series] plots the labelled waveforms on one grid
    (72 characters wide, [height] default 16, over the union of their
    breakpoint spans; [range] overrides the x span). Each series is drawn with
    its own glyph, listed in the legend line. Empty list returns "". *)

val csv : ?samples:int -> (string * Pwl.t) list -> string
(** [csv series] samples all series on a common uniform grid (default
    128 points over the union span) with a header row
    ["t,<label>,..."]. *)
