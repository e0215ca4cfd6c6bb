(** SDF-lite delay annotation.

    Writes the per-gate IOPATH delays of a timing analysis in a
    Standard Delay Format subset, the interchange a downstream
    gate-level simulator or another STA consumes. With delay noise, the
    exported delays carry the extra per-net push, so a plain SDF
    consumer sees the crosstalk-aware timing.

    Subset written/read:

    {v
    (DELAYFILE
      (SDFVERSION "3.0-lite")
      (DESIGN "i1")
      (TIMESCALE 1ns)
      (CELL (CELLTYPE "NAND2_X1") (INSTANCE g1)
        (DELAY (ABSOLUTE
          (IOPATH A Y (0.0591))
          (IOPATH B Y (0.0591)))))
      ...)
    v} *)

val print : delay_of:(Netlist.gate -> float) -> Netlist.t -> string
(** [print ~delay_of nl] renders one CELL per gate with equal IOPATH
    delay per input arc (the linear model is input-independent).
    [delay_of] is usually [Tka_sta.Delay_calc.stage_delay] composed
    with the gate id — add per-net delay noise to export
    crosstalk-aware timing. *)

val write_file :
  delay_of:(Netlist.gate -> float) -> Netlist.t -> string -> unit

type annotation = {
  sdf_design : string option;
  sdf_arcs : (string * string * string * float) list;
      (** instance, from-pin, to-pin, delay (ns) *)
}

val parse : string -> annotation
(** Reads the subset back. Delays must be finite.
    @raise Tka_util.Scan.Parse_error with source ["sdf"] on malformed
    input, with the line number of the offending construct (line 1 for
    an empty file). *)

val check_against :
  annotation ->
  delay_of:(Netlist.gate -> float) ->
  Netlist.t ->
  (string * float * float) list
(** Compare an annotation's arcs against [delay_of] (usually
    [Tka_sta.Delay_calc.stage_delay]); returns mismatches as
    [(instance, sdf_delay, computed)] beyond 1e-6 ns. Unknown
    instances raise {!Netlist.Link_error} with source ["sdf"]. *)
