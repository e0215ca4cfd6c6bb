(** Parser for the Liberty-lite cell-library text format.

    A pragmatic subset of the Liberty syntax sufficient for the linear
    cell model of this library:

    {v
    library(tka013) {
      // comment
      cell(NAND2_X1) {
        intrinsic_delay : 0.024;
        drive_resistance : 2.9;
        intrinsic_slew : 0.020;
        slew_resistance : 3.4;
        function : "!(A*B)";
        pin(A) { direction : input; capacitance : 0.0034; }
        pin(B) { direction : input; capacitance : 0.0034; }
        pin(Y) { direction : output; }
      }
    }
    v}

    [//]-to-end-of-line and [/* ... */] comments are skipped.
    {!Default_lib.to_liberty} emits this format, and parsing its output
    returns the identical cell list (round-trip property). *)

type t = { library_name : string; cells : Cell.t list }

val parse : string -> t
(** Parse a library from a string.
    @raise Tka_util.Scan.Parse_error with source ["liberty"] on
    malformed input, with a 1-based line. *)

val parse_file : string -> t
(** Parse from a file path. *)

val find : t -> string -> Cell.t option
