(** Plain-text netlist interchange format.

    Line-oriented, one declaration per line; [#] starts a comment.

    {v
    circuit i1
    input a cap=0.005 res=0.5
    input b
    net n1 cap=0.012 res=1.1
    gate g1 NAND2_X1 A=a B=b Y=n1
    output n1
    coupling n1 a cap=0.0031
    v}

    - [input]/[net] declare nets (parasitics optional);
    - [gate] instantiates a library cell, binding every pin;
    - [output] marks a primary output (sink-less nets are implicit
      outputs);
    - [coupling] declares a coupling capacitance between two nets.

    Nets must be declared before they are referenced. Cell names are
    resolved through the [lookup] argument (e.g.
    [Tka_cell.Default_lib.find]). {!print} emits this format and
    {!parse} reads it back (round-trip). *)

val parse :
  lookup:(string -> Tka_cell.Cell.t option) -> string -> Netlist.t
(** Parse a netlist from a string.
    @raise Tka_util.Scan.Parse_error with source ["netlist"] and a
    1-based line number on malformed input, unknown cells, or
    structural problems (reported at the offending line). *)

val parse_file :
  lookup:(string -> Tka_cell.Cell.t option) -> string -> Netlist.t

val print : Netlist.t -> string
(** Canonical rendering: circuit, inputs, nets, gates, outputs,
    couplings — parseable by {!parse}. *)

val write_file : Netlist.t -> string -> unit
