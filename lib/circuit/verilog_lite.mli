(** Structural Verilog netlist interchange.

    A gate-level subset of Verilog-2001 sufficient for mapped netlists,
    so circuits can be exchanged with standard EDA tools:

    {v
    module i1 (a, b, y);
      input a, b;
      output y;
      wire n1;

      NAND2_X1 g1 (.A(a), .B(b), .Y(n1));
      INV_X1   g2 (.A(n1), .Y(y));
    endmodule
    v}

    Supported: scalar ports/wires, named-port instances, [//] and
    [/* */] comments, and {e hierarchy}: a file may define several
    modules instantiating each other; the design is flattened under the
    top module (the one never instantiated) with ["inst/"]-prefixed
    names, as a synthesis flow would. Not supported (rejected with a
    clear error): vectors, assigns, behavioural constructs, parameters,
    recursive instantiation.

    Verilog carries no parasitics: parsed netlists get default wire RC
    and no coupling caps — annotate with {!Spef_lite.apply} afterwards,
    as a standard flow would. {!print} emits this format; round-trips
    through {!parse} up to the default parasitics. *)

val parse :
  lookup:(string -> Tka_cell.Cell.t option) -> string -> Netlist.t
(** @raise Tka_util.Scan.Parse_error with source ["verilog"] on
    malformed or unsupported input. *)

val parse_file :
  lookup:(string -> Tka_cell.Cell.t option) -> string -> Netlist.t

val print : Netlist.t -> string
(** Structural Verilog for the netlist (couplings and parasitics are
    not representable and are dropped; pair with {!Spef_lite.print}). *)

val write_file : Netlist.t -> string -> unit
