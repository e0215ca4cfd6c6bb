(** Netlist rewriting.

    [Netlist.t] is immutable; design changes (fixing couplings by
    shielding, resizing drivers, re-annotating parasitics) produce a
    new netlist. This module provides the one structure-preserving
    rebuild with hooks; the design edits built on it are
    [Tka_incr.Edit]. *)

val map :
  ?name:string ->
  ?wire_of:(Netlist.net -> float * float) ->
  ?cell_of:(Netlist.gate -> Tka_cell.Cell.t) ->
  ?keep_coupling:(Netlist.coupling -> bool) ->
  ?coupling_cap_of:(Netlist.coupling -> float) ->
  Netlist.t ->
  Netlist.t
(** [map nl] rebuilds [nl] with the same structure:
    - [name] renames the circuit;
    - [wire_of] replaces each net's [(wire_cap, wire_res)];
    - [cell_of] substitutes each gate's cell — the replacement must
      have the same pin names (checked by the builder);
    - [keep_coupling] drops coupling caps (default: keep all);
    - [coupling_cap_of] rescales kept coupling caps.

    Net/gate names, connectivity and port directions are preserved.
    @raise Builder.Invalid if a hook produces an inconsistent design. *)
