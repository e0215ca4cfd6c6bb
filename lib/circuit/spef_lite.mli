(** SPEF-lite parasitic annotation.

    Reads a simplified Standard Parasitic Exchange Format file and
    annotates an existing netlist with extracted parasitics: per-net
    ground capacitance/resistance and net-to-net coupling capacitors.
    This mirrors the paper's flow, where a commercial extractor produced
    the distributed RC that the noise tool consumed.

    Supported subset:

    {v
    *SPEF "IEEE 1481-lite"
    *DESIGN i1
    *T_UNIT 1 NS
    *C_UNIT 1 PF
    *R_UNIT 1 KOHM

    *D_NET n1 0.0123
    *RES 1.3
    *CAP
    1 n1 0.0093
    2 n1 n2 0.0030
    *END
    v}

    Inside a [*CAP] section, a two-token entry is a ground capacitor and
    a three-token entry a coupling capacitor; the first field is an
    index and is ignored. [*D_NET]'s trailing number (total cap) is
    informational. Coupling caps are deduplicated across the two nets'
    [*D_NET] blocks (the same physical capacitor may be listed in both,
    as real extractors do): the larger value is kept, and a warning is
    logged only when the listings differ. *)

type annotation = {
  design : string option;
  ground : (string * float * float) list;
      (** net, wire-to-ground cap (pF), wire resistance (kΩ) *)
  couplings : (string * string * float) list;
      (** net, net, coupling cap (pF); deduplicated *)
}

val parse : string -> annotation
(** @raise Tka_util.Scan.Parse_error with source ["spef"] on malformed
    input, with the offending line (an unterminated [*D_NET] reports
    its opening line). Capacitance and resistance values must be
    finite. *)

val parse_file : string -> annotation

val apply : annotation -> Netlist.t -> Netlist.t
(** Rebuilds the netlist with the annotation's parasitics: wire cap/res
    replaced for every annotated net, all prior couplings dropped and
    replaced by the annotation's. Unknown net names raise
    {!Netlist.Link_error} with source ["spef"]. *)

val print : Netlist.t -> string
(** Renders a netlist's parasitics in the SPEF-lite format (round-trips
    through {!parse} + {!apply}). *)
