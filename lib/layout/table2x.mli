(** Synthetic 100k–1M-net circuits for the table2x scaling benchmarks.

    The Table 2 suite tops out near 19k couplings; this generator
    targets two orders of magnitude more. It skips the placed-and-
    routed flow entirely and emits the netlist directly: [tx_cones]
    mutually independent levelised cell DAGs — no net, gate or coupling
    crosses a cone boundary, so the circuit has at least [tx_cones]
    connected components — with
    coupling caps drawn between nets of the same or adjacent logic
    levels inside a cone (overlapping switching windows, i.e. real
    aggressors). Each cone folds its sink-less nets through a collector
    tree into a single primary output, so a design has one primary
    output per cone. (Sink selection is linear in the output count
    either way; the trees stay because the fingerprint below pins
    them.)

    Generation is fully deterministic in the spec (a single seeded
    stream, fixed draw order): the Tka_verify oracle pins a fingerprint
    of the generated netlist by seed. *)

type spec = {
  tx_name : string;
  tx_nets : int;  (** target net count (approximate: collector trees add a few percent) *)
  tx_cones : int;  (** independent fanout cones = minimum component count *)
  tx_max_fanout : int;  (** resampling bound on net fanout *)
  tx_seed : int;
}

val spec :
  ?cones:int ->
  ?max_fanout:int ->
  ?seed:int ->
  nets:int ->
  unit ->
  spec
(** Spec with defaults: cones scaled as [nets / 2000] clamped to
    [4, 512], max fanout 6, seed 11007; 2.0 coupling caps per net on
    average. [nets] must be at
    least 64. *)

val generate : spec -> Tka_circuit.Netlist.t

val spec_of_name : string -> spec option
(** ["t2x-100k"], ["t2x-1m"], ["t2x-<nets>"] (also [k]/[m] suffixed).
    Default knobs; the given name is kept as the circuit name. *)

val by_name : string -> Tka_circuit.Netlist.t option
(** [generate] composed with {!spec_of_name}. *)
