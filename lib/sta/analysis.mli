(** Block-based static timing analysis.

    Propagates {!Timing_window} values from primary inputs to outputs in
    one topological pass. The [extra_lat] hook injects a per-net late
    push — this is how the iterative noise analysis ({!Tka_noise})
    feeds delay noise back into the timing graph, and how "what if this
    aggressor set switches" evaluations are performed. *)

type t

val run :
  ?input_arrival:(Tka_circuit.Netlist.net_id -> Timing_window.t) ->
  ?extra_lat:(Tka_circuit.Netlist.net_id -> float) ->
  Tka_circuit.Topo.t ->
  t
(** [run topo] computes windows for every net.

    - [input_arrival] gives primary-input windows (default: all inputs
      switch at exactly t = 0 with {!Delay_calc.default_input_slew});
    - [extra_lat nid] (default 0, must be >= 0) is added to the net's
      LAT after normal propagation, and therefore propagates
      downstream.

    Each gate's stage delay and each net's load are computed once per
    run and kept in the result for {!update}. *)

val update :
  seeds:Tka_circuit.Netlist.net_id list ->
  t ->
  extra_lat:(Tka_circuit.Netlist.net_id -> float) ->
  t * Tka_circuit.Netlist.net_id list
(** [update ~seeds prev ~extra_lat] is [run ~extra_lat] on [prev]'s
    topology and input arrivals, bit for bit, computed event-driven,
    paired with the nets whose window moved (differs bitwise from
    [prev]'s), in no particular order.

    [extra_lat] is read only at the [seeds]; every other net keeps the
    push [prev] was computed with, so [seeds] must name every net whose
    [extra_lat] differs bitwise from [prev]'s (naming more is harmless).
    Propagation starts from the seeds and goes level by level
    ({!Tka_circuit.Topo.net_level}) through the fanout of nets that
    moved: a visited net is recomputed only when its push differs
    bitwise from [prev]'s or one of its fanin windows moved, and a
    recomputed window equal to the old one stops the event. Every other
    window is shared with [prev], and nets that are never reached cost
    nothing beyond two array copies. [~seeds:[]] returns [prev] itself.
    Each recomputation counts in [sta.nets_recomputed]. [prev] is not
    modified. *)

val topo : t -> Tka_circuit.Topo.t
val netlist : t -> Tka_circuit.Netlist.t

val window : t -> Tka_circuit.Netlist.net_id -> Timing_window.t

val circuit_delay : t -> float
(** Max LAT over primary outputs. *)

val worst_output : t -> Tka_circuit.Netlist.net_id
(** The primary output attaining {!circuit_delay} (the "sink node" at
    which the paper's algorithm reads its final irredundant list). *)

val output_arrivals : t -> (Tka_circuit.Netlist.net_id * float) list
(** LAT of every primary output. *)
