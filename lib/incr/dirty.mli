(** Dirty-set propagation for incremental re-analysis.

    An edit changes the timing of the edited nets; wider (or narrower)
    switching windows change the noise those nets inject into their
    {e coupled neighbours}, whose own delay noise then propagates
    through {e their} fanout — the same feedback that motivates the
    iterative fixpoint of {!Tka_noise.Iterate}. The sound dirty set is
    therefore the closure of the touched nets under the union relation

    {v driver→fanout edges  ∪  coupling adjacency v}

    not the plain fanout cone: a net
    with no structural path from the edit can still see different noise
    through a coupling to the edit's fanout.

    The closure is an upper bound used for reporting (the
    [incr.dirty_nets] counter) and for the level-skipping argument in
    [docs/incremental.md]; the {e exact} per-net re-use decision is the
    fingerprint comparison of {!Fingerprint} — a net inside the closure
    whose inputs happen to be numerically unchanged still hits the
    cache. *)

val closure : Tka_circuit.Topo.t -> Tka_circuit.Netlist.net_id list -> bool array
(** [closure topo seeds]: [true] at every net reachable from a seed via
    fanout edges or coupling adjacency (seeds included). O(V + E + C). *)

val count : bool array -> int
(** Number of dirty nets. *)
