(** Topological utilities over a netlist.

    The top-k algorithm propagates irredundant lists "in topological
    order" (Section 3 of the paper); this module provides that order,
    its grouping by logic level, and the fanin-cone couplings that
    indirect aggressors reach through. A [t] is immutable after
    {!create}, so domains may share it. *)

type t

val create : Netlist.t -> t
(** Precomputes orders, levels and adjacency. O(V + E). *)

val netlist : t -> Netlist.t

val gate_order : t -> Netlist.gate_id array
(** Gates in topological order (fanin before fanout). *)

val net_order : t -> Netlist.net_id array
(** Nets in topological order: primary inputs first (creation order),
    then each gate output as its gate is ordered. *)

val net_level : t -> Netlist.net_id -> int
(** Logic depth: 0 for primary inputs, 1 + max over fanin otherwise. *)

val max_level : t -> int

val level_nets : t -> Netlist.net_id array array
(** Nets grouped by logic depth: [(level_nets t).(l)] lists the nets of
    level [l] in {!net_order} order. Because {!net_order} is produced by
    a FIFO (Kahn) traversal it is level-monotone, so concatenating the
    groups in increasing [l] reproduces {!net_order} exactly. A net's
    fanin lies strictly below its own level, which is what makes a
    level-synchronous parallel sweep safe (see [docs/parallelism.md]). *)

val fanin_cone_couplings : t -> Netlist.net_id -> Netlist.coupling_id list
(** All coupling caps incident to any net in the strict fanin cone of
    the given net (excluding couplings that touch only the net
    itself). These are the candidate indirect-aggressor couplings. *)

val sinks_reachable_from : t -> Netlist.net_id -> Netlist.net_id list
(** Primary-output nets reachable from the given net. *)
