(** Human-readable reports for top-k analyses. *)

val topk : Tka_circuit.Netlist.t -> Refine.t -> ks:int list -> string
(** Multi-line report: the noiseless and all-aggressor delays, then per
    requested cardinality the exact re-ranking winner (by net names),
    the engine estimate and the exact evaluated delay. *)

val addition : Tka_circuit.Netlist.t -> Addition.t -> ks:int list -> string
val elimination : Tka_circuit.Netlist.t -> Elimination.t -> ks:int list -> string
(** {!topk} of {!Addition.ranking} / {!Elimination.ranking}. *)

val set_lines : Tka_circuit.Netlist.t -> Coupling_set.t -> string list
(** One "aggressor -> victim (cap pF)" line per directed coupling. *)
