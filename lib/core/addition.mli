(** Top-k aggressor {e addition} sets (Sections 3.1–3.3).

    Given a timing analysis without delay noise, the top-k addition set
    is the set of k aggressor–victim couplings whose delay noise, when
    added, maximises circuit delay — the "which couplings matter most"
    question. This module runs the implicit-enumeration engine in
    addition mode and re-evaluates chosen sets exactly with the
    iterative noise analysis. *)

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Tka_noise.Iterate.ctx;
      (** shared by the exact re-ranking below ({!Tka_noise.Iterate.ctx}):
          the recombination pool evaluates many near-identical coupling
          sets, which share the noiseless base and most victim
          evaluations. Scores through it are bitwise identical to
          {!evaluate_set}. Not thread-safe: re-rank a given [t] from
          one thread at a time. *)
}

val compute :
  ?capacity:int ->
  ?use_pseudo:bool ->
  ?use_higher_order:bool ->
  ?filter:Tka_filter.Mode.t ->
  ?fixpoint:Tka_noise.Iterate.t ->
  k:int ->
  Tka_circuit.Topo.t ->
  t
(** Enumerate top-i addition sets for every [i <= k]. [fixpoint]
    optionally shares a precomputed all-aggressor analysis. [filter]
    (default [Off]) selects the pre-engine aggressor pruning mode. *)

val set : t -> int -> Coupling_set.t option
(** The chosen top-i set (best of the engine's sink candidates by exact
    evaluation). *)

val candidates : t -> int -> Coupling_set.t list
(** The engine's retained sink candidates for cardinality i, best first
    by the first-order score. *)

val pool : t -> int -> Coupling_set.t list
(** Every set {!best_choice} scores for cardinality i: {!candidates}
    then their bounded recombination ({!Refine.subsets}),
    deduplicated. *)

val best_choice : t -> int -> (Coupling_set.t * float) option
(** The exact-evaluation winner of {!pool} (the first strictly
    greatest delay), with its delay. *)

val estimated_delay : t -> int -> float
(** Engine estimate: noiseless delay + predicted noise of the set. *)

val evaluate : t -> int -> float
(** Exact circuit delay of {!best_choice}: a full iterative noise
    analysis restricted to those couplings. Falls back to the noiseless
    delay when no set of that cardinality exists. *)

val evaluate_set : Tka_circuit.Topo.t -> Coupling_set.t -> float
(** Exact delay for an arbitrary addition set. *)

val score : t -> Coupling_set.t -> float
(** {!evaluate_set} on [t]'s topology through the shared [ctx]:
    bitwise the same delay, faster over many nearby sets. *)

val evaluate_curve :
  t -> ks:int list -> (int * Coupling_set.t * float) list
(** Exact delays for the requested cardinalities (sorted, deduplicated),
    with a monotone repair: if the engine's top-k set evaluates worse
    than the top-(k-1) choice, the previous set padded by one coupling
    replaces it (a superset is always at least as strong), so the
    reported curve is monotone like the paper's Table 2. *)

val noiseless_delay : t -> float
val all_aggressor_delay : t -> float
val runtime : t -> float
