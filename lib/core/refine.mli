(** Exact re-ranking of the engine's candidates: one path for both
    modes.

    The engine ranks candidate sets with the static envelope model
    (the paper's Theorem 1 world); the exact fixpoint can disagree when
    in-set feedback — one member widening another member's switching
    window, including mutual aggression across the two directions of
    one physical coupling — amplifies a set beyond what static
    superposition predicts. In practice the exact optimum's members
    still appear scattered across the candidates the engine retained at
    lower cardinalities; what the static ranking got wrong is only
    their {e combination}.

    This module scores the retained candidates, and a bounded
    recombination of their members ({!subsets}), with the full
    iterative analysis ({!exact_delay}), and keeps the best. Addition
    and elimination are the same procedure (the paper's Section 3.4
    duality): only {!Engine.better}, {!Engine.fallback_delay} and the
    active couplings of {!exact_delay} depend on the mode. Elimination
    also ranks the dual (addition-mode) engine's pick and sink lists,
    carried as data in the [dual] field of {!t}. *)

val binomial : int -> int -> int
(** [binomial n k] with saturation at [max_int] instead of overflow. *)

val exact_delay :
  mode:Engine.mode ->
  ?ctx:Tka_noise.Iterate.ctx ->
  Tka_circuit.Topo.t ->
  Coupling_set.t ->
  float
(** The circuit delay of a full iterative noise analysis with the set
    {e added} to a noiseless design (addition: only its couplings
    inject noise) or {e removed} from the noisy one (elimination: every
    coupling but these). Through [ctx] the delay is bitwise the same,
    and faster over many nearby sets ({!Tka_noise.Iterate.ctx}). *)

val default_budget : int
(** Maximum number of recombined subsets per query. *)

val subsets :
  ?budget:int -> universe:int -> k:int -> members:int list -> unit ->
  Coupling_set.t list
(** [subsets ~universe ~k ~members ()] enumerates the k-subsets of the
    pool built from [members] (directed coupling ids, best first,
    duplicates ignored), followed by every member's partner direction
    ([id lxor 1]) in the same order. The pool is truncated from the
    tail until [binomial pool k <= budget]. Returns [[]] when fewer
    than [k] distinct ids are available. *)

type t = {
  result : Engine.result;  (** the enumeration whose candidates are ranked *)
  dual : Engine.result option;
      (** elimination only: the addition-mode enumeration of the same
          circuit. Strong noise contributors are prime removal
          candidates, and the addition objective sees the
          window-feedback amplification a first-order removal benefit
          misses. *)
  topo : Tka_circuit.Topo.t;
  ctx : Tka_noise.Iterate.ctx;
      (** made from the all-aggressor fixpoint the engines read and
          shared by every exact score below: the pool's near-identical
          sets share its base, its passes and most victim evaluations.
          Not thread-safe: re-rank a given [t] from one thread at a
          time. *)
}

val compute :
  ?filter:Tka_filter.Mode.t ->
  ?fixpoint:Tka_noise.Iterate.t ->
  ?victim_cache:(Engine.mode -> Engine.victim_cache option) ->
  mode:Engine.mode ->
  k:int ->
  Tka_circuit.Topo.t ->
  t
(** Enumerate the top-i sets of [mode] for every [i <= k]. Elimination
    also runs the dual addition enumeration. One all-aggressor
    fixpoint, which [fixpoint] can supply precomputed, serves the
    engine run(s) and the exact scores' [ctx].
    [filter] (default [Off]) selects the pre-engine aggressor pruning.
    [victim_cache] supplies the per-mode result cache of the
    incremental layer ([Tka_incr]); each engine run is keyed separately
    because the two modes read different windows. *)

val mode : t -> Engine.mode

val pick : Engine.result -> int -> Coupling_set.t option
(** The engine's own top-i pick; [None] outside [1..k] or when no set
    of that size exists. *)

val pool : t -> int -> Coupling_set.t list
(** Every set {!best_choice} scores for cardinality i: the engine's
    retained sink candidates and the dual pick, then the bounded
    recombination ({!subsets}) of their members and the dual sink
    lists', deduplicated. *)

val best_choice : t -> int -> (Coupling_set.t * float) option
(** The exact winner of {!pool} (the first strictly {!Engine.better}
    delay), with its delay. *)

val evaluate : t -> int -> float
(** The delay of {!best_choice}; {!Engine.fallback_delay} when no set
    of that cardinality exists. *)

val evaluate_curve : t -> ks:int list -> (int * Coupling_set.t * float) list
(** Exact delays for the requested cardinalities (sorted,
    deduplicated), with a monotone repair: each cardinality ranks the
    engine's candidates and the dual pick, plus the previous
    cardinality's set padded by one coupling (a superset is always at
    least as strong), so the curve is monotone like the paper's
    Table 2. *)
