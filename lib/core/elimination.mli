(** Top-k aggressor {e elimination} sets (Section 3.4).

    Given the fully noisy analysis, the top-k elimination set is the
    set of k couplings whose removal (shielding, spacing) reduces
    circuit delay the most — "which k fixes buy the most". Dual of
    {!Addition}: the engine starts from noisy timing windows and
    subtracts candidate envelopes from the victim's total noise
    envelope. *)

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Tka_noise.Iterate.ctx;
      (** shared by the exact re-ranking — see {!Addition.t};
          sequential use only *)
  dual : Engine.result;
      (** the addition-mode enumeration of the same circuit — the
          paper's dual problem. Strong noise contributors are prime
          removal candidates, and the addition objective sees the
          window-feedback amplification a first-order removal benefit
          misses; evaluation picks the better of the two per k. *)
}

val compute :
  ?capacity:int ->
  ?use_pseudo:bool ->
  ?use_higher_order:bool ->
  ?filter:Tka_filter.Mode.t ->
  ?fixpoint:Tka_noise.Iterate.t ->
  ?victim_cache:(Engine.mode -> Engine.victim_cache option) ->
  k:int ->
  Tka_circuit.Topo.t ->
  t
(** Run both dual enumerations (sharing one all-aggressor fixpoint,
    which [fixpoint] can supply precomputed). [victim_cache] supplies
    the per-mode result cache of the incremental layer ([Tka_incr]);
    each engine run is keyed separately because the two modes read
    different windows. *)

val set : t -> int -> Coupling_set.t option
(** The elimination engine's own top-i pick. *)

val dual_set : t -> int -> Coupling_set.t option
(** The dual (addition-ranked) top-i candidate. *)

val candidates : t -> int -> Coupling_set.t list
(** All candidates considered for exact re-ranking at cardinality i:
    the elimination engine's retained sink entries plus the dual
    pick, deduplicated. *)

val estimated_delay : t -> int -> float
(** Engine estimate: noisy delay − predicted benefit. *)

val pool : t -> int -> Coupling_set.t list
(** Every set {!best_choice} scores for cardinality i: {!candidates}
    then the bounded recombination ({!Refine.subsets}) of their
    members and the dual engine's, deduplicated. *)

val best_choice : t -> int -> (Coupling_set.t * float) option
(** The exact-evaluation winner of {!pool} (the first strictly
    smallest delay), with its delay. *)

val evaluate : t -> int -> float
(** Exact circuit delay with the better of {!set} and {!dual_set}
    removed (full iterative analysis of everything else). Falls back
    to the all-aggressor delay when no set exists. *)

val evaluate_set : Tka_circuit.Topo.t -> Coupling_set.t -> float
(** Exact delay with an arbitrary set removed. *)

val score : t -> Coupling_set.t -> float
(** {!evaluate_set} on [t]'s topology through the shared [ctx]. *)

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
(** Enumeration CPU time, both engines. *)
