(** Brute-force top-k baselines (Section 2 / Table 1 of the paper).

    Enumerates all [C(r, k)] subsets of the circuit's directed
    aggressor–victim couplings ([r = 2 * #coupling caps]) and
    runs a full iterative noise analysis per subset — the reference the
    proposed algorithm is validated against. Complexity is binomial, so
    a wall-clock budget aborts the enumeration exactly as the paper's
    1800-second cutoff did (they could not complete [k > 3] on the
    smallest benchmark).

    When the shared {!Tka_parallel.Pool} has more than one domain the
    enumeration is partitioned into lexicographic rank ranges (via the
    combinatorial number system) scanned concurrently and merged by an
    ordered reduction, so a completed run returns exactly the subset the
    sequential scan would — the lexicographically first one achieving
    the optimal delay — at any jobs count. Each subset is scored by
    {!Refine.exact_delay} and ranked by {!Engine.better}, like the
    exact re-ranking; each rank range scores its subsets through one
    {!Tka_noise.Iterate.ctx} of its own (never shared across domains;
    scores bit-identical to fresh runs), all made from one
    all-aggressor fixpoint.
    Runtimes are monotonic wall-clock seconds ({!Tka_obs.Clock}). *)

type outcome = {
  bf_set : Coupling_set.t option;  (** best subset found, [None] if none finished *)
  bf_delay : float;  (** circuit delay with that subset applied *)
  bf_evaluated : int;  (** subsets fully evaluated *)
  bf_total : int;  (** C(r, k) over directed couplings *)
  bf_completed : bool;  (** false when the time budget expired first *)
  bf_runtime : float;  (** wall-clock seconds spent *)
}

val addition :
  ?budget_s:float -> k:int -> Tka_circuit.Topo.t -> outcome
(** Best k-subset to {e activate} (max circuit delay over subsets).
    Default budget 60 s. *)

val elimination :
  ?budget_s:float -> k:int -> Tka_circuit.Topo.t -> outcome
(** Best k-subset to {e remove} (min circuit delay). *)
