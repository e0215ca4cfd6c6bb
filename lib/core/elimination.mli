(** Top-k aggressor {e elimination} sets (Section 3.4).

    Given the fully noisy analysis, the top-k elimination set is the
    set of k couplings whose removal (shielding, spacing) reduces
    circuit delay the most — "which k fixes buy the most". Dual of
    {!Addition}: the engine starts from noisy timing windows and
    subtracts candidate envelopes from the victim's total noise
    envelope. {!Refine} re-ranks its candidates exactly, together with
    the dual addition-mode enumeration's. *)

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Tka_noise.Iterate.ctx;  (** the re-ranking ctx ({!Refine.t}) *)
  dual : Engine.result;
      (** the addition-mode enumeration of the same circuit — the
          paper's dual problem ({!Refine.t}) *)
}

val compute :
  ?filter:Tka_filter.Mode.t ->
  ?fixpoint:Tka_noise.Iterate.t ->
  ?victim_cache:(Engine.mode -> Engine.victim_cache option) ->
  k:int ->
  Tka_circuit.Topo.t ->
  t
(** {!Refine.compute} in elimination mode: both dual enumerations,
    sharing one all-aggressor fixpoint. *)

val ranking : t -> Refine.t

val set : t -> int -> Coupling_set.t option
(** The elimination engine's own top-i pick (not the re-ranked one). *)

val dual_set : t -> int -> Coupling_set.t option
(** The dual (addition-ranked) top-i pick. *)

val evaluate : t -> int -> float
val evaluate_curve : t -> ks:int list -> (int * Coupling_set.t * float) list
(** {!Refine.evaluate} and {!Refine.evaluate_curve} of {!ranking}. *)

val estimated_delay : t -> int -> float
(** Engine estimate: noisy delay − predicted benefit. *)

val noiseless_delay : t -> float
val all_aggressor_delay : t -> float
