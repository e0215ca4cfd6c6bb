(** Top-k aggressor {e addition} sets (Sections 3.1–3.3).

    Given a timing analysis without delay noise, the top-k addition set
    is the set of k aggressor–victim couplings whose delay noise, when
    added, maximises circuit delay — the "which couplings matter most"
    question. This module runs the implicit-enumeration engine in
    addition mode; {!Refine} re-ranks its candidates exactly. *)

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  ctx : Tka_noise.Iterate.ctx;  (** the re-ranking ctx ({!Refine.t}) *)
}

val compute :
  ?filter:Tka_filter.Mode.t ->
  ?fixpoint:Tka_noise.Iterate.t ->
  k:int ->
  Tka_circuit.Topo.t ->
  t
(** {!Refine.compute} in addition mode. *)

val ranking : t -> Refine.t

val set : t -> int -> Coupling_set.t option
(** The chosen top-i set: the exact re-ranking winner. *)

val evaluate : t -> int -> float
val evaluate_curve : t -> ks:int list -> (int * Coupling_set.t * float) list
(** {!Refine.evaluate} and {!Refine.evaluate_curve} of {!ranking}. *)

val estimated_delay : t -> int -> float
(** Engine estimate: noiseless delay + predicted noise of the set. *)

val noiseless_delay : t -> float
val all_aggressor_delay : t -> float
