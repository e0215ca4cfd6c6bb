(** Choosing a "good" value of k — the paper's future-work item.

    "Future work includes ... finding a 'good' value of k for
    reasonably fixing noise violations in a design." This module
    implements two standard answers on top of the exact top-k curves:

    - {b coverage}: the smallest k whose top-k set accounts for a given
      fraction of the total delay noise (addition: captures; elimination:
      recovers);
    - {b knee}: the diminishing-returns point of the curve (maximum
      distance from the chord connecting its endpoints — a discrete
      Kneedle). *)

type curve_point = {
  kv_k : int;
  kv_delay : float;  (** exact evaluated circuit delay *)
  kv_fraction : float;  (** of total delay noise captured / recovered *)
}

type recommendation = {
  kv_coverage_k : int option;
      (** smallest k reaching the requested coverage, if any sampled k does *)
  kv_knee_k : int;  (** diminishing-returns k *)
  kv_curve : curve_point list;
}

val sample_ks : kmax:int -> int list
(** Sampling schedule used by the analyses: every k up to 10, then
    every 5th up to [kmax]. *)

val recommend :
  ?coverage:float ->
  ?kmax:int ->
  mode:Engine.mode ->
  Tka_circuit.Topo.t ->
  recommendation
(** [recommend ~mode topo] runs the top-k analysis of [mode] (default
    [kmax = 30], [coverage = 0.8]), evaluates its exact curve
    ({!Refine.evaluate_curve}) at {!sample_ks}, and recommends k
    values. *)

val addition :
  ?coverage:float -> ?kmax:int -> Tka_circuit.Topo.t -> recommendation

val elimination :
  ?coverage:float -> ?kmax:int -> Tka_circuit.Topo.t -> recommendation
(** {!recommend} in one mode. *)

val knee_of_curve : (int * float) list -> int
(** The raw knee finder: x of the point farthest below/above the chord
    between first and last points. Raises [Invalid_argument] on fewer
    than 2 points. *)
