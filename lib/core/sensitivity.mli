(** Robustness of top-k sets to extraction uncertainty.

    Extracted coupling capacitances carry 10–20 % error; a fix list is
    only actionable if it survives that uncertainty. This module
    perturbs every coupling cap by a bounded random factor, recomputes
    the top-k analysis on each perturbed design, and reports how stable
    the chosen sets and their delays are — the robustness check a
    signoff team would run before committing shield resources. *)

type report = {
  sr_k : int;
  sr_trials : int;
  sr_jaccard_mean : float;
      (** mean Jaccard similarity between the nominal top-k set and
          each perturbed trial's top-k set (1.0 = always identical) *)
  sr_jaccard_min : float;
  sr_always_chosen : Coupling_set.t;
      (** couplings present in the nominal set and in {e every}
          perturbed trial's set — the robust core of the fix list *)
  sr_delay_spread : float * float;
      (** min and max evaluated top-k delay across trials, ns *)
}

val jaccard : Coupling_set.t -> Coupling_set.t -> float
(** |A ∩ B| / |A ∪ B|; 1.0 for two empty sets. *)

val assess :
  ?trials:int ->
  ?noise_pct:float ->
  mode:Engine.mode ->
  rng:Tka_util.Rng.t ->
  k:int ->
  Tka_circuit.Netlist.t ->
  report
(** [assess ~mode ~rng ~k nl] perturbs each coupling cap uniformly in
    [±noise_pct] (default 15 %), [trials] times (default 10), and
    compares each perturbed top-k set of [mode] (the exact re-ranking
    winner, {!Refine.best_choice}) against the nominal one. *)

val addition :
  ?trials:int ->
  ?noise_pct:float ->
  rng:Tka_util.Rng.t ->
  k:int ->
  Tka_circuit.Netlist.t ->
  report

val elimination :
  ?trials:int ->
  ?noise_pct:float ->
  rng:Tka_util.Rng.t ->
  k:int ->
  Tka_circuit.Netlist.t ->
  report
(** {!assess} in one mode. *)
