(** Pre-engine aggressor candidate pruning.

    The enumeration cost of the top-k engines is governed by r, the
    number of candidate aggressors per victim: I-list pruning is
    O(r log r) with r envelope constructions, and the exact re-ranking
    enumerates up to C(r, k) subsets. This module shrinks r {e before}
    the engine ever builds a waveform, using information the STA pass
    already produced (timing windows) and, in [Logic] mode, a cheap
    implication analysis of the netlist's cell logic.

    A prepared filter is pure and immutable: the same [t] answers
    queries for every victim of the sweep, from any domain, with no
    shared mutable state — decisions are deterministic at any jobs
    count. Soundness contracts per mode are spelled out in
    [docs/filtering.md]; the [Tka_verify] filter-consistency oracle
    checks them on random circuits. *)

type reason =
  | Window_disjoint
      (** the aggressor's pulse, fired anywhere in its window, cannot
          reach the victim's sensitive interval *)
  | Logic_constant  (** the aggressor net provably never switches *)
  | Logic_correlated
      (** aggressor and victim are phase-locked to the same root with
          the same polarity — an opposing-direction attack is
          logically impossible *)

type decision =
  | Keep
  | Derate of float
      (** keep, but scale the envelope by this factor in (0, 1) —
          the aggressor's reach only partially overlaps the victim's
          sensitive interval *)
  | Drop of reason

type t

val prepare :
  mode:Mode.t ->
  windows:Tka_noise.Envelope_builder.windows ->
  Tka_circuit.Topo.t ->
  t
(** Build a filter for one engine run. [windows] must be the window
    accessor the engine itself builds envelopes from (base windows for
    addition, noisy windows for elimination) — the soundness argument
    identifies the filter's reach computation with the support of the
    envelopes the engine would construct. [Logic] mode runs the
    implication analysis here, once. *)

val mode : t -> Mode.t
val is_off : t -> bool

val derate_threshold : float
(** Overlap fractions at or above this are rounded up to {!Keep}
    (0.85): near-1 fractions measure the sensitive interval's safety
    padding rather than genuine partial overlap, and a full keep both
    reproduces the unfiltered engine exactly for that candidate and
    skips an [Envelope.scale] on the hot path. *)

val decide : t -> Tka_noise.Coupled_noise.directed -> decision
(** Classify a single directed coupling. Always [Keep] when the mode is
    [Off]. *)

val screen :
  t ->
  Tka_noise.Coupled_noise.directed list ->
  Tka_noise.Coupled_noise.directed list * (int -> float)
(** [screen t ds] for one victim's candidate list (all entries share
    [dc_victim]): returns the survivors in their original order, plus a
    de-rate factor lookup keyed by [Coupled_noise.directed_id]
    (1.0 for anything not de-rated). When the mode is [Off] the input
    list is returned physically unchanged — the bit-identical path. *)

(** {1 Survey} *)

type survey = {
  sv_victims : int;  (** nets with at least one candidate aggressor *)
  sv_candidates : int;  (** directed couplings examined *)
  sv_kept : int;  (** survivors, de-rated ones included *)
  sv_derated : int;
  sv_dropped_window : int;
  sv_dropped_constant : int;
  sv_dropped_correlated : int;
}

val survey : t -> survey
(** Walk every victim of the design and classify all its candidates —
    the deterministic r-reduction accounting used by the bench and the
    verification oracle. Pure: never touches engine state, so the
    numbers are identical at any jobs count. *)

val sv_dropped : survey -> int
(** Total drops across all reasons. *)
