(** Content-addressed key ingredients for per-victim engine results.

    The cache key of a victim [v] hashes {e exactly the inputs} its
    per-victim enumeration reads (conservatively over-approximated — an
    extra input can only cause a spurious miss, never a wrong hit).
    Static ingredients are precomputed here, once per run and mode:

    - [fp_cfg]: the run configuration (mode, k, capacity, feature
      toggles) under a format-version salt;
    - [fp_sig]: each net's electrical signature — parasitics, loads,
      holding resistance, driver cell model and stage delay, output
      flag, fanin pins, and the {e mode's} post-fixpoint timing.
      Addition aligns aggressors inside {e noiseless} windows, so its
      signature folds only the base window; Elimination folds the
      noisy window and the net's delay noise as well. This asymmetry
      matters: an ECO edit ripples the noisy windows of a large cone
      but typically leaves base windows untouched outside the edit's
      electrical neighbourhood, so Addition-mode results survive edits
      that invalidate Elimination-mode ones;
    - [fp_hd]: each net's direct-only hash — what the engine's
      direct-only enumeration of the net reads: its own signature plus every
      incident coupling's capacitance and partner signature (one hop,
      no recursion);
    - [fp_stable]: a content-stable 64-bit name per {e directed}
      coupling — victim net, aggressor net, capacitance bits, and an
      occurrence rank among parallel same-cap couplings of the same
      pair. Published summaries contain directed coupling ids, which
      compact when a cap is removed; hashing summary {e values} under
      these stable names keeps keys comparable across edits.

    The dynamic ingredient — the value hash of the summaries a victim
    consults (lower-level coupling partners and driver fanins) — cannot
    be precomputed: it must reflect what this run actually published.
    {!Analyzer} folds it in at lookup time, inside the engine's
    level-synchronous sweep, where lower levels are final. A victim
    whose upstream was re-enumerated {e to identical values} therefore
    still hits — the invalidation cascade stops at the first layer of
    unchanged summaries instead of sweeping the whole structural cone.
    Raw coupling ids appear nowhere: the engine's id-based tie-breaks
    depend only on {e relative} order, which
    {!Tka_circuit.Transform.map} preserves. The soundness argument is
    spelled out in [docs/incremental.md]. *)

type t = {
  fp_cfg : Fnv.t;  (** configuration + mode + version salt *)
  fp_sig : Fnv.t array;  (** per net: mode-aware electrical signature *)
  fp_hd : Fnv.t array;  (** per net: direct-only (one-hop) hash *)
  fp_stable : Fnv.t array;
      (** per directed coupling id (length [2 * num_couplings]):
          content-stable name, invariant under id compaction *)
}

val compute :
  config:Tka_topk.Engine.config ->
  mode:Tka_topk.Engine.mode ->
  fix:Tka_noise.Iterate.t ->
  Tka_circuit.Topo.t ->
  t
(** One pass over nets and couplings: pure hashing, no waveform work,
    no recursion — cheap relative to any enumeration. *)

val universe : Tka_circuit.Netlist.t -> Fnv.t
(** Hash of the coupling table (net pair and capacitance per id, in id
    order): the namespace cached coupling ids index into. See
    {!Cache}'s coupling-id coherence note. *)
