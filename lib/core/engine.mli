(** The implicit-enumeration engine (Fig. 9 of the paper).

    Shared machinery behind {!Addition} and {!Elimination}. Victim nets
    are visited in topological order; for each victim, irredundant lists
    [I-list_1 .. I-list_k] of candidate coupling sets are built by:

    + extending every entry of [I-list_{i-1}] with one more
      non-dominated primary aggressor;
    + adding pseudo input aggressor sets of cardinality [i], propagated
      from the driver's input nets (each input contributes according to
      how much its delay noise actually moves this net's latest
      arrival);
    + adding higher-order aggressors of innate cardinality [i]: a
      primary aggressor whose switching window is widened (addition) or
      narrowed (elimination) by the best [(i-1)]-set attacking the
      aggressor net itself;
    + pruning by envelope dominance over the victim's dominance
      interval.

    Each net retains only a per-cardinality summary (best set and its
    objective); the full lists live only while their victim is being
    processed, so memory stays linear in circuit size.

    The final per-cardinality answers are read from the irredundant
    lists of the primary outputs ("the sink node"), selecting, for each
    [i], the output and entry with the worst resulting arrival. *)

type mode = Addition | Elimination

val mode_name : mode -> string
(** ["addition"] or ["elimination"], as logs, traces and reports
    spell it. *)

val mode_names : (string * mode) list
(** The short spelling users type and read back: ["add"], ["elim"]
    (the CLI's [--mode], the serve protocol's ["mode"]). *)

val mode_tag : mode -> int
(** 0 for addition, 1 for elimination: the stable number the
    incremental layer hashes and persists ([Tka_incr]). *)

val better : mode -> float -> float -> bool
(** [better mode d d']: delay [d] is strictly better than [d'] for the
    mode's objective — larger for addition (the set hurts most),
    smaller for elimination (removing it helps most). Every exact
    ranking (re-ranking, brute force) keeps the first strictly better
    set. *)

type config = {
  k : int;  (** maximum cardinality to enumerate *)
  capacity : int;  (** irredundant-list capacity per cardinality *)
  use_pseudo : bool;  (** enable pseudo input aggressors (ablation) *)
  use_higher_order : bool;  (** enable higher-order aggressors (ablation) *)
  filter : Tka_filter.Mode.t;
      (** pre-engine aggressor candidate pruning: [Off] is the
          historical, bit-identical behaviour; [Window] drops
          provably non-overlapping aggressors (de-rating partial
          overlaps); [Logic] adds implication-based drops. The filter
          runs once per victim, before any envelope is built — see
          [docs/filtering.md] *)
}

val default_config : k:int -> config
(** Capacity {!Ilist.default_capacity}, both features on, filter
    {!Tka_filter.Mode.Off}. *)

type choice = {
  ch_set : Coupling_set.t;
  ch_objective : float;
      (** delay noise added (addition) or removed (elimination), at the
          chosen sink, in ns *)
  ch_sink : Tka_circuit.Netlist.net_id;  (** primary output it was read from *)
}

type result = {
  res_mode : mode;
  res_config : config;
  res_per_k : choice option array;  (** index 1..k; [None] if no candidates *)
  res_top : choice list array;
      (** per cardinality, the best few sink candidates by first-order
          score (best first) — the paper reads the sink's whole
          irredundant list; callers re-rank these by exact analysis *)
  res_stats : Ilist.stats;
  res_noiseless_delay : float;
  res_noisy_delay : float;  (** all-aggressor fixpoint delay *)
  res_runtime : float;
      (** monotonic wall-clock seconds for the enumeration
          ({!Tka_obs.Clock}) *)
}

(** {1 Victim-level result caching}

    Hook used by the incremental re-analysis layer ([Tka_incr]): the
    per-victim unit of work — the summary a net publishes, the sink
    irredundant lists of primary outputs, the pruning stats, and the
    direct-only aggressor summaries the victim consulted — can be
    injected from a cache instead of being recomputed. The engine
    stays agnostic about cache keys; the provider decides when a
    stored record is still valid (content-addressed hashing in
    [Tka_incr.Fingerprint]).

    A cached record must have been produced by a run with the same
    config and mode on a netlist where every input of the victim's
    enumeration (fanin-cone summaries, windows, couplings, parasitics)
    is unchanged; then installing it is observationally identical to
    recomputation — including [res_stats], because the consulted
    direct summaries (and their stats) are replayed into the sweep's
    per-net direct-summary slots. Envelopes are not stored: nothing downstream of a
    published summary reads them. *)

type cardinality_summary = (Coupling_set.t * float) list array
(** Per cardinality [0..k], the retained [(set, objective)] pairs,
    best first — the shape of a published net summary. *)

type cached_victim = {
  cv_summary : cardinality_summary;  (** the summary the net published *)
  cv_out : cardinality_summary option;
      (** sink irredundant lists, present iff the net is a primary
          output (envelope-free: sink selection reads only sets and
          objectives) *)
  cv_stats : Ilist.stats;  (** the victim's own pruning stats *)
  cv_direct : (Tka_circuit.Netlist.net_id * cardinality_summary * Ilist.stats) list;
      (** direct-only summaries of the same-or-higher-level aggressor
          nets this victim's higher-order candidates read, in pool
          order (deduplicated) *)
}

type victim_cache = {
  vc_lookup :
    summary_of:(Tka_circuit.Netlist.net_id -> cardinality_summary) ->
    Tka_circuit.Netlist.net_id ->
    cached_victim option;
  vc_store : Tka_circuit.Netlist.net_id -> cached_victim -> unit;
}
(** [vc_lookup] receives an accessor into the sweep's live summary
    array so the provider can key a victim on the {e values} its
    enumeration will consult. The sweep is level-synchronous, so when
    a victim at level [l] is looked up, every net at a strictly lower
    level — its driver fanins and the coupling partners whose
    published summaries it reads — is final; the accessor must only
    be applied to such nets, and only during the lookup. Both
    functions may be called concurrently from pool workers; the
    provider must be domain-safe. [vc_store] is called once per
    processed (non-cached) victim, after its lookup missed. *)

val compute :
  config:config ->
  fixpoint:Tka_noise.Iterate.t ->
  ?victim_cache:victim_cache ->
  mode:mode ->
  Tka_circuit.Topo.t ->
  result
(** Run the enumeration. [fixpoint] is the all-aggressor iterative
    analysis ({!Tka_noise.Iterate.run}) of the same topology, which the
    engine never computes itself: callers sharing it across runs (both
    modes, a sweep of k) measure the enumeration alone.

    The topological sweep runs level by level on the shared
    {!Tka_parallel.Pool}, in three batches per level (cache lookups,
    direct-only summaries, visits) at every jobs count; results —
    sets, objectives and [res_stats] — are bit-identical at any jobs
    count (see [docs/parallelism.md]). *)

val fallback_delay : result -> float
(** The circuit delay when no set applies: the noiseless delay for
    addition (nothing added), the all-aggressor delay for elimination
    (nothing removed). *)

val estimated_delay : result -> int -> float
(** [estimated_delay r i]: the circuit delay the engine predicts for
    the top-[i] set — {!fallback_delay} + objective for addition,
    {!fallback_delay} − objective for elimination, at least the
    noiseless delay; {!fallback_delay} when no set of size [i] exists.
    Exact re-evaluation is provided by {!Refine.evaluate}. *)
