(** Irredundant lists of candidate aggressor sets (Section 3.2/3.3).

    An entry pairs a coupling set with its combined noise envelope at
    the victim currently being processed and the resulting objective
    value (delay noise for the addition analysis, noise reduction for
    elimination). [I-list_i] holds the non-dominated entries of
    cardinality [i].

    Pruning exploits Theorem 1: entries are sorted by decreasing
    objective, and an entry is dropped when an already-kept entry's
    envelope encapsulates its envelope over the victim's dominance
    interval. A hard capacity bound keeps the worst case polynomial;
    hitting it is counted in {!stats} and reported by the benchmark
    harness (never silent). *)

type entry = {
  couplings : Coupling_set.t;
  envelope : Tka_waveform.Envelope.t;  (** combined, at the current victim *)
  objective : float;  (** what the algorithm maximises at this victim *)
}

type stats = {
  mutable candidates : int;  (** entries offered to pruning *)
  mutable dominated : int;  (** entries removed by dominance *)
  mutable duplicates : int;  (** identical coupling sets merged *)
  mutable capped : int;  (** entries dropped by the capacity bound *)
  mutable checks : int;  (** pairwise dominance tests actually run *)
}

val fresh_stats : unit -> stats
val merge_stats : stats -> stats -> unit
(** [merge_stats acc s] accumulates [s] into [acc]. *)

val default_capacity : int
(** 10 entries per cardinality. *)

val prune :
  ?capacity:int ->
  ?skipped_duplicates:int ->
  interval:Tka_util.Interval.t ->
  stats:stats ->
  entry list ->
  entry list
(** Deduplicate, sort by decreasing objective, drop dominated entries,
    enforce capacity. The result is the irredundant list (objective-
    descending). When {!Tka_obs.Metrics} is enabled, the per-call stats
    deltas are also accumulated into the [engine.*] registry counters
    ([candidate_sets], [sets_pruned], [duplicate_sets],
    [capacity_evictions], [dominance_checks]). Empty and singleton
    inputs short-circuit without allocating the dedupe/prefilter
    machinery; results and stats are exactly those of the general
    path.

    [skipped_duplicates] (default 0) counts candidates the caller
    recognised as repeats of an earlier candidate set and never built:
    they are added to [candidates] and [duplicates] (and the matching
    counters), so the stats equal those of passing the repeats in. *)

val best : entry list -> entry option
(** Highest objective (the head after {!prune}). *)
