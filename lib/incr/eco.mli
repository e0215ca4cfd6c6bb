(** The paper's loop, closed end to end: analyze → eliminate →
    mitigate → incrementally re-verify.

    {!run} analyzes a design state, applies the top [fix_k]
    elimination set as a shielding edit ({!Edit.Remove_coupling} on
    each reported cap), then re-analyzes the edited state through the
    {!Analyzer} cache and, when verifying, from scratch too, timing
    both and checking the results are bit-identical. It is the one eco
    path: [tka eco] runs it verifying, the serve [eco] RPC without the
    scratch re-analysis. {!report_json} is its one rendering. *)

type rule = Rule_elim | Rule_dual | Rule_none
(** Which engine produced the applied fix set: the elimination rule,
    the dual (addition) rule after the elimination side had no set of
    the requested cardinality, or neither (no fix exists). *)

val rule_name : rule -> string
(** ["elim"], ["dual"] or ["none"] — the [rule] field of the JSON
    report. *)

type verify = {
  v_identical : bool;
      (** bit-identity of the incremental re-analysis against the
          from-scratch one *)
  v_t_full_s : float;  (** from-scratch re-analysis wall time *)
  v_t_incr_s : float;  (** incremental re-analysis wall time *)
  v_speedup : float;  (** [t_full / t_incr] *)
}
(** The scratch re-verify of an edited design. *)

type report = {
  eco_design : string;  (** the analyzed netlist's name *)
  eco_fix_k : int;
  eco_rule : rule;  (** which rule produced [eco_set] *)
  eco_set : Tka_topk.Coupling_set.t option;
      (** the applied elimination set ([None] if the design has no
          candidates — then no edit is applied, and nothing is
          re-analyzed) *)
  eco_edits : Edit.t list;  (** empty exactly when [eco_set] is [None] *)
  eco_delay_noisy : float;  (** all-aggressor delay before the fix, ns *)
  eco_delay_fixed : float;
      (** all-aggressor delay after the fix, ns ([eco_delay_noisy]
          with no fix) *)
  eco_dirty_nets : int;  (** {!Dirty.closure} size of the edit *)
  eco_couplings : int;  (** physical couplings of the returned state *)
  eco_before : Analyzer.run_stats;
      (** the initial analysis — no hits on a cold start, every victim
          on a checkpoint warm start, a memo answer on a state analyzed
          before *)
  eco_after : Analyzer.run_stats;
      (** the incremental re-analysis of the edited state; all zero
          with no fix *)
  eco_verify : verify option;
      (** [Some] only when verifying and an edit was applied *)
}

val elim_identical : Tka_topk.Elimination.t -> Tka_topk.Elimination.t -> bool
(** Bitwise comparison of every semantic field of both dual engine
    results: per-k choices (sets, objectives, sinks), retained sink
    candidates, pruning stats and the delay figures. [res_runtime] is
    excluded. *)

val removal_edits : Tka_topk.Coupling_set.t -> Edit.t list
(** One {!Edit.Remove_coupling} per physical cap of a set of directed
    couplings (both sides of a cap collapse to one edit), in ascending
    cap order. *)

val check_fix_k : k:int -> int -> unit
(** @raise Invalid_argument naming [fix_k] and its range [[1, k]] when
    [fix_k] lies outside it. *)

val run :
  ?cache:(Tka_circuit.Netlist.t -> seed:(unit -> Cache.t) -> Cache.t) ->
  ?checkpoint:string ->
  ?verify:bool ->
  fix_k:int ->
  Analyzer.t ->
  report * Analyzer.t
(** [run ~fix_k a] executes the loop on state [a] at its {!Analyzer.k}.
    The fix is the elimination set of cardinality [fix_k] when the
    elimination engine has one, else the dual (addition) engine's
    (logged at info), else none (logged as a warning; no edit, and the
    returned state is [a]). The edit goes through {!Analyzer.apply}[
    ?cache]. [checkpoint] names a cache file: loaded into [a] first
    when it exists (warm start), saved right after the initial
    analysis — before any edit remaps the cache to the edited coupling
    table, so a rerun on the same input design reuses it (see the
    universe guard in [docs/incremental.md]). [verify] (default true)
    adds the from-scratch re-analysis and the identity check. With no
    fix, neither re-analysis runs. Returns the report and the edited
    state, whose analysis is kept ({!Analyzer.run} on it is a memo
    answer).

    @raise Invalid_argument on [fix_k] outside [[1, k]]. *)

val report_json : report -> Tka_obs.Jsonx.t
(** The one eco JSON object, shared by [tka eco --json], the bench's
    [eco] section and the serve [eco] reply (which appends
    [fingerprint] and [elapsed_s]): [design], [fix_k], [rule],
    [delay_noisy_ns], [analysis_hits], [analysis_misses], [set] (the
    directed ids, [\[\]] with no fix), [edits], [dirty_nets],
    [delay_fixed_ns], [cache_hits], [cache_misses], then [couplings]
    when an edit was applied, then [identical], [t_full_s], [t_incr_s]
    and [speedup_incr] when the report was verified. *)
