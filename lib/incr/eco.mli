(** The paper's loop, closed end to end: analyze → eliminate →
    mitigate → incrementally re-verify.

    {!run} computes the top-k elimination sets, applies the top
    [fix_k] set as a shielding edit ({!Edit.Remove_coupling} on each
    reported cap), then re-analyzes the edited design twice — from
    scratch and through the {!Analyzer} cache — timing both and
    checking the results are bit-identical. The report carries the
    speedup and the identity verdict; the bench harness and the
    [tka eco] subcommand serialise it as the [eco] section of
    [BENCH_topk.json]. The fix step between the two analyses ({!fix})
    is shared with the serve [eco] RPC. *)

type rule = Rule_elim | Rule_dual | Rule_none
(** Which engine produced the applied fix set: the elimination rule,
    the dual (addition) rule after the elimination side had no set of
    the requested cardinality, or neither (no fix exists). *)

val rule_name : rule -> string
(** ["elim"], ["dual"] or ["none"] — the [rule] field of the JSON
    report. *)

type report = {
  eco_circuit : string;
  eco_k : int;
  eco_fix_k : int;
  eco_rule : rule;  (** which rule produced [eco_set] *)
  eco_set : Tka_topk.Coupling_set.t option;
      (** the applied elimination set ([None] if the design has no
          candidates — then no edit is applied and the "re-analysis"
          is the initial analysis again) *)
  eco_edits : Edit.t list;
  eco_delay_noisy : float;  (** all-aggressor delay before the fix, ns *)
  eco_delay_fixed : float;  (** all-aggressor delay after the fix, ns *)
  eco_dirty_nets : int;  (** {!Dirty.closure} size of the edit *)
  eco_analysis_hits : int;
      (** victims the {e initial} analysis took from the cache — zero
          on a cold start, every victim on a checkpoint warm start *)
  eco_cache_hits : int;  (** victims reused by the incremental rerun *)
  eco_cache_misses : int;  (** victims re-enumerated *)
  eco_t_full_s : float;  (** from-scratch re-analysis wall time *)
  eco_t_incr_s : float;  (** incremental re-analysis wall time *)
  eco_speedup : float;  (** [t_full / t_incr] *)
  eco_identical : bool;
      (** bit-identity of the incremental re-analysis against the
          from-scratch one *)
}

val results_identical : Tka_topk.Engine.result -> Tka_topk.Engine.result -> bool
(** Bitwise comparison of every semantic field: per-k choices (sets,
    objectives, sinks), retained sink candidates, pruning stats and
    the delay figures. [res_runtime] is excluded. *)

val elim_identical : Tka_topk.Elimination.t -> Tka_topk.Elimination.t -> bool
(** {!results_identical} on both dual engine results. *)

val choose_fix :
  Tka_topk.Elimination.t -> fix_k:int -> rule * Tka_topk.Coupling_set.t option
(** The eco fix rule: the elimination set of cardinality [fix_k] when
    the elimination engine has one, else the dual (addition) engine's
    (logged at info), else none (logged as a warning). *)

val removal_edits : Tka_topk.Coupling_set.t -> Edit.t list
(** One {!Edit.Remove_coupling} per physical cap of a set of directed
    couplings (both sides of a cap collapse to one edit), in ascending
    cap order. *)

type fix = {
  fx_set : Tka_topk.Coupling_set.t;  (** the chosen set *)
  fx_edits : Edit.t list;  (** its {!removal_edits} *)
  fx_state : Analyzer.t;  (** the edited design state *)
  fx_dirty : int;  (** {!Dirty.closure} size of the edit *)
}

val fix :
  ?cache:(Tka_circuit.Netlist.t -> seed:(unit -> Cache.t) -> Cache.t) ->
  Analyzer.t ->
  Tka_topk.Elimination.t ->
  fix_k:int ->
  rule * fix option
(** The eco step over a design state and its analysis: {!choose_fix},
    then {!Analyzer.apply}[ ?cache] of the set's {!removal_edits}
    ([None] and no edit when no set exists). The caller runs the
    post-edit analysis. Shared by {!run} and the serve [eco] RPC. *)

val run :
  ?k:int ->
  ?fix_k:int ->
  ?checkpoint:string ->
  Tka_circuit.Netlist.t ->
  report * Tka_topk.Elimination.t
(** [run nl] executes the loop ([k] defaults to 10, [fix_k] — the
    cardinality of the applied set — to 1). [checkpoint] names a cache
    file: loaded first when it exists (warm start), saved right after
    the initial analysis — before any edit remaps the cache to the
    edited coupling table, so a rerun on the same input design reuses
    it (see the universe guard in [docs/incremental.md]). Returns the
    report and the (incremental) analysis of the fixed design. *)

val report_json : report -> Tka_obs.Jsonx.t
(** The [eco] JSON section ([t_full_s], [t_incr_s], [speedup_incr],
    [identical], counters, delays). *)
