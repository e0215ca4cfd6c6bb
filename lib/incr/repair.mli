(** Autonomous ECO repair: the paper's analyze → eliminate → mitigate
    loop, iterated to a delay target under an edit budget.

    [tka eco] applies one elimination set and stops; {!run} is the
    OpenROAD [repair_timing]-style optimizer grown from it. The
    acceptance objective is the total negative slack (TNS) against the
    delay target — the sum over primary outputs of how far each noisy
    arrival exceeds the target. The circuit delay (a max) plateaus
    when two endpoints tie; the TNS sum credits every improved
    endpoint, so the loop keeps moving. Target met ⇔ TNS = 0 ⇔ circuit
    delay ≤ target.

    Each iteration computes the current top-k elimination sets and
    synthesizes candidate edit scripts aimed at the violating
    endpoints, worst first —

    - {e shield}: the {!Eco.removal_edits} of the top [fix_k]
      elimination set retained for a violating sink,
    - {e space}: {!Edit.Scale_coupling} (cap halved) on the same caps,
    - {e strengthen}: {!Edit.Strengthen_driver} on the driver of the
      noisiest net along the worst endpoint's critical path —

    then {e trials} every candidate on a snapshot: the edited design
    state from {!Analyzer.apply} (over a {!Cache.remapped_copy} of the
    victim cache, so the pre-edit state is never mutated), whose
    fixpoint gives the TNS. It accepts the candidate with the lowest
    resulting TNS and discards the rest. A candidate that does
    not strictly reduce the TNS is rolled back simply by never
    adopting its snapshot — the pre-edit analysis survives
    bit-identically. The loop stops when the delay target is met, the
    edit budget is exhausted, no candidate improves, or no candidate
    exists.

    Every trial — accepted or rejected — is journaled; the journal is
    NDJSON (header line, then one {!entry} per line, edits in the
    {!Edit.to_json} format) and {!replay} re-applies the accepted
    entries to reproduce the final netlist, which is how the verify
    oracle checks that the loop's final incremental state is
    bit-identical to a scratch re-analysis. After each accepted edit
    the analyzer cache is checkpointed ({!Analyzer.save_checkpoint}),
    so a later run on the same design warm-starts; [dry_run] suppresses
    both file writes. See [docs/repair.md]. *)

type move = Shield | Space | Strengthen

val move_name : move -> string
(** ["shield"], ["space"] or ["strengthen"]. *)

type entry = {
  en_iter : int;  (** 1-based iteration that trialed this candidate *)
  en_move : move;
  en_edits : Edit.t list;
  en_accepted : bool;
  en_delay_before : float;  (** all-aggressor circuit delay, ns *)
  en_delay_after : float;  (** delay with this candidate applied, ns *)
  en_tns_before : float;  (** TNS against the target, ns *)
  en_tns_after : float;  (** TNS with this candidate applied, ns *)
  en_dirty_nets : int;  (** dirty closure the candidate would invalidate *)
  en_cache_hits : int;  (** victims reused by the trial re-analysis *)
  en_cache_misses : int;  (** victims re-enumerated by the trial *)
}

type outcome =
  | Target_met
  | Budget_exhausted
  | Converged  (** no remaining candidate strictly improves the TNS *)
  | No_candidates  (** the design offers nothing to edit *)

val outcome_name : outcome -> string

type report = {
  rp_circuit : string;
  rp_k : int;
  rp_fix_k : int;
  rp_budget : int;  (** maximum individual edits to apply *)
  rp_dry_run : bool;
  rp_target_delay : float;  (** ns; the loop stops at or below this *)
  rp_noiseless_delay : float;  (** ns, lower bound on any repair *)
  rp_initial_delay : float;  (** all-aggressor delay before any edit, ns *)
  rp_final_delay : float;  (** all-aggressor delay after the loop, ns *)
  rp_iterations : int;
  rp_edits_applied : int;  (** individual edits in accepted candidates *)
  rp_rejected : int;  (** trialed candidates rolled back *)
  rp_outcome : outcome;
  rp_journal : entry list;  (** every trial, in order *)
  rp_curve : (int * float) list;
      (** delay-recovered-per-edit curve: (cumulative edits applied,
          circuit delay ns), starting at [(0, rp_initial_delay)] *)
  rp_identical : bool;
      (** the final incremental analysis is bit-identical to a scratch
          re-analysis of the final netlist ({!Eco.elim_identical});
          [true] vacuously when [verify] was disabled *)
  rp_t_total_s : float;
}

val run :
  ?k:int ->
  ?fix_k:int ->
  ?budget:int ->
  ?target_delay:float ->
  ?recover:float ->
  ?dry_run:bool ->
  ?verify:bool ->
  ?filter:Tka_filter.Mode.t ->
  ?journal:string ->
  ?checkpoint:string ->
  Tka_circuit.Netlist.t ->
  report * Analyzer.t * Tka_topk.Elimination.t
(** [run nl] drives the repair loop and returns the report, the final
    design state (the repaired netlist over the loop's warm cache,
    with its fixpoint and its analysis under [filter] kept) and that
    analysis. The serve [repair] RPC commits the state as it is, so
    the next [analyze] of the repaired design is answered warm.

    [k] (default 10) and [fix_k] (default 1, must be in [[1, k]]) are
    as in {!Eco.run}. [budget] (default 10) caps the {e individual}
    edits applied (a fix_k-cap shield candidate counts fix_k edits); a
    candidate that does not fit the remaining budget is not trialed.
    The delay target is [target_delay] (ns) when given, otherwise
    derived as [initial - recover * (initial - noiseless)] — recover
    the given fraction (default [0.5]) of the total delay noise.
    [recover] must be in [[0, 1]].

    [journal] names the NDJSON journal file, written incrementally
    (header first, then one line per trial). [checkpoint] names the
    cache checkpoint: loaded before the initial analysis when the file
    exists (warm start — a malformed file is a cold start, not an
    error), then re-saved after the initial analysis and after every
    accepted edit. [dry_run] (default false) runs the full loop but
    writes neither file. [verify] (default true) re-analyzes the final
    netlist from scratch and sets [rp_identical]. [filter] (default
    [Off]) selects the engine's aggressor-pruning mode for every
    analysis in the loop — trial analyzers and the verification rerun
    inherit it, and it is hashed into the cache keys, so a checkpoint
    written under one mode never seeds a loop running another.

    @raise Invalid_argument naming the parameter and its range on
    [k < 1], [fix_k] outside [[1, k]], a negative [budget], or
    [recover] outside [[0, 1]]. *)

val report_json : report -> Tka_obs.Jsonx.t
(** The [repair] JSON section: scalar fields of {!report} plus the
    curve as a list of [{"edits":N,"delay_ns":F}] points and the
    journal as a list of {!entry_json} objects. *)

val entry_json : entry -> Tka_obs.Jsonx.t

val entry_of_json :
  lookup:(string -> Tka_cell.Cell.t option) ->
  Tka_obs.Jsonx.t ->
  (entry, string) result

val load_journal :
  lookup:(string -> Tka_cell.Cell.t option) ->
  string ->
  (entry list, string) result
(** Read a journal back (header validated, blank lines skipped). The
    error carries the offending line number. *)

val replay :
  Tka_circuit.Netlist.t -> entry list -> Tka_circuit.Netlist.t
(** Re-apply the {e accepted} entries in order — one {!Edit.apply} per
    entry, the same grouping the loop used, so the result is the
    loop's final netlist, bit for bit. Rejected entries are skipped. *)
