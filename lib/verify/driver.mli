(** The differential verification loop behind [tka verify].

    Rotates through the trial families — brute-force differential
    (k ≤ 3 on small circuits), duality, jobs determinism, incremental
    identity, repair replay, filter soundness, re-ranking identity, and
    parser fuzzing — deterministically from one master
    seed, until the trial count or the wall-clock budget is exhausted.
    Failures are minimized with {!Minimize.ddmin} (circuit couplings,
    duality sets, edit scripts, fuzz-input lines) and returned as
    {!Repro.t} reproducers ready for {!Repro.save}. *)

type summary = {
  vs_trials : int;  (** trials executed (≤ requested when the budget expires) *)
  vs_oracle : int;  (** oracle-family trials among them *)
  vs_fuzz : int;  (** fuzz-family trials among them *)
  vs_skipped : int;  (** trials skipped (budget expiry, degenerate instance) *)
  vs_failures : Repro.t list;  (** minimized reproducers, discovery order *)
  vs_elapsed_s : float;
}

val run :
  ?seed:int ->
  ?trials:int ->
  ?budget_s:float ->
  ?minimize:bool ->
  ?progress:(int -> int -> unit) ->
  unit ->
  summary
(** [run ()] executes the loop. Defaults: seed 1, 500 trials, no time
    budget, minimization on. [progress done_ total] is called after
    every trial. Equal seeds and trial counts reproduce the same trial
    sequence bit for bit. *)

type replay_outcome =
  | Reproduced of string  (** the defect still fires; payload is the fresh detail *)
  | Passed  (** the recorded invariant now holds *)
  | Skipped of string  (** could not re-run (e.g. brute-force budget) *)

val replay : Repro.t -> replay_outcome
(** Re-execute one reproducer. Malformed records (unknown invariant,
    missing payload, unknown cell name) report as [Reproduced] with an
    explanatory detail — a reproducer that cannot be replayed must not
    look fixed. *)
