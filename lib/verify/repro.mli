(** Self-contained failure reproducers.

    When the oracle or the fuzzer finds a defect, everything needed to
    rerun the check — the (minimized) circuit as netlist text, the
    edit script, the duality set, the fuzz input — is captured in one
    record and dumped as a line of NDJSON. [tka verify --replay FILE]
    reads the file back and re-executes every record, so a reproducer
    survives the session that found it (and CI uploads the file as an
    artifact). See [docs/verification.md] for the format. *)

type t = {
  rp_invariant : string;
      (** ["brute"], ["duality"], ["jobs"], ["incr"], or ["fuzz_<fmt>"] *)
  rp_seed : int;  (** master seed of the run that found it *)
  rp_trial : int;  (** trial index within that run *)
  rp_detail : string;  (** human-readable failure description *)
  rp_k : int option;
  rp_netlist : string option;  (** tka text format (minimized) *)
  rp_set : int list option;  (** directed coupling ids (duality) *)
  rp_edits : Tka_incr.Edit.t list option;
      (** minimized ECO script (incr), in {!Tka_incr.Edit.to_json}'s
          wire format *)
  rp_input : string option;  (** minimized parser input (fuzz) *)
}

val to_json : t -> Tka_obs.Jsonx.t
val of_json : Tka_obs.Jsonx.t -> (t, string) result
(** Edit cell names resolve in {!Tka_cell.Default_lib}; an edit the
    wire format rejects (an unknown op or cell) is an [Error]. *)

val save : string -> t list -> unit
(** Write one compact JSON object per line (NDJSON). *)

val load : string -> (t list, string) result
(** Read an NDJSON reproducer file; blank lines are skipped. The error
    carries the first offending line number. *)
