(** Trace analytics behind [tka profile]: aggregate a span list — live
    from {!Tka_obs.Trace.spans}, or reconstructed from a Chrome-trace
    dump — into self/total time per span name, the slowest
    [engine.victim] spans with their prune attribution
    (candidates/dominated/capped from the span args), [tka serve]
    handler time per RPC method (the [serve.request] spans), and allocation
    hotspots from the per-span GC deltas.

    Self time is computed by interval containment on one timeline, so
    under [--jobs] > 1 the attribution of concurrently recorded spans
    is approximate; profile at jobs 1 for exact figures. *)

type agg = {
  ag_name : string;
  ag_cat : string;
  ag_count : int;
  ag_total_s : float;
  ag_self_s : float;  (** total minus enclosed child spans *)
  ag_minor_words : float;
  ag_major_words : float;
  ag_minor_collections : int;
  ag_major_collections : int;
}

type victim = {
  vi_net : string;
  vi_dur_s : float;
  vi_minor_words : float;
  vi_candidates : int option;
  vi_dominated : int option;
  vi_capped : int option;
}

type report = {
  pr_span_count : int;
  pr_wall_s : float;  (** first span start to last span end *)
  pr_aggregates : agg list;  (** total-time descending *)
  pr_requests : agg list;
      (** [serve.request] spans, one row per method (["analyze (memo)"]
          when the session's memo answered), total-time descending *)
  pr_victims : victim list;  (** slowest first, truncated to [top] *)
  pr_alloc_hotspots : agg list;  (** total-allocation descending *)
}

val analyze : ?top:int -> Tka_obs.Trace.span list -> report
(** [top] bounds the victim and hotspot lists (default 10). Instants
    are ignored. *)

val of_trace_json : Tka_obs.Jsonx.t -> Tka_obs.Trace.span list
(** Reconstruct spans from a Chrome-trace document ("X" events only;
    GC fields are recovered from [args]). Raises [Failure] when the
    document has no [traceEvents] array. *)

val of_trace_file : string -> Tka_obs.Trace.span list
(** {!of_trace_json} on a file. Raises [Sys_error] /
    {!Tka_obs.Jsonx.Parse_error} / [Failure]. *)

val render : report -> string
(** Human-readable tables. *)

val to_json : report -> Tka_obs.Jsonx.t
