(** Perf-regression comparison behind [tka bench-diff].

    Flattens two benchmark documents (each a [BENCH_topk.json]) to
    dotted numeric paths, keeps the paths that mark performance
    figures, and compares each metric present in both:

    - {e lower is better}: every path under [section_runtime_s], and
      leaves ending in [_s], [_seconds], [_bytes] or [_words], or
      containing [runtime] or [rss];
    - {e higher is better}: leaves containing [speedup];
    - everything else (delays, prune counters, set contents) is
      correctness data and is ignored.

    A metric regresses when its ratio crosses the relative [threshold]
    the wrong way. Metrics below a noise floor in both files (default
    50 ms for timings, 1 Mwords for allocation/RSS figures) are
    skipped: tiny timings jitter by integer factors between runs. *)

type direction = Lower_better | Higher_better

type metric = {
  m_path : string;
  m_base : float;
  m_new : float;
  m_direction : direction;
  m_ratio : float;  (** new/base; 1.0 when both are 0 *)
}

type result = {
  bd_threshold : float;
  bd_checked : metric list;
  bd_regressions : metric list;
  bd_improvements : metric list;
  bd_skipped_small : int;
  bd_only_base : string list;  (** perf paths missing from the new file *)
  bd_only_new : string list;
}

val default_min_seconds : float
(** The default timing noise floor (0.05 s). *)

val compare_docs :
  ?threshold:float -> ?min_seconds:float -> Tka_obs.Jsonx.t -> Tka_obs.Jsonx.t
  -> result
(** [compare_docs base next]. [threshold] is relative (default [0.20] =
    ±20%); [min_seconds] is the timing noise floor (default 0.05). *)

val has_regressions : result -> bool

val load_file : string -> Tka_obs.Jsonx.t
(** Parse a bench file, one JSON document. Raises
    {!Tka_obs.Jsonx.Parse_error} with the path in its message when the
    file is not one. *)

val render : result -> string
val to_json : result -> Tka_obs.Jsonx.t
