(** Metrics registry: named counters, gauges and fixed-bucket
    histograms with O(1) hot-path updates and JSON export.

    Observability is {e off by default}: every update is guarded by a
    single global flag, so instrumented hot paths (the enumeration
    engine, the delay calculator) pay one boolean load and a branch —
    and allocate nothing — when metrics are disabled. Enable with
    {!set_enabled} (the CLI does this when [--metrics-out] is given).

    All instruments are {e domain-safe}: counters use atomic
    fetch-and-add, gauges atomic stores, and histogram cells atomic
    increments with a CAS-retry float accumulator, so updates from the
    parallel engine sweep ([Tka_parallel]) never race or under-count.
    The zero-allocation-when-disabled guarantee is unchanged.

    Metrics register themselves in a {!registry} at creation; creating a
    metric with an existing name in the same registry returns the
    existing instance, so modules can declare their instruments at
    toplevel without coordination. The default registry serialises as a
    flat JSON object keyed by metric name (see
    [docs/observability.md]). *)

type registry

val default_registry : registry
val create_registry : unit -> registry

val set_enabled : bool -> unit
(** Global switch for all updates ([incr]/[add]/[set]/[observe]) in
    every registry. Reads ({!Counter.value}, {!to_json}, ...) always
    work. *)

val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run the thunk with the switch forced to the given value, restoring
    the previous state afterwards (exception-safe). *)

val with_disabled : (unit -> 'a) -> 'a
(** [with_enabled false]: the zero-cost no-op scope. *)

module Counter : sig
  type t

  val make : ?registry:registry -> string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val make : ?registry:registry -> string -> t
  val set : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  val default_buckets : float array
  (** Log-spaced 1e-6 .. 10 (seconds-flavoured). *)

  val make : ?registry:registry -> ?buckets:float array -> string -> t
  (** [buckets] are upper bounds, strictly increasing; an implicit
      overflow bucket collects everything above the last bound. *)

  val observe : t -> float -> unit

  val count : t -> int
  val sum : t -> float
  val buckets : t -> float array
  val counts : t -> int array
  (** Per-bucket counts; length = [Array.length (buckets h) + 1] (the
      last cell is the overflow bucket). *)

  val percentile : t -> float -> float
  (** [percentile h q] estimates the [q]-quantile ([q] in [[0,1]]) from
      the bucket counts, interpolating linearly inside the containing
      bucket; the first bucket's lower bound is 0 and observations in
      the overflow bucket clamp to the last bound. [nan] when the
      histogram is empty. Raises [Invalid_argument] when [q] is outside
      [[0,1]]. *)

  val name : t -> string
end

val find_counter : ?registry:registry -> string -> Counter.t option
val find_gauge : ?registry:registry -> string -> Gauge.t option

val reset : ?registry:registry -> unit -> unit
(** Zero every metric in the registry (instruments stay registered). *)

val to_json : ?registry:registry -> unit -> Jsonx.t
(** Flat object, keys sorted: counters as integers, gauges as floats,
    histograms as [{"buckets":[..],"counts":[..],"sum":s,"count":n,
    "p50":..,"p90":..,"p99":..}] (percentiles are bucket-interpolated
    estimates, [null] when empty). *)

val write_file : ?registry:registry -> string -> unit
(** Pretty-printed {!to_json} to [path]. *)

(** {1 Prometheus text exposition}

    The [tka serve] daemon's [metrics] RPC renders the registry in the
    Prometheus text format (version 0.0.4): one [# TYPE] line per
    metric, counters and gauges as single samples, histograms as
    {e cumulative} [_bucket{le="..."}] samples plus [_sum]/[_count].
    Metric names are sanitised with {!prometheus_name}; label values
    are escaped with {!prometheus_escape_label}. *)

val prometheus_name : string -> string
(** Sanitise to the Prometheus metric-name alphabet
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: every other character becomes ['_']
    (so ["incr.cache_hits"] renders as [incr_cache_hits]), and a
    leading digit is prefixed with ['_']. The empty string becomes
    ["_"]. *)

val prometheus_escape_label : string -> string
(** Escape a label {e value} per the exposition format: backslash,
    double quote and newline are backslash-escaped. *)

val render_prometheus : ?registry:registry -> unit -> string
(** The whole registry, metrics sorted by (sanitised) name. Empty
    histograms still render (all-zero buckets); non-finite gauge values
    render as [NaN]/[+Inf]/[-Inf] as the format specifies. *)
