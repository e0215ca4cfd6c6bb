(** Structured, leveled, per-source logging.

    Replaces the ad-hoc [printf]/[Logs] mixture of the early repo. Each
    subsystem creates a named {!Src.t} ([engine], [iterate], [spef],
    [liberty], [verilog], ...); messages carry a severity level plus
    optional structured fields (key/JSON-value pairs), and are routed to
    a pluggable {!reporter}: human text on stderr (default), NDJSON to a
    channel, an in-memory buffer for tests, or any combination.

    Filtering is two-stage and cheap: a message whose level is disabled
    for its source never formats its arguments (the continuation-passing
    interface mirrors the [logs] library).

    Level resolution per source: the source's own override if set,
    otherwise the global level. The environment variable [TKA_LOG]
    (e.g. [TKA_LOG=debug] or [TKA_LOG=info,engine=debug,spef=error])
    configures both via {!set_from_string}. *)

type level = Error | Warn | Info | Debug

val level_to_string : level -> string

val level_of_string : string -> level option
(** Accepts ["error"|"warn"|"warning"|"info"|"debug"] (any case). *)

type field = string * Jsonx.t

(** Convenience field constructors. *)

val str : string -> string -> field
val int : string -> int -> field
val float : string -> float -> field
val bool : string -> bool -> field

(** {1 Sources} *)

module Src : sig
  type t

  val create : ?doc:string -> string -> t
  (** [create name] registers a source. Creating a second source with
      the same name returns the first (so libraries can declare their
      source at module initialisation without coordination). Pending
      per-source levels from {!set_from_string} apply to sources created
      later. *)

  val name : t -> string
  val doc : t -> string

  val set_level : t -> level option -> unit
  (** [None] means: follow the global level. *)

  val level : t -> level option
  val list : unit -> t list
end

(** {1 Level control} *)

val set_level : level option -> unit
(** Global level. [None] disables all logging. Default: [Some Warn]. *)

val global_level : unit -> level option

val set_from_string : string -> (unit, string) Stdlib.result
(** Parse a directive list: a bare level sets the global level, a
    [src=level] pair sets (or pre-registers) a per-source override.
    Example: ["info,engine=debug,spef=error"]. *)

val set_from_env : unit -> unit
(** Apply [TKA_LOG] if present; malformed directives are reported on
    stderr and otherwise ignored. *)

val enabled : Src.t -> level -> bool

(** {1 Events and reporters} *)

type event = {
  ev_src : string;
  ev_level : level;
  ev_msg : string;
  ev_fields : field list;
  ev_time_ns : int64;  (** monotonic clock, ns *)
}

type reporter = event -> unit

val set_reporter : reporter -> unit
val nop_reporter : reporter

val text_reporter : reporter
(** Human-readable one-liners ([tka: [WARN] spef: msg (k=v ...)]) on
    stderr, flushed per event. *)

val ndjson_reporter : out_channel -> reporter
(** One compact JSON object per line:
    [{"ts_ns":..,"level":"warn","src":"spef","msg":"..","k":v,..}]. *)

val buffer_reporter : unit -> reporter * (unit -> event list)
(** In-memory sink for tests; the thunk returns events oldest-first. *)

val multi_reporter : reporter list -> reporter

(** {1 Logging} *)

type 'a msgf =
  (?fields:field list -> ('a, Format.formatter, unit, unit) format4 -> 'a) -> unit

val msg : Src.t -> level -> 'a msgf -> unit
val err : Src.t -> 'a msgf -> unit
val warn : Src.t -> 'a msgf -> unit
val info : Src.t -> 'a msgf -> unit
val debug : Src.t -> 'a msgf -> unit
