(** Minimal JSON values: enough for metrics export, NDJSON log lines and
    Chrome-trace dumps, plus a small parser for round-trip tests and
    tooling. No external dependency.

    Numbers are split into {!Int} and {!Float} so counters render as
    integers. Non-finite floats serialise as [null] (JSON has no
    inf/nan). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering — one call per NDJSON log line. *)

val to_string_pretty : t -> string
(** Indented rendering for files meant to be read by humans. *)

val write_file : string -> t -> unit
(** Pretty-print to [path] with a trailing newline. *)

exception Parse_error of string

val of_string : string -> t
(** Parse a complete JSON document. Raises {!Parse_error} on malformed
    input or trailing content. *)

val read_file : string -> t
(** Parse a file holding one JSON document. Raises [Sys_error], or
    {!Parse_error} with the path in front of the message. *)

val read_ndjson : string -> (int * (t, string) result) list
(** The non-blank lines of a newline-delimited JSON file, in order: each
    line's 1-based number and its value, or its parse error. Raises
    [Sys_error]. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up [key]; [None] on other constructors. *)
