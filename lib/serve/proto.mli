(** The [tka serve] NDJSON-RPC vocabulary: request/response envelopes,
    typed error codes, and parameter accessors.

    One JSON object per {!Framing} frame. Requests carry a client
    [id] (echoed verbatim in the reply), a [method] name and an
    optional [params] object:

    {v {"id":7,"method":"analyze","params":{"mode":"elim"}} v}

    Replies are either
    {v {"id":7,"ok":true,"result":{...}} v}
    or
    {v {"id":7,"ok":false,"error":{"code":"overloaded","message":"..."}} v}

    Error codes are a closed set so clients can switch on them;
    [overloaded] and [timeout] are the admission-control replies the
    load generator counts. See [docs/serving.md] for the full method
    reference. *)

module J = Tka_obs.Jsonx

type error_code =
  | Bad_request  (** missing/ill-typed params, unknown method, out-of-range id *)
  | Parse_failed  (** a design or edit body failed to parse *)
  | No_design  (** session method before a successful [load] *)
  | Overloaded  (** admission queue full — retry with backoff *)
  | Timeout  (** queued past the request deadline *)
  | Shutting_down
  | Internal

val code_to_string : error_code -> string
val code_of_string : string -> error_code option

type request = {
  rq_id : J.t;  (** echoed into the reply; [J.Null] when absent *)
  rq_method : string;
  rq_params : J.t;  (** [J.Obj []] when absent *)
}

val request_to_json : request -> J.t

val request_of_json : J.t -> (request, string) result
(** [Error] on a non-object or a missing/non-string [method]. *)

val ok_response : id:J.t -> J.t -> J.t
val error_response : id:J.t -> error_code -> string -> J.t

val response_result : J.t -> (J.t, error_code * string) result
(** Client-side: split a reply into its [result] or its typed error.
    A reply that is not a valid envelope maps to [Internal]. *)

(** {1 Parameter accessors}

    All return [Error message] (for a [Bad_request] reply) on a
    type mismatch; the [opt_]/defaulted forms accept absence. *)

val param_string : J.t -> string -> (string, string) result
val param_string_opt : J.t -> string -> (string option, string) result
val param_int_default : J.t -> string -> int -> (int, string) result
val param_float_opt : J.t -> string -> (float option, string) result
val param_bool_default : J.t -> string -> bool -> (bool, string) result

val mode_of_params : J.t -> (Tka_topk.Engine.mode, string) result
(** ["mode"]: ["add"] or ["elim"] ({!Tka_topk.Engine.mode_names};
    default [Elimination]). *)

val mode_name : Tka_topk.Engine.mode -> string
(** The reply spelling of a mode, the inverse of {!mode_of_params}. *)

val filter_of_params : J.t -> (Tka_filter.Mode.t, string) result
(** ["filter"]: ["none"], ["window"] or ["logic"] (default [Off]).
    Unknown strings are an [Error] — the daemon maps it to
    [bad_request], keeping the error-code set closed. *)

val filter_name : Tka_filter.Mode.t -> string
(** The wire name echoed back in replies (["none"] / ["window"] /
    ["logic"]). *)

val edits_of_params :
  lookup:(string -> Tka_cell.Cell.t option) ->
  J.t ->
  (Tka_incr.Edit.t list, string) result
(** ["edits"]: a list of edits in {!Tka_incr.Edit.to_json}'s format,
    decoded by {!Tka_incr.Edit.list_of_json}. Range checks against the
    target netlist are the session's job ({!Tka_incr.Edit.check}). *)
