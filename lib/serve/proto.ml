module J = Tka_obs.Jsonx

type error_code =
  | Bad_request
  | Parse_failed
  | No_design
  | Overloaded
  | Timeout
  | Shutting_down
  | Internal

let code_to_string = function
  | Bad_request -> "bad_request"
  | Parse_failed -> "parse_failed"
  | No_design -> "no_design"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let code_of_string = function
  | "bad_request" -> Some Bad_request
  | "parse_failed" -> Some Parse_failed
  | "no_design" -> Some No_design
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

type request = { rq_id : J.t; rq_method : string; rq_params : J.t }

let request_to_json r =
  J.Obj
    ((match r.rq_id with J.Null -> [] | id -> [ ("id", id) ])
    @ [ ("method", J.Str r.rq_method) ]
    @ match r.rq_params with J.Obj [] -> [] | p -> [ ("params", p) ])

let request_of_json j =
  match j with
  | J.Obj _ -> (
    match J.member "method" j with
    | Some (J.Str m) ->
      Ok
        {
          rq_id = Option.value ~default:J.Null (J.member "id" j);
          rq_method = m;
          rq_params = Option.value ~default:(J.Obj []) (J.member "params" j);
        }
    | Some _ -> Error "\"method\" must be a string"
    | None -> Error "missing \"method\"")
  | _ -> Error "request must be a JSON object"

let ok_response ~id result =
  J.Obj [ ("id", id); ("ok", J.Bool true); ("result", result) ]

let error_response ~id code message =
  J.Obj
    [
      ("id", id);
      ("ok", J.Bool false);
      ( "error",
        J.Obj
          [ ("code", J.Str (code_to_string code)); ("message", J.Str message) ]
      );
    ]

let response_result j =
  match J.member "ok" j with
  | Some (J.Bool true) -> (
    match J.member "result" j with
    | Some r -> Ok r
    | None -> Error (Internal, "reply without a result"))
  | Some (J.Bool false) -> (
    let err = Option.value ~default:J.Null (J.member "error" j) in
    let msg =
      match J.member "message" err with Some (J.Str m) -> m | _ -> "unknown error"
    in
    match J.member "code" err with
    | Some (J.Str c) -> (
      match code_of_string c with
      | Some code -> Error (code, msg)
      | None -> Error (Internal, Printf.sprintf "unknown error code %S: %s" c msg))
    | _ -> Error (Internal, msg))
  | _ -> Error (Internal, "reply is not a response envelope")

(* ------------------------------------------------------------------ *)
(* Parameter accessors                                                *)
(* ------------------------------------------------------------------ *)

let param_string p name =
  match J.member name p with
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%S must be a string" name)
  | None -> Error (Printf.sprintf "missing %S" name)

let param_string_opt p name =
  match J.member name p with
  | Some (J.Str s) -> Ok (Some s)
  | Some J.Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "%S must be a string" name)

let param_int_default p name default =
  match J.member name p with
  | Some (J.Int i) -> Ok i
  | Some J.Null | None -> Ok default
  | Some _ -> Error (Printf.sprintf "%S must be an integer" name)

let param_float_opt p name =
  match J.member name p with
  | Some (J.Float f) -> Ok (Some f)
  | Some (J.Int i) -> Ok (Some (float_of_int i))
  | Some J.Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "%S must be a number" name)

let param_bool_default p name default =
  match J.member name p with
  | Some (J.Bool b) -> Ok b
  | Some J.Null | None -> Ok default
  | Some _ -> Error (Printf.sprintf "%S must be a boolean" name)

let mode_of_params p =
  let error = Error "\"mode\" must be \"add\" or \"elim\"" in
  match J.member "mode" p with
  | Some (J.Str s) ->
    Option.fold ~none:error ~some:Result.ok (List.assoc_opt s Tka_topk.Engine.mode_names)
  | None | Some J.Null -> Ok Tka_topk.Engine.Elimination
  | Some _ -> error

let mode_name m = fst (List.find (fun (_, m') -> m' = m) Tka_topk.Engine.mode_names)
let filter_name = Tka_filter.Mode.to_string

let filter_of_params p =
  match J.member "filter" p with
  | None | Some J.Null -> Ok Tka_filter.Mode.Off
  | Some (J.Str s) -> (
      match Tka_filter.Mode.of_string s with
      | Some m -> Ok m
      | None -> Error "\"filter\" must be \"none\", \"window\" or \"logic\"")
  | Some _ -> Error "\"filter\" must be \"none\", \"window\" or \"logic\""

let edits_of_params ~lookup p =
  match J.member "edits" p with
  | Some (J.List l) -> Tka_incr.Edit.list_of_json ~lookup l
  | Some _ -> Error "\"edits\" must be a list"
  | None -> Error "missing \"edits\""
