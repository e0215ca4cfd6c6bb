type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" | "err" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

type field = string * Jsonx.t

let str k v = (k, Jsonx.Str v)
let int k v = (k, Jsonx.Int v)
let float k v = (k, Jsonx.Float v)
let bool k v = (k, Jsonx.Bool v)

(* ------------------------------------------------------------------ *)
(* Sources                                                            *)
(* ------------------------------------------------------------------ *)

let global : level option ref = ref (Some Warn)

module Src = struct
  type t = { src_name : string; src_doc : string; mutable src_level : level option }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  (* per-source levels requested (via TKA_LOG / set_from_string) before
     the source exists *)
  let pending : (string, level) Hashtbl.t = Hashtbl.create 4

  let create ?(doc = "") name =
    match Hashtbl.find_opt registry name with
    | Some s -> s
    | None ->
      let s =
        { src_name = name; src_doc = doc; src_level = Hashtbl.find_opt pending name }
      in
      Hashtbl.replace registry name s;
      s

  let name s = s.src_name
  let doc s = s.src_doc
  let set_level s l = s.src_level <- l
  let level s = s.src_level

  let list () =
    Hashtbl.fold (fun _ s acc -> s :: acc) registry []
    |> List.sort (fun a b -> String.compare a.src_name b.src_name)

  let request_level name l =
    Hashtbl.replace pending name l;
    match Hashtbl.find_opt registry name with
    | Some s -> s.src_level <- Some l
    | None -> ()
end

let set_level l = global := l
let global_level () = !global

let enabled (s : Src.t) lvl =
  let limit = match s.Src.src_level with Some _ as l -> l | None -> !global in
  match limit with None -> false | Some l -> severity lvl <= severity l

let set_from_string spec =
  let directives =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go = function
    | [] -> Ok ()
    | d :: rest -> (
      match String.index_opt d '=' with
      | None -> (
        match level_of_string d with
        | Some l ->
          set_level (Some l);
          go rest
        | None ->
          if String.lowercase_ascii d = "quiet" || String.lowercase_ascii d = "off"
          then begin
            set_level None;
            go rest
          end
          else Error (Printf.sprintf "unknown log level %S" d))
      | Some i -> (
        let src = String.trim (String.sub d 0 i) in
        let lvl = String.sub d (i + 1) (String.length d - i - 1) in
        match level_of_string lvl with
        | Some l ->
          Src.request_level src l;
          go rest
        | None -> Error (Printf.sprintf "unknown log level %S for source %S" lvl src)))
  in
  go directives

let set_from_env () =
  match Sys.getenv_opt "TKA_LOG" with
  | None -> ()
  | Some spec -> (
    match set_from_string spec with
    | Ok () -> ()
    | Error m -> Printf.eprintf "tka: ignoring malformed TKA_LOG: %s\n%!" m)

(* ------------------------------------------------------------------ *)
(* Events and reporters                                               *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_src : string;
  ev_level : level;
  ev_msg : string;
  ev_fields : field list;
  ev_time_ns : int64;
}

type reporter = event -> unit

let nop_reporter (_ : event) = ()

let text_reporter ev =
  let fields =
    match ev.ev_fields with
    | [] -> ""
    | fs ->
      " ("
      ^ String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Jsonx.to_string v)) fs)
      ^ ")"
  in
  Printf.eprintf "tka: [%s] %s: %s%s\n%!"
    (String.uppercase_ascii (level_to_string ev.ev_level))
    ev.ev_src ev.ev_msg fields

let ndjson_reporter oc ev =
  let obj =
    Jsonx.Obj
      ([
         ("ts_ns", Jsonx.Int (Int64.to_int ev.ev_time_ns));
         ("level", Jsonx.Str (level_to_string ev.ev_level));
         ("src", Jsonx.Str ev.ev_src);
         ("msg", Jsonx.Str ev.ev_msg);
       ]
      @ ev.ev_fields)
  in
  output_string oc (Jsonx.to_string obj);
  output_char oc '\n';
  flush oc

let buffer_reporter () =
  let events = ref [] in
  let report ev = events := ev :: !events in
  (report, fun () -> List.rev !events)

let multi_reporter rs ev = List.iter (fun r -> r ev) rs

let reporter : reporter ref = ref text_reporter
let set_reporter r = reporter := r

(* ------------------------------------------------------------------ *)
(* Logging front end                                                  *)
(* ------------------------------------------------------------------ *)

type 'a msgf =
  (?fields:field list -> ('a, Format.formatter, unit, unit) format4 -> 'a) -> unit

let report src lvl fields msg =
  !reporter
    {
      ev_src = Src.name src;
      ev_level = lvl;
      ev_msg = msg;
      ev_fields = fields;
      ev_time_ns = Monotonic_clock.now ();
    }

let msg src lvl (msgf : 'a msgf) =
  if enabled src lvl then
    msgf (fun ?(fields = []) fmt ->
        Format.kasprintf (fun m -> report src lvl fields m) fmt)

let err src m = msg src Error m
let warn src m = msg src Warn m
let info src m = msg src Info m
let debug src m = msg src Debug m
