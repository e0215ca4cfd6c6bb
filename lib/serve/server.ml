module J = Tka_obs.Jsonx
module Metrics = Tka_obs.Metrics

let c_connections = Metrics.Counter.make "serve.connections"
let c_requests = Metrics.Counter.make "serve.requests"
let g_rss_peak = Metrics.Gauge.make "serve.rss_peak_bytes"

type t = {
  registry : Registry.t;
  admission : Admission.t;
  lookup : string -> Tka_cell.Cell.t option;
  default_k : int;
  stop_flag : bool Atomic.t;
}

let create ?max_inflight ?max_queue ?deadline_s ?max_designs ?(default_k = 10)
    ~lookup () =
  {
    registry = Registry.create ?max_designs ();
    admission = Admission.create ?max_inflight ?max_queue ?deadline_s ();
    lookup;
    default_k;
    stop_flag = Atomic.make false;
  }

let registry t = t.registry
let stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let metrics_result params =
  (match Tka_prof.Rss.peak_bytes () with
  | Some b -> Metrics.Gauge.set g_rss_peak (float_of_int b)
  | None -> ());
  let body = Metrics.render_prometheus () in
  let fields =
    [ ("format", J.Str "prometheus"); ("body", J.Str body) ]
  in
  let fields =
    match Proto.param_bool_default params "profile" false with
    | Ok true ->
      let report = Tka_prof.Profile.analyze (Tka_obs.Trace.spans ()) in
      fields @ [ ("profile", Tka_prof.Profile.to_json report) ]
    | _ -> fields
  in
  J.Obj fields

let stats_result t =
  J.Obj
    [
      ("registry", Registry.stats_json t.registry);
      ( "admission",
        J.Obj
          [
            ("inflight", J.Int (Admission.inflight t.admission));
            ("queued", J.Int (Admission.queued t.admission));
          ] );
      ("requests", J.Int (Metrics.Counter.value c_requests));
      ("connections", J.Int (Metrics.Counter.value c_connections));
      ("stopping", J.Bool (stopping t));
    ]

let session_reply ~id = function
  | Ok result -> Proto.ok_response ~id result
  | Error (code, msg) -> Proto.error_response ~id code msg

(* Analysis work passes through admission; the optional per-request
   "deadline_s" param overrides the server's queue-wait deadline. *)
let admitted t ~id ~params f =
  match Proto.param_float_opt params "deadline_s" with
  | Error m -> Proto.error_response ~id Proto.Bad_request m
  | Ok deadline_s -> (
    match Admission.run t.admission ?deadline_s f with
    | Error rej ->
      let code, msg = Admission.rejection_code rej in
      Proto.error_response ~id code msg
    | Ok reply -> reply)

(* One [serve.request] span per dispatched request (batch members
   included), named by method; an analysis verb also records whether
   the session's memo answered any of its analyses. *)
let rec dispatch t session ~in_batch (rq : Proto.request) =
  Metrics.Counter.incr c_requests;
  let meth = rq.Proto.rq_method in
  let reuses0 = Session.reuses session in
  Tka_obs.Trace.with_span_args ~cat:"serve"
    ~args:[ ("method", J.Str meth) ]
    "serve.request"
    (fun _ ->
      match meth with
      | "analyze" | "whatif" | "eco" | "repair" ->
        [ ("memo", J.Bool (Session.reuses session > reuses0)) ]
      | _ -> [])
    (fun () -> dispatch_method t session ~in_batch rq)

and dispatch_method t session ~in_batch (rq : Proto.request) =
  let id = rq.Proto.rq_id in
  let params = rq.Proto.rq_params in
  let err code msg = Proto.error_response ~id code msg in
  let guard_stop f = if stopping t then err Proto.Shutting_down "daemon is shutting down" else f () in
  match rq.Proto.rq_method with
  | "ping" -> (
    match Proto.param_float_opt params "delay_s" with
    | Error m -> err Proto.Bad_request m
    | Ok None -> Proto.ok_response ~id (J.Obj [ ("pong", J.Bool true) ])
    | Ok (Some d) ->
      (* a deliberately slow ping: the deterministic way to saturate
         admission in tests and to shape load in the generator *)
      guard_stop (fun () ->
          admitted t ~id ~params (fun () ->
              Thread.delay (Float.max 0. d);
              Proto.ok_response ~id
                (J.Obj [ ("pong", J.Bool true); ("slept_s", J.Float d) ]))))
  | "metrics" -> Proto.ok_response ~id (metrics_result params)
  | "stats" -> Proto.ok_response ~id (stats_result t)
  | "shutdown" ->
    stop t;
    Proto.ok_response ~id (J.Obj [ ("stopping", J.Bool true) ])
  | "batch" ->
    if in_batch then err Proto.Bad_request "batch cannot nest"
    else (
      match J.member "requests" params with
      | Some (J.List l) ->
        let replies =
          List.map
            (fun j ->
              match Proto.request_of_json j with
              | Ok sub -> dispatch t session ~in_batch:true sub
              | Error m ->
                Proto.error_response
                  ~id:(Option.value ~default:J.Null (J.member "id" j))
                  Proto.Bad_request m)
            l
        in
        Proto.ok_response ~id (J.Obj [ ("replies", J.List replies) ])
      | _ -> err Proto.Bad_request "\"requests\" must be a list")
  | ("analyze" | "whatif" | "eco" | "repair") as meth ->
    guard_stop (fun () ->
        admitted t ~id ~params (fun () ->
            session_reply ~id (Session.handle session ~meth ~params)))
  | ("load" | "info") as meth ->
    guard_stop (fun () -> session_reply ~id (Session.handle session ~meth ~params))
  | meth -> err Proto.Bad_request (Printf.sprintf "unknown method %S" meth)

let dispatch_safe t session ~in_batch rq =
  try dispatch t session ~in_batch rq
  with e ->
    Proto.error_response ~id:rq.Proto.rq_id Proto.Internal
      (Printf.sprintf "unhandled exception: %s" (Printexc.to_string e))

let handle_payload t session payload =
  match J.of_string payload with
  | exception J.Parse_error m ->
    Proto.error_response ~id:J.Null Proto.Bad_request
      (Printf.sprintf "payload is not JSON: %s" m)
  | j -> (
    match Proto.request_of_json j with
    | Error m -> Proto.error_response ~id:J.Null Proto.Bad_request m
    | Ok rq -> dispatch_safe t session ~in_batch:false rq)

let handle_one t session payload = J.to_string (handle_payload t session payload)

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

(* A peer that closes (or resets) after sending its request makes the
   reply write fail with EPIPE — as a [Unix_error] from an unbuffered
   write or a [Sys_error] from the buffered flush. With SIGPIPE ignored
   (see {!serve}) that failure reaches us as an exception scoped to this
   one connection; returning [false] closes it and nothing else. *)
let write_reply oc payload =
  try
    Framing.write oc payload;
    true
  with
  | Sys_error _ -> false
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let connection_loop t fd =
  Metrics.Counter.incr c_connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let session =
    Session.create ~registry:t.registry ~lookup:t.lookup ~default_k:t.default_k
  in
  let rec loop () =
    match Framing.read ic with
    | Error Framing.Eof -> ()
    | Error e ->
      (* the stream is desynchronised: answer once, then close *)
      ignore
        (write_reply oc
           (J.to_string
              (Proto.error_response ~id:J.Null Proto.Bad_request
                 (Framing.error_to_string e))))
    | Ok payload -> if write_reply oc (handle_one t session payload) then loop ()
  in
  (try loop () with _ -> () (* peer reset mid-frame; nothing to answer *));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Listeners and accept loop                                          *)
(* ------------------------------------------------------------------ *)

let rec mkdirs dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let listen_unix path =
  mkdirs (Filename.dirname path);
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let close_listener fd =
  (match Unix.getsockname fd with
  | Unix.ADDR_UNIX path when path <> "" -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve t ~listeners =
  (* Library-level, not just in the CLI wrapper: embedded servers
     (tests, bench) must also survive a client that disconnects while
     a reply is in flight. With default disposition the EPIPE write
     raises SIGPIPE first and kills the whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> () (* platform without SIGPIPE *));
  let rec loop () =
    if stopping t then ()
    else begin
      let ready, _, _ =
        Retry.eintr (fun () -> Unix.select listeners [] [] 0.05)
      in
      List.iter
        (fun lfd ->
          match Retry.eintr (fun () -> Unix.accept ~cloexec:true lfd) with
          | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
          | fd, _ -> ignore (Thread.create (connection_loop t) fd))
        ready;
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> List.iter close_listener listeners) loop
