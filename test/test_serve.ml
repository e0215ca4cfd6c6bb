(* Tests for the tka serve daemon layer (Tka_serve): the framing must
   round-trip arbitrary bytes, wire garbage must come back as
   structured errors rather than crashes, concurrent sessions must
   produce results bit-identical to a one-shot run at any jobs count,
   admission control must reject (not queue unboundedly) under
   pressure, and a second tenant on the same design must hit the
   shared victim cache warm. *)

module N = Tka_circuit.Netlist
module Nf = Tka_circuit.Netlist_format
module Topo = Tka_circuit.Topo
module B = Tka_layout.Benchmarks
module Pool = Tka_parallel.Pool
module J = Tka_obs.Jsonx
module Metrics = Tka_obs.Metrics
module Analyzer = Tka_incr.Analyzer
module Framing = Tka_serve.Framing
module Proto = Tka_serve.Proto
module Registry = Tka_serve.Registry
module Admission = Tka_serve.Admission
module Session = Tka_serve.Session
module Server = Tka_serve.Server
module Client = Tka_serve.Client

let lookup = Tka_cell.Default_lib.find
let tiny_body = Nf.print (B.tiny ())

let at_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

(* Feed raw bytes to the frame reader via a temp file. *)
let with_reader content f =
  let path = Filename.temp_file "tka_serve_frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc content);
      In_channel.with_open_bin path f)

let frame_of s = Printf.sprintf "%d\n%s\n" (String.length s) s

let test_framing_roundtrip () =
  List.iter
    (fun payload ->
      with_reader (frame_of payload) (fun ic ->
          match Framing.read ic with
          | Ok got ->
            Alcotest.(check string) "payload survives framing" payload got
          | Error e -> Alcotest.failf "framing error: %s" (Framing.error_to_string e)))
    [
      "";
      "{}";
      "{\"method\":\"ping\"}";
      "line one\nline two\n\nline four";
      "nul \000 byte and high \xff\xfe bytes";
      String.make 100_000 'x';
    ]

let test_framing_stream () =
  (* several frames back-to-back on one stream, then a clean Eof *)
  let payloads = [ "a"; ""; "with\nnewline"; "{\"k\":1}" ] in
  with_reader
    (String.concat "" (List.map frame_of payloads))
    (fun ic ->
      List.iter
        (fun expected ->
          match Framing.read ic with
          | Ok got -> Alcotest.(check string) "frame in order" expected got
          | Error e ->
            Alcotest.failf "framing error: %s" (Framing.error_to_string e))
        payloads;
      match Framing.read ic with
      | Error Framing.Eof -> ()
      | Ok s -> Alcotest.failf "phantom frame %S after stream end" s
      | Error e ->
        Alcotest.failf "expected Eof, got %s" (Framing.error_to_string e))

let test_framing_garbage () =
  let expect name content check =
    with_reader content (fun ic ->
        match Framing.read ic with
        | Ok s -> Alcotest.failf "%s: accepted as %S" name s
        | Error e ->
          Alcotest.(check bool)
            (name ^ " rejected as expected")
            true (check e))
  in
  expect "non-numeric prefix" "garbage\n{}\n" (function
    | Framing.Malformed _ -> true
    | _ -> false);
  expect "negative length" "-4\nabcd\n" (function
    | Framing.Malformed _ -> true
    | _ -> false);
  expect "truncated payload" "10\nabc" (function
    | Framing.Malformed _ -> true
    | _ -> false);
  expect "missing terminator" "3\nabcX" (function
    | Framing.Malformed _ -> true
    | _ -> false);
  expect "eof mid-prefix" "12" (function
    | Framing.Malformed _ -> true
    | _ -> false);
  with_reader "" (fun ic ->
      match Framing.read ic with
      | Error Framing.Eof -> ()
      | _ -> Alcotest.fail "empty stream must be a clean Eof");
  with_reader "1000\nxxxx\n" (fun ic ->
      match Framing.read ~max_len:16 ic with
      | Error (Framing.Oversized { declared = 1000; limit = 16 }) -> ()
      | Error e ->
        Alcotest.failf "expected Oversized, got %s" (Framing.error_to_string e)
      | Ok _ -> Alcotest.fail "oversized frame accepted")

(* A callee that fails with EINTR a few times before succeeding: the
   retry helper must reissue it transparently, for both the Unix and
   the buffered-channel spelling of the error, and must not swallow
   anything else. *)
let test_retry_eintr () =
  let module Retry = Tka_serve.Retry in
  let flaky exn n =
    let left = ref n in
    fun () ->
      if !left > 0 then begin
        decr left;
        raise exn
      end
      else 42
  in
  Alcotest.(check int)
    "retries Unix EINTR" 42
    (Retry.eintr (flaky (Unix.Unix_error (Unix.EINTR, "read", "")) 3));
  Alcotest.(check int)
    "retries the Sys_error spelling" 42
    (Retry.eintr (flaky (Sys_error "my.sock: Interrupted system call") 3));
  Alcotest.(check bool)
    "other Unix errors pass through" true
    (try
       ignore (Retry.eintr (flaky (Unix.Unix_error (Unix.EPIPE, "write", "")) 1));
       false
     with Unix.Unix_error (Unix.EPIPE, _, _) -> true);
  Alcotest.(check bool)
    "other Sys_errors pass through" true
    (try
       ignore (Retry.eintr (flaky (Sys_error "Broken pipe") 1));
       false
     with Sys_error _ -> true)

(* qcheck: an arbitrary byte string — embedded newlines, NULs, high
   bytes — survives write-then-read bit-exactly, including when
   several frames share a stream. *)
let prop_framing_roundtrip =
  QCheck.Test.make ~count:200 ~name:"framing round-trips arbitrary bytes"
    QCheck.(pair string string)
    (fun (a, b) ->
      let path = Filename.temp_file "tka_serve_qc" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              Framing.write oc a;
              Framing.write oc b);
          In_channel.with_open_bin path (fun ic ->
              Framing.read ic = Ok a
              && Framing.read ic = Ok b
              && Framing.read ic = Error Framing.Eof)))

(* ------------------------------------------------------------------ *)
(* Proto                                                              *)
(* ------------------------------------------------------------------ *)

let test_proto_codes () =
  List.iter
    (fun c ->
      match Proto.code_of_string (Proto.code_to_string c) with
      | Some c' ->
        Alcotest.(check bool) "code round-trips" true (c = c')
      | None -> Alcotest.failf "code %s did not round-trip" (Proto.code_to_string c))
    [
      Proto.Bad_request;
      Proto.Parse_failed;
      Proto.No_design;
      Proto.Overloaded;
      Proto.Timeout;
      Proto.Shutting_down;
      Proto.Internal;
    ];
  Alcotest.(check bool)
    "unknown code string rejected" true
    (Proto.code_of_string "nope" = None);
  (match Proto.request_of_json (J.List []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object request accepted");
  match Proto.request_of_json (J.Obj [ ("id", J.Int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request without method accepted"

(* ------------------------------------------------------------------ *)
(* In-process RPC helpers                                             *)
(* ------------------------------------------------------------------ *)

let make_server ?max_inflight ?max_queue ?deadline_s () =
  Server.create ?max_inflight ?max_queue ?deadline_s ~default_k:4 ~lookup ()

let session srv = Session.create ~registry:(Server.registry srv) ~lookup ~default_k:4

let rpc srv sess meth params =
  let payload =
    J.to_string
      (J.Obj [ ("id", J.Int 1); ("method", J.Str meth); ("params", params) ])
  in
  J.of_string (Server.handle_one srv sess payload)

let result_exn name reply =
  match Proto.response_result reply with
  | Ok r -> r
  | Error (code, msg) ->
    Alcotest.failf "%s failed (%s): %s" name (Proto.code_to_string code) msg

let error_code name reply =
  match Proto.response_result reply with
  | Error (code, _) -> code
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" name

let int_member name j =
  match J.member name j with
  | Some (J.Int i) -> i
  | _ -> Alcotest.failf "missing int field %S in %s" name (J.to_string j)

let float_member name j =
  match J.member name j with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> Alcotest.failf "missing float field %S in %s" name (J.to_string j)

let load_body ?(k = 4) srv sess body =
  ignore
    (result_exn "load"
       (rpc srv sess "load" (J.Obj [ ("netlist", J.Str body); ("k", J.Int k) ])))

let load_tiny ?k srv sess = load_body ?k srv sess tiny_body

(* The wall clock and the shared-cache hit split depend on who ran
   first, not on what was computed; strip them before comparing runs
   for bit-identity. *)
let strip_volatile = function
  | J.Obj kvs ->
    J.Obj
      (List.filter
         (fun (k, _) ->
           not (List.mem k [ "elapsed_s"; "cache_hits"; "cache_misses" ]))
         kvs)
  | j -> j

let strip_elapsed = function
  | J.Obj kvs -> J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") kvs))
  | j -> J.to_string j

(* ------------------------------------------------------------------ *)
(* Dispatch errors are structured, never crashes                      *)
(* ------------------------------------------------------------------ *)

let test_dispatch_errors () =
  let srv = make_server () in
  let sess = session srv in
  (* raw garbage payload: not JSON at all *)
  let reply = J.of_string (Server.handle_one srv sess "not json at all {") in
  Alcotest.(check string)
    "non-JSON payload -> bad_request" "bad_request"
    (Proto.code_to_string (error_code "garbage" reply));
  (* valid JSON, invalid envelope *)
  let reply = J.of_string (Server.handle_one srv sess "[1,2,3]") in
  Alcotest.(check string)
    "non-envelope payload -> bad_request" "bad_request"
    (Proto.code_to_string (error_code "array" reply));
  Alcotest.(check string)
    "unknown method -> bad_request" "bad_request"
    (Proto.code_to_string
       (error_code "unknown" (rpc srv sess "frobnicate" (J.Obj []))));
  Alcotest.(check string)
    "analyze before load -> no_design" "no_design"
    (Proto.code_to_string
       (error_code "analyze" (rpc srv sess "analyze" (J.Obj []))));
  Alcotest.(check string)
    "bad netlist -> parse_failed" "parse_failed"
    (Proto.code_to_string
       (error_code "load"
          (rpc srv sess "load" (J.Obj [ ("netlist", J.Str "not a netlist") ]))));
  load_tiny srv sess;
  Alcotest.(check string)
    "out-of-range edit -> bad_request" "bad_request"
    (Proto.code_to_string
       (error_code "whatif"
          (rpc srv sess "whatif"
             (J.Obj
                [
                  ( "edits",
                    J.List
                      [
                        J.Obj
                          [
                            ("op", J.Str "remove_coupling");
                            ("coupling", J.Int 99_999);
                          ];
                      ] );
                ]))));
  (* the id is echoed even on errors *)
  let payload =
    J.to_string (J.Obj [ ("id", J.Str "abc"); ("method", J.Str "nope") ])
  in
  let reply = J.of_string (Server.handle_one srv sess payload) in
  Alcotest.(check bool)
    "error reply echoes the request id" true
    (J.member "id" reply = Some (J.Str "abc"))

(* The RPC and the repair journal decode edits alike: each bad edit is
   a bad_request with the wire message, and a journal entry carrying it
   does not decode. *)
let test_bad_edits () =
  let srv = make_server () in
  let sess = session srv in
  load_tiny srv sess;
  let nc = N.num_couplings (B.tiny ()) in
  let edit kvs = J.Obj kvs in
  let scale f =
    edit [ ("op", J.Str "scale_coupling"); ("coupling", J.Int 0); ("factor", f) ]
  and strengthen f =
    edit [ ("op", J.Str "strengthen_driver"); ("gate", J.Int 0); ("factor", f) ]
  in
  let scale_msg = "scale_coupling needs an integer \"coupling\" and a \"factor\" in [0,1]"
  and strengthen_msg =
    "strengthen_driver needs an integer \"gate\" and a positive \"factor\""
  in
  let undecodable =
    [
      (scale (J.Int 5), scale_msg);
      (scale (J.Float 1.5), scale_msg);
      (scale (J.Float (-0.25)), scale_msg);
      (scale (J.Float Float.nan), scale_msg);
      (strengthen (J.Int 0), strengthen_msg);
      (strengthen (J.Float (-1.5)), strengthen_msg);
      (strengthen (J.Float Float.infinity), strengthen_msg);
      ( edit [ ("op", J.Str "remove_coupling"); ("coupling", J.Str "3") ],
        "remove_coupling needs an integer \"coupling\"" );
      ( edit [ ("op", J.Str "resize_driver"); ("gate", J.Int 0); ("cell", J.Str "NOPE") ],
        "unknown cell \"NOPE\"" );
      (edit [ ("op", J.Str "frob") ], "unknown edit op \"frob\"");
      (edit [ ("op", J.Int 3) ], "\"op\" must be a string");
      (edit [ ("coupling", J.Int 0) ], "missing \"op\"");
    ]
  in
  let rpc_error e =
    match
      Proto.response_result
        (rpc srv sess "whatif" (J.Obj [ ("edits", J.List [ e ]) ]))
    with
    | Error (code, msg) -> (Proto.code_to_string code, msg)
    | Ok _ -> Alcotest.failf "whatif accepted %s" (J.to_string e)
  in
  let entry e =
    Tka_incr.Repair.entry_of_json ~lookup:Tka_cell.Default_lib.find
      (J.Obj
         [
           ("iter", J.Int 1); ("move", J.Str "space"); ("accepted", J.Bool true);
           ("edits", J.List [ e ]); ("delay_before_ns", J.Float 1.);
           ("delay_after_ns", J.Float 1.); ("tns_before_ns", J.Float 0.);
           ("tns_after_ns", J.Float 0.); ("dirty_nets", J.Int 0);
           ("cache_hits", J.Int 0); ("cache_misses", J.Int 0);
         ])
  in
  Alcotest.(check bool) "a good edit decodes in the journal" true
    (Result.is_ok (entry (scale (J.Float 0.5))));
  List.iter
    (fun (e, msg) ->
      Alcotest.(check (pair string string))
        (J.to_string e) ("bad_request", msg) (rpc_error e);
      Alcotest.(check (result unit string))
        ("journal " ^ J.to_string e) (Error msg)
        (Result.map ignore (entry e)))
    undecodable;
  (* ids are checked against the design: by the RPC, and by replay *)
  let far = edit [ ("op", J.Str "remove_coupling"); ("coupling", J.Int 99_999) ] in
  let range_msg = Printf.sprintf "coupling 99999 out of range (design has %d)" nc in
  Alcotest.(check (pair string string)) "out of range" ("bad_request", range_msg)
    (rpc_error far);
  Alcotest.check_raises "replay raises the same message"
    (Invalid_argument ("Edit.apply: " ^ range_msg))
    (fun () -> ignore (Tka_incr.Edit.apply (B.tiny ()) [ Tka_incr.Edit.Remove_coupling 99_999 ]))

let test_batch () =
  let srv = make_server () in
  let sess = session srv in
  let sub meth = J.Obj [ ("id", J.Int 9); ("method", J.Str meth) ] in
  let result =
    result_exn "batch"
      (rpc srv sess "batch"
         (J.Obj [ ("requests", J.List [ sub "ping"; sub "frobnicate" ]) ]))
  in
  (match J.member "replies" result with
  | Some (J.List [ first; second ]) ->
    Alcotest.(check bool)
      "first sub-reply ok" true
      (J.member "ok" first = Some (J.Bool true));
    Alcotest.(check string)
      "second sub-reply bad_request" "bad_request"
      (Proto.code_to_string (error_code "sub" second))
  | _ -> Alcotest.failf "unexpected batch result %s" (J.to_string result));
  (* nesting is rejected per sub-request: the outer envelope is still
     ok, the inner reply carries the error *)
  let nested =
    result_exn "nested batch"
      (rpc srv sess "batch" (J.Obj [ ("requests", J.List [ sub "batch" ]) ]))
  in
  match J.member "replies" nested with
  | Some (J.List [ inner ]) ->
    Alcotest.(check string)
      "nested batch sub-reply rejected" "bad_request"
      (Proto.code_to_string (error_code "nested" inner))
  | _ -> Alcotest.failf "unexpected nested batch result %s" (J.to_string nested)

(* ------------------------------------------------------------------ *)
(* Determinism: daemon sessions vs one-shot, jobs 1 vs 4              *)
(* ------------------------------------------------------------------ *)

let test_determinism_across_jobs () =
  (* one-shot reference: a private analyzer, no daemon *)
  let reference =
    at_jobs 1 (fun () ->
        let nl = B.tiny () in
        let elim, _ = Analyzer.run (Analyzer.create ~k:4 nl) in
        elim.Tka_topk.Elimination.result.Tka_topk.Engine.res_noisy_delay)
  in
  let analyze_stripped srv sess =
    strip_volatile (result_exn "analyze" (rpc srv sess "analyze" (J.Obj [])))
  in
  let baseline =
    at_jobs 1 (fun () ->
        let srv = make_server () in
        let sess = session srv in
        load_tiny srv sess;
        analyze_stripped srv sess)
  in
  Alcotest.(check bool)
    "daemon all-aggressor delay bit-equals one-shot" true
    (float_member "all_aggressor_delay_ns" baseline = reference);
  (* four concurrent sessions on a 4-way pool, one shared server *)
  at_jobs 4 (fun () ->
      let srv = make_server () in
      let results = Array.make 4 J.Null in
      let threads =
        Array.init 4 (fun i ->
            Thread.create
              (fun i ->
                let sess = session srv in
                load_tiny srv sess;
                results.(i) <- analyze_stripped srv sess)
              i)
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          Alcotest.(check string)
            (Printf.sprintf "session %d matches jobs-1 baseline" i)
            (J.to_string baseline) (J.to_string r))
        results)

(* Concurrent sessions on real designs. Systhreads of the daemon share
   domain 0's PWL arena, and the engine rewinds it after each victim
   (Arena.scoped): a session thread that allocates while another's
   scope is open must keep its slices. The tiny design above is too
   small to interleave inside a victim; i2-i4 are not. *)
let mixed_requests body =
  [
    ("load", J.Obj [ ("netlist", J.Str body); ("k", J.Int 4) ]);
    ("analyze", J.Obj []);
    ("analyze", J.Obj [ ("mode", J.Str "add") ]);
    ( "whatif",
      J.Obj
        [
          ( "edits",
            J.List
              [
                J.Obj
                  [
                    ("op", J.Str "scale_coupling");
                    ("coupling", J.Int 1);
                    ("factor", J.Float 0.5);
                  ];
              ] );
        ] );
  ]

let run_mixed srv body =
  let sess = session srv in
  List.map
    (fun (meth, params) ->
      J.to_string (strip_volatile (result_exn meth (rpc srv sess meth params))))
    (mixed_requests body)

let test_concurrent_sessions () =
  let designs =
    Array.map (fun n -> Nf.print (Option.get (B.by_name n))) [| "i2"; "i3"; "i4" |]
  in
  let expected =
    at_jobs 1 (fun () -> Array.map (fun body -> run_mixed (make_server ()) body) designs)
  in
  (* two sessions per design, racing on its shared cache *)
  let bodies = Array.append designs designs in
  List.iter
    (fun jobs ->
      at_jobs jobs (fun () ->
          let srv = make_server () in
          let got = Array.make (Array.length bodies) [] in
          let threads =
            Array.mapi
              (fun i body -> Thread.create (fun () -> got.(i) <- run_mixed srv body) ())
              bodies
          in
          Array.iter Thread.join threads;
          Array.iteri
            (fun i replies ->
              List.iter2
                (fun (meth, _) (e, g) ->
                  Alcotest.(check string)
                    (Printf.sprintf "jobs %d session %d %s" jobs i meth)
                    e g)
                (mixed_requests bodies.(i))
                (List.combine expected.(i mod 3) replies))
            got))
    (* a jobs-4 round interleaves the session threads at the pool's and
       the engine's lock waits, so it is repeated *)
    [ 1; 4; 4; 4; 4; 4 ]

(* A design state computes its noise fixpoint once: every analysis of
   it, eco's pre-edit analysis included, reuses it, and the design an
   eco commits keeps the one its post-edit analysis computed. Replies
   stay byte-identical to a fresh analyzer's. *)
(* Each design state computes its fixpoint once, and its analysis
   once per filter while nobody writes to its cache: the replies the
   session's memo answers are byte-identical to a genuine re-run's,
   cache counters included. *)
let test_fixpoint_reuse () =
  let nl = Option.get (B.by_name "i1") in
  let body = Nf.print nl in
  let runs = Metrics.Counter.make "iterate.runs" in
  let engine_runs = Metrics.Counter.make "engine.runs" in
  let reuses = Metrics.Counter.make "serve.analysis_reuses" in
  Metrics.with_enabled true @@ fun () ->
  (* engine runs of one analysis (both dual modes) *)
  let per_analysis =
    let e0 = Metrics.Counter.value engine_runs in
    ignore (Analyzer.run (Analyzer.create ~k:4 (Nf.parse ~lookup body)));
    Metrics.Counter.value engine_runs - e0
  in
  let srv = make_server () in
  let loaded ?(k = 4) () =
    let sess = session srv in
    ignore
      (result_exn "load"
         (rpc srv sess "load" (J.Obj [ ("netlist", J.Str body); ("k", J.Int k) ])));
    sess
  in
  let analyze ?(params = J.Obj []) sess = result_exn "analyze" (rpc srv sess "analyze" params) in
  (* what the counters moved by across [f] *)
  let moved f =
    let i0 = Metrics.Counter.value runs
    and e0 = Metrics.Counter.value engine_runs
    and r0 = Metrics.Counter.value reuses in
    let x = f () in
    ( x,
      ( Metrics.Counter.value runs - i0,
        Metrics.Counter.value engine_runs - e0,
        Metrics.Counter.value reuses - r0 ) )
  in
  let check_moved what (i, e, r) (i', e', r') =
    Alcotest.(check (list int)) (what ^ ": fixpoints, engine runs, reuses") [ i; e; r ] [ i'; e'; r' ]
  in
  let sess = loaded () in
  let replies, c =
    moved (fun () ->
        List.map
          (fun params -> analyze ~params sess)
          [ J.Obj []; J.Obj [ ("mode", J.Str "add") ]; J.Obj [] ])
  in
  check_moved "three analyses" (1, per_analysis, 2) c;
  let replies = List.map strip_volatile replies in
  (* the reference: a fresh analyzer on the netlist the session parsed *)
  let parsed = Nf.parse ~lookup body in
  let elim, _ = Analyzer.run (Analyzer.create ~k:4 parsed) in
  let fresh mode =
    let res =
      match mode with
      | `Elim -> elim.Tka_topk.Elimination.result
      | `Add -> elim.Tka_topk.Elimination.dual
    in
    let module E = Tka_topk.Engine in
    let per_k =
      List.filter_map
        (fun i ->
          Option.map
            (fun ch ->
              J.Obj
                [
                  ("k", J.Int i);
                  ("objective_ns", J.Float ch.E.ch_objective);
                  ("estimated_delay_ns", J.Float (E.estimated_delay res i));
                  ("sink", J.Int ch.E.ch_sink);
                  ( "set",
                    J.List
                      (List.map (fun c -> J.Int c) (Tka_topk.Coupling_set.to_list ch.E.ch_set)) );
                ])
            res.E.res_per_k.(i))
        [ 1; 2; 3; 4 ]
    in
    J.Obj
      [
        ("design", J.Str (N.name nl));
        ("mode", J.Str (match mode with `Elim -> "elim" | `Add -> "add"));
        ("filter", J.Str "none");
        ("k", J.Int 4);
        ("noiseless_delay_ns", J.Float res.E.res_noiseless_delay);
        ("all_aggressor_delay_ns", J.Float res.E.res_noisy_delay);
        ("per_k", J.List per_k);
      ]
  in
  List.iter2
    (fun mode r ->
      Alcotest.(check string) "reply equals a fresh analyzer's"
        (J.to_string (fresh mode)) (J.to_string r))
    [ `Elim; `Add; `Elim ] replies;
  (* a genuine re-run on the unchanged cache: another session's first
     analysis of the same design; it hits everywhere and stores
     nothing, so the memo stays valid *)
  let add = J.Obj [ ("mode", J.Str "add") ] in
  let memo_add, c = moved (fun () -> analyze ~params:add sess) in
  check_moved "memo answers add" (0, 0, 1) c;
  let genuine_add, c = moved (fun () -> analyze ~params:add (loaded ())) in
  check_moved "genuine re-run" (1, per_analysis, 0) c;
  Alcotest.(check int) "a re-run misses nothing" 0 (int_member "cache_misses" genuine_add);
  Alcotest.(check string) "memo reply == genuine re-run, counters included"
    (strip_elapsed genuine_add) (strip_elapsed memo_add);
  let memo_elim, c = moved (fun () -> analyze sess) in
  check_moved "memo survives a cache reader" (0, 0, 1) c;
  Alcotest.(check string) "memo reply == genuine re-run (elim)"
    (strip_elapsed (analyze (loaded ()))) (strip_elapsed memo_elim);
  (* a whatif writes only to its edited fingerprint's cache *)
  ignore
    (result_exn "whatif"
       (rpc srv sess "whatif"
          (J.Obj
             [
               ( "edits",
                 J.List [ J.Obj [ ("op", J.Str "remove_coupling"); ("coupling", J.Int 0) ] ] );
             ])));
  let after_whatif, c = moved (fun () -> analyze sess) in
  check_moved "memo survives a whatif" (0, 0, 1) c;
  Alcotest.(check string) "same reply after the whatif" (strip_elapsed memo_elim)
    (strip_elapsed after_whatif);
  (* a co-tenant with another k shares the cache but not the keys: its
     analysis overwrites every slot, so the next one runs for real *)
  ignore (analyze (loaded ~k:3 ()));
  let rerun, c = moved (fun () -> analyze sess) in
  check_moved "a co-tenant's stores end the memo" (0, per_analysis, 0) c;
  Alcotest.(check int) "the re-run misses everywhere"
    (int_member "cache_hits" memo_elim)
    (int_member "cache_misses" rerun);
  Alcotest.(check string) "same result after the re-run"
    (J.to_string (strip_volatile memo_elim))
    (J.to_string (strip_volatile rerun));
  (* eco: the pre-edit analysis is answered by the memo, the post-edit
     one computes the committed state's fixpoint and analysis, which
     answer the next analyze *)
  let eco, c = moved (fun () -> result_exn "eco" (rpc srv sess "eco" (J.Obj []))) in
  Alcotest.(check bool) "eco committed an edit" true (int_member "edits" eco > 0);
  check_moved "eco" (1, per_analysis, 1) c;
  Alcotest.(check int) "eco's pre-edit analysis is the memo's"
    (int_member "cache_misses" rerun) (int_member "analysis_hits" eco);
  let next, c = moved (fun () -> analyze sess) in
  check_moved "the analysis after eco" (0, 0, 1) c;
  Alcotest.(check int) "all of eco's lookups hit"
    (int_member "cache_hits" eco + int_member "cache_misses" eco)
    (int_member "cache_hits" next);
  Alcotest.(check int) "nothing missed" 0 (int_member "cache_misses" next)

(* ------------------------------------------------------------------ *)
(* Shared victim cache across sessions                                *)
(* ------------------------------------------------------------------ *)

let test_warm_cache_cross_session () =
  let srv = make_server () in
  let s1 = session srv in
  load_tiny srv s1;
  let r1 = result_exn "analyze s1" (rpc srv s1 "analyze" (J.Obj [])) in
  Alcotest.(check bool)
    "first tenant populates the cache" true
    (int_member "cache_misses" r1 > 0);
  (* a second session loading the same body lands on the same
     fingerprint, so its first analysis is all hits *)
  let s2 = session srv in
  load_tiny srv s2;
  let r2 = result_exn "analyze s2" (rpc srv s2 "analyze" (J.Obj [])) in
  Alcotest.(check int) "second tenant misses nothing" 0 (int_member "cache_misses" r2);
  Alcotest.(check int)
    "second tenant hits every victim"
    (int_member "cache_misses" r1 + int_member "cache_hits" r1)
    (int_member "cache_hits" r2);
  Alcotest.(check string)
    "identical results either way"
    (J.to_string (strip_volatile r1))
    (J.to_string (strip_volatile r2));
  let stats = Registry.stats_json (Server.registry srv) in
  Alcotest.(check int) "one design in the registry" 1 (int_member "designs" stats);
  Alcotest.(check bool)
    "both sessions attached" true
    (int_member "attaches" stats >= 2)

let test_whatif_does_not_advance () =
  let srv = make_server () in
  let sess = session srv in
  load_tiny srv sess;
  let before =
    strip_volatile (result_exn "analyze" (rpc srv sess "analyze" (J.Obj [])))
  in
  let whatif =
    result_exn "whatif"
      (rpc srv sess "whatif"
         (J.Obj
            [
              ( "edits",
                J.List
                  [
                    J.Obj
                      [
                        ("op", J.Str "scale_coupling");
                        ("coupling", J.Int 0);
                        ("factor", J.Float 0.5);
                      ];
                  ] );
            ]))
  in
  Alcotest.(check bool)
    "whatif reports dirty nets" true
    (int_member "dirty_nets" whatif > 0);
  let after =
    strip_volatile (result_exn "analyze" (rpc srv sess "analyze" (J.Obj [])))
  in
  Alcotest.(check string)
    "session design unchanged by whatif" (J.to_string before)
    (J.to_string after)

(* [tiny] has no beneficial elimination set, so eco's advancing path
   needs a real benchmark; i1 is the smallest of the paper's suite. *)
let test_eco_advances () =
  let srv = make_server () in
  let sess = session srv in
  let body = Nf.print (Option.get (B.by_name "i1")) in
  ignore
    (result_exn "load i1"
       (rpc srv sess "load" (J.Obj [ ("netlist", J.Str body); ("k", J.Int 4) ])));
  let eco =
    result_exn "eco" (rpc srv sess "eco" (J.Obj [ ("fix_k", J.Int 1) ]))
  in
  let noisy = float_member "delay_noisy_ns" eco in
  let fixed = float_member "delay_fixed_ns" eco in
  Alcotest.(check bool) "eco removes at least one coupling" true
    (int_member "edits" eco > 0
    &&
    match J.member "set" eco with
    | Some (J.List (_ :: _)) -> true
    | _ -> false);
  Alcotest.(check bool) "fix does not worsen the delay" true (fixed <= noisy);
  (* the session advanced: a fresh analyze sees the fixed design *)
  let after = result_exn "analyze" (rpc srv sess "analyze" (J.Obj [])) in
  Alcotest.(check bool)
    "post-eco analysis matches the committed design" true
    (float_member "all_aggressor_delay_ns" after = fixed)

(* The eco reply names the rule that produced its fix set — a silent
   dual_set fallback is indistinguishable from an elimination fix
   otherwise. *)
let test_eco_rule_surfaced () =
  let srv = make_server () in
  let sess = session srv in
  let body = Nf.print (Option.get (B.by_name "i1")) in
  ignore
    (result_exn "load i1"
       (rpc srv sess "load" (J.Obj [ ("netlist", J.Str body); ("k", J.Int 4) ])));
  let eco =
    result_exn "eco" (rpc srv sess "eco" (J.Obj [ ("fix_k", J.Int 1) ]))
  in
  match J.member "rule" eco with
  | Some (J.Str rule) ->
    Alcotest.(check bool)
      "rule is a known name" true
      (List.mem rule [ "elim"; "dual"; "none" ]);
    if int_member "edits" eco > 0 then
      Alcotest.(check bool) "an applied fix names its rule" true (rule <> "none")
  | _ -> Alcotest.fail "eco reply must carry the chosen rule"

let eco_reply body ~fix_k =
  let srv = make_server () in
  let sess = session srv in
  load_body srv sess body;
  result_exn "eco" (rpc srv sess "eco" (J.Obj [ ("fix_k", J.Int fix_k) ]))

(* One eco path: the RPC reply reports what [Eco.run ~verify:false]
   does on the same state, at every fix cardinality. *)
let test_eco_matches_eco_run () =
  let body = Nf.print (Option.get (B.by_name "i1")) in
  List.iter
    (fun fix_k ->
      let eco = eco_reply body ~fix_k in
      let r, _ =
        Tka_incr.Eco.run ~verify:false ~fix_k (Analyzer.create ~k:4 (Nf.parse ~lookup body))
      in
      let label what = Printf.sprintf "fix_k=%d %s" fix_k what in
      Alcotest.(check (option string))
        (label "rule")
        (Some (Tka_incr.Eco.rule_name r.Tka_incr.Eco.eco_rule))
        (match J.member "rule" eco with Some (J.Str r) -> Some r | _ -> None);
      let ids = Option.fold ~none:[] ~some:Tka_topk.Coupling_set.to_list r.Tka_incr.Eco.eco_set in
      Alcotest.(check string)
        (label "set")
        (J.to_string (J.List (List.map (fun d -> J.Int d) ids)))
        (J.to_string (Option.value ~default:J.Null (J.member "set" eco)));
      Alcotest.(check int) (label "edits")
        (List.length r.Tka_incr.Eco.eco_edits) (int_member "edits" eco);
      Alcotest.(check int) (label "dirty_nets") r.Tka_incr.Eco.eco_dirty_nets
        (int_member "dirty_nets" eco);
      Alcotest.(check (float 0.)) (label "delay_noisy_ns") r.Tka_incr.Eco.eco_delay_noisy
        (float_member "delay_noisy_ns" eco);
      Alcotest.(check (float 0.)) (label "delay_fixed_ns") r.Tka_incr.Eco.eco_delay_fixed
        (float_member "delay_fixed_ns" eco))
    [ 1; 2; 3 ]

(* The eco reply's bytes, [elapsed_s] aside, are pinned: i1 at fix_k
   1-3, and a design without couplings, where no fix set exists. *)
let test_eco_wire_format () =
  let i1 = Nf.print (Option.get (B.by_name "i1")) in
  let uncoupled =
    String.split_on_char '\n' tiny_body
    |> List.filter (fun l -> not (String.starts_with ~prefix:"coupling " l))
    |> String.concat "\n"
  in
  List.iter
    (fun (label, body, fix_k, digest) ->
      Alcotest.(check string) label digest
        (Digest.to_hex (Digest.string (strip_elapsed (eco_reply body ~fix_k)))))
    [
      ("i1 fix_k 1", i1, 1, "a1a1014caa39f1678a1d35fb47e2848f");
      ("i1 fix_k 2", i1, 2, "15c8b9841db8d12aff048dbce41eba20");
      ("i1 fix_k 3", i1, 3, "5741bc7864bc6376f54d52233498d7c2");
      ("no fix set", uncoupled, 1, "0cf3b6c6e1dc161690a78f893c2376f3");
    ]

(* The filter mode rides every analysis RPC: accepted names are echoed
   back, the default is "none", "none" results are bit-identical to an
   unfiltered request, and an unknown name is a bad_request (the error
   code set stays closed). *)
let test_filter_rpc () =
  let srv = make_server () in
  let sess = session srv in
  load_tiny srv sess;
  let analyze params =
    result_exn "analyze" (rpc srv sess "analyze" (J.Obj params))
  in
  let filter_of j =
    match J.member "filter" j with
    | Some (J.Str s) -> s
    | _ -> Alcotest.failf "no filter field in %s" (J.to_string j)
  in
  let default = analyze [] in
  Alcotest.(check string) "default filter is none" "none" (filter_of default);
  List.iter
    (fun name ->
      let r = analyze [ ("filter", J.Str name) ] in
      Alcotest.(check string)
        (Printf.sprintf "filter %s echoed" name)
        name (filter_of r))
    [ "none"; "window"; "logic" ];
  Alcotest.(check string)
    "explicit none bit-identical to default"
    (J.to_string (strip_volatile default))
    (J.to_string (strip_volatile (analyze [ ("filter", J.Str "none") ])));
  List.iter
    (fun (meth, params) ->
      Alcotest.(check string)
        (Printf.sprintf "%s with unknown filter -> bad_request" meth)
        "bad_request"
        (Proto.code_to_string
           (error_code meth (rpc srv sess meth (J.Obj params)))))
    [
      ("analyze", [ ("filter", J.Str "aggressive") ]);
      ("analyze", [ ("filter", J.Int 2) ]);
      ("whatif", [ ("edits", J.List []); ("filter", J.Str "windows") ]);
      ( "repair",
        [ ("budget", J.Int 1); ("dry_run", J.Bool true); ("filter", J.Str "") ]
      );
    ]

let test_repair_rpc () =
  let srv = make_server () in
  let sess = session srv in
  let body = Nf.print (Option.get (B.by_name "i1")) in
  ignore
    (result_exn "load i1"
       (rpc srv sess "load" (J.Obj [ ("netlist", J.Str body); ("k", J.Int 4) ])));
  let info () = result_exn "info" (rpc srv sess "info" (J.Obj [])) in
  let before = info () in
  (* dry run: full loop, nothing committed *)
  let dry =
    result_exn "repair dry_run"
      (rpc srv sess "repair"
         (J.Obj
            [
              ("budget", J.Int 2);
              ("recover", J.Float 0.25);
              ("dry_run", J.Bool true);
            ]))
  in
  Alcotest.(check bool)
    "dry run is not committed" true
    (J.member "committed" dry = Some (J.Bool false));
  Alcotest.(check string)
    "session design unchanged by a dry run" (J.to_string before)
    (J.to_string (info ()));
  (* the real run commits and a fresh analyze sees the repaired design *)
  let rep =
    result_exn "repair"
      (rpc srv sess "repair"
         (J.Obj [ ("budget", J.Int 2); ("recover", J.Float 0.25) ]))
  in
  Alcotest.(check bool)
    "repair applied at least one edit" true
    (int_member "edits_applied" rep > 0);
  Alcotest.(check bool)
    "an advancing repair is committed" true
    (J.member "committed" rep = Some (J.Bool true));
  Alcotest.(check bool)
    "repair does not worsen the delay" true
    (float_member "final_delay_ns" rep
    <= float_member "initial_delay_ns" rep +. 1e-9);
  let an = result_exn "analyze" (rpc srv sess "analyze" (J.Obj [])) in
  Alcotest.(check (float 0.))
    "post-repair analysis matches the committed design"
    (float_member "final_delay_ns" rep)
    (float_member "all_aggressor_delay_ns" an);
  (* parameter validation is structured *)
  List.iter
    (fun (meth, fix_k) ->
      Alcotest.(check string)
        (Printf.sprintf "%s with fix_k %d -> bad_request" meth fix_k)
        "bad_request"
        (Proto.code_to_string
           (error_code meth (rpc srv sess meth (J.Obj [ ("fix_k", J.Int fix_k) ])))))
    [ ("repair", 99); ("eco", 0) ]

(* A repair commit keeps the loop's final state, warm: the analyze
   that follows misses nothing. *)
let test_repair_commit_warm () =
  let srv = make_server () in
  let sess = session srv in
  load_body srv sess (Nf.print (Option.get (B.by_name "i1")));
  let rep = result_exn "repair" (rpc srv sess "repair" (J.Obj [ ("budget", J.Int 2) ])) in
  Alcotest.(check bool) "repair committed" true
    (J.member "committed" rep = Some (J.Bool true));
  let an = result_exn "analyze" (rpc srv sess "analyze" (J.Obj [])) in
  Alcotest.(check int) "the next analyze misses nothing" 0 (int_member "cache_misses" an)

(* ------------------------------------------------------------------ *)
(* Admission control                                                  *)
(* ------------------------------------------------------------------ *)

(* A slow ping holds the single admission slot; with a zero-length
   queue the second request must come back overloaded, deterministically. *)
let test_admission_overload () =
  let srv = make_server ~max_inflight:1 ~max_queue:0 () in
  let sess = session srv in
  let slow =
    Thread.create
      (fun () -> rpc srv (session srv) "ping" (J.Obj [ ("delay_s", J.Float 0.3) ]))
      ()
  in
  Thread.delay 0.1;
  let reply = rpc srv sess "ping" (J.Obj [ ("delay_s", J.Float 0.0) ]) in
  Alcotest.(check string)
    "second request rejected" "overloaded"
    (Proto.code_to_string (error_code "ping" reply));
  ignore (result_exn "slow ping" (Thread.join slow; rpc srv sess "ping" (J.Obj [])))

let test_admission_timeout () =
  let srv = make_server ~max_inflight:1 ~max_queue:4 ~deadline_s:0.05 () in
  let slow =
    Thread.create
      (fun () -> rpc srv (session srv) "ping" (J.Obj [ ("delay_s", J.Float 0.4) ]))
      ()
  in
  Thread.delay 0.1;
  (* fits in the queue, but the 50 ms deadline expires while the slow
     ping still holds the slot *)
  let reply = rpc srv (session srv) "ping" (J.Obj [ ("delay_s", J.Float 0.0) ]) in
  Alcotest.(check string)
    "queued past deadline -> timeout" "timeout"
    (Proto.code_to_string (error_code "ping" reply));
  Thread.join slow

let test_admission_unit () =
  let adm = Admission.create ~max_inflight:2 ~max_queue:0 () in
  Alcotest.(check int) "idle: nothing inflight" 0 (Admission.inflight adm);
  (match Admission.run adm (fun () -> 41 + 1) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "admitted work must run");
  Alcotest.(check int) "slot released" 0 (Admission.inflight adm);
  (* exceptions release the slot too *)
  (try ignore (Admission.run adm (fun () -> failwith "boom")) with Failure _ -> ());
  Alcotest.(check int) "slot released after raise" 0 (Admission.inflight adm)

(* ------------------------------------------------------------------ *)
(* Shutdown and metrics                                               *)
(* ------------------------------------------------------------------ *)

let test_shutdown () =
  let srv = make_server () in
  let sess = session srv in
  load_tiny srv sess;
  ignore (result_exn "shutdown" (rpc srv sess "shutdown" (J.Obj [])));
  Alcotest.(check bool) "server is stopping" true (Server.stopping srv);
  Alcotest.(check string)
    "analysis after shutdown -> shutting_down" "shutting_down"
    (Proto.code_to_string
       (error_code "analyze" (rpc srv sess "analyze" (J.Obj []))))

let test_metrics_rpc () =
  Metrics.with_enabled true (fun () ->
      let srv = make_server () in
      let sess = session srv in
      let result = result_exn "metrics" (rpc srv sess "metrics" (J.Obj [])) in
      (match J.member "format" result with
      | Some (J.Str "prometheus") -> ()
      | _ -> Alcotest.fail "metrics result must declare the prometheus format");
      let body =
        match J.member "body" result with
        | Some (J.Str b) -> b
        | _ -> Alcotest.fail "metrics result must carry a text body"
      in
      let contains sub =
        let n = String.length sub and m = String.length body in
        let rec go i = i + n <= m && (String.sub body i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "exposes the request counter" true
        (contains "# TYPE serve_requests counter");
      let stats = result_exn "stats" (rpc srv sess "stats" (J.Obj [])) in
      Alcotest.(check bool)
        "stats counts this connection's requests" true
        (int_member "requests" stats >= 2))

(* ------------------------------------------------------------------ *)
(* Full socket round-trip                                             *)
(* ------------------------------------------------------------------ *)

let with_daemon f =
  let dir = Filename.temp_file "tka_serve_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "tka.sock" in
  let srv = make_server () in
  let listener = Server.listen_unix sock in
  let thread = Thread.create (fun () -> Server.serve srv ~listeners:[ listener ]) () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join thread;
      (try Sys.remove sock with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f srv sock)

let test_socket_roundtrip () =
  with_daemon (fun _srv sock ->
      let c = Client.connect_unix sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.call c ~meth:"ping" () with
          | Ok _ -> ()
          | Error (_, m) -> Alcotest.failf "ping over socket failed: %s" m);
          (match
             Client.call c ~meth:"load"
               ~params:(J.Obj [ ("netlist", J.Str tiny_body); ("k", J.Int 4) ])
               ()
           with
          | Ok r ->
            Alcotest.(check bool)
              "load over socket sees couplings" true
              (int_member "couplings" r > 0)
          | Error (_, m) -> Alcotest.failf "load over socket failed: %s" m);
          match Client.call c ~meth:"analyze" () with
          | Ok r ->
            Alcotest.(check bool)
              "analyze over socket returns per_k" true
              (match J.member "per_k" r with
              | Some (J.List (_ :: _)) -> true
              | _ -> false)
          | Error (_, m) -> Alcotest.failf "analyze over socket failed: %s" m))

let test_socket_garbage () =
  with_daemon (fun _srv sock ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* not a frame at all: the daemon must answer with a
             structured bad_request and close, not crash *)
          output_string oc "this is not a frame\n";
          flush oc;
          (match Framing.read ic with
          | Ok payload ->
            let reply = J.of_string payload in
            Alcotest.(check string)
              "garbage answered with bad_request" "bad_request"
              (Proto.code_to_string (error_code "garbage" reply))
          | Error e ->
            Alcotest.failf "no structured reply to garbage: %s"
              (Framing.error_to_string e));
          match Framing.read ic with
          | Error Framing.Eof -> ()
          | Ok _ -> Alcotest.fail "connection must close after a framing error"
          | Error _ -> () (* reset also acceptable: the peer is gone *)));
  (* the daemon survived: a fresh well-formed connection still works *)
  with_daemon (fun _srv sock ->
      let c = Client.connect_unix sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.call c ~meth:"ping" () with
          | Ok _ -> ()
          | Error (_, m) -> Alcotest.failf "ping after garbage failed: %s" m))

(* Regression: a client that sends a request and closes without
   reading the reply used to kill the whole daemon — the reply write
   hit a dead peer and the resulting SIGPIPE (default disposition:
   terminate) took every other connection down with it. Now the EPIPE
   is scoped to that one connection. *)
let test_socket_disconnect_mid_reply () =
  with_daemon (fun _srv sock ->
      for _ = 1 to 3 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let oc = Unix.out_channel_of_descr fd in
        (* a request with a sizable reply, then vanish before reading it *)
        Framing.write oc
          (J.to_string
             (J.Obj
                [
                  ("id", J.Int 1);
                  ("method", J.Str "load");
                  ( "params",
                    J.Obj [ ("netlist", J.Str tiny_body); ("k", J.Int 4) ] );
                ]));
        Unix.close fd;
        Thread.delay 0.05
      done;
      (* the daemon survived every abandoned connection *)
      let c = Client.connect_unix sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.call c ~meth:"ping" () with
          | Ok _ -> ()
          | Error (_, m) ->
            Alcotest.failf "ping after mid-reply disconnects failed: %s" m))

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "tka_serve"
    [
      ( "framing",
        [
          Alcotest.test_case "round-trip" `Quick test_framing_roundtrip;
          Alcotest.test_case "stream" `Quick test_framing_stream;
          Alcotest.test_case "garbage" `Quick test_framing_garbage;
          Alcotest.test_case "eintr retry" `Quick test_retry_eintr;
        ] );
      qsuite "framing-qcheck" [ prop_framing_roundtrip ];
      ("proto", [ Alcotest.test_case "codes" `Quick test_proto_codes ]);
      ( "dispatch",
        [
          Alcotest.test_case "errors" `Quick test_dispatch_errors;
          Alcotest.test_case "bad edits" `Quick test_bad_edits;
          Alcotest.test_case "batch" `Quick test_batch;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
          Alcotest.test_case "metrics" `Quick test_metrics_rpc;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "determinism across jobs" `Quick
            test_determinism_across_jobs;
          Alcotest.test_case "concurrent sessions on i2-i4" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "fixpoint reuse" `Quick test_fixpoint_reuse;
          Alcotest.test_case "warm cache cross-session" `Quick
            test_warm_cache_cross_session;
          Alcotest.test_case "whatif does not advance" `Quick
            test_whatif_does_not_advance;
          Alcotest.test_case "eco advances" `Quick test_eco_advances;
          Alcotest.test_case "eco rule surfaced" `Quick test_eco_rule_surfaced;
          Alcotest.test_case "eco matches Eco.run" `Quick test_eco_matches_eco_run;
          Alcotest.test_case "eco wire format" `Quick test_eco_wire_format;
          Alcotest.test_case "repair rpc" `Quick test_repair_rpc;
          Alcotest.test_case "repair commit is warm" `Quick test_repair_commit_warm;
          Alcotest.test_case "filter rpc" `Quick test_filter_rpc;
        ] );
      ( "admission",
        [
          Alcotest.test_case "unit" `Quick test_admission_unit;
          Alcotest.test_case "overload" `Quick test_admission_overload;
          Alcotest.test_case "timeout" `Quick test_admission_timeout;
        ] );
      ( "socket",
        [
          Alcotest.test_case "round-trip" `Quick test_socket_roundtrip;
          Alcotest.test_case "garbage" `Quick test_socket_garbage;
          Alcotest.test_case "disconnect mid-reply" `Quick
            test_socket_disconnect_mid_reply;
        ] );
    ]
