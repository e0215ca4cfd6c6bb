(* Tests for the observability layer (Tka_obs): structured logging,
   metrics registry, span tracing and the minimal JSON codec. *)

module J = Tka_obs.Jsonx
module Log = Tka_obs.Log
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf msg = check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Jsonx                                                              *)
(* ------------------------------------------------------------------ *)

let sample_json =
  J.Obj
    [
      ("null", J.Null);
      ("flag", J.Bool true);
      ("n", J.Int (-42));
      ("x", J.Float 0.125);
      ("s", J.Str "a \"quoted\"\nline\twith\\specials");
      ("l", J.List [ J.Int 1; J.Float 2.5; J.Str "three"; J.Bool false ]);
      ("o", J.Obj [ ("inner", J.List []) ]);
    ]

let test_json_roundtrip () =
  let s = J.to_string sample_json in
  checkb "compact is one line" true (not (String.contains s '\n' && s.[0] <> '"'));
  check
    (Alcotest.testable
       (fun ppf v -> Format.pp_print_string ppf (J.to_string v))
       ( = ))
    "round-trip" sample_json
    (J.of_string s);
  (* pretty rendering parses back to the same value too *)
  check
    (Alcotest.testable
       (fun ppf v -> Format.pp_print_string ppf (J.to_string v))
       ( = ))
    "pretty round-trip" sample_json
    (J.of_string (J.to_string_pretty sample_json))

let test_json_floats () =
  checks "nan is null" "null" (J.to_string (J.Float Float.nan));
  checks "inf is null" "null" (J.to_string (J.Float Float.infinity));
  (* integer-valued floats keep a decimal point so they parse as floats *)
  (match J.of_string (J.to_string (J.Float 3.0)) with
  | J.Float f -> checkf "float stays float" 3.0 f
  | _ -> Alcotest.fail "expected a float");
  (* awkward doubles survive the printer *)
  List.iter
    (fun f ->
      match J.of_string (J.to_string (J.Float f)) with
      | J.Float f' -> check (Alcotest.float 0.) "exact" f f'
      | _ -> Alcotest.fail "expected a float")
    [ 0.1; 1. /. 3.; 1e-300; 6.02e23; -0.0012345678901234567 ]

let roundtrip v = J.of_string (J.to_string v)

let test_json_string_escapes () =
  (* every control character escapes and parses back byte-identically *)
  let ctl = String.init 0x20 Char.chr in
  (match roundtrip (J.Str ctl) with
  | J.Str s -> checks "control chars round-trip" ctl s
  | _ -> Alcotest.fail "expected a string");
  checks "control chars use \\u escapes" {|"\u0001\u001f"|}
    (J.to_string (J.Str "\x01\x1f"));
  (* named escapes are preferred for the common cases *)
  checks "named escapes" {|"a\"b\\c\nd\re\tf"|}
    (J.to_string (J.Str "a\"b\\c\nd\re\tf"));
  (* parser-side escapes the printer never emits *)
  (match J.of_string {|"\/\b\f"|} with
  | J.Str s -> checks "solidus/backspace/formfeed" "/\b\012" s
  | _ -> Alcotest.fail "expected a string");
  (* \u escapes decode to UTF-8 *)
  (match J.of_string {|"caf\u00e9 \u2192 A"|} with
  | J.Str s -> checks "\\u decodes as UTF-8" "café → A" s
  | _ -> Alcotest.fail "expected a string");
  match J.of_string {|"tru\uZZZZncated"|} with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed \\u escape must not parse"

let test_json_unicode () =
  (* multibyte UTF-8 passes through the printer raw and intact *)
  let s = "héllo wörld — ≤ 3 ∧ 日本語 🎉" in
  (match roundtrip (J.Str s) with
  | J.Str s' -> checks "utf-8 round-trip" s s'
  | _ -> Alcotest.fail "expected a string");
  checkb "printer leaves multibyte bytes unescaped" true
    (J.to_string (J.Str "日") = "\"日\"")

let test_json_nested_arrays () =
  let deep =
    J.List
      [
        J.List [ J.List [ J.List [ J.Int 1 ]; J.List [] ] ];
        J.List [ J.Obj [ ("xs", J.List [ J.List [ J.Str "[" ] ]) ] ];
      ]
  in
  checkb "deep nesting round-trips" true (roundtrip deep = deep);
  checkb "pretty round-trips too" true
    (J.of_string (J.to_string_pretty deep) = deep);
  (* 1000 levels of array nesting: linear recursion must survive *)
  let rec wrap n v = if n = 0 then v else wrap (n - 1) (J.List [ v ]) in
  let tower = wrap 1000 (J.Int 7) in
  checkb "1000-deep tower round-trips" true (roundtrip tower = tower)

let test_json_float_extremes () =
  List.iter
    (fun f ->
      match roundtrip (J.Float f) with
      | J.Float f' -> check (Alcotest.float 0.) "exact" f f'
      | _ -> Alcotest.fail "expected a float")
    [
      Float.max_float; -.Float.max_float; Float.min_float; -.Float.min_float;
      4.9e-324 (* smallest subnormal *); -4.9e-324; 1e308; -1e308;
      -123456789.0625; 2. ** 53.; -.(2. ** 53.);
    ];
  (* huge integer-valued floats must not be printed in %.1f notation
     that silently rounds: they take the round-tripping path *)
  (match roundtrip (J.Float 1e306) with
  | J.Float f -> check (Alcotest.float 0.) "1e306" 1e306 f
  | _ -> Alcotest.fail "expected a float");
  (* negative zero keeps its sign bit *)
  match roundtrip (J.Float (-0.0)) with
  | J.Float f -> checkb "negative zero" true (1. /. f = Float.neg_infinity)
  | _ -> Alcotest.fail "expected a float"

let test_json_errors () =
  let bad s =
    match J.of_string s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "should not parse: %s" s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated";
  checkb "member hit" true (J.member "n" sample_json = Some (J.Int (-42)));
  checkb "member miss" true (J.member "zzz" sample_json = None);
  checkb "member non-obj" true (J.member "a" (J.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Log                                                                *)
(* ------------------------------------------------------------------ *)

(* Run [f] with a buffer reporter and an isolated global level,
   restoring the previous configuration afterwards. *)
let with_capture ?(level = Some Log.Warn) f =
  let saved = Log.global_level () in
  let reporter, events = Log.buffer_reporter () in
  Log.set_reporter reporter;
  Log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Log.set_reporter Log.nop_reporter;
      Log.set_level saved)
    (fun () -> f events)

let test_log_levels () =
  let src = Log.Src.create "test-levels" in
  Log.Src.set_level src None;
  with_capture ~level:(Some Log.Warn) (fun events ->
      Log.debug src (fun m -> m "dropped debug");
      Log.info src (fun m -> m "dropped info");
      Log.warn src (fun m -> m "kept warn %d" 1);
      Log.err src (fun m -> m "kept error");
      let evs = events () in
      checki "only warn+error pass at Warn" 2 (List.length evs);
      checks "first is the warn" "kept warn 1" (List.nth evs 0).Log.ev_msg;
      checkb "levels recorded" true
        ((List.nth evs 0).Log.ev_level = Log.Warn
        && (List.nth evs 1).Log.ev_level = Log.Error))

let test_log_filtering_is_lazy () =
  let src = Log.Src.create "test-lazy" in
  Log.Src.set_level src None;
  with_capture ~level:(Some Log.Error) (fun events ->
      let touched = ref 0 in
      Log.debug src (fun m ->
          incr touched;
          m "never formatted");
      checki "disabled message never runs its closure" 0 !touched;
      checki "nothing reported" 0 (List.length (events ())));
  with_capture ~level:None (fun events ->
      Log.err src (fun m -> m "even errors are off when level is None");
      checki "None disables everything" 0 (List.length (events ())))

let test_log_source_override () =
  let noisy = Log.Src.create "test-noisy" in
  let quiet = Log.Src.create "test-quiet" in
  with_capture ~level:(Some Log.Warn) (fun events ->
      Log.Src.set_level noisy (Some Log.Debug);
      Log.Src.set_level quiet (Some Log.Error);
      Log.debug noisy (fun m -> m "noisy debug passes");
      Log.warn quiet (fun m -> m "quiet warn dropped");
      Log.err quiet (fun m -> m "quiet error passes");
      let evs = events () in
      checki "override respected both ways" 2 (List.length evs);
      checks "src recorded" "test-noisy" (List.nth evs 0).Log.ev_src;
      Log.Src.set_level noisy None;
      Log.Src.set_level quiet None)

let test_log_set_from_string () =
  let saved = Log.global_level () in
  Fun.protect
    ~finally:(fun () -> Log.set_level saved)
    (fun () ->
      (match Log.set_from_string "info,test-directive=debug" with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      checkb "global became info" true (Log.global_level () = Some Log.Info);
      (* the per-source directive pre-registered the source *)
      let src = Log.Src.create "test-directive" in
      checkb "pending level applied" true (Log.Src.level src = Some Log.Debug);
      checkb "enabled at debug" true (Log.enabled src Log.Debug);
      Log.Src.set_level src None;
      (match Log.set_from_string "nonsense-level" with
      | Ok () -> Alcotest.fail "bogus level must not parse"
      | Error _ -> ());
      match Log.set_from_string "quiet" with
      | Ok () -> checkb "quiet disables" true (Log.global_level () = None)
      | Error m -> Alcotest.fail m)

let test_log_fields_and_same_name () =
  let a = Log.Src.create "test-same" in
  let b = Log.Src.create "test-same" in
  checkb "same name gives the same source" true (a == b);
  with_capture ~level:(Some Log.Info) (fun events ->
      Log.info a
        (fun m ->
          m
            ~fields:[ Log.str "who" "x"; Log.int "n" 7; Log.float "f" 0.5;
                      Log.bool "ok" true ]
            "structured");
      match events () with
      | [ ev ] ->
        checki "four fields" 4 (List.length ev.Log.ev_fields);
        checkb "int field" true
          (List.assoc "n" ev.Log.ev_fields = J.Int 7)
      | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs)))

let test_ndjson_reporter () =
  let path = Filename.temp_file "tka_obs" ".ndjson" in
  let oc = open_out path in
  let saved = Log.global_level () in
  let src = Log.Src.create "test-ndjson" in
  Log.set_reporter (Log.ndjson_reporter oc);
  Log.set_level (Some Log.Info);
  Log.info src (fun m -> m ~fields:[ Log.int "k" 3 ] "line one");
  Log.warn src (fun m -> m "line two");
  Log.set_reporter Log.nop_reporter;
  Log.set_level saved;
  close_out oc;
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  let j1 = J.of_string l1 and j2 = J.of_string l2 in
  checkb "msg" true (J.member "msg" j1 = Some (J.Str "line one"));
  checkb "level" true (J.member "level" j2 = Some (J.Str "warn"));
  checkb "src" true (J.member "src" j1 = Some (J.Str "test-ndjson"));
  checkb "field" true (J.member "k" j1 = Some (J.Int 3));
  checkb "timestamp present" true (J.member "ts_ns" j1 <> None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

(* The one registry holds every metric of the process, so each test
   names its metrics uniquely, and reads back the lines of the
   Prometheus rendering whose (sanitised) names start with [prefix]. *)
let rendered prefix =
  String.split_on_char '\n' (Metrics.render_prometheus ())
  |> List.filter (fun l ->
         String.starts_with ~prefix l || String.starts_with ~prefix:("# TYPE " ^ prefix) l)
  |> List.map (fun l -> l ^ "\n")
  |> String.concat ""

let test_counter_semantics () =
  let c = Metrics.Counter.make "t.counter" in
  Metrics.Counter.incr c;
  checki "disabled incr is a no-op" 0 (Metrics.Counter.value c);
  Metrics.with_enabled true (fun () ->
      Metrics.Counter.incr c;
      Metrics.Counter.add c 5);
  checki "enabled updates apply" 6 (Metrics.Counter.value c);
  let c' = Metrics.Counter.make "t.counter" in
  Metrics.with_enabled true (fun () -> Metrics.Counter.incr c');
  checki "same name is the same counter" 7 (Metrics.Counter.value c);
  checkb "find_counter" true (Metrics.find_counter "t.counter" <> None);
  checkb "find wrong kind" true (Metrics.find_gauge "t.counter" = None);
  (match Metrics.Gauge.make "t.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must be rejected");
  Metrics.reset ();
  checki "reset zeroes" 0 (Metrics.Counter.value c)

let test_gauge_semantics () =
  let g = Metrics.Gauge.make "t.gauge" in
  Metrics.Gauge.set g 3.5;
  checkf "disabled set is a no-op" 0.0 (Metrics.Gauge.value g);
  Metrics.with_enabled true (fun () -> Metrics.Gauge.set g 3.5);
  checkf "set applies" 3.5 (Metrics.Gauge.value g)

let test_histogram_semantics () =
  let h = Metrics.Histogram.make ~buckets:[| 1.0; 2.0; 4.0 |] "t.h" in
  Metrics.with_enabled true (fun () ->
      List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 1.5; 4.0; 100.0 ]);
  (* bounds are inclusive upper bounds; the 4th cell is overflow *)
  checkb "bucket counts" true
    (Metrics.Histogram.counts h = [| 2; 1; 1; 1 |]);
  checki "count" 5 (Metrics.Histogram.count h);
  checkf "sum" 107.0 (Metrics.Histogram.sum h);
  Metrics.with_disabled (fun () -> Metrics.Histogram.observe h 9.0);
  checki "with_disabled suppresses" 5 (Metrics.Histogram.count h);
  checkb "default buckets increase" true
    (let b = Metrics.Histogram.default_buckets in
     Array.for_all (fun x -> x > 0.) b
     && Array.for_all
          (fun i -> b.(i) < b.(i + 1))
          (Array.init (Array.length b - 1) Fun.id))

let test_metrics_json () =
  let c = Metrics.Counter.make "a.count" in
  let g = Metrics.Gauge.make "b.gauge" in
  let h = Metrics.Histogram.make ~buckets:[| 1.0 |] "c.hist" in
  Metrics.with_enabled true (fun () ->
      Metrics.Counter.add c 3;
      Metrics.Gauge.set g 1.25;
      Metrics.Histogram.observe h 0.5;
      Metrics.Histogram.observe h 2.0);
  let j = Metrics.to_json () in
  (* serialises compactly and parses back *)
  let j' = J.of_string (J.to_string j) in
  checkb "counter exported as int" true (J.member "a.count" j' = Some (J.Int 3));
  checkb "gauge exported as float" true (J.member "b.gauge" j' = Some (J.Float 1.25));
  (match J.member "c.hist" j' with
  | Some hist ->
    checkb "hist count" true (J.member "count" hist = Some (J.Int 2));
    checkb "hist counts" true
      (J.member "counts" hist = Some (J.List [ J.Int 1; J.Int 1 ]))
  | None -> Alcotest.fail "histogram missing from export");
  (* keys come out sorted *)
  match j with
  | J.Obj kvs ->
    let keys = List.map fst kvs in
    checkb "sorted keys" true (keys = List.sort compare keys)
  | _ -> Alcotest.fail "expected an object"

let test_metrics_noop_no_alloc () =
  let c = Metrics.Counter.make "noalloc.count" in
  let g = Metrics.Gauge.make "noalloc.gauge" in
  let h = Metrics.Histogram.make "noalloc.hist" in
  Metrics.set_enabled false;
  (* warm up any one-time setup *)
  Metrics.Counter.incr c;
  Metrics.Gauge.set g 1.0;
  Metrics.Histogram.observe h 1.0;
  let v = 0.125 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Metrics.Counter.incr c;
    Metrics.Counter.add c 2;
    Metrics.Gauge.set g v;
    Metrics.Histogram.observe h v
  done;
  let allocated = Gc.minor_words () -. before in
  (* allow a few words of slack for the Gc.minor_words calls themselves *)
  checkb
    (Printf.sprintf "disabled hot path allocates nothing (saw %.0f words)"
       allocated)
    true (allocated < 256.)

let test_histogram_percentiles () =
  let h =
    Metrics.Histogram.make ~buckets:[| 1.0; 2.0; 4.0 |] "t.pct"
  in
  checkb "empty histogram gives nan" true
    (Float.is_nan (Metrics.Histogram.percentile h 0.5));
  (match Metrics.Histogram.percentile h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q outside [0,1] must be rejected");
  (* one observation per bucket, including overflow *)
  Metrics.with_enabled true (fun () ->
      List.iter (Metrics.Histogram.observe h) [ 0.5; 1.5; 3.0; 8.0 ]);
  (* rank = q * total; bucket boundaries interpolate exactly to the
     bucket's upper bound *)
  checkf "q=0 is the distribution floor" 0.0 (Metrics.Histogram.percentile h 0.);
  checkf "p25 lands on the first bound" 1.0 (Metrics.Histogram.percentile h 0.25);
  checkf "p50 lands on the second bound" 2.0 (Metrics.Histogram.percentile h 0.5);
  checkf "p75 lands on the third bound" 4.0 (Metrics.Histogram.percentile h 0.75);
  (* overflow observations clamp to the last finite bound *)
  checkf "p100 clamps to the last bound" 4.0 (Metrics.Histogram.percentile h 1.);
  (* interpolation inside one bucket *)
  let h1 = Metrics.Histogram.make ~buckets:[| 4.0 |] "t.pct1" in
  Metrics.with_enabled true (fun () ->
      List.iter (Metrics.Histogram.observe h1) [ 1.0; 2.0; 3.0; 4.0 ]);
  checkf "within-bucket interpolation" 2.0 (Metrics.Histogram.percentile h1 0.5);
  (* empty buckets are skipped, not interpolated into *)
  let h2 = Metrics.Histogram.make ~buckets:[| 1.0; 2.0; 4.0 |] "t.pct2" in
  Metrics.with_enabled true (fun () -> Metrics.Histogram.observe h2 3.0);
  checkf "empty leading buckets skipped" 3.0 (Metrics.Histogram.percentile h2 0.5);
  (* the JSON export carries the percentile estimates (null when empty) *)
  let j = J.of_string (J.to_string (Metrics.to_json ())) in
  (match J.member "t.pct" j with
  | Some hist ->
    checkb "p50 exported" true (J.member "p50" hist = Some (J.Float 2.0));
    checkb "p99 exported" true (J.member "p99" hist <> None)
  | None -> Alcotest.fail "histogram missing from export");
  let h3 = Metrics.Histogram.make ~buckets:[| 1.0 |] "t.pct3" in
  ignore h3;
  match J.member "t.pct3" (Metrics.to_json ()) with
  | Some hist -> checkb "empty percentiles are null" true (J.member "p50" hist = Some J.Null)
  | None -> Alcotest.fail "empty histogram missing from export"

let test_prometheus_names () =
  checks "dots become underscores" "incr_cache_hits"
    (Metrics.prometheus_name "incr.cache_hits");
  checks "valid names pass through" "serve_requests:rate"
    (Metrics.prometheus_name "serve_requests:rate");
  checks "leading digit gets a prefix" "_9lives" (Metrics.prometheus_name "9lives");
  checks "arbitrary punctuation collapses" "a_b_c"
    (Metrics.prometheus_name "a-b c");
  checks "empty name survives" "_" (Metrics.prometheus_name "");
  checks "backslash escaped" {|a\\b|} (Metrics.prometheus_escape_label {|a\b|});
  checks "quote escaped" {|say \"hi\"|}
    (Metrics.prometheus_escape_label {|say "hi"|});
  checks "newline escaped" {|one\ntwo|} (Metrics.prometheus_escape_label "one\ntwo");
  checks "all three at once" {|\\\"\n|}
    (Metrics.prometheus_escape_label "\\\"\n")

let test_prometheus_render () =
  let c = Metrics.Counter.make "render.serve.requests" in
  let g = Metrics.Gauge.make "render.pool.load" in
  let h = Metrics.Histogram.make ~buckets:[| 0.1; 1.0 |] "render.rpc.lat_s" in
  Metrics.with_enabled true (fun () ->
      Metrics.Counter.add c 3;
      Metrics.Gauge.set g (-2.5);
      List.iter (Metrics.Histogram.observe h) [ 0.05; 0.5; 5.0 ]);
  let expected =
    String.concat "\n"
      [
        (* sorted by sanitised name: pool_load < rpc_lat_s < serve_requests *)
        "# TYPE render_pool_load gauge";
        "render_pool_load -2.5";
        "# TYPE render_rpc_lat_s histogram";
        (* bucket counts are cumulative; +Inf equals the total count *)
        "render_rpc_lat_s_bucket{le=\"0.1\"} 1";
        "render_rpc_lat_s_bucket{le=\"1\"} 2";
        "render_rpc_lat_s_bucket{le=\"+Inf\"} 3";
        "render_rpc_lat_s_sum 5.55";
        "render_rpc_lat_s_count 3";
        "# TYPE render_serve_requests counter";
        "render_serve_requests 3";
        "";
      ]
  in
  checks "full exposition text" expected (rendered "render_")

let test_prometheus_values () =
  let g = Metrics.Gauge.make "values.g" in
  let render () = rendered "values_g" in
  let set v = Metrics.with_enabled true (fun () -> Metrics.Gauge.set g v) in
  set 42.0;
  checks "integral floats have no fraction" "# TYPE values_g gauge\nvalues_g 42\n" (render ());
  set Float.infinity;
  checks "+inf spelled per the format" "# TYPE values_g gauge\nvalues_g +Inf\n" (render ());
  set Float.neg_infinity;
  checks "-inf spelled per the format" "# TYPE values_g gauge\nvalues_g -Inf\n" (render ());
  set Float.nan;
  checks "nan spelled per the format" "# TYPE values_g gauge\nvalues_g NaN\n" (render ());
  (* an awkward double must render with enough digits to read back *)
  set 0.1;
  (match String.index_opt (render ()) '\n' with
  | Some _ ->
    let line = List.nth (String.split_on_char '\n' (render ())) 1 in
    let v = Scanf.sscanf line "values_g %f" Fun.id in
    checkb "value round-trips through the text form" true (v = 0.1)
  | None -> Alcotest.fail "no rendered line");
  (* an empty histogram still renders, with all-zero buckets *)
  let _h = Metrics.Histogram.make ~buckets:[| 1.0 |] "values.h" in
  checks "empty histogram renders zeros"
    "# TYPE values_h histogram\nvalues_h_bucket{le=\"1\"} 0\nvalues_h_bucket{le=\"+Inf\"} 0\nvalues_h_sum 0\nvalues_h_count 0\n"
    (rendered "values_h")

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    f

let test_span_nesting () =
  with_tracing (fun () ->
      let result =
        Trace.with_span "outer" (fun () ->
            Trace.with_span ~cat:"inner-cat" "inner" (fun () -> 21 * 2))
      in
      checki "value passes through" 42 result;
      match Trace.spans () with
      | [ inner; outer ] ->
        checks "child completes first" "inner" inner.Trace.sp_name;
        checks "parent last" "outer" outer.Trace.sp_name;
        checki "child depth" 1 inner.Trace.sp_depth;
        checki "parent depth" 0 outer.Trace.sp_depth;
        checks "category" "inner-cat" inner.Trace.sp_cat;
        checkb "durations non-negative" true
          (inner.Trace.sp_dur_ns >= 0L && outer.Trace.sp_dur_ns >= 0L);
        (* child interval nested inside the parent interval *)
        checkb "child starts after parent" true
          (inner.Trace.sp_start_ns >= outer.Trace.sp_start_ns);
        checkb "child ends before parent" true
          (Int64.add inner.Trace.sp_start_ns inner.Trace.sp_dur_ns
          <= Int64.add outer.Trace.sp_start_ns outer.Trace.sp_dur_ns)
      | spans ->
        Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length spans)))

let test_span_exception_safety () =
  with_tracing (fun () ->
      (match Trace.with_span "boom" (fun () -> failwith "expected") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception must propagate");
      (match Trace.spans () with
      | [ s ] -> checks "span recorded despite raise" "boom" s.Trace.sp_name
      | spans ->
        Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length spans)));
      (* the nesting depth unwound correctly *)
      Trace.with_span "after" (fun () -> ());
      match Trace.spans () with
      | [ _; after ] -> checki "depth restored after raise" 0 after.Trace.sp_depth
      | _ -> Alcotest.fail "expected 2 spans")

let test_trace_disabled_is_identity () =
  Trace.clear ();
  Trace.set_enabled false;
  let r = Trace.with_span "ghost" (fun () -> "ok") in
  checks "thunk still runs" "ok" r;
  Trace.instant "ghost-marker";
  checki "nothing recorded when disabled" 0 (List.length (Trace.spans ()))

let test_trace_json () =
  with_tracing (fun () ->
      Trace.with_span ~args:[ ("k", J.Int 5) ] "spanned" (fun () ->
          Trace.instant "marker");
      let j = J.of_string (J.to_string (Trace.to_json ())) in
      match J.member "traceEvents" j with
      | Some (J.List evs) ->
        checki "two events" 2 (List.length evs);
        let names =
          List.filter_map (fun e -> J.member "name" e) evs
          |> List.map (function J.Str s -> s | _ -> "?")
        in
        checkb "both named" true
          (List.mem "spanned" names && List.mem "marker" names);
        List.iter
          (fun e ->
            checkb "pid/tid present" true
              (J.member "pid" e = Some (J.Int 1) && J.member "tid" e = Some (J.Int 1));
            checkb "phase is X or i" true
              (match J.member "ph" e with
              | Some (J.Str ("X" | "i")) -> true
              | _ -> false))
          evs;
        (* the complete event carries its args *)
        let spanned =
          List.find
            (fun e -> J.member "name" e = Some (J.Str "spanned"))
            evs
        in
        checkb "args preserved" true
          (match J.member "args" spanned with
          | Some a -> J.member "k" a = Some (J.Int 5)
          | None -> false)
      | _ -> Alcotest.fail "traceEvents missing")

let test_span_gc_delta () =
  with_tracing (fun () ->
      Trace.with_span "alloc" (fun () ->
          ignore (Sys.opaque_identity (Array.make 100_000 0.)));
      (match Trace.spans () with
      | [ s ] -> (
        match s.Trace.sp_gc with
        | Some gd ->
          checkb "allocation counted" true
            (gd.Trace.gd_minor_words +. gd.Trace.gd_major_words > 0.);
          checkb "collection counts non-negative" true
            (gd.Trace.gd_minor_collections >= 0
            && gd.Trace.gd_major_collections >= 0)
        | None -> Alcotest.fail "span must carry a GC delta")
      | spans ->
        Alcotest.fail
          (Printf.sprintf "expected 1 span, got %d" (List.length spans)));
      (* the Chrome export merges the delta into the event args *)
      let j = Trace.to_json () in
      (match J.member "traceEvents" j with
      | Some (J.List [ ev ]) ->
        checkb "minor_words in exported args" true
          (match J.member "args" ev with
          | Some a -> J.member "minor_words" a <> None
          | None -> false)
      | _ -> Alcotest.fail "expected one trace event");
      (* instants carry no GC delta *)
      Trace.clear ();
      Trace.instant "mark";
      match Trace.spans () with
      | [ m ] -> checkb "instant has no gc" true (m.Trace.sp_gc = None)
      | _ -> Alcotest.fail "expected the instant")

let test_with_span_args () =
  with_tracing (fun () ->
      let r =
        Trace.with_span_args ~args:[ ("static", J.Int 1) ] "late"
          (fun result -> [ ("result", J.Int result) ])
          (fun () -> 7)
      in
      checki "value passes through" 7 r;
      (match Trace.spans () with
      | [ s ] ->
        checkb "static arg kept" true
          (List.assoc_opt "static" s.Trace.sp_args = Some (J.Int 1));
        checkb "late arg appended" true
          (List.assoc_opt "result" s.Trace.sp_args = Some (J.Int 7))
      | _ -> Alcotest.fail "expected 1 span");
      Trace.clear ();
      (match
         Trace.with_span_args "boom"
           (fun _ -> [ ("x", J.Int 1) ])
           (fun () -> failwith "expected")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception must propagate");
      match Trace.spans () with
      | [ s ] ->
        checkb "no late args when the thunk raises" true
          (List.assoc_opt "x" s.Trace.sp_args = None)
      | _ -> Alcotest.fail "expected 1 span")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tka_obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "unicode" `Quick test_json_unicode;
          Alcotest.test_case "nested arrays" `Quick test_json_nested_arrays;
          Alcotest.test_case "float extremes" `Quick test_json_float_extremes;
          Alcotest.test_case "errors and member" `Quick test_json_errors;
        ] );
      ( "log",
        [
          Alcotest.test_case "level filtering" `Quick test_log_levels;
          Alcotest.test_case "lazy formatting" `Quick test_log_filtering_is_lazy;
          Alcotest.test_case "per-source override" `Quick test_log_source_override;
          Alcotest.test_case "set_from_string" `Quick test_log_set_from_string;
          Alcotest.test_case "fields + same-name sources" `Quick
            test_log_fields_and_same_name;
          Alcotest.test_case "ndjson reporter" `Quick test_ndjson_reporter;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "gauge" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram" `Quick test_histogram_semantics;
          Alcotest.test_case "json export" `Quick test_metrics_json;
          Alcotest.test_case "no-op mode allocates nothing" `Quick
            test_metrics_noop_no_alloc;
          Alcotest.test_case "prometheus names" `Quick test_prometheus_names;
          Alcotest.test_case "prometheus render" `Quick test_prometheus_render;
          Alcotest.test_case "prometheus values" `Quick test_prometheus_values;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "disabled identity" `Quick
            test_trace_disabled_is_identity;
          Alcotest.test_case "chrome json" `Quick test_trace_json;
          Alcotest.test_case "gc delta" `Quick test_span_gc_delta;
          Alcotest.test_case "late args" `Quick test_with_span_args;
        ] );
    ]
