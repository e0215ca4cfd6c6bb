(* Tests for Tka_prof: RSS probes, trace analytics (synthetic spans and
   a live top-k run), and bench-diff regression detection. *)

module J = Tka_obs.Jsonx
module Trace = Tka_obs.Trace
module Rss = Tka_prof.Rss
module Profile = Tka_prof.Profile
module Bd = Tka_prof.Bench_diff
module Topo = Tka_circuit.Topo
module Elimination = Tka_topk.Elimination
module B = Tka_layout.Benchmarks

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------------------------------------------ *)
(* Rss                                                                *)
(* ------------------------------------------------------------------ *)

let test_rss () =
  if Rss.supported () then begin
    (* on Linux both probes must produce a plausible figure; read
       current first — RSS can only have grown by the time the kernel's
       high-water mark is sampled *)
    match (Rss.current_bytes (), Rss.peak_bytes ()) with
    | Some cur, Some peak ->
      checkb "peak positive" true (peak > 0);
      checkb "current positive" true (cur > 0);
      checkb "peak >= current" true (peak >= cur);
      (* a test binary needs at least a megabyte and fits in a terabyte *)
      checkb "peak plausible" true (peak > 1_000_000 && peak < 1_000_000_000_000)
    | _ -> Alcotest.fail "supported platform returned None"
  end
  else begin
    checkb "peak is None off-procfs" true (Rss.peak_bytes () = None);
    checkb "current is None off-procfs" true (Rss.current_bytes () = None)
  end

(* ------------------------------------------------------------------ *)
(* Profile: synthetic spans                                           *)
(* ------------------------------------------------------------------ *)

let span ?(cat = "tka") ?(args = []) ?gc name ~start_ms ~dur_ms =
  {
    Trace.sp_name = name;
    sp_cat = cat;
    sp_start_ns = Int64.of_float (start_ms *. 1e6);
    sp_dur_ns = Int64.of_float (dur_ms *. 1e6);
    sp_depth = 0;
    sp_args = args;
    sp_gc = gc;
  }

let test_profile_self_time () =
  (* outer [0,100ms) containing inner [10,40ms): self = 70 / 30 *)
  let spans =
    [
      span "outer" ~start_ms:0. ~dur_ms:100.;
      span "inner" ~start_ms:10. ~dur_ms:30.;
    ]
  in
  let r = Profile.analyze spans in
  checki "span count" 2 r.Profile.pr_span_count;
  checkf "wall covers outer" 0.100 r.Profile.pr_wall_s;
  (match r.Profile.pr_aggregates with
  | [ outer; inner ] ->
    (* total-time descending puts outer first *)
    Alcotest.(check string) "outer first" "outer" outer.Profile.ag_name;
    checkf "outer total" 0.100 outer.Profile.ag_total_s;
    checkf "outer self excludes inner" 0.070 outer.Profile.ag_self_s;
    checkf "inner self is its whole span" 0.030 inner.Profile.ag_self_s
  | l -> Alcotest.failf "expected 2 aggregates, got %d" (List.length l));
  (* same-named repeats accumulate count and time *)
  let r2 =
    Profile.analyze
      [
        span "leaf" ~start_ms:0. ~dur_ms:5.;
        span "leaf" ~start_ms:10. ~dur_ms:7.;
      ]
  in
  (match r2.Profile.pr_aggregates with
  | [ a ] ->
    checki "two calls aggregated" 2 a.Profile.ag_count;
    checkf "totals add" 0.012 a.Profile.ag_total_s
  | _ -> Alcotest.fail "expected one aggregate")

let test_profile_requests () =
  (* serve.request spans split by method, memo-answered ones apart;
     the analysis inside the first request is its child *)
  let req ?memo meth ~start_ms ~dur_ms =
    span ~cat:"serve" "serve.request" ~start_ms ~dur_ms
      ~args:
        (("method", J.Str meth)
        :: (match memo with Some b -> [ ("memo", J.Bool b) ] | None -> []))
  in
  let r =
    Profile.analyze
      [
        req "analyze" ~memo:false ~start_ms:0. ~dur_ms:20.;
        span "incr.run" ~start_ms:1. ~dur_ms:18.;
        req "analyze" ~memo:true ~start_ms:30. ~dur_ms:1.;
        req "analyze" ~memo:true ~start_ms:40. ~dur_ms:2.;
        req "metrics" ~start_ms:50. ~dur_ms:0.5;
      ]
  in
  let rows =
    List.map
      (fun a -> (a.Profile.ag_name, a.Profile.ag_count))
      r.Profile.pr_requests
  in
  Alcotest.(check (list (pair string int)))
    "one row per method, total-time descending"
    [ ("analyze", 1); ("analyze (memo)", 2); ("metrics", 1) ]
    rows;
  (match r.Profile.pr_requests with
  | first :: memo :: _ ->
    checkf "handler time" 0.020 first.Profile.ag_total_s;
    checkf "self time excludes the analysis" 0.002 first.Profile.ag_self_s;
    checkf "memo rows add up" 0.003 memo.Profile.ag_total_s
  | _ -> Alcotest.fail "expected request rows");
  let text = Profile.render r in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  checkb "rendered" true (has "Serve requests per method" && has "analyze (memo)")

let test_profile_victims () =
  let v name ms cand dom cap =
    span "engine.victim" ~start_ms:0. ~dur_ms:ms
      ~args:
        [
          ("net", J.Str name); ("candidates", J.Int cand);
          ("dominated", J.Int dom); ("capped", J.Int cap);
        ]
  in
  let spans =
    [ v "n1" 1. 10 4 2; v "n2" 5. 30 12 6; v "n3" 3. 20 8 4;
      span "other" ~start_ms:0. ~dur_ms:50. ]
  in
  let r = Profile.analyze ~top:2 spans in
  (* slowest first, truncated to top *)
  (match r.Profile.pr_victims with
  | [ a; b ] ->
    Alcotest.(check string) "slowest victim" "n2" a.Profile.vi_net;
    Alcotest.(check string) "second victim" "n3" b.Profile.vi_net;
    Alcotest.(check (option int)) "candidates" (Some 30) a.Profile.vi_candidates;
    Alcotest.(check (option int)) "dominated" (Some 12) a.Profile.vi_dominated;
    Alcotest.(check (option int)) "capped" (Some 6) a.Profile.vi_capped
  | l -> Alcotest.failf "expected 2 victims, got %d" (List.length l));
  (* spans without attribution args still list, with None fields *)
  let bare = span "engine.victim" ~start_ms:0. ~dur_ms:1. in
  let r2 = Profile.analyze [ bare ] in
  (match r2.Profile.pr_victims with
  | [ v ] ->
    Alcotest.(check string) "unnamed net" "?" v.Profile.vi_net;
    Alcotest.(check (option int)) "no candidates" None v.Profile.vi_candidates
  | _ -> Alcotest.fail "expected one victim")

let test_profile_alloc_hotspots () =
  let gc mw =
    {
      Trace.gd_minor_words = mw;
      gd_major_words = 0.;
      gd_promoted_words = 0.;
      gd_minor_collections = 1;
      gd_major_collections = 0;
    }
  in
  let spans =
    [
      span "cold" ~start_ms:0. ~dur_ms:1.;
      span "hot" ~start_ms:2. ~dur_ms:1. ~gc:(gc 5e6);
      span "warm" ~start_ms:4. ~dur_ms:1. ~gc:(gc 1e6);
    ]
  in
  let r = Profile.analyze spans in
  (* allocation-free spans are excluded; the rest sort by words desc *)
  (match r.Profile.pr_alloc_hotspots with
  | [ a; b ] ->
    Alcotest.(check string) "hottest" "hot" a.Profile.ag_name;
    Alcotest.(check string) "second" "warm" b.Profile.ag_name;
    checkf "words summed" 5e6 a.Profile.ag_minor_words
  | l -> Alcotest.failf "expected 2 hotspots, got %d" (List.length l))

let test_profile_trace_roundtrip () =
  (* live spans -> Chrome trace JSON -> ingested spans -> same report *)
  Trace.set_enabled true;
  Trace.clear ();
  Trace.with_span ~cat:"t" "rt.outer" (fun () ->
      Trace.with_span ~cat:"t"
        ~args:[ ("net", J.Str "x") ]
        "rt.inner"
        (fun () -> Sys.opaque_identity (ignore (Array.make 100_000 0.))));
  Trace.instant "rt.marker";
  let doc = Trace.to_json () in
  let live = List.filter (fun s -> s.Trace.sp_dur_ns >= 0L) (Trace.spans ()) in
  Trace.set_enabled false;
  Trace.clear ();
  let ingested = Profile.of_trace_json doc in
  (* instants are dropped; both duration spans survive *)
  checki "duration spans survive ingestion" (List.length live)
    (List.length ingested);
  let r = Profile.analyze ingested in
  let names = List.map (fun a -> a.Profile.ag_name) r.Profile.pr_aggregates in
  checkb "outer present" true (List.mem "rt.outer" names);
  checkb "inner present" true (List.mem "rt.inner" names);
  let inner =
    List.find (fun s -> s.Trace.sp_name = "rt.inner") ingested
  in
  (* GC delta fields come back out of the Chrome args... *)
  (match inner.Trace.sp_gc with
  | Some g -> checkb "alloc recorded" true (g.Trace.gd_minor_words > 0.)
  | None -> Alcotest.fail "gc delta lost in round trip");
  (* ...and are stripped from the ordinary args, which survive *)
  checkb "user arg survives" true
    (List.assoc_opt "net" inner.Trace.sp_args = Some (J.Str "x"));
  checkb "gc keys stripped" true
    (List.assoc_opt "minor_words" inner.Trace.sp_args = None);
  (* report renders and serialises without raising *)
  checkb "render nonempty" true (String.length (Profile.render r) > 0);
  match Profile.to_json r with
  | J.Obj kvs -> checkb "json has spans" true (List.mem_assoc "spans" kvs)
  | _ -> Alcotest.fail "to_json not an object"

let test_profile_live_topk () =
  (* the acceptance path: a real top-k run traced end to end must yield
     per-victim prune attribution *)
  let topo = Topo.create (Option.get (B.by_name "i1")) in
  Trace.set_enabled true;
  Trace.clear ();
  ignore (Elimination.compute ~k:3 topo);
  let spans = Trace.spans () in
  Trace.set_enabled false;
  Trace.clear ();
  let r = Profile.analyze ~top:5 spans in
  checkb "spans recorded" true (r.Profile.pr_span_count > 0);
  checkb "victims attributed" true (r.Profile.pr_victims <> []);
  let v = List.hd r.Profile.pr_victims in
  checkb "victim has a net name" true (v.Profile.vi_net <> "?");
  checkb "victim has candidate count" true (v.Profile.vi_candidates <> None);
  checkb "victim has dominated count" true (v.Profile.vi_dominated <> None)

(* ------------------------------------------------------------------ *)
(* Bench_diff                                                         *)
(* ------------------------------------------------------------------ *)

let bench_doc ?(topk = 1.0) ?(speedup = 2.0) ?(extra = []) () =
  J.Obj
    ([
       ("schema", J.Int 1);
       ("k", J.Int 10);
       ( "sections",
         J.Obj [ ("topk_runtime_s", J.Float topk); ("sta_runtime_s", J.Float 0.5) ]
       );
       ("speedup", J.Float speedup);
       ("minor_words", J.Float 5e7);
     ]
    @ extra)

let test_bench_diff_self () =
  let d = bench_doc () in
  let r = Bd.compare_docs d d in
  checkb "self-compare clean" false (Bd.has_regressions r);
  checkb "metrics were checked" true (List.length r.Bd.bd_checked >= 3);
  checkb "no improvements either" true (r.Bd.bd_improvements = [])

let test_bench_diff_slowdown () =
  (* a 30% slowdown on a _s leaf trips the default 20% threshold *)
  let base = bench_doc ~topk:1.0 () in
  let slow = bench_doc ~topk:1.3 () in
  let r = Bd.compare_docs base slow in
  checkb "regression detected" true (Bd.has_regressions r);
  (match r.Bd.bd_regressions with
  | [ m ] ->
    Alcotest.(check string) "right metric" "sections.topk_runtime_s"
      m.Bd.m_path;
    checkf "ratio" 1.3 m.Bd.m_ratio
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* the same delta under the threshold passes *)
  let r2 = Bd.compare_docs ~threshold:0.40 base slow in
  checkb "loose threshold passes" false (Bd.has_regressions r2);
  (* and a 30% improvement is reported as such, not a regression *)
  let r3 = Bd.compare_docs slow base in
  checkb "reverse is improvement" false (Bd.has_regressions r3);
  checkb "improvement listed" true (r3.Bd.bd_improvements <> [])

let test_bench_diff_directions () =
  (* "speedup" is higher-better: a drop regresses, a rise improves *)
  let base = bench_doc ~speedup:4.0 () in
  let r = Bd.compare_docs base (bench_doc ~speedup:2.0 ()) in
  checkb "speedup drop regresses" true
    (List.exists (fun m -> m.Bd.m_path = "speedup") r.Bd.bd_regressions);
  let r2 = Bd.compare_docs base (bench_doc ~speedup:8.0 ()) in
  checkb "speedup rise improves" true
    (List.exists (fun m -> m.Bd.m_path = "speedup") r2.Bd.bd_improvements);
  (* correctness fields (k, schema) are never thresholded *)
  checkb "k not a perf metric" true
    (List.for_all (fun m -> m.Bd.m_path <> "k") r.Bd.bd_checked)

let test_bench_diff_noise_floor () =
  (* 10x jitter on a 3ms timing is noise, not a regression *)
  let tiny v =
    J.Obj [ ("sections", J.Obj [ ("blip_runtime_s", J.Float v) ]) ]
  in
  let r = Bd.compare_docs (tiny 0.003) (tiny 0.03) in
  checkb "sub-floor timing skipped" false (Bd.has_regressions r);
  checkb "counted as skipped" true (r.Bd.bd_skipped_small = 1);
  (* ...but the floor is configurable *)
  let r2 = Bd.compare_docs ~min_seconds:0.001 (tiny 0.003) (tiny 0.03) in
  checkb "lowered floor catches it" true (Bd.has_regressions r2)

let test_bench_diff_memory_metrics () =
  (* memory figures are lower-better in their own unit: a peak-RSS rise
     in MB regresses, even though 900 "units" would sit far under the
     words-denominated floor *)
  let doc rss =
    J.Obj
      [
        ( "table2x",
          J.List [ J.Obj [ ("nets", J.Int 100_000); ("peak_rss_mb", J.Float rss) ] ] );
      ]
  in
  let r = Bd.compare_docs (doc 600.) (doc 900.) in
  checkb "rss_mb rise regresses" true
    (List.exists
       (fun m -> m.Bd.m_path = "table2x[0].peak_rss_mb")
       r.Bd.bd_regressions);
  let r2 = Bd.compare_docs (doc 900.) (doc 600.) in
  checkb "rss_mb drop improves" true
    (List.exists
       (fun m -> m.Bd.m_path = "table2x[0].peak_rss_mb")
       r2.Bd.bd_improvements);
  (* sub-8MB deltas are allocator noise regardless of ratio *)
  let r3 = Bd.compare_docs (doc 2.) (doc 6.) in
  checkb "tiny rss skipped" false (Bd.has_regressions r3);
  checki "counted as skipped" 1 r3.Bd.bd_skipped_small;
  (* _kb and _bytes floors scale with the unit *)
  let kb v = J.Obj [ ("heap_kb", J.Float v) ] in
  checkb "kb metric compared" true
    (Bd.has_regressions (Bd.compare_docs (kb 20_000.) (kb 40_000.)));
  checkb "sub-floor kb skipped" false
    (Bd.has_regressions (Bd.compare_docs (kb 2_000.) (kb 7_000.)))

let test_bench_diff_missing_keys () =
  let base =
    J.Obj [ ("old_runtime_s", J.Float 1.0); ("both_runtime_s", J.Float 1.0) ]
  in
  let next =
    J.Obj [ ("new_runtime_s", J.Float 1.0); ("both_runtime_s", J.Float 1.0) ]
  in
  let r = Bd.compare_docs base next in
  Alcotest.(check (list string)) "only in base" [ "old_runtime_s" ]
    r.Bd.bd_only_base;
  Alcotest.(check (list string)) "only in new" [ "new_runtime_s" ]
    r.Bd.bd_only_new;
  checki "shared key still compared" 1 (List.length r.Bd.bd_checked)

(* The per-section wall times of BENCH_topk.json are timings although
   their leaves are section names: an injected slowdown must regress
   each of them. *)
let test_bench_diff_section_runtimes () =
  let doc scale =
    J.Obj
      [
        ( "section_runtime_s",
          J.Obj [ ("table1", J.Float scale); ("parallel", J.Float (2. *. scale)) ] );
      ]
  in
  let r = Bd.compare_docs (doc 1.0) (doc 1.5) in
  checki "both sections compared" 2 (List.length r.Bd.bd_checked);
  Alcotest.(check (list string))
    "both sections regress"
    [ "section_runtime_s.table1"; "section_runtime_s.parallel" ]
    (List.map (fun m -> m.Bd.m_path) r.Bd.bd_regressions);
  checkb "a faster run improves" true
    (List.length (Bd.compare_docs (doc 1.5) (doc 1.0)).Bd.bd_improvements = 2)

let with_temp_file contents f =
  let path = Filename.temp_file "tka_bd" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_bench_diff_load () =
  (* a whole-file JSON document loads as-is *)
  with_temp_file "{\n  \"total_runtime_s\": 2.0\n}\n" (fun path ->
      match J.member "total_runtime_s" (J.read_file path) with
      | Some (J.Float f) -> checkf "whole doc" 2.0 f
      | _ -> Alcotest.fail "missing total_runtime_s in whole doc");
  (* two documents in one file are not a bench file: the error names
     the file instead of reading one of them *)
  with_temp_file "{\"total_runtime_s\":1.0}\n{\"total_runtime_s\":9.0}\n"
    (fun path ->
      match J.read_file path with
      | _ -> Alcotest.fail "malformed bench file loaded"
      | exception J.Parse_error m ->
        checkb "error names the file" true
          (String.starts_with ~prefix:(path ^ ": ") m))

let test_bench_diff_render () =
  let base = bench_doc ~topk:1.0 () in
  let r = Bd.compare_docs base (bench_doc ~topk:1.5 ()) in
  let s = Bd.render r in
  checkb "renders REGRESSIONS table" true
    (let n = String.length s in
     let rec find i =
       i + 11 <= n && (String.sub s i 11 = "REGRESSIONS" || find (i + 1))
     in
     find 0);
  match Bd.to_json r with
  | J.Obj kvs ->
    checkb "json lists regressions" true (List.mem_assoc "regressions" kvs)
  | _ -> Alcotest.fail "to_json not an object"

let () =
  Alcotest.run "tka_prof"
    [
      ("rss", [ Alcotest.test_case "procfs probes" `Quick test_rss ]);
      ( "profile",
        [
          Alcotest.test_case "self time" `Quick test_profile_self_time;
          Alcotest.test_case "victim attribution" `Quick test_profile_victims;
          Alcotest.test_case "requests per method" `Quick test_profile_requests;
          Alcotest.test_case "alloc hotspots" `Quick
            test_profile_alloc_hotspots;
          Alcotest.test_case "chrome trace round trip" `Quick
            test_profile_trace_roundtrip;
          Alcotest.test_case "live top-k attribution" `Quick
            test_profile_live_topk;
        ] );
      ( "bench_diff",
        [
          Alcotest.test_case "self compare" `Quick test_bench_diff_self;
          Alcotest.test_case "injected slowdown" `Quick
            test_bench_diff_slowdown;
          Alcotest.test_case "metric directions" `Quick
            test_bench_diff_directions;
          Alcotest.test_case "memory metrics" `Quick
            test_bench_diff_memory_metrics;
          Alcotest.test_case "noise floor" `Quick test_bench_diff_noise_floor;
          Alcotest.test_case "missing keys" `Quick
            test_bench_diff_missing_keys;
          Alcotest.test_case "section runtimes" `Quick
            test_bench_diff_section_runtimes;
          Alcotest.test_case "file loading" `Quick test_bench_diff_load;
          Alcotest.test_case "render and json" `Quick test_bench_diff_render;
        ] );
    ]
