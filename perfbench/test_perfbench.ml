(* Tests of the benchmark's own aggregation code: the percentile rule,
   the per-op median and host-speed scaling, self-time folding of nested
   spans, and digest stability. *)

open Perfbench
module J = Tka_obs.Jsonx

let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Percentiles                                                        *)
(* ------------------------------------------------------------------ *)

let test_nearest_rank () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 of 1..10" 5. (Agg.percentile xs 50.);
  Alcotest.check close "p90 of 1..10" 9. (Agg.percentile xs 90.);
  Alcotest.check close "p100 is the max" 10. (Agg.percentile xs 100.);
  Alcotest.check close "median of an even count" 5.5 (Agg.median xs);
  Alcotest.check close "median of an odd count" 2. (Agg.median [ 3.; 1.; 2. ])

let test_ten_beyond () =
  Alcotest.(check int) "100 samples: 10 beyond p90" 10 (Agg.beyond ~n:100 90.);
  Alcotest.(check bool) "100 samples carry a p90" true (Agg.rests_on ~n:100 90.);
  Alcotest.(check int) "99 samples: 9 beyond p90" 9 (Agg.beyond ~n:99 90.);
  Alcotest.(check bool) "99 samples do not" false (Agg.rests_on ~n:99 90.);
  Alcotest.(check bool) "a serve-mix round (120) carries a p90" true (Agg.rests_on ~n:120 90.);
  Alcotest.(check bool) "20 samples carry a p50" true (Agg.rests_on ~n:20 50.)

let test_median_per_op () =
  (* three rounds of a fixed two-op sequence: each op keeps the median
     of its rounds, whichever round that was *)
  let rounds = [ [ 1.; 30. ]; [ 2.; 10. ]; [ 1.5; 20. ] ] in
  Alcotest.(check (list close)) "median round per op" [ 1.5; 20. ] (Agg.median_per_op rounds);
  Alcotest.(check (list close)) "no rounds, no ops" [] (Agg.median_per_op []);
  let per_op =
    Agg.median_per_op [ List.init 120 float_of_int; List.init 120 (fun i -> float_of_int (120 - i)) ]
  in
  Alcotest.(check int) "one entry per op" 120 (List.length per_op);
  Alcotest.(check bool) "a serve-mix round's ops carry a p90" true
    (Agg.rests_on ~n:(List.length per_op) 90.)

let test_at_reference () =
  let r = Agg.reference_probe_s in
  Alcotest.check close "probes at the reference speed leave a time as it is" 0.5
    (Agg.at_reference ~before:r ~after:r 0.5);
  Alcotest.check close "a host 1.5x slower all along is scaled back" 0.5
    (Agg.at_reference ~before:(1.5 *. r) ~after:(1.5 *. r) 0.75);
  Alcotest.check close "the two probes count alike" 0.5
    (Agg.at_reference ~before:(1.25 *. r) ~after:(1.75 *. r) 0.75);
  Alcotest.(check bool) "a probe takes measurable time" true (Agg.probe_s () > 0.)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let mk id name ~parent a b =
  {
    Agg.sp_id = id;
    sp_name = name;
    sp_op = 0;
    sp_parent = parent;
    sp_start = a;
    sp_stop = b;
    sp_counts = [ ("n", 1) ];
  }

let test_self_time () =
  (* op [0,10] holds engine [1,4] and rerank [4,9]; rerank holds a
     nested child [5,6] (with an overlapping duplicate [5.5,6.5]) *)
  let spans =
    [
      mk 0 "op" ~parent:(-1) 0. 10.;
      mk 1 "core.engine" ~parent:0 1. 4.;
      mk 2 "core.rerank" ~parent:0 4. 9.;
      mk 3 "inner" ~parent:2 5. 6.;
      mk 4 "inner" ~parent:2 5.5 6.5;
    ]
  in
  let self = List.map (fun (s, t) -> (s.Agg.sp_id, t)) (Agg.self_times spans) in
  Alcotest.check close "op self = 10 - 3 - 5" 2. (List.assoc 0 self);
  Alcotest.check close "engine has no children" 3. (List.assoc 1 self);
  Alcotest.check close "rerank self = 5 - union(1.5)" 3.5 (List.assoc 2 self);
  let f = Agg.fold spans in
  Alcotest.check close "inner totals add up" 2. (Agg.total f "inner");
  Alcotest.(check int) "counter deltas sum per name" 2 (Agg.count f ~span:"inner" ~counter:"n");
  Alcotest.check close "unattributed = op self / op total" 0.2
    (Agg.unattributed_frac f ~op_name:"op")

let test_recorder_nesting () =
  let n = ref 0 in
  let r = Agg.recorder ~counters:(fun () -> [ ("ticks", !n) ]) () in
  Agg.span r "off" ignore;
  Alcotest.(check int) "a disabled recorder records nothing" 0 (List.length (Agg.spans r));
  r.Agg.on <- true;
  r.Agg.op <- 3;
  Agg.span r "op" (fun () ->
      Agg.span r "a" (fun () -> n := !n + 2);
      Agg.span r "b" (fun () -> Agg.span r "c" (fun () -> incr n)));
  let spans = Agg.spans r in
  let find name = List.find (fun s -> s.Agg.sp_name = name) spans in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check int) "a under op" (find "op").Agg.sp_id (find "a").Agg.sp_parent;
  Alcotest.(check int) "c under b" (find "b").Agg.sp_id (find "c").Agg.sp_parent;
  Alcotest.(check int) "op at top level" (-1) (find "op").Agg.sp_parent;
  Alcotest.(check int) "op id carried" 3 (find "c").Agg.sp_op;
  Alcotest.(check (list (pair string int))) "counter delta" [ ("ticks", 3) ] (find "op").Agg.sp_counts;
  Alcotest.(check bool) "children inside parent" true
    ((find "op").Agg.sp_start <= (find "a").Agg.sp_start
    && (find "c").Agg.sp_stop <= (find "op").Agg.sp_stop)

(* ------------------------------------------------------------------ *)
(* Digests                                                            *)
(* ------------------------------------------------------------------ *)

let test_strip_timing () =
  let reply elapsed =
    J.Obj
      [
        ("id", J.Int 3);
        ("ok", J.Bool true);
        ("result", J.Obj [ ("per_k", J.List [ J.Int 1 ]); ("elapsed_s", J.Float elapsed) ]);
      ]
  in
  Alcotest.(check string) "elapsed_s does not reach the digest"
    (Agg.digest (J.to_string (Agg.strip_timing (reply 0.1))))
    (Agg.digest (J.to_string (Agg.strip_timing (reply 0.7))))

(* Outputs of one round of [w], restricted to the ops [keep] selects. *)
let round_digests (w : Work.t) ~seed ~keep =
  let session = w.Work.prepare ~seed (Agg.recorder ()) () in
  Fun.protect ~finally:session.Work.teardown (fun () ->
      Array.to_list session.Work.ops
      |> List.filter keep
      |> List.map (fun (op : Work.op) ->
             let out = op.Work.run () in
             Alcotest.(check (option string)) (op.Work.label ^ " checks") None out.Work.error;
             (op.Work.label, Agg.digest out.Work.text)))

let test_digest_stable () =
  (* two independent runs of the same seed — inputs regenerated, state
     rebuilt — give the same per-op digests *)
  let keep (op : Work.op) =
    List.mem op.Work.label [ "add i1 k=3 none"; "add i3 k=3 window" ]
  in
  let batch () = round_digests Work.topk_batch ~seed:7 ~keep in
  Alcotest.(check (list (pair string string))) "topk-batch" (batch ()) (batch ());
  let keep_first n =
    let i = ref 0 in
    fun _ -> incr i; !i <= n
  in
  let serve () = round_digests Work.serve_mix ~seed:7 ~keep:(keep_first 20) in
  Alcotest.(check (list (pair string string))) "serve-mix" (serve ()) (serve ())

let test_seeded_inputs () =
  (* serve-mix draws its requests from the seed; a seed repeats them *)
  let reqs seed = List.map (fun (v, p) -> v ^ J.to_string p) (Work.serve_requests ~seed) in
  Alcotest.(check bool) "seeds ask different requests" true (reqs 1 <> reqs 2);
  Alcotest.(check (list string)) "a seed repeats its requests" (reqs 5) (reqs 5);
  Alcotest.(check int) "a round holds 120 requests" 120 (List.length (reqs 3))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "median round per op" `Quick test_median_per_op;
          Alcotest.test_case "reference speed" `Quick test_at_reference;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time folding" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
        ] );
      ( "digest",
        [
          Alcotest.test_case "timing fields stripped" `Quick test_strip_timing;
          Alcotest.test_case "seeded inputs" `Quick test_seeded_inputs;
          Alcotest.test_case "stable across runs of a seed" `Slow test_digest_stable;
        ] );
    ]
