(* Benchmark runner: runs one workload for a time budget and prints
   every metric by name and unit, then one JSON result line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--expect FILE] [--record FILE] [--commit ID]

   A run is a sequence of rounds; each round times its set-up, then
   runs the workload's fixed op sequence, timing and checking every op.
   Host-speed probes taken around the set-up and between ops scale each
   timing to the reference speed (see Agg.at_reference). Rounds repeat
   until [--seconds] have passed. With [--trace 1] the
   rounds alternate untraced and traced, and the result carries the
   per-layer metrics folded from the traced rounds' spans; with
   [--trace 0] it carries the end-to-end metrics. *)

open Perfbench
module J = Tka_obs.Jsonx
module Metrics = Tka_obs.Metrics
module Counter = Tka_obs.Metrics.Counter

let now = Tka_obs.Clock.now_s

let default_seed = 1

let out_dir = Work.out_dir

type options = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable expect : string option;
  mutable record : string option;
  mutable commit : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--expect FILE] [--record FILE] [--commit ID]";
  Printf.eprintf "workloads: %s\n"
    (String.concat ", " (List.map (fun w -> w.Work.name) Work.all));
  exit 2

let parse_args () =
  let o =
    {
      workload = "";
      seed = default_seed;
      seconds = 10.;
      trace = false;
      expect = None;
      record = None;
      commit = "unknown";
    }
  in
  let num f v = match f (String.trim v) with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- v; go rest
    | "--seed" :: v :: rest -> o.seed <- num int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- num float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> o.trace <- num int_of_string_opt v <> 0; go rest
    | "--expect" :: v :: rest -> o.expect <- Some v; go rest
    | "--record" :: v :: rest -> o.record <- Some v; go rest
    | "--commit" :: v :: rest -> o.commit <- v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* ------------------------------------------------------------------ *)
(* Rounds                                                             *)
(* ------------------------------------------------------------------ *)

(* Library counters sampled at span boundaries (they only move while
   the registry is enabled, i.e. in traced rounds). *)
let counters =
  let cs =
    List.map
      (fun n -> (n, Counter.make n))
      [ "iterate.runs"; "iterate.passes"; "pool.tasks"; "pool.batches" ]
  in
  fun () -> List.map (fun (n, c) -> (n, Counter.value c)) cs

type round = {
  traced : bool;
  rss_mb : float;  (** peak resident set of the process so far *)
  setup_s : float;  (** at the reference speed *)
  setup_raw : float;  (** as measured *)
  sequence_s : float;  (** the ops' latencies, as measured, summed *)
  wall_s : float;  (** the same on the wall clock, for information *)
  probes : float array;  (** the round's host-speed probes, in order *)
  ops : timed list;
}

and timed = {
  op : Work.op;
  lat : float;  (** seconds, as measured *)
  lat_ref : float;  (** the same at the reference speed *)
  lat_wall : float;  (** as measured on the wall clock *)
  out : Work.outcome;
}

let peak_rss_mb () =
  float_of_int (Option.value ~default:0 (Tka_prof.Rss.peak_bytes ())) /. 1048576.

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> Array.of_list

let expected_path name = Filename.concat "perfbench" (Filename.concat "expected" (name ^ ".txt"))

let run_rounds (w : Work.t) o rec_ =
  let setup = w.Work.prepare ~seed:o.seed rec_ in
  (* per-op digests: from --expect, from the recorded default-seed file,
     or else the first round's (later rounds must repeat them) *)
  let reference =
    ref
      (match o.expect with
      | Some f -> Some (read_lines f)
      | None ->
        let p = expected_path w.Work.name in
        if o.seed = default_seed && Sys.file_exists p then Some (read_lines p) else None)
  in
  let failures = ref 0 in
  let fail label msg =
    incr failures;
    if !failures <= 10 then Printf.eprintf "FAILED %s: %s\n%!" label msg
  in
  let t_start = now () in
  let rounds = ref [] in
  let i = ref 0 in
  while !i = 0 || (o.trace && !i < 2) || now () -. t_start < o.seconds do
    let traced = o.trace && !i mod 2 = 1 in
    rec_.Agg.on <- traced;
    Metrics.set_enabled traced;
    let round =
      Agg.span rec_ "round" (fun () ->
          (* probes bracket the set-up and every [probe_every] ops; each
             timing is scaled by the two probes around it *)
          let before_setup = Agg.probe_s () in
          let t0 = Agg.cpu_s () in
          let s = Agg.span rec_ "setup" setup in
          let setup_raw = Agg.cpu_s () -. t0 in
          Fun.protect ~finally:s.Work.teardown (fun () ->
              let every = w.Work.probe_every in
              let n = Array.length s.Work.ops in
              let probes = Array.make (((n + every - 1) / every) + 1) nan in
              let ops =
                Array.mapi
                  (fun idx (op : Work.op) ->
                    if idx mod every = 0 then probes.(idx / every) <- Agg.probe_s ();
                    if w.Work.fresh_heap then Gc.full_major ();
                    rec_.Agg.op <- idx;
                    let ts = Agg.cpu_s () and tw = now () in
                    let out =
                      try Agg.span rec_ "op" op.Work.run
                      with e ->
                        Work.outcome ~error:(Some (Printexc.to_string e))
                          ("exception " ^ Printexc.to_string e)
                    in
                    let lat = Agg.cpu_s () -. ts and lat_wall = now () -. tw in
                    rec_.Agg.op <- -1;
                    (lat, lat_wall, op, out))
                  s.Work.ops
              in
              probes.(Array.length probes - 1) <- Agg.probe_s ();
              let ops =
                List.mapi
                  (fun idx (lat, lat_wall, op, out) ->
                    let g = idx / every in
                    let lat_ref = Agg.at_reference ~before:probes.(g) ~after:probes.(g + 1) lat in
                    { op; lat; lat_ref; lat_wall; out })
                  (Array.to_list ops)
              in
              let sum f = List.fold_left (fun a t -> a +. f t) 0. ops in
              {
                traced;
                rss_mb = 0.;
                setup_s = Agg.at_reference ~before:before_setup ~after:probes.(0) setup_raw;
                setup_raw;
                sequence_s = sum (fun t -> t.lat);
                wall_s = sum (fun t -> t.lat_wall);
                probes = Array.append [| before_setup |] probes;
                ops;
              }))
    in
    let digests = List.map (fun t -> Agg.digest t.out.Work.text) round.ops in
    (match !reference with
    | None -> reference := Some (Array.of_list digests)
    | Some _ -> ());
    let reference = Option.get !reference in
    List.iteri
      (fun idx t ->
        let label = Printf.sprintf "round %d op %d (%s)" !i idx t.op.Work.label in
        match t.out.Work.error with
        | Some msg -> fail label msg
        | None ->
          let d = List.nth digests idx in
          if idx >= Array.length reference || reference.(idx) <> d then
            fail label ("output digest " ^ d ^ " differs from the reference"))
      round.ops;
    (* start every round from a collected heap, outside the timed window,
       so one round's garbage does not bill the next *)
    Gc.compact ();
    let round = { round with rss_mb = peak_rss_mb () } in
    let fmt l = String.concat " " (List.map (Printf.sprintf "%.4f") l) in
    Printf.eprintf
      "round %d%s: setup %.4f s, ops %.4f s (wall clock %.4f s)\n\
      \  probes [%s]\n  ops [%s]\n  ops at reference speed [%s]\n%!"
      !i
      (if traced then " (traced)" else "")
      round.setup_raw round.sequence_s round.wall_s (fmt (Array.to_list round.probes))
      (fmt (List.map (fun t -> t.lat) round.ops))
      (fmt (List.map (fun t -> t.lat_ref) round.ops));
    rounds := round :: !rounds;
    incr i
  done;
  Metrics.set_enabled false;
  rec_.Agg.on <- false;
  let rounds = List.rev !rounds in
  (match o.record with
  | Some f ->
    let first = List.hd rounds in
    Out_channel.with_open_text f (fun oc ->
        List.iter
          (fun t -> output_string oc (Agg.digest t.out.Work.text ^ "\n"))
          first.ops)
  | None -> ());
  (rounds, !failures)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let ms s = s *. 1000.

let end_to_end rounds ~attempted ~failed =
  let per_op = Agg.median_per_op (List.map (fun r -> List.map (fun t -> t.lat_ref) r.ops) rounds) in
  [
    ("setup_s", Agg.median (List.map (fun r -> r.setup_s) rounds), "s");
    ("rps", float_of_int (List.length per_op) /. List.fold_left ( +. ) 0. per_op, "1/s");
    ("latency_p50_ms", ms (Agg.percentile per_op 50.), "ms");
    ("latency_p90_ms", ms (Agg.percentile per_op 90.), "ms");
    (* after the first round: later rounds repeat the same work and add
       only what the allocator keeps back, which grows with their number *)
    ("peak_rss_mb", (List.hd rounds).rss_mb, "MB");
    ("ok_rate", float_of_int (attempted - failed) /. float_of_int attempted, "ratio");
  ]

let per_layer (w : Work.t) rounds spans =
  let traced = List.filter (fun r -> r.traced) rounds in
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let n = float_of_int (List.length traced) in
  let f = Agg.fold spans in
  let per_round x = x /. n in
  let time name = per_round (Agg.total f name) in
  let cnt span counter = per_round (float_of_int (Agg.count f ~span ~counter)) in
  let outs = List.concat_map (fun r -> r.ops) traced in
  let sum g = List.fold_left (fun a t -> a +. g t.out) 0. outs in
  let stat g =
    per_round
      (sum (fun o -> float_of_int (List.fold_left (fun a s -> a + g s) 0 o.Work.engine)))
  in
  let hits = sum (fun o -> float_of_int o.Work.cache_hits)
  and misses = sum (fun o -> float_of_int o.Work.cache_misses) in
  let med_ms l = if l = [] then 0. else Agg.median (List.map ms l) in
  let verb_p50 v =
    med_ms (List.filter_map (fun t -> if t.op.Work.verb = v then Some t.lat else None) outs)
  in
  (* the reply's elapsed_s is wall-clock time, so these two are too *)
  let handled =
    List.filter_map (fun t -> Option.map (fun h -> (t.lat_wall, h)) t.out.Work.handler_s) outs
  in
  let r_before, r_after = w.Work.surveys () in
  let sequence rs = Agg.median (List.map (fun r -> r.sequence_s) rs) in
  let module I = Tka_topk.Ilist in
  [
    ("circuit.parse_s", time "circuit.parse", "s");
    ("circuit.topo_s", time "circuit.topo", "s");
    ("noise.fixpoint_s", time "noise.fixpoint", "s");
    ("noise.fixpoint_iterations", cnt "noise.fixpoint" "iterate.passes", "count");
    ("filter.r_before", float_of_int r_before, "count");
    ("filter.r_after", float_of_int r_after, "count");
    ("core.engine_s", time "core.engine", "s");
    ("core.engine.candidates", stat (fun s -> s.I.candidates), "count");
    ("core.engine.dominated", stat (fun s -> s.I.dominated), "count");
    ("core.engine.capped", stat (fun s -> s.I.capped), "count");
    ("core.engine.dominance_checks", stat (fun s -> s.I.checks), "count");
    ("core.rerank_s", time "core.rerank", "s");
    ("core.rerank.iterate_runs", cnt "core.rerank" "iterate.runs", "count");
    ("core.rerank.iterate_passes", cnt "core.rerank" "iterate.passes", "count");
    ("incr.repair_s", time "incr.repair", "s");
    ("incr.cache_hits", per_round hits, "count");
    ("incr.cache_misses", per_round misses, "count");
    ("incr.hit_rate", (if hits +. misses > 0. then hits /. (hits +. misses) else 0.), "ratio");
    ("serve.load_s", time "serve.load", "s");
    ("serve.cold_analyze_s", time "serve.cold_analyze", "s");
    ("serve.analyze_p50_ms", verb_p50 "analyze", "ms");
    ("serve.whatif_p50_ms", verb_p50 "whatif", "ms");
    ("serve.eco_p50_ms", verb_p50 "eco", "ms");
    ("serve.handler_ms", med_ms (List.map snd handled), "ms");
    ("serve.overhead_ms", med_ms (List.map (fun (l, h) -> l -. h) handled), "ms");
    ("parallel.pool_tasks", cnt "round" "pool.tasks", "count");
    ("parallel.pool_batches", cnt "round" "pool.batches", "count");
    ("unattributed_frac", Agg.unattributed_frac f ~op_name:"op", "ratio");
    ("trace_overhead_frac", (sequence traced /. sequence untraced) -. 1., "ratio");
  ]

let spans_json spans =
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.Agg.sp_id);
             ("name", J.Str s.Agg.sp_name);
             ("op", J.Int s.Agg.sp_op);
             ("parent", J.Int s.Agg.sp_parent);
             ("start_s", J.Float s.Agg.sp_start);
             ("end_s", J.Float s.Agg.sp_stop);
             ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.Agg.sp_counts));
           ])
       spans)

let () =
  let o = parse_args () in
  let w = match Work.find o.workload with Some w -> w | None -> usage () in
  Tka_parallel.Pool.set_default_jobs w.Work.jobs;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let rec_ = Agg.recorder ~counters () in
  let rounds, failed = run_rounds w o rec_ in
  let attempted = List.fold_left (fun a r -> a + List.length r.ops) 0 rounds in
  let metrics =
    if o.trace then per_layer w rounds (Agg.spans rec_)
    else end_to_end rounds ~attempted ~failed
  in
  if o.trace then begin
    let path =
      Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" w.Work.name o.seed)
    in
    J.write_file path (spans_json (Agg.spans rec_));
    Printf.printf "spans: %s\n" path
  end;
  let first = List.hd rounds in
  Printf.printf "workload %s  seed %d  jobs %d  nproc %d  ocaml %s  commit %s\n" w.Work.name
    o.seed w.Work.jobs
    (Domain.recommended_domain_count ())
    Sys.ocaml_version o.commit;
  Printf.printf
    "rounds %d (%d traced)  ops attempted %d  failed %d  output digest %s\n\
     op sequence on the wall clock, median %.4f s (not a metric: it counts steal time)\n\
     host-speed probe, median %.4f s (%.4f s at the reference speed)\n\
     ops per round %d: their p90 has %d ops beyond it%s\n"
    (List.length rounds)
    (List.length (List.filter (fun r -> r.traced) rounds))
    attempted failed
    (Agg.combine (List.map (fun t -> Agg.digest t.out.Work.text) first.ops))
    (Agg.median (List.map (fun r -> r.wall_s) rounds))
    (Agg.median (List.concat_map (fun r -> Array.to_list r.probes) rounds))
    Agg.reference_probe_s
    (List.length first.ops)
    (Agg.beyond ~n:(List.length first.ops) 90.)
    (if Agg.rests_on ~n:(List.length first.ops) 90. then ""
     else " (a fixed sequence: the percentile names an op, see README)");
  List.iter (fun (k, v, u) -> Printf.printf "  %-30s %14.6g %s\n" k v u) metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, v, u) -> (k, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                   metrics) );
          ]))
