(* Bit-identity of the event-driven exact re-evaluation: seeded STA
   updates against full runs, shared-ctx fixpoints (addition sets on
   their victims, elimination sets as patches on the ctx's reference
   run, the fallback past its recording) against a reference copy of
   the full-sweep loop, and order independence of a shared ctx.
   Circuits come from the seeded generators of the verification layer
   and from the i1-i4 benchmarks. *)

module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Rng = Tka_util.Rng
module Gen = Tka_verify.Gen
module Analysis = Tka_sta.Analysis
module TW = Tka_sta.Timing_window
module Iterate = Tka_noise.Iterate
module Victim_noise = Tka_noise.Victim_noise
module Coupled_noise = Tka_noise.Coupled_noise
module CS = Tka_topk.Coupling_set

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_window (a : TW.t) (b : TW.t) =
  same_bits a.TW.eat b.TW.eat && same_bits a.TW.lat b.TW.lat
  && same_bits a.TW.slew_early b.TW.slew_early
  && same_bits a.TW.slew_late b.TW.slew_late

let same_windows nn a b =
  List.for_all (fun nid -> same_window (a nid) (b nid)) (List.init nn Fun.id)

let circuit rng =
  if Rng.bool rng then Gen.small_circuit rng else Gen.medium_circuit rng

let arb_seed = QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))

(* ------------------------------------------------------------------ *)
(* Analysis.update against Analysis.run                               *)
(* ------------------------------------------------------------------ *)

let prop_update_matches_run =
  QCheck.Test.make ~name:"update matches run bitwise" ~count:60 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Topo.create (circuit rng) in
      let nn = N.num_nets (Topo.netlist topo) in
      let random () =
        Array.init nn (fun _ -> if Rng.chance rng 0.3 then Rng.float rng 0.05 else 0.)
      in
      let zero = Array.make nn 0. in
      let e1 = random () in
      let single = Array.copy e1 in
      single.(Rng.int rng nn) <- Rng.float rng 0.05;
      let run e = Analysis.run ~extra_lat:(Array.get e) topo in
      (* [prev] was computed with push [eprev]; an update seeded with
         every net and one seeded with just the nets whose push moved
         must both give [run e]'s windows and name exactly the nets
         that moved *)
      let agrees (prev, eprev) e =
        let expect = Analysis.window (run e) in
        let before = Analysis.window prev in
        let moved =
          List.filter (fun n -> not (same_window (expect n) (before n))) (List.init nn Fun.id)
        in
        let seeds =
          List.filter (fun n -> not (same_bits e.(n) eprev.(n))) (List.init nn Fun.id)
        in
        List.for_all
          (fun (u, m) ->
            same_windows nn (Analysis.window u) expect && List.sort compare m = moved)
          [
            Analysis.update ~seeds:(List.init nn Fun.id) prev ~extra_lat:(Array.get e);
            Analysis.update ~seeds prev ~extra_lat:(Array.get e);
          ]
      in
      let base = (run zero, zero) and a1 = (run e1, e1) in
      agrees base zero && agrees base e1 && agrees a1 zero && agrees a1 e1
      && agrees a1 single && agrees a1 (random ())
      (* a chain of updates, as the fixpoint passes make *)
      && agrees
           ( fst
               (Analysis.update ~seeds:(List.init nn Fun.id) (fst base)
                  ~extra_lat:(Array.get e1)),
             e1 )
           single)

(* ------------------------------------------------------------------ *)
(* Iterate.run against the full-sweep reference                       *)
(* ------------------------------------------------------------------ *)

(* The fixpoint loop as it was before the event-driven rewrite: a full
   STA per pass and every victim re-evaluated without memos. Kept here
   as the reference the shared-ctx path must reproduce bit for bit. *)
let reference ?(tolerance = 1e-4) ~active ~max_iterations topo =
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let base = Analysis.run topo in
  let aggressors =
    Array.init nn (fun v ->
        List.filter active (Coupled_noise.aggressors_of_victim nl v))
  in
  let noise = Array.make nn 0. in
  let iterations = ref 0 and converged = ref false in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    let a = Analysis.run ~extra_lat:(fun nid -> noise.(nid)) topo in
    let w = Analysis.window a in
    let delta = ref 0. in
    for v = 0 to nn - 1 do
      let fresh =
        Victim_noise.delay_noise nl ~windows:w ~own_noise:noise.(v) ~victim:v
          aggressors.(v)
      in
      delta := Float.max !delta (Float.abs (fresh -. noise.(v)));
      noise.(v) <- fresh
    done;
    if !delta <= tolerance then converged := true
  done;
  let final = Analysis.run ~extra_lat:(fun nid -> noise.(nid)) topo in
  {
    Iterate.analysis = final;
    base;
    noise;
    iterations = !iterations;
    converged = !converged;
    passes = None;
  }

let same_result nn (a : Iterate.t) (b : Iterate.t) =
  a.Iterate.iterations = b.Iterate.iterations
  && a.Iterate.converged = b.Iterate.converged
  && List.for_all
       (fun v -> same_bits a.Iterate.noise.(v) b.Iterate.noise.(v))
       (List.init nn Fun.id)
  && same_windows nn (Iterate.windows a) (Iterate.windows b)
  && same_windows nn (Analysis.window a.Iterate.base) (Analysis.window b.Iterate.base)

type query = {
  q_set : CS.t;
  q_excludes : bool;
  q_max_iterations : int;
  q_tolerance : float;
}

let query ?(max_iterations = 30) ?(tolerance = 1e-4) ~excludes set =
  {
    q_set = set;
    q_excludes = excludes;
    q_max_iterations = max_iterations;
    q_tolerance = tolerance;
  }

(* a dense random set, or a small one like the re-ranking pools score *)
let random_set rng topo =
  let u = 2 * N.num_couplings (Topo.netlist topo) in
  if Rng.bool rng then
    CS.of_list (List.filter (fun _ -> Rng.chance rng 0.3) (List.init u Fun.id))
  else CS.of_list (List.init (1 + Rng.int rng 5) (fun _ -> Rng.int rng (max u 1)))

let random_queries rng topo n =
  List.init n (fun _ ->
      query (random_set rng topo) ~excludes:(Rng.bool rng)
        ~max_iterations:
          (if Rng.chance rng 0.25 then 1 + Rng.int rng 2 else 30))

let active q =
  if q.q_excludes then Iterate.Except (CS.to_list q.q_set)
  else Iterate.Only (CS.to_list q.q_set)

let expected topo q =
  reference ~tolerance:q.q_tolerance
    ~active:(fun d -> CS.mem (Coupled_noise.directed_id d) q.q_set <> q.q_excludes)
    ~max_iterations:q.q_max_iterations topo

(* a ctx made from the all-aggressor run, as the re-ranking makes it *)
let context topo = Iterate.context (Iterate.run topo)

let run_query ?ctx topo q =
  Iterate.run ~active:(active q) ~max_iterations:q.q_max_iterations
    ~tolerance:q.q_tolerance ?ctx topo

(* every query through one ctx, and again without one, against the
   reference; the first mismatch fails with its query *)
let all_match topo qs =
  let nn = N.num_nets (Topo.netlist topo) in
  let ctx = context topo in
  List.for_all
    (fun q ->
      let expect = expected topo q in
      same_result nn expect (run_query ~ctx topo q)
      && same_result nn expect (run_query topo q)
      || QCheck.Test.fail_reportf "%s %s, max %d, tolerance %g"
           (if q.q_excludes then "Except" else "Only")
           (Format.asprintf "%a" CS.pp q.q_set)
           q.q_max_iterations q.q_tolerance)
    qs

let prop_iterate_matches_reference =
  QCheck.Test.make ~name:"ctx and memo-less runs match the full sweep" ~count:40
    arb_seed (fun seed ->
      let rng = Rng.create seed in
      let topo = Topo.create (circuit rng) in
      all_match topo (random_queries rng topo 6))

let prop_ctx_order_independent =
  QCheck.Test.make ~name:"one ctx scores alike in either order" ~count:30 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let topo = Topo.create (circuit rng) in
      let nn = N.num_nets (Topo.netlist topo) in
      let qs = random_queries rng topo 8 in
      let forward =
        let ctx = context topo in
        List.map (run_query ~ctx topo) qs
      in
      let backward =
        let ctx = context topo in
        List.rev (List.map (run_query ~ctx topo) (List.rev qs))
      in
      List.for_all2 (same_result nn) forward backward)

let bench name = Topo.create (Option.get (Tka_layout.Benchmarks.by_name name))

let check_all_match topo qs =
  Alcotest.(check bool) "bitwise equal to the reference" true
    (try all_match topo qs with QCheck.Test.Test_fail (_, msgs) ->
       Alcotest.fail (String.concat "; " msgs))

(* ~40 re-ranking-sized sets per circuit, half of them eliminations
   scored as patches on the ctx's reference run *)
let test_benchmark name () =
  let topo = bench name in
  let rng = Rng.create (Hashtbl.hash name) in
  let u = 2 * N.num_couplings (Topo.netlist topo) in
  check_all_match topo
    (List.init 40 (fun i ->
         query ~excludes:(i mod 2 = 0)
           (CS.of_list (List.init (1 + Rng.int rng 5) (fun _ -> Rng.int rng u)))))

let fallbacks () =
  match Tka_obs.Metrics.find_counter "iterate.reference_fallbacks" with
  | Some c -> Tka_obs.Metrics.Counter.value c
  | None -> 0

let test_fallback () =
  (* a tolerance far below the reference's needs more passes than it
     recorded, so every elimination score falls back to the full loop
     part way through *)
  let topo = bench "i1" in
  let before = fallbacks () in
  Tka_obs.Metrics.with_enabled true (fun () ->
      check_all_match topo
        (List.init 6 (fun i ->
             query ~excludes:true ~tolerance:1e-9 (CS.of_list [ 2 * i; (5 * i) + 1 ]))));
  Alcotest.(check bool) "fell back" true (fallbacks () > before)

let test_short_caps () =
  (* runs cut at one and two passes stop inside the recording *)
  List.iter
    (fun name ->
      let topo = bench name in
      check_all_match topo
        (List.concat_map
           (fun max_iterations ->
             List.concat_map
               (fun excludes ->
                 List.map
                   (fun ids -> query ~excludes ~max_iterations (CS.of_list ids))
                   [ []; [ 0 ]; [ 1; 6; 9 ] ])
               [ true; false ])
           [ 1; 2 ]))
    [ "i1"; "i2" ]

let test_cap_hit_reported () =
  (* max_iterations:1 on a coupled circuit stops before convergence,
     and the ctx path says so exactly as the reference does *)
  let topo = Topo.create (Gen.medium_circuit (Rng.create 11)) in
  let q = query CS.empty ~excludes:true ~max_iterations:1 in
  let r = run_query ~ctx:(context topo) topo q in
  Alcotest.(check int) "one pass" 1 r.Iterate.iterations;
  Alcotest.(check bool) "not converged" false r.Iterate.converged

let test_ctx_rejects_other_topology () =
  let topo = Topo.create (Gen.small_circuit (Rng.create 5)) in
  let other = Topo.create (Gen.small_circuit (Rng.create 5)) in
  Alcotest.(check bool) "other topology rejected" true
    (try
       ignore (Iterate.run ~ctx:(context topo) other);
       false
     with Invalid_argument _ -> true)

let test_ctx_rejects_partial_run () =
  let topo = Topo.create (Gen.small_circuit (Rng.create 5)) in
  Alcotest.(check bool) "Only run rejected" true
    (try
       ignore (Iterate.context (Iterate.run ~active:(Iterate.Only [ 0 ]) topo));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* One all-aggressor run per design state                             *)
(* ------------------------------------------------------------------ *)

let counter name =
  match Tka_obs.Metrics.find_counter name with
  | Some c -> Tka_obs.Metrics.Counter.value c
  | None -> 0

(* what [f] adds to [sta.runs] and [iterate.runs], with its result *)
let runs_of f =
  Tka_obs.Metrics.with_enabled true @@ fun () ->
  let sta = counter "sta.runs" and iterate = counter "iterate.runs" in
  let r = f () in
  (counter "sta.runs" - sta, counter "iterate.runs" - iterate, r)

let check_runs ~scores (sta, iterate) =
  Alcotest.(check int) "one noiseless STA" 1 sta;
  Alcotest.(check int) "one all-aggressor run, then one run per score" (1 + scores)
    iterate

(* a ranking at k = 1..3: the fixpoint its engines read, then one exact
   run per set of each pool *)
let test_one_run_per_ranking mode () =
  let topo = bench "i1" in
  let ks = [ 1; 2; 3 ] in
  let sta, iterate, scores =
    runs_of (fun () ->
        let r, evaluate =
          match mode with
          | Tka_topk.Engine.Addition ->
            let a = Tka_topk.Addition.compute ~k:3 topo in
            (Tka_topk.Addition.ranking a, Tka_topk.Addition.evaluate a)
          | Tka_topk.Engine.Elimination ->
            let e = Tka_topk.Elimination.compute ~k:3 topo in
            (Tka_topk.Elimination.ranking e, Tka_topk.Elimination.evaluate e)
        in
        List.iter (fun i -> ignore (evaluate i)) ks;
        List.fold_left (fun n i -> n + List.length (Tka_topk.Refine.pool r i)) 0 ks)
  in
  Alcotest.(check bool) "scored sets" true (scores > 0);
  check_runs ~scores (sta, iterate)

let test_one_run_per_brute_force jobs () =
  let before = Tka_parallel.Pool.default_jobs () in
  Tka_parallel.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Tka_parallel.Pool.set_default_jobs before)
  @@ fun () ->
  let topo = Topo.create (Gen.small_circuit (Rng.create 5)) in
  let sta, iterate, out =
    runs_of (fun () -> Tka_topk.Brute_force.elimination ~k:2 topo)
  in
  Alcotest.(check bool) "completed" true out.Tka_topk.Brute_force.bf_completed;
  Alcotest.(check bool) "split across the jobs" true
    (out.Tka_topk.Brute_force.bf_total >= 2 * jobs);
  check_runs ~scores:out.Tka_topk.Brute_force.bf_evaluated (sta, iterate)

let () =
  Alcotest.run "tka_rerank"
    [
      ( "bit-identity",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_update_matches_run; prop_iterate_matches_reference;
            prop_ctx_order_independent;
          ] );
      ( "ctx",
        [
          Alcotest.test_case "cap hit reported" `Quick test_cap_hit_reported;
          Alcotest.test_case "other topology rejected" `Quick
            test_ctx_rejects_other_topology;
          Alcotest.test_case "tolerance below the reference falls back" `Quick
            test_fallback;
          Alcotest.test_case "one and two passes" `Quick test_short_caps;
          Alcotest.test_case "partial run rejected" `Quick test_ctx_rejects_partial_run;
        ] );
      ( "one run",
        [
          Alcotest.test_case "addition ranking" `Quick
            (test_one_run_per_ranking Tka_topk.Engine.Addition);
          Alcotest.test_case "elimination ranking" `Quick
            (test_one_run_per_ranking Tka_topk.Engine.Elimination);
          Alcotest.test_case "brute force, jobs 1" `Quick (test_one_run_per_brute_force 1);
          Alcotest.test_case "brute force, jobs 4" `Quick (test_one_run_per_brute_force 4);
        ] );
      ( "benchmarks",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_benchmark name))
          [ "i1"; "i2"; "i3"; "i4" ] );
    ]
