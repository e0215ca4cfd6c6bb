(* End-to-end integration tests: full generate -> STA -> noise -> top-k
   pipelines on the i1 benchmark, interchange-format round trips of
   generated circuits, and whole-pipeline determinism. *)

module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Nf = Tka_circuit.Netlist_format
module Spef = Tka_circuit.Spef_lite
module Analysis = Tka_sta.Analysis
module CP = Tka_sta.Critical_path
module Iterate = Tka_noise.Iterate
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination
module CS = Tka_topk.Coupling_set
module B = Tka_layout.Benchmarks
module Lib = Tka_cell.Default_lib

let i1 = lazy (Option.get (B.by_name "i1"))
let i1_topo = lazy (Topo.create (Lazy.force i1))

let test_full_sta () =
  let topo = Lazy.force i1_topo in
  let a = Analysis.run topo in
  let d = Analysis.circuit_delay a in
  (* the calibrated substrate puts i1 in the paper's range *)
  Alcotest.(check bool) "i1 noiseless in range" true (d > 0.3 && d < 0.7);
  let path = CP.worst a in
  Alcotest.(check bool) "path spans depth" true (List.length path >= 6)

let test_full_noise () =
  let topo = Lazy.force i1_topo in
  let r = Iterate.run topo in
  Alcotest.(check bool) "converged" true r.Iterate.converged;
  let frac = Iterate.total_delay_noise r /. Iterate.noiseless_delay r in
  Alcotest.(check bool) "noise fraction like the paper (5-40%)" true
    (frac > 0.02 && frac < 0.45)

let test_full_topk_addition_curve () =
  let topo = Lazy.force i1_topo in
  let add = Addition.compute ~k:10 topo in
  (* the evaluated curve rises from noiseless toward the all-aggressor
     delay, like Table 2 *)
  let d1 = Addition.evaluate add 1 in
  let d5 = Addition.evaluate add 5 in
  let d10 = Addition.evaluate add 10 in
  Alcotest.(check bool) "rises" true (d1 <= d5 +. 1e-9 && d5 <= d10 +. 1e-9);
  Alcotest.(check bool) "above noiseless" true (d1 > Addition.noiseless_delay add);
  Alcotest.(check bool) "top-10 captures a good chunk" true
    ((d10 -. Addition.noiseless_delay add)
     /. (Addition.all_aggressor_delay add -. Addition.noiseless_delay add)
    > 0.25)

let test_full_topk_elimination_curve () =
  let topo = Lazy.force i1_topo in
  let elim = Elimination.compute ~k:10 topo in
  let d1 = Elimination.evaluate elim 1 in
  let d10 = Elimination.evaluate elim 10 in
  Alcotest.(check bool) "falls" true (d10 <= d1 +. 1e-9);
  Alcotest.(check bool) "below all-aggressor" true
    (d1 < Elimination.all_aggressor_delay elim)

let test_netlist_roundtrip_i1 () =
  let nl = Lazy.force i1 in
  let nl2 = Nf.parse ~lookup:Lib.find (Nf.print nl) in
  Alcotest.(check int) "gates" (N.num_gates nl) (N.num_gates nl2);
  Alcotest.(check int) "couplings" (N.num_couplings nl) (N.num_couplings nl2);
  (* identical timing after round trip *)
  let d1 = Analysis.circuit_delay (Analysis.run (Lazy.force i1_topo)) in
  let d2 = Analysis.circuit_delay (Analysis.run (Topo.create nl2)) in
  Alcotest.(check (float 1e-9)) "same delay" d1 d2

let test_spef_roundtrip_i1 () =
  let nl = Lazy.force i1 in
  let ann = Spef.parse (Spef.print nl) in
  let nl2 = Spef.apply ann nl in
  Alcotest.(check int) "couplings" (N.num_couplings nl) (N.num_couplings nl2);
  let d1 = Iterate.circuit_delay (Iterate.run (Lazy.force i1_topo)) in
  let d2 = Iterate.circuit_delay (Iterate.run (Topo.create nl2)) in
  Alcotest.(check (float 1e-6)) "same noisy delay" d1 d2

let test_pipeline_deterministic () =
  let run () =
    let nl = Option.get (B.by_name "i1") in
    let topo = Topo.create nl in
    let add = Addition.compute ~k:3 topo in
    ( Addition.evaluate add 3,
      Option.map CS.to_list (Addition.set add 3) )
  in
  let d1, s1 = run () in
  let d2, s2 = run () in
  Alcotest.(check (float 0.)) "same delay" d1 d2;
  Alcotest.(check bool) "same set" true (s1 = s2)

let test_topk_set_members_exist () =
  let nl = Lazy.force i1 in
  let topo = Lazy.force i1_topo in
  let add = Addition.compute ~k:5 topo in
  match Addition.set add 5 with
  | None -> Alcotest.fail "expected set"
  | Some s ->
    CS.iter
      (fun id ->
        let d = Tka_noise.Coupled_noise.of_directed_id nl id in
        Alcotest.(check bool) "valid coupling" true
          (d.Tka_noise.Coupled_noise.dc_coupling < N.num_couplings nl))
      s

let test_c17_full_flow () =
  let nl = B.c17 () in
  let topo = Topo.create nl in
  let r = Iterate.run topo in
  Alcotest.(check bool) "converged" true r.Iterate.converged;
  Alcotest.(check bool) "some noise" true (Iterate.total_delay_noise r > 0.);
  let add = Addition.compute ~k:3 topo in
  let bf = Tka_topk.Brute_force.addition ~budget_s:60. ~k:1 topo in
  Alcotest.(check (float 1e-6)) "c17 top-1 matches brute force" bf.Tka_topk.Brute_force.bf_delay
    (Addition.evaluate add 1)

let test_glitch_and_constraints_on_i1 () =
  let topo = Lazy.force i1_topo in
  let a = Tka_sta.Analysis.run topo in
  (* a clock below the noisy delay must be violated once noise is in *)
  let noisy = Iterate.run topo in
  let period =
    0.5 *. (Tka_sta.Analysis.circuit_delay a +. Iterate.circuit_delay noisy)
  in
  let con =
    Tka_sta.Constraints.create ~clock_period:period
      noisy.Iterate.analysis
  in
  Alcotest.(check bool) "noise creates violations" true
    (Tka_sta.Constraints.worst_slack con < 0.);
  let clean = Tka_sta.Constraints.create ~clock_period:period a in
  Alcotest.(check bool) "noiseless meets the same clock" true
    (Tka_sta.Constraints.worst_slack clean >= 0.);
  (* glitch screen runs clean *)
  let v = Tka_noise.Glitch.check topo in
  Alcotest.(check bool) "glitch screen terminates" true (List.length v >= 0)

let test_iterate_monotone_in_active_set () =
  (* random nested subsets: more active couplings, never less delay *)
  let nl = B.tiny () in
  let topo = Topo.create nl in
  let rng = Tka_util.Rng.create 77 in
  for _ = 1 to 10 do
    let n = 2 * N.num_couplings nl in
    let small_set =
      List.init n (fun i -> i) |> List.filter (fun _ -> Tka_util.Rng.bool rng)
    in
    let extra = Tka_util.Rng.int rng n in
    let big_set = List.sort_uniq compare (extra :: small_set) in
    let delay ids =
      Iterate.circuit_delay
        (Iterate.run
           ~active:(Iterate.Only ids)
           topo)
    in
    Alcotest.(check bool) "monotone" true (delay small_set <= delay big_set +. 1e-9)
  done

let test_corner_noise_ordering () =
  (* the slow corner has weaker drivers: more delay, and (weaker holding)
     at least as much relative noise exposure *)
  let nl = B.c17 () in
  let at corner =
    let derated =
      Tka_circuit.Transform.map
        ~cell_of:(fun g -> Tka_cell.Corner.derate_cell corner g.N.cell)
        nl
    in
    Iterate.run (Topo.create derated)
  in
  let tt = at Tka_cell.Corner.typical in
  let ss = at Tka_cell.Corner.slow in
  let ff = at Tka_cell.Corner.fast in
  Alcotest.(check bool) "ss slowest" true
    (Iterate.circuit_delay ss > Iterate.circuit_delay tt);
  Alcotest.(check bool) "ff fastest" true
    (Iterate.circuit_delay ff < Iterate.circuit_delay tt);
  Alcotest.(check bool) "all converge" true
    (tt.Iterate.converged && ss.Iterate.converged && ff.Iterate.converged)

let () =
  Alcotest.run "tka_integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "sta" `Quick test_full_sta;
          Alcotest.test_case "noise" `Quick test_full_noise;
          Alcotest.test_case "top-k addition curve" `Quick test_full_topk_addition_curve;
          Alcotest.test_case "top-k elimination curve" `Quick
            test_full_topk_elimination_curve;
          Alcotest.test_case "netlist round trip" `Quick test_netlist_roundtrip_i1;
          Alcotest.test_case "spef round trip" `Quick test_spef_roundtrip_i1;
          Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
          Alcotest.test_case "set members exist" `Quick test_topk_set_members_exist;
          Alcotest.test_case "c17 full flow" `Quick test_c17_full_flow;
          Alcotest.test_case "glitch + constraints" `Quick
            test_glitch_and_constraints_on_i1;
          Alcotest.test_case "iterate monotone in active set" `Quick
            test_iterate_monotone_in_active_set;
          Alcotest.test_case "corner ordering" `Quick test_corner_noise_ordering;
        ] );
    ]
