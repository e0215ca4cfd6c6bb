(* Tests for the domain pool and the determinism contract of the
   parallel engine / brute-force paths: the pool primitives must be
   position-stable and deadlock-free, and every analysis result must be
   bit-identical at any jobs count (docs/parallelism.md). *)

module Pool = Tka_parallel.Pool
module Engine = Tka_topk.Engine
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination
module BF = Tka_topk.Brute_force
module CS = Tka_topk.Coupling_set
module Ilist = Tka_topk.Ilist
module Topo = Tka_circuit.Topo
module B = Tka_layout.Benchmarks

let with_pool jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                    *)
(* ------------------------------------------------------------------ *)

let test_parallel_for () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let n = 1000 in
          let hit = Array.make n 0 in
          Pool.parallel_for p ~lo:0 ~hi:n (fun i -> hit.(i) <- hit.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "each index once (jobs=%d)" jobs)
            true
            (Array.for_all (fun c -> c = 1) hit)))
    [ 1; 2; 4 ]

let test_map_positions () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let input = Array.init 257 (fun i -> i) in
          let out = Pool.map ~chunk:3 p (fun i -> i * i) input in
          Alcotest.(check bool)
            (Printf.sprintf "map by position (jobs=%d)" jobs)
            true
            (Array.for_all (fun i -> out.(i) = i * i) input)))
    [ 1; 3 ]

exception Boom of int

let test_exception_propagates () =
  with_pool 3 (fun p ->
      let raised =
        try
          Pool.parallel_for ~chunk:1 p ~lo:0 ~hi:64 (fun i ->
              if i = 17 then raise (Boom i));
          false
        with Boom 17 -> true
      in
      Alcotest.(check bool) "body exception re-raised in caller" true raised;
      (* the pool must still be usable afterwards *)
      let out = Pool.map p (fun i -> i + 1) (Array.init 16 (fun i -> i)) in
      Alcotest.(check int) "pool alive after exception" 16 out.(15))

let test_nested_submit () =
  (* more outer tasks than domains, each submitting an inner batch: the
     submitter helps drain the queue, so this must not deadlock *)
  with_pool 2 (fun p ->
      let outer = Array.init 8 (fun i -> i) in
      let sums =
        Pool.map ~chunk:1 p
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map ~chunk:1 p Fun.id
                 (Array.init 50 (fun j -> (100 * i) + j))))
          outer
      in
      Array.iteri
        (fun i s ->
          Alcotest.(check int)
            (Printf.sprintf "nested sum %d" i)
            ((50 * 100 * i) + 1225)
            s)
        sums)

let test_jobs1_identity () =
  (* jobs=1 takes the sequential path: strict input order, in the
     calling domain *)
  with_pool 1 (fun p ->
      Alcotest.(check int) "size clamped" 1 (Pool.size p);
      let order = ref [] in
      let self = Domain.self () in
      Pool.iter ~chunk:2 p
        (fun i ->
          Alcotest.(check bool) "runs in caller" true (Domain.self () = self);
          order := i :: !order)
        (Array.init 9 (fun i -> i));
      Alcotest.(check (list int))
        "sequential order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
        (List.rev !order))

let test_default_pool_sizing () =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  Alcotest.(check int) "set_default_jobs" 3 (Pool.default_jobs ());
  Alcotest.(check int) "default pool size" 3 (Pool.size (Pool.get_default ()));
  Pool.set_default_jobs before

(* ------------------------------------------------------------------ *)
(* Engine determinism across jobs                                     *)
(* ------------------------------------------------------------------ *)

let choice_repr = function
  | None -> "-"
  | Some c ->
    Printf.sprintf "%s obj=%.9f sink=%d"
      (String.concat "," (List.map string_of_int (CS.to_list c.Engine.ch_set)))
      c.Engine.ch_objective c.Engine.ch_sink

let result_repr (r : Engine.result) =
  let per_k =
    Array.to_list r.Engine.res_per_k |> List.map choice_repr
    |> String.concat " | "
  in
  let st = r.Engine.res_stats in
  Printf.sprintf "%s ;; stats c=%d d=%d u=%d p=%d k=%d" per_k
    st.Ilist.candidates st.Ilist.dominated st.Ilist.duplicates st.Ilist.capped
    st.Ilist.checks

let at_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

let engine_repr ~mode ~k topo =
  result_repr
    (Engine.compute ~config:(Engine.default_config ~k)
       ~fixpoint:(Tka_noise.Iterate.run topo) ~mode topo)

let test_engine_jobs_invariant name mode () =
  let topo =
    Topo.create
      (match B.by_name name with Some nl -> nl | None -> assert false)
  in
  let k = 8 in
  let seq = at_jobs 1 (fun () -> engine_repr ~mode ~k topo) in
  List.iter
    (fun jobs ->
      let par = at_jobs jobs (fun () -> engine_repr ~mode ~k topo) in
      Alcotest.(check string)
        (Printf.sprintf "%s %s jobs=%d == jobs=1" name
           (match mode with
           | Engine.Addition -> "addition"
           | Engine.Elimination -> "elimination")
           jobs)
        seq par)
    [ 2; 4 ]

let test_table2x_multi_cone_invariant () =
  (* a table2x circuit of six independent cones: each level of the
     level-synchronous sweep mixes nets of every cone, and results must
     stay bitwise identical *)
  let spec = Tka_layout.Table2x.spec ~nets:600 ~cones:6 () in
  let topo = Topo.create (Tka_layout.Table2x.generate spec) in
  let k = 4 in
  List.iter
    (fun mode ->
      let seq = at_jobs 1 (fun () -> engine_repr ~mode ~k topo) in
      List.iter
        (fun jobs ->
          let par = at_jobs jobs (fun () -> engine_repr ~mode ~k topo) in
          Alcotest.(check string)
            (Printf.sprintf "t2x multi-cone jobs=%d == jobs=1" jobs)
            seq par)
        [ 2; 4 ])
    [ Engine.Addition; Engine.Elimination ]

(* ------------------------------------------------------------------ *)
(* Brute force determinism across jobs                                *)
(* ------------------------------------------------------------------ *)

let test_subset_unranking () =
  (* subset_of_rank is exercised through run: a chunked parallel scan
     must visit exactly the same subsets as the sequential one, which
     the outcome equality below certifies on every rank boundary *)
  let nl = B.tiny () in
  let topo = Topo.create nl in
  let outcome_repr (r : BF.outcome) =
    Printf.sprintf "%s %.9f %d %d %b"
      (match r.BF.bf_set with
      | None -> "-"
      | Some s -> String.concat "," (List.map string_of_int (CS.to_list s)))
      r.BF.bf_delay r.BF.bf_evaluated r.BF.bf_total r.BF.bf_completed
  in
  List.iter
    (fun k ->
      let seq = at_jobs 1 (fun () -> outcome_repr (BF.addition ~k topo)) in
      List.iter
        (fun jobs ->
          let par =
            at_jobs jobs (fun () -> outcome_repr (BF.addition ~k topo))
          in
          Alcotest.(check string)
            (Printf.sprintf "brute force k=%d jobs=%d == jobs=1" k jobs)
            seq par)
        [ 2; 4 ])
    [ 1; 2; 3 ]

(* qcheck: random circuits, elimination + addition, jobs 1 vs 3 *)
let test_random_jobs_invariant =
  QCheck.Test.make ~name:"random circuit: engine jobs-invariant" ~count:6
    QCheck.(pair (int_range 6 14) (int_range 0 10_000))
    (fun (gates, seed) ->
      let spec =
        {
          B.sp_name = "rnd";
          sp_gates = gates;
          sp_inputs = 3;
          sp_depth = 3;
          sp_couplings = 2 * gates;
          sp_seed = seed;
        }
      in
      let topo = Topo.create (B.generate spec) in
      let k = 4 in
      List.for_all
        (fun mode ->
          let seq = at_jobs 1 (fun () -> engine_repr ~mode ~k topo) in
          let par = at_jobs 3 (fun () -> engine_repr ~mode ~k topo) in
          String.equal seq par)
        [ Engine.Addition; Engine.Elimination ])

let () =
  Alcotest.run "tka_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for;
          Alcotest.test_case "map is position-stable" `Quick test_map_positions;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested submit" `Quick test_nested_submit;
          Alcotest.test_case "jobs=1 identity" `Quick test_jobs1_identity;
          Alcotest.test_case "default pool sizing" `Quick
            test_default_pool_sizing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "i1 addition jobs {1,2,4}" `Quick
            (test_engine_jobs_invariant "i1" Engine.Addition);
          Alcotest.test_case "i1 elimination jobs {1,2,4}" `Quick
            (test_engine_jobs_invariant "i1" Engine.Elimination);
          Alcotest.test_case "i2 addition jobs {1,2,4}" `Slow
            (test_engine_jobs_invariant "i2" Engine.Addition);
          Alcotest.test_case "table2x multi-cone jobs {1,2,4}" `Quick
            test_table2x_multi_cone_invariant;
          Alcotest.test_case "i2 elimination jobs {1,2,4}" `Slow
            (test_engine_jobs_invariant "i2" Engine.Elimination);
          Alcotest.test_case "brute force jobs {1,2,4}" `Quick
            test_subset_unranking;
          QCheck_alcotest.to_alcotest test_random_jobs_invariant;
        ] );
    ]
