(* Golden digests of the exact re-ranking and of the analyses built on
   it. They were recorded from the code as it stood while addition and
   elimination each carried their own copy of the scoring, re-ranking,
   brute-force, k-value and sensitivity paths; one mode-parameterised
   path must reproduce every bit. Covered:
   - the [Report.addition] / [Report.elimination] text on i1-i4 at
     k = 3 and k = 5, filter none and window;
   - the [K_value.addition] / [K_value.elimination] curves on i1, each
     delay and fraction printed with %h;
   - [Brute_force.addition] / [Brute_force.elimination] (winning set,
     %h delay, evaluated and total counts): addition on i1 at k = 1, 2,
     elimination on i1 at k = 1, both on Table 1's validation circuit
     v0 at k = 1..3;
   - [Sensitivity.addition] / [Sensitivity.elimination] on i1, k = 3,
     three trials from seed 7. *)

module B = Tka_layout.Benchmarks
module Topo = Tka_circuit.Topo
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination
module Report = Tka_topk.Report
module K_value = Tka_topk.K_value
module BF = Tka_topk.Brute_force
module Sensitivity = Tka_topk.Sensitivity
module CS = Tka_topk.Coupling_set
module Filter_mode = Tka_filter.Mode

let golden =
  [
    ("kvalue i1 add", "fa2510f6e913f83cf78b82d56e8cc62e");
    ("kvalue i1 elim", "ff2344d7d239e0ceaa422642001bc18d");
    ("brute i1 add k1", "c94a96cd723954bbe33850c4e9017594");
    ("brute i1 add k2", "460b2704eddbac76e868deb08df6072f");
    ("brute i1 elim k1", "5fa8db0b5ff155a47f8a8f9ba7e55ab9");
    ("brute v0 add k1", "00ce2bed78dc4833ae1d0f18d8a19bdc");
    ("brute v0 elim k1", "d14c020996c15f913e6e4790fb710dac");
    ("brute v0 add k2", "dc5cbb7c67f2b64a2c1fdae6e2ca5c97");
    ("brute v0 elim k2", "75f48040a45c4806c5d34e47dde824b8");
    ("brute v0 add k3", "8d315b7e4f41c5543a4a4c167c312632");
    ("brute v0 elim k3", "3c36e3bb60c50cded3ed18557f4b5bd3");
    ("sensitivity i1 add", "ca08ecb34efc8be2dffb381b8d1c81b7");
    ("sensitivity i1 elim", "de27dac25062cf38bd345865491d0584");
    ("report i1 add none k3", "04bd4b71402cb1fd559e26e2af5dbae5");
    ("report i1 elim none k3", "51c8d9ceb13badcb8c461bdf5ccc696c");
    ("report i1 add none k5", "5616d7b7e969681eae0cb2130a418656");
    ("report i1 elim none k5", "589c842da3a65153962099906dcc709a");
    ("report i1 add window k3", "04bd4b71402cb1fd559e26e2af5dbae5");
    ("report i1 elim window k3", "51c8d9ceb13badcb8c461bdf5ccc696c");
    ("report i1 add window k5", "5616d7b7e969681eae0cb2130a418656");
    ("report i1 elim window k5", "589c842da3a65153962099906dcc709a");
    ("report i2 add none k3", "59e134318c65ee5bef952ba9e80884aa");
    ("report i2 elim none k3", "041ba739002ad8c2ddeb2e23492dcc2c");
    ("report i2 add none k5", "43474cc00a08c52925a405e87ea29335");
    ("report i2 elim none k5", "c0f30ed618cdab97ee3137c2fe2f1682");
    ("report i2 add window k3", "6c48a5689cb9934292fa45af5ad25d29");
    ("report i2 elim window k3", "cab29b7a9f0eadcecd19896e87e70b62");
    ("report i2 add window k5", "e0e5fd9b2fb0ca02c3755fa6cf6b9494");
    ("report i2 elim window k5", "1b9f4fc0c6f3cc456b11695424f585ef");
    ("report i3 add none k3", "1b7667d50b92a110d6960a5ffea2bece");
    ("report i3 elim none k3", "4e2e457cc3c6e40ac739fb80afe9f846");
    ("report i3 add none k5", "24f423e455cdc32f9b1a5f94a5291712");
    ("report i3 elim none k5", "3b253e187d30fbc4635a1581f78de6d8");
    ("report i3 add window k3", "1b7667d50b92a110d6960a5ffea2bece");
    ("report i3 elim window k3", "55972c70da9dbe2f35e0d86c29ba20d7");
    ("report i3 add window k5", "fbadb7c195bc5d00a2e82fba7b56e2c2");
    ("report i3 elim window k5", "eb003930f5e200e90a4c40041e7f8d68");
    ("report i4 add none k3", "97f1a8d8ea70a13fe2fce9d4d4a898fd");
    ("report i4 elim none k3", "ff0e998b01e314231b1c9d3dddaac41c");
    ("report i4 add none k5", "e59566112db399575182661590ead860");
    ("report i4 elim none k5", "eb9d35addcb788f17717c0b05979f7f8");
    ("report i4 add window k3", "97f1a8d8ea70a13fe2fce9d4d4a898fd");
    ("report i4 elim window k3", "ff0e998b01e314231b1c9d3dddaac41c");
    ("report i4 add window k5", "c6a73cdc28c6a2bf82a932deb87e458f");
    ("report i4 elim window k5", "4ccd74a4c315b17d4f697035e79de54d");
  ]

let set_text s = String.concat "," (List.map string_of_int (CS.to_list s))

let check label text =
  let digest = Digest.to_hex (Digest.string text) in
  match List.assoc_opt label golden with
  | Some expected -> Alcotest.(check string) label expected digest
  | None -> Alcotest.failf "no golden digest for %s (got %s)" label digest

let test_report name () =
  let nl = Option.get (B.by_name name) in
  let topo = Topo.create nl in
  List.iter
    (fun filter ->
      let fmode = Option.get (Filter_mode.of_string filter) in
      List.iter
        (fun k ->
          let ks = List.filter (fun i -> i <= k) [ 1; 2; 3; 5 ] in
          let label mode = Printf.sprintf "report %s %s %s k%d" name mode filter k in
          check (label "add")
            (Report.addition nl (Addition.compute ~filter:fmode ~k topo) ~ks);
          check (label "elim")
            (Report.elimination nl (Elimination.compute ~filter:fmode ~k topo) ~ks))
        [ 3; 5 ])
    [ "none"; "window" ]

let kvalue_text (r : K_value.recommendation) =
  let b = Buffer.create 1024 in
  List.iter
    (fun p ->
      Printf.bprintf b "%d %h %h\n" p.K_value.kv_k p.K_value.kv_delay
        p.K_value.kv_fraction)
    r.K_value.kv_curve;
  Printf.bprintf b "coverage %s knee %d\n"
    (match r.K_value.kv_coverage_k with Some k -> string_of_int k | None -> "-")
    r.K_value.kv_knee_k;
  Buffer.contents b

let brute_text (o : BF.outcome) =
  Printf.sprintf "%s %h %d %d %b\n"
    (match o.BF.bf_set with Some s -> set_text s | None -> "-")
    o.BF.bf_delay o.BF.bf_evaluated o.BF.bf_total o.BF.bf_completed

let sensitivity_text (r : Sensitivity.report) =
  let lo, hi = r.Sensitivity.sr_delay_spread in
  Printf.sprintf "%d %d %h %h %s %h %h\n" r.Sensitivity.sr_k
    r.Sensitivity.sr_trials r.Sensitivity.sr_jaccard_mean
    r.Sensitivity.sr_jaccard_min
    (set_text r.Sensitivity.sr_always_chosen)
    lo hi

let i1 () =
  let nl = Option.get (B.by_name "i1") in
  (nl, Topo.create nl)

let test_kvalue () =
  let _, topo = i1 () in
  check "kvalue i1 add" (kvalue_text (K_value.addition topo));
  check "kvalue i1 elim" (kvalue_text (K_value.elimination topo))

(* Table 1's validation circuit: small enough to brute-force k = 3 in
   both modes *)
let v0 =
  {
    B.sp_name = "v0";
    sp_gates = 20;
    sp_inputs = 4;
    sp_depth = 4;
    sp_couplings = 24;
    sp_seed = 4242;
  }

(* i1 elimination at k = 2 (107 k exact scores, over a minute) is left
   to v0, which exercises the same path *)
let test_brute () =
  let brute name topo mode k =
    let run = if mode = "add" then BF.addition else BF.elimination in
    check
      (Printf.sprintf "brute %s %s k%d" name mode k)
      (brute_text (run ~budget_s:600. ~k topo))
  in
  let _, topo = i1 () in
  brute "i1" topo "add" 1;
  brute "i1" topo "add" 2;
  brute "i1" topo "elim" 1;
  let topo = Topo.create (B.generate v0) in
  List.iter
    (fun k ->
      brute "v0" topo "add" k;
      brute "v0" topo "elim" k)
    [ 1; 2; 3 ]

let test_sensitivity () =
  let nl, _ = i1 () in
  let run f = sensitivity_text (f ~trials:3 ~rng:(Tka_util.Rng.create 7) ~k:3 nl) in
  check "sensitivity i1 add" (run (fun ~trials ~rng ~k nl -> Sensitivity.addition ~trials ~rng ~k nl));
  check "sensitivity i1 elim"
    (run (fun ~trials ~rng ~k nl -> Sensitivity.elimination ~trials ~rng ~k nl))

let () =
  Alcotest.run "tka_rerank_golden"
    [
      ( "report",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_report name))
          [ "i1"; "i2"; "i3"; "i4" ] );
      ( "analyses",
        [
          Alcotest.test_case "kvalue i1" `Quick test_kvalue;
          Alcotest.test_case "brute force i1" `Quick test_brute;
          Alcotest.test_case "sensitivity i1" `Quick test_sensitivity;
        ] );
    ]
