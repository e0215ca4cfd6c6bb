(* Tests for the exact piecewise-linear algebra, the foundation of all
   envelope arithmetic. *)

module Pwl = Tka_waveform.Pwl
module Interval = Tka_util.Interval

let check_f = Alcotest.(check (float 1e-9))

let ramp = Pwl.create [ (0., 0.); (1., 1.) ]
let bump = Pwl.create [ (0., 0.); (1., 1.); (2., 0.) ]

(* ------------------------------------------------------------------ *)
(* Construction / evaluation                                          *)
(* ------------------------------------------------------------------ *)

let test_create_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pwl.create []);
       false
     with Invalid_argument _ -> true)

let test_create_unsorted () =
  let f = Pwl.create [ (2., 4.); (0., 0.); (1., 2.) ] in
  check_f "sorted eval" 2. (Pwl.eval f 1.)

let test_create_conflicting_duplicate () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pwl.create [ (0., 0.); (0., 1.) ]);
       false
     with Invalid_argument _ -> true)

let test_create_agreeing_duplicate () =
  let f = Pwl.create [ (0., 1.); (0., 1.); (2., 3.) ] in
  check_f "merged" 2. (Pwl.eval f 1.)

let test_collinear_simplified () =
  let f = Pwl.create [ (0., 0.); (1., 1.); (2., 2.); (3., 3.) ] in
  Alcotest.(check int) "two breakpoints" 2 (List.length (Pwl.breakpoints f))

let test_eval_interpolation () =
  check_f "midpoint" 0.5 (Pwl.eval ramp 0.5);
  check_f "quarter" 0.25 (Pwl.eval ramp 0.25)

let test_eval_extension () =
  check_f "left constant" 0. (Pwl.eval ramp (-100.));
  check_f "right constant" 1. (Pwl.eval ramp 100.)

let test_constant () =
  let c = Pwl.constant 3.5 in
  check_f "anywhere" 3.5 (Pwl.eval c 123.);
  Alcotest.(check bool) "is_constant" true (Pwl.is_constant c);
  Alcotest.(check bool) "ramp not constant" false (Pwl.is_constant ramp)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                         *)
(* ------------------------------------------------------------------ *)

let test_add_exact () =
  let s = Pwl.add ramp bump in
  check_f "at 0.5" 1. (Pwl.eval s 0.5);
  check_f "at 1" 2. (Pwl.eval s 1.);
  check_f "at 1.5" 1.5 (Pwl.eval s 1.5);
  check_f "at 3" 1. (Pwl.eval s 3.)

let test_sub_self_zero () =
  let z = Pwl.sub bump bump in
  check_f "max" 0. (Pwl.max_value z);
  check_f "min" 0. (Pwl.min_value z)

let test_scale_neg_shift () =
  let f = Pwl.scale 2. ramp in
  check_f "scaled" 1. (Pwl.eval f 0.5);
  let g = Pwl.neg ramp in
  check_f "neg" (-0.5) (Pwl.eval g 0.5);
  let h = Pwl.shift_x 1. ramp in
  check_f "shifted x" 0. (Pwl.eval h 1.);
  check_f "shifted x mid" 0.5 (Pwl.eval h 1.5);
  let i = Pwl.shift_y 1. ramp in
  check_f "shifted y" 1.5 (Pwl.eval i 0.5)

let test_sum_list () =
  let s = Pwl.sum [ ramp; ramp; ramp ] in
  check_f "triple" 1.5 (Pwl.eval s 0.5);
  check_f "empty sum is zero" 0. (Pwl.eval (Pwl.sum []) 0.)

let test_max2_crossing_inserted () =
  let a = Pwl.create [ (0., 0.); (2., 2.) ] in
  let b = Pwl.create [ (0., 2.); (2., 0.) ] in
  let m = Pwl.max2 a b in
  (* crossing at x=1, y=1 *)
  check_f "at crossing" 1. (Pwl.eval m 1.);
  check_f "left" 2. (Pwl.eval m 0.);
  check_f "right" 2. (Pwl.eval m 2.);
  check_f "between" 1.5 (Pwl.eval m 0.5)

let test_min2 () =
  let a = Pwl.create [ (0., 0.); (2., 2.) ] in
  let b = Pwl.create [ (0., 2.); (2., 0.) ] in
  let m = Pwl.min2 a b in
  check_f "at crossing" 1. (Pwl.eval m 1.);
  check_f "left" 0. (Pwl.eval m 0.);
  check_f "between" 0.5 (Pwl.eval m 0.5)

let test_clip () =
  let f = Pwl.create [ (0., -1.); (2., 1.) ] in
  let c = Pwl.clip_min 0. f in
  check_f "clipped low" 0. (Pwl.eval c 0.);
  check_f "unclipped" 1. (Pwl.eval c 2.);
  check_f "at crossing" 0. (Pwl.eval c 1.);
  let d = Pwl.clip_max 0. f in
  check_f "clip max right" 0. (Pwl.eval d 2.);
  check_f "clip max left" (-1.) (Pwl.eval d 0.)

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let test_dominates () =
  let big = Pwl.create [ (0., 0.); (1., 2.); (2., 0.) ] in
  Alcotest.(check bool) "big >= bump" true (Pwl.dominates big bump);
  Alcotest.(check bool) "bump not >= big" false (Pwl.dominates bump big);
  Alcotest.(check bool) "self" true (Pwl.dominates bump bump)

let test_dominates_crossing () =
  let a = Pwl.create [ (0., 1.); (2., 0.) ] in
  let b = Pwl.create [ (0., 0.); (2., 1.) ] in
  Alcotest.(check bool) "a not >= b" false (Pwl.dominates a b);
  Alcotest.(check bool) "b not >= a" false (Pwl.dominates b a)

let dominates_on iv a b = Pwl.dominates_on iv a (Pwl.ends iv a) b (Pwl.ends iv b)

let test_dominates_on_interval () =
  let a = Pwl.create [ (0., 1.); (2., 0.) ] in
  let b = Pwl.create [ (0., 0.); (2., 1.) ] in
  (* on [0, 0.5] a is above b *)
  Alcotest.(check bool) "restricted" true (dominates_on (Interval.make 0. 0.5) a b);
  Alcotest.(check bool) "restricted other side" true
    (dominates_on (Interval.make 1.5 2.) b a);
  Alcotest.(check bool) "whole fails" false (dominates_on (Interval.make 0. 2.) a b)

let test_equal () =
  Alcotest.(check bool) "equal self" true (Pwl.equal bump bump);
  let bump' = Pwl.create [ (0., 0.); (0.5, 0.5); (1., 1.); (2., 0.) ] in
  Alcotest.(check bool) "collinear same function" true (Pwl.equal bump bump');
  Alcotest.(check bool) "different" false (Pwl.equal bump ramp)

(* ------------------------------------------------------------------ *)
(* Extrema, support, area                                             *)
(* ------------------------------------------------------------------ *)

let test_max_min_value () =
  check_f "max" 1. (Pwl.max_value bump);
  check_f "min" 0. (Pwl.min_value bump)

let test_max_on () =
  check_f "window max" 0.5 (Pwl.max_on (Interval.make 0. 0.5) bump);
  check_f "window over peak" 1. (Pwl.max_on (Interval.make 0.5 1.5) bump);
  check_f "min over tail" 0.5 (Pwl.min_on (Interval.make 0.5 1.5) bump)

let test_support () =
  match Pwl.support bump with
  | None -> Alcotest.fail "expected support"
  | Some i ->
    Alcotest.(check bool) "contains peak" true (Interval.contains i 1.);
    Alcotest.(check bool) "zero support of zero" true (Pwl.support Pwl.zero = None)

let test_area () =
  check_f "triangle area" 1. (Pwl.area bump);
  check_f "ramp area" 0.5 (Pwl.area ramp)

let test_first_last_x () =
  check_f "first" 0. (Pwl.first_x bump);
  check_f "last" 2. (Pwl.last_x bump)

(* ------------------------------------------------------------------ *)
(* Crossings                                                          *)
(* ------------------------------------------------------------------ *)

let test_last_upcrossing_ramp () =
  match Pwl.last_upcrossing ramp 0.5 with
  | Some x -> check_f "t50" 0.5 x
  | None -> Alcotest.fail "expected crossing"

let test_last_upcrossing_dip () =
  (* rises through 0.5, dips below, rises again: last crossing counts *)
  let f = Pwl.create [ (0., 0.); (1., 1.); (2., 0.2); (3., 1.) ] in
  match Pwl.last_upcrossing f 0.5 with
  | Some x ->
    Alcotest.(check bool) "after dip" true (x > 2. && x < 3.)
  | None -> Alcotest.fail "expected crossing"

let test_last_upcrossing_none () =
  Alcotest.(check bool) "below forever" true
    (Pwl.last_upcrossing (Pwl.constant 0.) 0.5 = None);
  Alcotest.(check bool) "always above" true
    (Pwl.last_upcrossing (Pwl.constant 1.) 0.5 = None)

let test_first_upcrossing () =
  let f = Pwl.create [ (0., 0.); (1., 1.); (2., 0.2); (3., 1.) ] in
  match Pwl.first_upcrossing f 0.5 with
  | Some x -> check_f "first" 0.5 x
  | None -> Alcotest.fail "expected crossing"

let test_crossings_count () =
  let f = Pwl.create [ (0., 0.); (1., 1.); (2., 0.); (3., 1.) ] in
  Alcotest.(check int) "three crossings" 3 (List.length (Pwl.crossings f 0.5))

(* ------------------------------------------------------------------ *)
(* Unimodality and sliding max                                        *)
(* ------------------------------------------------------------------ *)

let test_unimodal () =
  Alcotest.(check bool) "bump" true (Pwl.is_unimodal bump);
  Alcotest.(check bool) "ramp" true (Pwl.is_unimodal ramp);
  let w = Pwl.create [ (0., 0.); (1., 1.); (2., 0.); (3., 1.) ] in
  Alcotest.(check bool) "double bump not" false (Pwl.is_unimodal w)

let test_sliding_max_zero_window () =
  Alcotest.(check bool) "identity" true
    (Pwl.equal (Pwl.sliding_max ~window:0. bump) bump)

let test_sliding_max_trapezoid () =
  let e = Pwl.sliding_max ~window:1.5 bump in
  (* leading edge unchanged *)
  check_f "lead" 0.5 (Pwl.eval e 0.5);
  (* flat top over [1, 2.5] *)
  check_f "top start" 1. (Pwl.eval e 1.);
  check_f "top mid" 1. (Pwl.eval e 1.7);
  check_f "top end" 1. (Pwl.eval e 2.5);
  (* trailing edge = original shifted by window *)
  check_f "tail" (Pwl.eval bump 1.6) (Pwl.eval e (1.6 +. 1.5))

let test_sliding_max_is_pointwise_max () =
  (* g(x) = max over s in [0, w] of f (x - s); the sampled reference can
     miss the exact peak by one step, so allow step-sized tolerance. *)
  let w = 0.8 in
  let e = Pwl.sliding_max ~window:w bump in
  let step_tol = (w /. 100.) +. 1e-9 in
  let samples = List.init 61 (fun i -> -0.5 +. (float_of_int i *. 0.08)) in
  List.iter
    (fun x ->
      let expect = ref neg_infinity in
      for j = 0 to 100 do
        let s = w *. float_of_int j /. 100. in
        expect := Float.max !expect (Pwl.eval bump (x -. s))
      done;
      let got = Pwl.eval e x in
      Alcotest.(check bool)
        (Printf.sprintf "at %g: got %g, sampled %g" x got !expect)
        true
        (got >= !expect -. 1e-9 && got <= !expect +. step_tol))
    samples

let test_sliding_max_rejects_bimodal () =
  let w = Pwl.create [ (0., 0.); (1., 1.); (2., 0.); (3., 1.) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pwl.sliding_max ~window:1. w);
       false
     with Invalid_argument _ -> true)

let test_sliding_max_monotone_in_window () =
  let e1 = Pwl.sliding_max ~window:0.5 bump in
  let e2 = Pwl.sliding_max ~window:1.5 bump in
  Alcotest.(check bool) "wider window dominates" true (Pwl.dominates e2 e1)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

(* Generator for random PWLs with a handful of breakpoints. *)
let pwl_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* xs = list_repeat n (float_bound_inclusive 10.) in
    let* ys = list_repeat n (float_range (-5.) 5.) in
    let pts =
      List.map2 (fun x y -> (Float.round (x *. 100.) /. 100., y)) xs ys
    in
    (* dedupe x to avoid conflicting duplicates *)
    let seen = Hashtbl.create 8 in
    let pts =
      List.filter
        (fun (x, _) ->
          if Hashtbl.mem seen x then false
          else begin
            Hashtbl.replace seen x ();
            true
          end)
        pts
    in
    return (Pwl.create pts))

let arb_pwl = QCheck.make ~print:Pwl.to_string pwl_gen

let sample_points = List.init 41 (fun i -> -2. +. (float_of_int i *. 0.35))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"add is commutative" ~count:200 (pair arb_pwl arb_pwl)
      (fun (a, b) -> Pwl.equal (Pwl.add a b) (Pwl.add b a));
    Test.make ~name:"add evaluates to sum" ~count:200 (pair arb_pwl arb_pwl)
      (fun (a, b) ->
        let s = Pwl.add a b in
        List.for_all
          (fun x ->
            Float.abs (Pwl.eval s x -. (Pwl.eval a x +. Pwl.eval b x)) < 1e-6)
          sample_points);
    Test.make ~name:"sub then add roundtrips" ~count:200 (pair arb_pwl arb_pwl)
      (fun (a, b) -> Pwl.equal ~eps:1e-6 (Pwl.add (Pwl.sub a b) b) a);
    Test.make ~name:"max2 dominates both" ~count:200 (pair arb_pwl arb_pwl)
      (fun (a, b) ->
        let m = Pwl.max2 a b in
        Pwl.dominates ~eps:1e-6 m a && Pwl.dominates ~eps:1e-6 m b);
    Test.make ~name:"max2 evaluates to max" ~count:200 (pair arb_pwl arb_pwl)
      (fun (a, b) ->
        let m = Pwl.max2 a b in
        List.for_all
          (fun x ->
            Float.abs (Pwl.eval m x -. Float.max (Pwl.eval a x) (Pwl.eval b x))
            < 1e-6)
          sample_points);
    Test.make ~name:"min2 is dominated by both" ~count:200 (pair arb_pwl arb_pwl)
      (fun (a, b) ->
        let m = Pwl.min2 a b in
        Pwl.dominates ~eps:1e-6 a m && Pwl.dominates ~eps:1e-6 b m);
    Test.make ~name:"dominance is reflexive" ~count:100 arb_pwl (fun a ->
        Pwl.dominates a a);
    Test.make ~name:"dominance antisymmetry up to equality" ~count:200
      (pair arb_pwl arb_pwl) (fun (a, b) ->
        (not (Pwl.dominates a b && Pwl.dominates b a)) || Pwl.equal ~eps:1e-6 a b);
    Test.make ~name:"scale distributes over add" ~count:200
      (triple (float_range (-3.) 3.) arb_pwl arb_pwl) (fun (c, a, b) ->
        Pwl.equal ~eps:1e-6
          (Pwl.scale c (Pwl.add a b))
          (Pwl.add (Pwl.scale c a) (Pwl.scale c b)));
    Test.make ~name:"shift_x preserves values" ~count:200
      (pair (float_range (-5.) 5.) arb_pwl) (fun (d, a) ->
        let s = Pwl.shift_x d a in
        List.for_all
          (fun x -> Float.abs (Pwl.eval s (x +. d) -. Pwl.eval a x) < 1e-6)
          sample_points);
    Test.make ~name:"clip_min never below" ~count:200
      (pair (float_range (-3.) 3.) arb_pwl) (fun (lo, a) ->
        let c = Pwl.clip_min lo a in
        List.for_all (fun x -> Pwl.eval c x >= lo -. 1e-9) sample_points);
  ]

(* ------------------------------------------------------------------ *)
(* Arena                                                              *)
(* ------------------------------------------------------------------ *)

module Arena = Tka_waveform.Arena

let stamp (buf, off) n v =
  for j = 0 to n - 1 do
    buf.(off + j) <- v
  done

let intact (buf, off) n v =
  let ok = ref true in
  for j = 0 to n - 1 do
    if buf.(off + j) <> v then ok := false
  done;
  !ok

let test_arena_disjoint () =
  (* stamp every slice after allocating all of them: any overlap (also
     across a chunk rollover) clobbers an earlier stamp *)
  let slices = List.init 40 (fun i -> (Arena.alloc (137 * (1 + (i mod 5))), 137 * (1 + (i mod 5)), float_of_int i)) in
  List.iter (fun (s, n, v) -> stamp s n v) slices;
  List.iter
    (fun (s, n, v) ->
      Alcotest.(check bool) "slice intact" true (intact s n v))
    slices

let test_arena_shrink_reuse () =
  (* the returned tail is the very next allocation: kernels allocate
     worst-case, simplify in place, and hand back what they didn't use *)
  let (b1, o1) = Arena.alloc 100 in
  Arena.shrink_last b1 o1 ~alloc:100 ~used:40;
  let (b2, o2) = Arena.alloc 10 in
  Alcotest.(check bool) "same chunk" true (b2 == b1);
  Alcotest.(check int) "starts right after the kept prefix" (o1 + 40) o2

let test_arena_shrink_stale () =
  (* shrinking an allocation that is no longer the latest must not
     hand its floats to anyone else *)
  let a = Arena.alloc 50 in
  let b = Arena.alloc 50 in
  stamp a 50 1.;
  stamp b 50 2.;
  Arena.shrink_last (fst a) (snd a) ~alloc:50 ~used:0;
  let c = Arena.alloc 60 in
  stamp c 60 3.;
  Alcotest.(check bool) "a intact" true (intact a 50 1.);
  Alcotest.(check bool) "b intact" true (intact b 50 2.)

let test_arena_large_dedicated () =
  (* a quarter-chunk request bypasses the bump cursor entirely *)
  let before = Arena.alloc 8 in
  let (big, bo) = Arena.alloc 16384 in
  let after = Arena.alloc 8 in
  Alcotest.(check int) "dedicated array starts at 0" 0 bo;
  Alcotest.(check int) "exact size" 16384 (Array.length big);
  Alcotest.(check bool) "cursor undisturbed" true
    (fst before == fst after && snd after = snd before + 8)

let test_arena_rollover () =
  (* fill past a chunk boundary: old slices keep their chunk alive and
     unchanged while new allocations land in a fresh one *)
  let first = Arena.alloc 1000 in
  stamp first 1000 7.;
  for _ = 1 to 80 do
    ignore (Arena.alloc 1000)
  done;
  Alcotest.(check bool) "pre-rollover slice intact" true (intact first 1000 7.)

(* [Arena.scoped] hands back what its thunk allocated. Each test opens
   its scope on a fresh-enough cursor (an allocation first) so the
   expectations do not depend on what earlier tests left behind. *)
let test_scoped_restores_cursor () =
  let b0, o0 = Arena.alloc 8 in
  let r =
    Arena.scoped (fun () ->
        stamp (Arena.alloc 100) 100 1.;
        stamp (Arena.alloc 50) 50 2.;
        42)
  in
  let b1, o1 = Arena.alloc 8 in
  Alcotest.(check int) "value returned" 42 r;
  Alcotest.(check bool) "same chunk" true (b1 == b0);
  Alcotest.(check int) "cursor back where the scope opened" (o0 + 8) o1

let test_scoped_keeps_earlier_slices () =
  let before = Arena.alloc 64 in
  stamp before 64 5.;
  Arena.scoped (fun () -> stamp (Arena.alloc 500) 500 (-1.));
  (* the rewound region is reused, and must not reach back *)
  stamp (Arena.alloc 500) 500 (-2.);
  Alcotest.(check bool) "pre-scope slice intact" true (intact before 64 5.)

let test_scoped_exception () =
  let b0, o0 = Arena.alloc 8 in
  (match Arena.scoped (fun () -> ignore (Arena.alloc 300); raise Exit) with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  let b1, o1 = Arena.alloc 8 in
  Alcotest.(check bool) "same chunk" true (b1 == b0);
  Alcotest.(check int) "cursor rewound on the exception path" (o0 + 8) o1

let test_scoped_rollover () =
  (* a scope that outgrows its chunk: the opening chunk keeps its
     pre-scope slices, and the cursor restarts at the head of the
     chunk the scope ended in *)
  let before = Arena.alloc 1000 in
  stamp before 1000 9.;
  let last_chunk =
    Arena.scoped (fun () ->
        let last = ref [||] in
        for _ = 1 to 80 do
          let s = Arena.alloc 1000 in
          stamp s 1000 (-3.);
          last := fst s
        done;
        !last)
  in
  let after = Arena.alloc 1000 in
  stamp after 1000 4.;
  Alcotest.(check bool) "rolled over" true (fst before != last_chunk);
  Alcotest.(check bool) "reuses the scope's last chunk" true (fst after == last_chunk);
  Alcotest.(check int) "from its head" 0 (snd after);
  Alcotest.(check bool) "pre-scope slice intact" true (intact before 1000 9.)

let test_scoped_nested () =
  (* an inner scope runs unscoped: its slices live until the outer
     scope closes *)
  Arena.scoped (fun () ->
      let inner = Arena.scoped (fun () -> Arena.alloc 16) in
      stamp inner 16 6.;
      stamp (Arena.alloc 16) 16 (-6.);
      Alcotest.(check bool) "inner slice not handed back" true (intact inner 16 6.))

let test_scoped_other_thread () =
  (* systhreads of one domain share its arena: a thread that allocates
     while another thread's scope is open must keep its slices, so the
     scope gives up its rewind *)
  let theirs = ref None in
  let finished = Atomic.make false in
  let b0, o0 = Arena.alloc 8 in
  Arena.scoped (fun () ->
      stamp (Arena.alloc 32) 32 (-1.);
      let th =
        Thread.create
          (fun () ->
            (* a scope of its own runs unscoped under the open one *)
            Arena.scoped (fun () ->
                let s = Arena.alloc 32 in
                stamp s 32 8.;
                theirs := Some s);
            Atomic.set finished true)
          ()
      in
      while not (Atomic.get finished) do
        Thread.yield ()
      done;
      Thread.join th;
      stamp (Arena.alloc 32) 32 (-1.));
  let s = Option.get !theirs in
  let b1, o1 = Arena.alloc 8 in
  if b1 == b0 then
    Alcotest.(check int) "tainted scope released nothing" (o0 + 8 + 96) o1;
  stamp (Arena.alloc 256) 256 (-2.);
  Alcotest.(check bool) "other thread's slice intact" true (intact s 32 8.)

(* ------------------------------------------------------------------ *)
(* Fused kernels vs the paths they replace, bit for bit                *)
(* ------------------------------------------------------------------ *)

(* Breakpoints sit on a tick grid plus offsets in units of 0.55e-12,
   half the 1e-12 merge tolerance: [a] takes even offsets and [b] odd
   ones (or, sometimes, even ones too, for exact coincidences), so the
   merged abscissae form chains closer than the tolerance, whose
   dedupe depends on the points before them. Interval ends fall on the
   same clusters. Ordinates come from a coarse set half the time, which
   makes flat and collinear runs (the simplification) and points at the
   crossing level common. *)
let near_unit = 0.55e-12

let near_x t j = (0.25 *. float_of_int t) +. (float_of_int j *. near_unit)

let near_operand_gen offsets =
  QCheck.Gen.(
    let* coarse = bool in
    let* n = int_range 1 12 in
    let* pts =
      list_repeat n
        (let* t = int_range (-2) 2 and* j = oneofl offsets in
         let* y =
           if coarse then oneofl [ -0.5; 0.; 0.25; 0.5; 0.75; 1.; 1.5 ]
           else float_range (-0.5) 1.5
         in
         return (t, j, y))
    in
    let pts = List.sort_uniq (fun (t, j, _) (t', j', _) -> compare (t, j) (t', j')) pts in
    return (Pwl.create (List.map (fun (t, j, y) -> (near_x t j, y)) pts)))

let arb_near_case =
  let gen =
    QCheck.Gen.(
      let* a = near_operand_gen [ 0; 2; 4 ] in
      let* coincide = int_bound 3 in
      let* b = near_operand_gen (if coincide = 0 then [ 0; 2; 4 ] else [ 1; 3 ]) in
      let endpoint =
        let* t = int_range (-3) 3 and* j = int_range (-1) 5 in
        return (near_x t j)
      in
      let* x0 = endpoint and* x1 = endpoint in
      let* level = oneofl [ 0.5; 0.5; 0.; 0.25; 1. ] in
      return (a, b, Interval.make (Float.min x0 x1) (Float.max x0 x1), level))
  in
  QCheck.make
    ~print:(fun (a, b, iv, level) ->
      Printf.sprintf "a=%s b=%s [%h, %h] level=%g" (Pwl.to_string a) (Pwl.to_string b)
        (Interval.lo iv) (Interval.hi iv) level)
    gen

let same_crossing x y =
  match (x, y) with
  | None, None -> true
  | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

(* The co-scan from index 0, written from its definition: the merged
   abscissae in ascending order, each dropped when within the merge
   tolerance of the last one kept, with both operands evaluated there. *)
let merged_abscissae a b =
  let xs =
    List.map fst (Pwl.breakpoints a @ Pwl.breakpoints b) |> List.sort Float.compare
  in
  let rec dedupe last = function
    | [] -> []
    | x :: tl -> if x -. last > 1e-12 then x :: dedupe x tl else dedupe last tl
  in
  dedupe Float.neg_infinity xs

let dominates_on_from_start ?(eps = 1e-9) iv a b =
  let lo = Interval.lo iv and hi = Interval.hi iv in
  let ok x = Pwl.eval a x >= Pwl.eval b x -. eps in
  ok lo && ok hi
  && List.for_all (fun x -> x <= lo || x >= hi || ok x) (merged_abscissae a b)

(* Floors and envelopes for the indexed elimination crossing. A floor
   has up to 20 breakpoints on the same near-tolerance grid (half of
   them on offsets around x = 0, where the index puts [Envelope.zero]'s
   breakpoint, so that its dedupe can drop a floor breakpoint), with
   ordinates that include -0., exact zeros and the crossing level; a
   quarter of them end below 0.5, so they never come back above it.
   An envelope is, in turn: [Envelope.zero] (one breakpoint at x = 0,
   which most floors span); a noise-envelope-like operand (nowhere
   negative, zero ends of either sign) over the floor, before its first
   breakpoint or after its last, half of them summed with
   [Envelope.zero] as the engine's extensions are; or, for the
   fallback, one that ends above zero or dips below it. *)
let floor_gen =
  QCheck.Gen.(
    let* coarse = bool and* offsets = oneofl [ [ 0; 2; 4 ]; [ -2; 1; 3 ] ] in
    let* n = int_range 1 20 in
    let* pts =
      list_repeat n
        (let* t = int_range (-4) 4 and* j = oneofl offsets in
         let* y =
           if coarse then oneofl [ -0.5; -0.; 0.; 0.25; 0.5; 0.5; 0.75; 1.; 1.5 ]
           else float_range (-0.5) 1.5
         in
         return (t, j, y))
    in
    let pts = List.sort_uniq (fun (t, j, _) (t', j', _) -> compare (t, j) (t', j')) pts in
    let* sink = int_bound 3 in
    let pts = if sink = 0 then pts @ [ (5, 0, 0.25) ] else pts in
    return (Pwl.create (List.map (fun (t, j, y) -> (near_x t j, y)) pts)))

let zero_envelope = Tka_waveform.Envelope.(waveform zero)

let env_gen =
  QCheck.Gen.(
    let* kind = int_bound 9 in
    if kind = 0 then return zero_envelope
    else
      let* shift = oneofl [ 0; 0; 0; 0; -12; 12 ] in
      let* n = int_range 1 8 and* offsets = oneofl [ [ 0; 2; 4 ]; [ 1; 3 ] ] in
      let* pts =
        list_repeat n
          (let* t = int_range (-3) 3 and* j = oneofl offsets in
           let* y = oneof [ oneofl [ 0.; -0.; 0.25; 0.5; 1. ]; float_range 0. 1.5 ] in
           return (t + shift, j, y))
      in
      let pts = List.sort_uniq (fun (t, j, _) (t', j', _) -> compare (t, j) (t', j')) pts in
      let* z0 = oneofl [ 0.; -0. ] and* z1 = oneofl [ 0.; -0. ] in
      let last = List.length pts - 1 in
      let env =
        Pwl.create
          (List.mapi
             (fun i (t, j, y) ->
               let y =
                 if kind = 1 && i = last then 0.75
                 else if kind = 2 && i = last / 2 then -0.25
                 else if i = 0 then z0
                 else if i = last then z1
                 else y
               in
               (near_x t j, y))
             pts)
      in
      let* summed = bool in
      return (if summed then Pwl.add zero_envelope env else env))

let arb_floor_case =
  QCheck.make
    ~print:(fun (floor, envs, level) ->
      Printf.sprintf "floor=%s envs=[%s] level=%g" (Pwl.to_string floor)
        (String.concat "; " (List.map Pwl.to_string envs))
        level)
    QCheck.Gen.(
      let* floor = floor_gen and* envs = list_size (int_range 1 4) env_gen in
      let* level = oneofl [ 0.5; 0.5; 0.5; 0.; 0.25; 1. ] in
      return (floor, envs, level))

(* The counters of the indexed crossing: a trapezoid summed with the
   zero, as the engine's extensions are, is scanned from where its
   leading zero ends to just past its last breakpoint, not over the
   floor's tail; an envelope that ends above zero takes the full scan
   and counts as a fallback; reading the counts resets them. *)
let test_floor_counts () =
  let floor =
    Pwl.create (List.init 40 (fun i -> (float_of_int i, if i mod 2 = 0 then 0.2 else 0.7)))
  in
  let idx = Pwl.floor_index ~level:0.5 floor in
  let trapezoid = Pwl.create [ (10., 0.); (11., 0.5); (12., 0.5); (13., 0.) ] in
  let env = Pwl.add zero_envelope trapezoid in
  let same a b = Alcotest.(check bool) "bit-identical" true (same_crossing a b) in
  same (Pwl.floor_upcrossing idx env) (Pwl.last_upcrossing2 ~neg:false floor env 0.5);
  let visited, full, fallbacks = Pwl.floor_counts idx in
  Alcotest.(check int) "full scan" (40 + 5) full;
  Alcotest.(check int) "no fallback" 0 fallbacks;
  Alcotest.(check bool) "visits a few points" true (visited > 0 && visited <= 10);
  let raised = Pwl.create [ (10., 0.); (11., 0.5) ] in
  same (Pwl.floor_upcrossing idx raised) (Pwl.last_upcrossing2 ~neg:false floor raised 0.5);
  Alcotest.(check (triple int int int)) "fallback" (42, 42, 1) (Pwl.floor_counts idx);
  Alcotest.(check (triple int int int)) "reset" (0, 0, 0) (Pwl.floor_counts idx)

let fused_tests =
  let open QCheck in
  [
    Test.make ~name:"floor_upcrossing is last_upcrossing2 of the floor" ~count:4000
      arb_floor_case (fun (floor, envs, level) ->
        let idx = Pwl.floor_index ~level floor in
        List.for_all
          (fun env ->
            same_crossing (Pwl.floor_upcrossing idx env)
              (Pwl.last_upcrossing2 ~neg:false floor env level))
          envs);
    Test.make ~name:"last_upcrossing2 is last_upcrossing of sub and add" ~count:3000
      arb_near_case (fun (a, b, _, level) ->
        same_crossing
          (Pwl.last_upcrossing2 ~neg:true a b level)
          (Pwl.last_upcrossing (Pwl.sub a b) level)
        && same_crossing
             (Pwl.last_upcrossing2 ~neg:false a b level)
             (Pwl.last_upcrossing (Pwl.add a b) level));
    Test.make ~name:"seeked dominates_on is the scan from index 0" ~count:3000
      arb_near_case (fun (a, b, iv, _) ->
        let ea = Pwl.ends iv a and eb = Pwl.ends iv b in
        Pwl.dominates_on iv a ea b eb = dominates_on_from_start iv a b
        && Pwl.dominates_on iv b eb a ea = dominates_on_from_start iv b a
        && Pwl.dominates_on_pair iv a ea b eb
           = (dominates_on_from_start iv a b, dominates_on_from_start iv b a));
  ]

let () =
  Alcotest.run "tka_pwl"
    [
      ( "construction",
        [
          Alcotest.test_case "empty" `Quick test_create_empty;
          Alcotest.test_case "unsorted" `Quick test_create_unsorted;
          Alcotest.test_case "conflicting duplicate" `Quick
            test_create_conflicting_duplicate;
          Alcotest.test_case "agreeing duplicate" `Quick test_create_agreeing_duplicate;
          Alcotest.test_case "collinear simplified" `Quick test_collinear_simplified;
          Alcotest.test_case "interpolation" `Quick test_eval_interpolation;
          Alcotest.test_case "constant extension" `Quick test_eval_extension;
          Alcotest.test_case "constant" `Quick test_constant;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "add exact" `Quick test_add_exact;
          Alcotest.test_case "sub self" `Quick test_sub_self_zero;
          Alcotest.test_case "scale/neg/shift" `Quick test_scale_neg_shift;
          Alcotest.test_case "sum list" `Quick test_sum_list;
          Alcotest.test_case "max2 crossing" `Quick test_max2_crossing_inserted;
          Alcotest.test_case "min2" `Quick test_min2;
          Alcotest.test_case "clip" `Quick test_clip;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "crossing undominated" `Quick test_dominates_crossing;
          Alcotest.test_case "dominates_on" `Quick test_dominates_on_interval;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "extrema",
        [
          Alcotest.test_case "max/min value" `Quick test_max_min_value;
          Alcotest.test_case "max_on" `Quick test_max_on;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "area" `Quick test_area;
          Alcotest.test_case "first/last x" `Quick test_first_last_x;
        ] );
      ( "crossings",
        [
          Alcotest.test_case "ramp t50" `Quick test_last_upcrossing_ramp;
          Alcotest.test_case "dip" `Quick test_last_upcrossing_dip;
          Alcotest.test_case "none" `Quick test_last_upcrossing_none;
          Alcotest.test_case "first" `Quick test_first_upcrossing;
          Alcotest.test_case "count" `Quick test_crossings_count;
        ] );
      ( "sliding_max",
        [
          Alcotest.test_case "unimodal" `Quick test_unimodal;
          Alcotest.test_case "zero window" `Quick test_sliding_max_zero_window;
          Alcotest.test_case "trapezoid" `Quick test_sliding_max_trapezoid;
          Alcotest.test_case "pointwise max" `Quick test_sliding_max_is_pointwise_max;
          Alcotest.test_case "rejects bimodal" `Quick test_sliding_max_rejects_bimodal;
          Alcotest.test_case "monotone in window" `Quick
            test_sliding_max_monotone_in_window;
        ] );
      ( "arena",
        [
          Alcotest.test_case "allocations are disjoint" `Quick
            test_arena_disjoint;
          Alcotest.test_case "shrink_last returns the tail" `Quick
            test_arena_shrink_reuse;
          Alcotest.test_case "shrink of a stale allocation is a no-op" `Quick
            test_arena_shrink_stale;
          Alcotest.test_case "large requests get exact arrays" `Quick
            test_arena_large_dedicated;
          Alcotest.test_case "chunk rollover preserves live slices" `Quick
            test_arena_rollover;
          Alcotest.test_case "scoped restores the cursor" `Quick
            test_scoped_restores_cursor;
          Alcotest.test_case "scoped keeps earlier slices" `Quick
            test_scoped_keeps_earlier_slices;
          Alcotest.test_case "scoped exception path" `Quick test_scoped_exception;
          Alcotest.test_case "scoped chunk rollover" `Quick test_scoped_rollover;
          Alcotest.test_case "scoped nested" `Quick test_scoped_nested;
          Alcotest.test_case "scoped other systhread" `Quick
            test_scoped_other_thread;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "fused",
        Alcotest.test_case "floor counts" `Quick test_floor_counts
        :: List.map QCheck_alcotest.to_alcotest fused_tests );
    ]
