(* Tests for transitions, pulses and noise envelopes (Figs. 2, 3, 5 of
   the paper). *)

module Pwl = Tka_waveform.Pwl
module Transition = Tka_waveform.Transition
module Pulse = Tka_waveform.Pulse
module Envelope = Tka_waveform.Envelope
module Interval = Tka_util.Interval

let check_f = Alcotest.(check (float 1e-9))
let check_f6 = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Transition                                                          *)
(* ------------------------------------------------------------------ *)

let test_transition_waveform () =
  let t = Transition.make ~t50:1.0 ~slew:0.4 () in
  let w = Transition.waveform t in
  check_f "before" 0. (Pwl.eval w 0.);
  check_f "start" 0. (Pwl.eval w 0.8);
  check_f "t50" 0.5 (Pwl.eval w 1.0);
  check_f "end" 1. (Pwl.eval w 1.2);
  check_f "after" 1. (Pwl.eval w 5.)

let test_transition_bad_slew () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Transition.make ~t50:0. ~slew:0. ());
       false
     with Invalid_argument _ -> true)

let test_transition_times () =
  let t = Transition.make ~t50:2.0 ~slew:1.0 () in
  check_f "start" 1.5 (Transition.start_time t);
  check_f "end" 2.5 (Transition.end_time t)

let test_transition_shift () =
  let t = Transition.make ~t50:1.0 ~slew:0.2 () in
  let s = Transition.shift 0.5 t in
  check_f "t50 moved" 1.5 s.Transition.t50;
  check_f "slew kept" 0.2 s.Transition.slew

let test_t50_of_waveform () =
  let t = Transition.make ~t50:3.0 ~slew:0.6 () in
  match Transition.t50_of_waveform (Transition.waveform t) with
  | Some x -> check_f "recovered" 3.0 x
  | None -> Alcotest.fail "expected t50"

(* ------------------------------------------------------------------ *)
(* Pulse                                                              *)
(* ------------------------------------------------------------------ *)

let test_pulse_shape () =
  let p = Pulse.make ~onset:1. ~peak:0.3 ~rise:0.2 ~decay:0.5 in
  let w = Pulse.waveform p in
  check_f "zero before" 0. (Pwl.eval w 0.9);
  check_f "peak" 0.3 (Pwl.eval w 1.2);
  check_f "half after one tau" 0.15 (Pwl.eval w 1.7);
  check_f "zero at end" 0. (Pwl.eval w (Pulse.end_time p));
  Alcotest.(check bool) "unimodal" true (Pwl.is_unimodal w)

let test_pulse_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "peak" true
    (bad (fun () -> ignore (Pulse.make ~onset:0. ~peak:0. ~rise:1. ~decay:1.)));
  Alcotest.(check bool) "rise" true
    (bad (fun () -> ignore (Pulse.make ~onset:0. ~peak:1. ~rise:0. ~decay:1.)));
  Alcotest.(check bool) "decay" true
    (bad (fun () -> ignore (Pulse.make ~onset:0. ~peak:1. ~rise:1. ~decay:(-1.))))

let test_pulse_times () =
  let p = Pulse.make ~onset:1. ~peak:0.5 ~rise:0.2 ~decay:0.1 in
  check_f "peak time" 1.2 (Pulse.peak_time p);
  check_f "end time" 1.5 (Pulse.end_time p)

let test_pulse_shift_scale () =
  let p = Pulse.make ~onset:0. ~peak:0.5 ~rise:0.2 ~decay:0.1 in
  let q = Pulse.shift 2. p in
  check_f "onset" 2. q.Pulse.onset;
  let r = Pulse.scale 0.5 p in
  check_f "peak halved" 0.25 r.Pulse.peak

let test_pulse_width_at () =
  let p = Pulse.make ~onset:0. ~peak:1.0 ~rise:1.0 ~decay:1.0 in
  let w = Pulse.width_at 0.5 p in
  Alcotest.(check bool) "positive" true (w > 0.);
  let w9 = Pulse.width_at 0.9 p in
  Alcotest.(check bool) "narrower at higher level" true (w9 < w)

(* ------------------------------------------------------------------ *)
(* Envelope                                                           *)
(* ------------------------------------------------------------------ *)

let pulse0 = Pulse.make ~onset:0. ~peak:0.3 ~rise:0.2 ~decay:0.4

let test_envelope_point_window_is_pulse () =
  let e = Envelope.of_pulse ~window:(Interval.point 2.) pulse0 in
  let expected = Pwl.shift_x 2. (Pulse.waveform pulse0) in
  Alcotest.(check bool) "equal" true (Pwl.equal (Envelope.waveform e) expected)

let test_envelope_trapezoid () =
  (* Fig. 2: leading edge at EAT, flat top, trailing edge at LAT *)
  let e = Envelope.of_pulse ~window:(Interval.make 1. 3.) pulse0 in
  let w = Envelope.waveform e in
  check_f "zero before EAT onset" 0. (Pwl.eval w 0.99);
  check_f "peak from EAT+rise" 0.3 (Pwl.eval w 1.2);
  check_f "flat top" 0.3 (Pwl.eval w 2.5);
  check_f "top until LAT+rise" 0.3 (Pwl.eval w 3.2);
  Alcotest.(check bool) "decays after" true (Pwl.eval w 3.4 < 0.3);
  check_f "peak preserved" 0.3 (Envelope.peak e)

let test_envelope_combine_superposition () =
  let e1 = Envelope.of_pulse ~window:(Interval.make 0. 1.) pulse0 in
  let e2 = Envelope.of_pulse ~window:(Interval.make 0.5 1.5) pulse0 in
  let c = Envelope.combine [ e1; e2 ] in
  let x = 0.9 in
  check_f6 "pointwise sum"
    (Pwl.eval (Envelope.waveform e1) x +. Pwl.eval (Envelope.waveform e2) x)
    (Pwl.eval (Envelope.waveform c) x);
  Alcotest.(check bool) "combine [] = zero" true (Envelope.is_zero (Envelope.combine []))

let test_envelope_widen () =
  let e = Envelope.of_pulse ~window:(Interval.make 0. 1.) pulse0 in
  let w = Envelope.widen 0.7 e in
  Alcotest.(check bool) "dominates original" true (Envelope.encapsulates w e);
  check_f "same peak" (Envelope.peak e) (Envelope.peak w);
  Alcotest.(check bool) "widen 0 is identity" true
    (Envelope.equal (Envelope.widen 0. e) e)

let test_envelope_encapsulates_interval () =
  let small = Envelope.of_pulse ~window:(Interval.point 0.) pulse0 in
  let big =
    Envelope.of_pulse ~window:(Interval.point 0.)
      (Pulse.make ~onset:0. ~peak:0.5 ~rise:0.2 ~decay:0.4)
  in
  Alcotest.(check bool) "big >= small" true (Envelope.encapsulates big small);
  Alcotest.(check bool) "small not >= big" false (Envelope.encapsulates small big);
  (* restricted to a region where both are zero, they tie *)
  Alcotest.(check bool) "tie on dead zone" true
    (Envelope.encapsulates ~interval:(Interval.make 100. 101.) small big)

let test_delay_noise_zero_for_early_pulse () =
  let victim = Transition.make ~t50:10. ~slew:0.2 () in
  (* envelope fully over before t50 - slew/2 *)
  let e = Envelope.of_pulse ~window:(Interval.point 0.) pulse0 in
  check_f "no noise" 0. (Envelope.delay_noise ~victim e)

let test_delay_noise_positive_when_aligned () =
  let victim = Transition.make ~t50:1.0 ~slew:0.2 () in
  let e = Envelope.of_pulse ~window:(Interval.point 0.8) pulse0 in
  Alcotest.(check bool) "positive" true (Envelope.delay_noise ~victim e > 0.)

let test_delay_noise_monotone_in_peak () =
  let victim = Transition.make ~t50:1.0 ~slew:0.2 () in
  let mk peak =
    Envelope.of_pulse ~window:(Interval.point 0.8)
      (Pulse.make ~onset:0. ~peak ~rise:0.2 ~decay:0.4)
  in
  let d1 = Envelope.delay_noise ~victim (mk 0.1) in
  let d2 = Envelope.delay_noise ~victim (mk 0.3) in
  let d3 = Envelope.delay_noise ~victim (mk 0.6) in
  Alcotest.(check bool) "monotone" true (d1 <= d2 && d2 <= d3)

let test_delay_noise_encapsulation_implies_more () =
  (* Theorem 1's base case: bigger envelope, at least as much noise *)
  let victim = Transition.make ~t50:1.0 ~slew:0.3 () in
  let small = Envelope.of_pulse ~window:(Interval.make 0.5 0.9) pulse0 in
  let big = Envelope.widen 0.5 small in
  Alcotest.(check bool) "noise monotone under encapsulation" true
    (Envelope.delay_noise ~victim big >= Envelope.delay_noise ~victim small)

let test_noisy_waveform_subtraction () =
  let victim = Transition.make ~t50:1.0 ~slew:0.2 () in
  let e = Envelope.of_pulse ~window:(Interval.point 0.9) pulse0 in
  let noisy = Envelope.noisy_waveform ~victim e in
  let x = 1.15 in
  check_f6 "subtract"
    (Pwl.eval (Transition.waveform victim) x -. Pwl.eval (Envelope.waveform e) x)
    (Pwl.eval noisy x)

let test_envelope_of_waveform_clips () =
  let w = Pwl.create [ (0., -0.5); (1., 0.5) ] in
  let e = Envelope.of_waveform w in
  check_f "clipped" 0. (Pwl.eval (Envelope.waveform e) 0.);
  check_f "kept" 0.5 (Pwl.eval (Envelope.waveform e) 1.)

let test_envelope_support () =
  let e = Envelope.of_pulse ~window:(Interval.make 1. 2.) pulse0 in
  match Envelope.support e with
  | None -> Alcotest.fail "expected support"
  | Some i ->
    Alcotest.(check bool) "starts near 1" true (Interval.lo i >= 0.5);
    Alcotest.(check bool) "ends after LAT" true (Interval.hi i >= 2.)

(* ------------------------------------------------------------------ *)
(* Render                                                             *)
(* ------------------------------------------------------------------ *)

module Render = Tka_waveform.Render

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_render_ascii () =
  let ramp = Pwl.create [ (0., 0.); (1., 1.) ] in
  let s = Render.ascii [ ("ramp", ramp) ] in
  Alcotest.(check bool) "non-empty" true (String.length s > 0);
  Alcotest.(check bool) "has legend" true (contains_sub s "* = ramp");
  Alcotest.(check bool) "has plot glyphs" true (contains_sub s "*");
  Alcotest.(check string) "empty series" "" (Render.ascii [])

let test_render_ascii_two_series () =
  let ramp = Pwl.create [ (0., 0.); (1., 1.) ] in
  let flat = Pwl.constant 0.5 in
  let s = Render.ascii [ ("a", ramp); ("b", flat) ] in
  Alcotest.(check bool) "legend a" true (contains_sub s "* = a");
  Alcotest.(check bool) "legend b" true (contains_sub s "+ = b")

let test_render_csv () =
  let ramp = Pwl.create [ (0., 0.); (1., 1.) ] in
  let s = Render.csv ~samples:11 [ ("r", ramp) ] in
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "header + 11 rows" 12 (List.length lines);
  Alcotest.(check string) "header" "t,r" (List.hd lines);
  (* last sample hits the endpoint *)
  (match List.rev lines with
  | last :: _ ->
    Alcotest.(check bool) "endpoint" true (contains_sub last ",1")
  | [] -> Alcotest.fail "no rows")

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let arb_pulse =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Pulse.pp p)
    QCheck.Gen.(
      let* peak = float_range 0.05 0.8 in
      let* rise = float_range 0.01 0.5 in
      let* decay = float_range 0.01 0.5 in
      let* onset = float_range (-2.) 2. in
      return (Pulse.make ~onset ~peak ~rise ~decay))

let arb_window =
  QCheck.make
    ~print:Interval.to_string
    QCheck.Gen.(
      let* lo = float_range (-2.) 2. in
      let* w = float_range 0. 3. in
      return (Interval.make lo (lo +. w)))

(* ------------------------------------------------------------------ *)
(* Kernel properties: linear-merge kernels vs a naive reference        *)
(* ------------------------------------------------------------------ *)

(* The rewritten PWL kernels (single-pass cursor merges, cached peaks)
   must agree with the obvious reference semantics: merge the abscissa
   grids, evaluate each operand pointwise. The reference is kept here,
   in the pre-rewrite list-and-eval style, and the generators stress
   the merge edge cases: coincident abscissae across operands (exact
   and within the x_eps = 1e-12 merge tolerance), constants, and
   single-breakpoint waveforms. *)
module Kernel_ref = struct
  let x_eps = 1e-12 (* mirror of Pwl's internal merge tolerance *)

  (* Sorted eps-deduped union of the operand abscissae, keeping the
     first of each cluster — the exact point set the cursor merges
     visit. *)
  let grid ws =
    let xs =
      List.concat_map (fun w -> List.map fst (Pwl.breakpoints w)) ws
      |> List.sort_uniq Float.compare
    in
    let rec dedupe last = function
      | [] -> []
      | x :: tl ->
        if x -. last <= x_eps then dedupe last tl else x :: dedupe x tl
    in
    match xs with [] -> [] | x :: tl -> x :: dedupe x tl

  (* Probe abscissae for pointwise comparison: every grid point, every
     cell midpoint (catches missed max2 crossings), and both constant
     extensions. *)
  let probes ws =
    let g = grid ws in
    let rec mids = function
      | a :: (b :: _ as tl) -> (0.5 *. (a +. b)) :: mids tl
      | _ -> []
    in
    (-100.) :: 100. :: (g @ mids g)

  let eval_sum ws x = List.fold_left (fun acc w -> acc +. Pwl.eval w x) 0. ws

  let dominates ?(eps = 1e-9) a b =
    List.for_all (fun x -> Pwl.eval a x >= Pwl.eval b x -. eps) (grid [ a; b ])
end

let kernel_pwl_gen =
  QCheck.Gen.(
    let* kind = int_bound 9 in
    if kind = 0 then map Pwl.constant (float_range (-2.) 2.)
    else if kind = 1 then
      (* single breakpoint on the shared tick grid *)
      let* t = int_range (-8) 8 in
      let* y = float_range (-3.) 3. in
      return (Pwl.create [ (0.25 *. float_of_int t, y) ])
    else
      let* n = int_range 2 8 in
      let* ticks = list_repeat n (int_range (-8) 8) in
      let ticks = List.sort_uniq Int.compare ticks in
      let* pts =
        flatten_l
          (List.map
             (fun t ->
               let* y = float_range (-3.) 3. in
               let* j = int_bound 4 in
               (* occasional sub-x_eps jitter: collides with another
                  operand's breakpoint at the same tick without being
                  bitwise equal *)
               let jitter =
                 if j = 0 then 1e-13 else if j = 1 then -1e-13 else 0.
               in
               return ((0.25 *. float_of_int t) +. jitter, y))
             ticks)
      in
      return (Pwl.create pts))

let arb_kernel_pwl = QCheck.make ~print:Pwl.to_string kernel_pwl_gen

let arb_kernel_pwl_list =
  QCheck.make
    ~print:(fun ws -> String.concat " | " (List.map Pwl.to_string ws))
    QCheck.Gen.(
      let* n = int_range 2 6 in
      list_repeat n kernel_pwl_gen)

(* Operands and an interval for the paired dominance kernel: the
   second operand is sometimes the first itself, its sub-x_eps
   neighbour, or Pwl.zero, and the interval endpoints are sometimes
   exact breakpoints of an operand (or a point interval). *)
let arb_pair_case =
  let gen =
    QCheck.Gen.(
      let* a = kernel_pwl_gen in
      let* kind = int_bound 5 in
      let* b =
        match kind with
        | 0 -> return a
        | 1 -> return Pwl.zero
        | 2 -> return (Pwl.shift_x 1e-13 a)
        | _ -> kernel_pwl_gen
      in
      let xs = List.map fst (Pwl.breakpoints a @ Pwl.breakpoints b) in
      let endpoint =
        let* on_bp = bool in
        if on_bp then oneofl xs
        else map (fun t -> 0.25 *. float_of_int t) (int_range (-10) 10)
      in
      let* x0 = endpoint and* x1 = endpoint in
      return (a, b, Interval.make (Float.min x0 x1) (Float.max x0 x1)))
  in
  QCheck.make
    ~print:(fun (a, b, iv) ->
      Printf.sprintf "a=%s b=%s [%h, %h]" (Pwl.to_string a) (Pwl.to_string b)
        (Interval.lo iv) (Interval.hi iv))
    gen

let pointwise_ok expect got ws =
  List.for_all
    (fun x -> Float.abs (Pwl.eval got x -. expect x) <= 1e-9)
    (Kernel_ref.probes ws)

let kernel_qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"add agrees with reference" ~count:500
      (pair arb_kernel_pwl arb_kernel_pwl) (fun (a, b) ->
        pointwise_ok
          (fun x -> Pwl.eval a x +. Pwl.eval b x)
          (Pwl.add a b) [ a; b ]);
    Test.make ~name:"sub agrees with reference" ~count:500
      (pair arb_kernel_pwl arb_kernel_pwl) (fun (a, b) ->
        pointwise_ok
          (fun x -> Pwl.eval a x -. Pwl.eval b x)
          (Pwl.sub a b) [ a; b ]);
    Test.make ~name:"max2 agrees with reference" ~count:500
      (pair arb_kernel_pwl arb_kernel_pwl) (fun (a, b) ->
        pointwise_ok
          (fun x -> Float.max (Pwl.eval a x) (Pwl.eval b x))
          (Pwl.max2 a b) [ a; b ]);
    Test.make ~name:"min2 agrees with reference" ~count:500
      (pair arb_kernel_pwl arb_kernel_pwl) (fun (a, b) ->
        pointwise_ok
          (fun x -> Float.min (Pwl.eval a x) (Pwl.eval b x))
          (Pwl.min2 a b) [ a; b ]);
    Test.make ~name:"k-way sum agrees with reference" ~count:500
      arb_kernel_pwl_list (fun ws ->
        pointwise_ok (Kernel_ref.eval_sum ws) (Pwl.sum ws) ws);
    Test.make ~name:"max_list agrees with reference" ~count:300
      arb_kernel_pwl_list (fun ws ->
        pointwise_ok
          (fun x ->
            List.fold_left
              (fun acc w -> Float.max acc (Pwl.eval w x))
              Float.neg_infinity ws)
          (Pwl.max_list ws) ws);
    Test.make ~name:"dominates agrees with reference" ~count:500
      (pair arb_kernel_pwl arb_kernel_pwl) (fun (a, b) ->
        Pwl.dominates a b = Kernel_ref.dominates a b
        && Pwl.dominates b a = Kernel_ref.dominates b a);
    Test.make ~name:"dominates holds for a vs a - |c|" ~count:300
      (pair arb_kernel_pwl (float_range 0. 2.)) (fun (a, c) ->
        Pwl.dominates a (Pwl.shift_y (-.c) a));
    Test.make ~name:"max_value is cached and exact" ~count:300
      arb_kernel_pwl (fun a ->
        let expected =
          List.fold_left
            (fun acc (_, y) -> Float.max acc y)
            Float.neg_infinity (Pwl.breakpoints a)
        in
        Pwl.max_value a = expected && Pwl.max_value a = expected);
    Test.make ~name:"min_value is exact" ~count:300 arb_kernel_pwl (fun a ->
        let expected =
          List.fold_left
            (fun acc (_, y) -> Float.min acc y)
            Float.infinity (Pwl.breakpoints a)
        in
        Pwl.min_value a = expected);
    Test.make ~name:"paired dominance matches dominates_on" ~count:1000
      arb_pair_case (fun (a, b, iv) ->
        Pwl.dominates_on_pair iv a b
        = (Pwl.dominates_on iv a b, Pwl.dominates_on iv b a));
  ]

let test_nan_rejected () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "constant nan" true
    (bad (fun () -> ignore (Pwl.constant Float.nan)));
  Alcotest.(check bool) "create nan y" true
    (bad (fun () -> ignore (Pwl.create [ (0., Float.nan); (1., 0.) ])));
  Alcotest.(check bool) "create nan x" true
    (bad (fun () -> ignore (Pwl.create [ (Float.nan, 0.); (1., 0.) ])))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"envelope peak equals pulse peak" ~count:200
      (pair arb_pulse arb_window) (fun (p, w) ->
        Float.abs (Envelope.peak (Envelope.of_pulse ~window:w p) -. p.Pulse.peak)
        < 1e-9);
    Test.make ~name:"envelope dominates pulse at EAT" ~count:200
      (pair arb_pulse arb_window) (fun (p, w) ->
        let e = Envelope.of_pulse ~window:w p in
        let placed =
          Pwl.shift_x (Interval.lo w -. p.Pulse.onset) (Pulse.waveform p)
        in
        Pwl.dominates ~eps:1e-6 (Envelope.waveform e) placed);
    Test.make ~name:"wider window gives bigger envelope" ~count:200
      (pair arb_pulse arb_window) (fun (p, w) ->
        let e1 = Envelope.of_pulse ~window:w p in
        let w2 = Interval.make (Interval.lo w) (Interval.hi w +. 0.5) in
        let e2 = Envelope.of_pulse ~window:w2 p in
        Envelope.encapsulates e2 e1);
    Test.make ~name:"delay noise is nonnegative" ~count:200
      (pair arb_pulse arb_window) (fun (p, w) ->
        let victim = Transition.make ~t50:0.5 ~slew:0.2 () in
        Envelope.delay_noise ~victim (Envelope.of_pulse ~window:w p) >= 0.);
    Test.make ~name:"combine peak bounded by sum of peaks" ~count:200
      (pair (pair arb_pulse arb_pulse) arb_window) (fun ((p1, p2), w) ->
        let e1 = Envelope.of_pulse ~window:w p1 in
        let e2 = Envelope.of_pulse ~window:w p2 in
        Envelope.peak (Envelope.combine [ e1; e2 ])
        <= Envelope.peak e1 +. Envelope.peak e2 +. 1e-9);
  ]

let () =
  Alcotest.run "tka_waveform"
    [
      ( "transition",
        [
          Alcotest.test_case "waveform" `Quick test_transition_waveform;
          Alcotest.test_case "bad slew" `Quick test_transition_bad_slew;
          Alcotest.test_case "times" `Quick test_transition_times;
          Alcotest.test_case "shift" `Quick test_transition_shift;
          Alcotest.test_case "t50 recovery" `Quick test_t50_of_waveform;
        ] );
      ( "pulse",
        [
          Alcotest.test_case "shape" `Quick test_pulse_shape;
          Alcotest.test_case "validation" `Quick test_pulse_validation;
          Alcotest.test_case "times" `Quick test_pulse_times;
          Alcotest.test_case "shift/scale" `Quick test_pulse_shift_scale;
          Alcotest.test_case "width_at" `Quick test_pulse_width_at;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "point window" `Quick test_envelope_point_window_is_pulse;
          Alcotest.test_case "trapezoid (Fig 2)" `Quick test_envelope_trapezoid;
          Alcotest.test_case "combine (Fig 3)" `Quick test_envelope_combine_superposition;
          Alcotest.test_case "widen" `Quick test_envelope_widen;
          Alcotest.test_case "encapsulates" `Quick test_envelope_encapsulates_interval;
          Alcotest.test_case "early pulse no noise" `Quick
            test_delay_noise_zero_for_early_pulse;
          Alcotest.test_case "aligned pulse noise" `Quick
            test_delay_noise_positive_when_aligned;
          Alcotest.test_case "noise monotone in peak" `Quick
            test_delay_noise_monotone_in_peak;
          Alcotest.test_case "Theorem 1 base case" `Quick
            test_delay_noise_encapsulation_implies_more;
          Alcotest.test_case "noisy waveform" `Quick test_noisy_waveform_subtraction;
          Alcotest.test_case "of_waveform clips" `Quick test_envelope_of_waveform_clips;
          Alcotest.test_case "support" `Quick test_envelope_support;
        ] );
      ( "render",
        [
          Alcotest.test_case "ascii" `Quick test_render_ascii;
          Alcotest.test_case "two series" `Quick test_render_ascii_two_series;
          Alcotest.test_case "csv" `Quick test_render_csv;
        ] );
      ( "kernels",
        Alcotest.test_case "NaN breakpoints rejected" `Quick test_nan_rejected
        :: List.map QCheck_alcotest.to_alcotest kernel_qcheck_tests );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
