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
  let t = Transition.make ~t50:1.0 ~slew:0.4 in
  let w = Transition.waveform t in
  check_f "before" 0. (Pwl.eval w 0.);
  check_f "start" 0. (Pwl.eval w 0.8);
  check_f "t50" 0.5 (Pwl.eval w 1.0);
  check_f "end" 1. (Pwl.eval w 1.2);
  check_f "after" 1. (Pwl.eval w 5.)

let test_transition_bad_slew () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Transition.make ~t50:0. ~slew:0.);
       false
     with Invalid_argument _ -> true)

let test_transition_times () =
  let t = Transition.make ~t50:2.0 ~slew:1.0 in
  check_f "start" 1.5 (Transition.start_time t);
  check_f "end" 2.5 (Transition.end_time t)

let test_transition_shift () =
  let t = Transition.make ~t50:1.0 ~slew:0.2 in
  let s = Transition.shift 0.5 t in
  check_f "t50 moved" 1.5 s.Transition.t50;
  check_f "slew kept" 0.2 s.Transition.slew

let test_t50_of_waveform () =
  let t = Transition.make ~t50:3.0 ~slew:0.6 in
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
  let victim = Transition.make ~t50:10. ~slew:0.2 in
  (* envelope fully over before t50 - slew/2 *)
  let e = Envelope.of_pulse ~window:(Interval.point 0.) pulse0 in
  check_f "no noise" 0. (Envelope.delay_noise ~victim e)

let test_delay_noise_positive_when_aligned () =
  let victim = Transition.make ~t50:1.0 ~slew:0.2 in
  let e = Envelope.of_pulse ~window:(Interval.point 0.8) pulse0 in
  Alcotest.(check bool) "positive" true (Envelope.delay_noise ~victim e > 0.)

let test_delay_noise_monotone_in_peak () =
  let victim = Transition.make ~t50:1.0 ~slew:0.2 in
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
  let victim = Transition.make ~t50:1.0 ~slew:0.3 in
  let small = Envelope.of_pulse ~window:(Interval.make 0.5 0.9) pulse0 in
  let big = Envelope.widen 0.5 small in
  Alcotest.(check bool) "noise monotone under encapsulation" true
    (Envelope.delay_noise ~victim big >= Envelope.delay_noise ~victim small)

let test_noisy_waveform_subtraction () =
  let victim = Transition.make ~t50:1.0 ~slew:0.2 in
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
        let ea = Pwl.ends iv a and eb = Pwl.ends iv b in
        Pwl.dominates_on_pair iv a ea b eb
        = (Pwl.dominates_on iv a ea b eb, Pwl.dominates_on iv b eb a ea));
  ]

(* ------------------------------------------------------------------ *)
(* Kernel bit-identity: the fast kernels vs the code they replaced     *)
(* ------------------------------------------------------------------ *)

(* [Pwl.sum] evaluates only the operands strictly inside their span
   when every operand starts and ends at zero, [Pwl.create] skips its
   sort and merge on well-spaced input, [Pwl.sliding_max] writes one
   slice, and the binary kernels step a cursor instead of calling a
   closure per merged point. Each must reproduce the code it replaced
   bit for bit. That code is kept here, over breakpoint arrays, with
   its collinear simplification. *)
module Old_kernels = struct
  module F = Tka_util.Float_cmp

  let x_eps = 1e-12

  let collinear x0 y0 x1 y1 x2 y2 =
    let cross = ((x1 -. x0) *. (y2 -. y0)) -. ((x2 -. x0) *. (y1 -. y0)) in
    Float.abs cross
    <= 1e-12 *. (1. +. Float.abs (x2 -. x0)) *. (1. +. Float.abs y2 +. Float.abs y0)

  (* drop every interior point collinear with the last kept point and
     the next original one *)
  let simplify (pts : (float * float) array) =
    let n = Array.length pts in
    if n <= 2 then Array.to_list pts
    else begin
      let kept = ref [ pts.(0) ] in
      for r = 1 to n - 2 do
        let x0, y0 = List.hd !kept and x1, y1 = pts.(r) and x2, y2 = pts.(r + 1) in
        if not (collinear x0 y0 x1 y1 x2 y2) then kept := pts.(r) :: !kept
      done;
      List.rev (pts.(n - 1) :: !kept)
    end

  let of_points pts =
    simplify
      (Array.of_list
         (List.map
            (fun (x, y) ->
              ( F.not_nan ~what:"Pwl: breakpoint abscissa" x,
                F.not_nan ~what:"Pwl: breakpoint ordinate" y ))
            pts))

  let create pts =
    match pts with
    | [] -> invalid_arg "Pwl.create: empty point list"
    | _ :: _ ->
      let sorted = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pts in
      let rec merge acc = function
        | [] -> List.rev acc
        | (x, y) :: tl -> (
          match acc with
          | (x', y') :: _ when Float.abs (x -. x') <= x_eps ->
            if F.approx y y' then merge acc tl
            else
              invalid_arg
                (Printf.sprintf "Pwl.create: conflicting values %g and %g at x = %g" y'
                   y x)
          | _ -> merge ((x, y) :: acc) tl)
      in
      of_points (merge [] sorted)

  let value_at (o : (float * float) array) i x =
    let n = Array.length o in
    if i < n && fst o.(i) = x then snd o.(i)
    else if i = 0 then snd o.(0)
    else if i >= n then snd o.(n - 1)
    else begin
      let x0, y0 = o.(i - 1) and x1, y1 = o.(i) in
      y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
    end

  let sum_pts ops =
    match ops with
    | [] -> Pwl.breakpoints Pwl.zero
    | [ o ] -> o
    | ops ->
      let ops = Array.of_list (List.map Array.of_list ops) in
      let r = Array.length ops in
      let idx = Array.make r 0 in
      let out = ref [] in
      let last = ref Float.neg_infinity in
      let go = ref true in
      while !go do
        let x = ref Float.infinity in
        for c = 0 to r - 1 do
          let o = ops.(c) in
          if idx.(c) < Array.length o && fst o.(idx.(c)) < !x then x := fst o.(idx.(c))
        done;
        let x = !x in
        if x = Float.infinity then go := false
        else begin
          if x -. !last > x_eps then begin
            let acc = ref 0. in
            for c = 0 to r - 1 do
              acc := !acc +. value_at ops.(c) idx.(c) x
            done;
            out := (x, !acc) :: !out;
            last := x
          end;
          for c = 0 to r - 1 do
            let o = ops.(c) in
            if idx.(c) < Array.length o && fst o.(idx.(c)) = x then idx.(c) <- idx.(c) + 1
          done
        end
      done;
      simplify (Array.of_list (List.rev !out))

  let sum ws = sum_pts (List.map Pwl.breakpoints ws)

  (* the closure-per-point co-scan the binary kernels used to share *)
  let co_scan2 a b f =
    let a = Array.of_list (Pwl.breakpoints a) and b = Array.of_list (Pwl.breakpoints b) in
    let na = Array.length a and nb = Array.length b in
    let i = ref 0 and j = ref 0 in
    let last = ref Float.neg_infinity in
    let go = ref true in
    while !go && (!i < na || !j < nb) do
      let xa = if !i < na then fst a.(!i) else Float.infinity
      and xb = if !j < nb then fst b.(!j) else Float.infinity in
      if xa <= xb then begin
        if xa -. !last > x_eps then begin
          go := f xa (snd a.(!i)) (value_at b !j xa);
          last := xa
        end;
        incr i
      end
      else begin
        if xb -. !last > x_eps then begin
          go := f xb (value_at a !i xb) (snd b.(!j));
          last := xb
        end;
        incr j
      end
    done

  let combine2 f a b =
    let out = ref [] in
    co_scan2 a b (fun x ya yb ->
        out := (x, f ya yb) :: !out;
        true);
    simplify (Array.of_list (List.rev !out))

  let extremum2 pickhi a b =
    let out = ref [] in
    let px = ref 0. and pya = ref 0. and pyb = ref 0. in
    let have_prev = ref false in
    co_scan2 a b (fun x ya yb ->
        if !have_prev then begin
          let d0 = !pya -. !pyb and d1 = ya -. yb in
          if (d0 > 0. && d1 < 0.) || (d0 < 0. && d1 > 0.) then begin
            let xc = !px +. ((x -. !px) *. d0 /. (d0 -. d1)) in
            if xc > !px +. x_eps && xc < x -. x_eps then begin
              let s = (xc -. !px) /. (x -. !px) in
              let yac = !pya +. ((ya -. !pya) *. s) and ybc = !pyb +. ((yb -. !pyb) *. s) in
              out := (xc, if pickhi then Float.max yac ybc else Float.min yac ybc) :: !out
            end
          end
        end;
        out := (x, if pickhi then Float.max ya yb else Float.min ya yb) :: !out;
        px := x;
        pya := ya;
        pyb := yb;
        have_prev := true;
        true);
    simplify (Array.of_list (List.rev !out))

  let dominates ~eps a b =
    a == b
    || Pwl.max_value a >= Pwl.max_value b -. eps
       &&
       let ok = ref true in
       co_scan2 a b (fun _ ya yb ->
           if ya >= yb -. eps then true
           else begin
             ok := false;
             false
           end);
       !ok

  let dominates_on_pair ~eps interval a b =
    let lo = Interval.lo interval and hi = Interval.hi interval in
    let alo = Pwl.eval a lo and blo = Pwl.eval b lo and ahi = Pwl.eval a hi and bhi = Pwl.eval b hi in
    let fwd = ref (alo >= blo -. eps && ahi >= bhi -. eps)
    and bwd = ref (blo >= alo -. eps && bhi >= ahi -. eps) in
    if !fwd || !bwd then
      co_scan2 a b (fun x ya yb ->
          if x <= lo then true
          else if x >= hi then false
          else begin
            if !fwd && not (ya >= yb -. eps) then fwd := false;
            if !bwd && not (yb >= ya -. eps) then bwd := false;
            !fwd || !bwd
          end);
    (!fwd, !bwd)

  let is_unimodal bps =
    let rec go seen_down = function
      | (_, y0) :: ((_, y1) :: _ as tl) ->
        let dy = y1 -. y0 in
        if dy > F.default_eps then (not seen_down) && go false tl
        else if dy < -.F.default_eps then go true tl
        else go seen_down tl
      | [ _ ] | [] -> true
    in
    go false bps

  let sliding_max_pts ~window bps =
    if window < 0. then invalid_arg "Pwl.sliding_max: negative window";
    if not (is_unimodal bps) then invalid_arg "Pwl.sliding_max: waveform is not unimodal";
    if window <= x_eps then bps
    else begin
      let peak = List.fold_left (fun m (_, y) -> if y > m then y else m) (snd (List.hd bps)) bps in
      let xp_first = ref (fst (List.hd bps)) and xp_last = ref (fst (List.hd bps)) in
      let found = ref false in
      List.iter
        (fun (x, y) ->
          if F.approx y peak then begin
            if not !found then xp_first := x;
            xp_last := x;
            found := true
          end)
        bps;
      let rising = List.filter (fun (x, _) -> x < !xp_first -. x_eps) bps in
      let falling =
        List.filter (fun (x, _) -> x > !xp_last +. x_eps) bps
        |> List.map (fun (x, y) -> (x +. window, y))
      in
      of_points (rising @ [ (!xp_first, peak); (!xp_last +. window, peak) ] @ falling)
    end

  let sliding_max ~window t = sliding_max_pts ~window (Pwl.breakpoints t)

  (* The composed envelope of a pulse swept over an onset window:
     [Pulse.waveform] through [Pwl.create], then [Pwl.shift_x] and
     [Pwl.sliding_max]. *)
  let envelope ~window (p : Pulse.t) =
    let peak_time = p.onset +. p.rise in
    let pts =
      create
        [
          (p.onset, 0.);
          (peak_time, p.peak);
          (peak_time +. p.decay, p.peak /. 2.);
          (p.onset +. p.rise +. (3. *. p.decay), 0.);
        ]
    in
    let d = Interval.lo window -. p.onset in
    sliding_max_pts ~window:(Interval.width window) (List.map (fun (x, y) -> (x +. d, y)) pts)
end

let same_bits expect got =
  let bits = Int64.bits_of_float in
  List.length expect = List.length got
  && List.for_all2
       (fun (x, y) (x', y') -> Int64.equal (bits x) (bits x') && Int64.equal (bits y) (bits y'))
       expect got

(* Both raise the same [Invalid_argument], or both return the same
   breakpoints bit for bit. *)
let same_outcome old_f new_f =
  let run f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
  match (run old_f, run new_f) with
  | Ok expect, Ok got -> same_bits expect got
  | Error m, Error m' -> m = m'
  | Ok _, Error _ | Error _, Ok _ -> false

let print_pts pts =
  String.concat "; " (List.map (fun (x, y) -> Printf.sprintf "(%h, %h)" x y) pts)

(* Ordinates: signed zeros are frequent (they are the terms the new sum
   skips), otherwise a small range. *)
let bits_y =
  QCheck.Gen.(
    frequency
      [ (2, return 0.); (2, return (-0.)); (6, float_range (-3.) 3.) ])

(* Distinct abscissae on a shared tick grid, with sub-x_eps jitter so
   operands collide at a tick without being bitwise equal. *)
let bits_xs n =
  QCheck.Gen.(
    let* ticks = list_repeat n (int_range (-8) 8) in
    flatten_l
      (List.map
         (fun t ->
           let* j = int_bound 5 in
           let jitter = if j = 0 then 1e-13 else if j = 1 then -4e-13 else 0. in
           return ((0.25 *. float_of_int t) +. jitter))
         (List.sort_uniq Int.compare ticks)))

(* Operands for the sum: mostly zero-ended (the fast front), otherwise
   a nonzero end or an infinite end abscissa (the fallback). *)
let bits_operand =
  QCheck.Gen.(
    let* n = int_range 1 7 in
    let* xs = bits_xs n in
    let* ys = list_repeat (List.length xs) bits_y in
    let pts = List.combine xs ys in
    let* ends = int_bound 9 in
    let* z0 = oneofl [ 0.; -0. ] and* z1 = oneofl [ 0.; -0. ] in
    let first = fst (List.hd pts) and last = fst (List.nth pts (List.length pts - 1)) in
    let pts =
      if ends <= 6 then ((first -. 0.25, z0) :: pts) @ [ (last +. 0.25, z1) ]
      else if ends = 7 then pts @ [ (Float.infinity, z1) ]
      else if ends = 8 then (Float.neg_infinity, z0) :: pts
      else pts
    in
    return (Pwl.create pts))

let arb_sum_operands =
  QCheck.make
    ~print:(fun ws -> String.concat " | " (List.map Pwl.to_string ws))
    QCheck.Gen.(
      let* n = frequency [ (1, int_range 1 3); (4, int_range 4 9) ] in
      let* pulses = bool in
      if pulses then
        (* realistic operands: trapezoid envelopes, some sharing windows *)
        list_repeat n
          (let* peak = float_range 0.05 0.8 and* rise = float_range 0.01 0.5 in
           let* decay = float_range 0.01 0.5 and* lo = map (fun t -> 0.25 *. float_of_int t) (int_range (-4) 4) in
           let* w = oneofl [ 0.; 0.25; 0.5; 1.3 ] in
           return
             (Envelope.waveform
                (Envelope.of_pulse
                   ~window:(Interval.make lo (lo +. w))
                   (Pulse.make ~onset:0. ~peak ~rise ~decay))))
      else list_repeat n bits_operand)

(* Point lists for create: well-spaced (the fast path), unsorted,
   clusters within x_eps with equal or conflicting ordinates, gaps of
   exactly x_eps, infinite abscissae. *)
let arb_create_points =
  QCheck.make ~print:print_pts
    QCheck.Gen.(
      let* kind = int_bound 5 in
      let* n = int_range 1 8 in
      match kind with
      | 0 | 1 ->
        let* xs = list_repeat n (map (fun t -> 0.25 *. float_of_int t) (int_range (-20) 20)) in
        let xs = List.sort_uniq Float.compare xs in
        let* ys = list_repeat (List.length xs) bits_y in
        return (List.combine xs ys)
      | 2 ->
        let* xs = bits_xs n in
        let* ys = list_repeat (List.length xs) bits_y in
        return (List.combine xs ys)
      | 3 ->
        (* a cluster: points 1e-12 apart (not wider than x_eps) *)
        let* y = bits_y in
        let* conflict = bool in
        return
          (List.init n (fun i ->
               (1. +. (1e-12 *. float_of_int i), if conflict && i = n - 1 then y +. 1. else y)))
      | 4 ->
        let* xs = list_repeat n (map (fun t -> 0.5 *. float_of_int t) (int_range 0 12)) in
        let xs = List.sort_uniq Float.compare xs in
        let* ys = list_repeat (List.length xs) bits_y in
        return ((Float.neg_infinity, 0.) :: List.combine xs ys @ [ (Float.infinity, 1.) ])
      | _ ->
        let* xs = list_repeat n (map (fun t -> 0.25 *. float_of_int t) (int_range (-8) 8)) in
        let* ys = list_repeat n bits_y in
        return (List.rev (List.combine xs ys)))

(* Unimodal waveforms (plateaus, signed-zero ends, ties at the peak)
   plus the occasional bimodal one, with windows around x_eps. *)
let arb_sliding_case =
  QCheck.make
    ~print:(fun (w, window) -> Printf.sprintf "%s window=%h" (Pwl.to_string w) window)
    QCheck.Gen.(
      let* window = oneofl [ 0.; 5e-13; 1e-12; 2e-12; 0.25; 0.7; 3. ] in
      let* kind = int_bound 4 in
      let* w =
        if kind = 0 then
          (* bimodal or arbitrary: both raise alike *)
          let* xs = bits_xs 5 in
          let* ys = list_repeat (List.length xs) bits_y in
          return (Pwl.create (List.combine xs ys))
        else
          let* up = int_range 0 3 and* down = int_range 0 3 in
          let* peak = float_range 0.1 2. in
          let* flat = int_bound 2 in
          let* lo = oneofl [ 0.; -0.; 0.1 ] in
          let rising = List.init up (fun i -> (0.25 *. float_of_int i, lo +. (peak -. lo) *. float_of_int i /. float_of_int (up + 1))) in
          let x_peak = 0.25 *. float_of_int up in
          let top = (x_peak, peak) :: List.init flat (fun i -> (x_peak +. (0.25 *. float_of_int (i + 1)), peak)) in
          let x_end = x_peak +. (0.25 *. float_of_int flat) in
          let falling =
            List.init down (fun i ->
                (x_end +. (0.3 *. float_of_int (i + 1)), peak *. float_of_int (down - i - 1) /. float_of_int (down + 1)))
          in
          return (Pwl.create (rising @ top @ falling))
      in
      return (w, window))

(* [Envelope.of_pulse]'s record of a (window, pulse) pair, for
   [Envelope.of_swept]: the pulse's breakpoints, the shift that puts its
   onset at the window's start, the window's width. *)
let place buf s (window, (p : Pulse.t)) =
  Pulse.write_points p buf s;
  buf.(s + (2 * Pulse.points)) <- Interval.lo window -. p.onset;
  buf.(s + (2 * Pulse.points) + 1) <- Interval.width window

(* Swept pulses for [Envelope.of_pulse]/[of_swept]: onsets and window
   starts off the dyadic grid (so a reordered addition shows in the
   last bits), windows that are points, narrower than x_eps or wide,
   peaks so small that half the peak is within F.approx of it, and
   rise or decay times at or below x_eps, which take [Pwl.create]'s
   merge (or its conflicting-values error). *)
let swept_gen =
  QCheck.Gen.(
    let* peak =
      frequency
        [ (6, float_range 0.01 0.9); (2, oneofl [ 1e-10; 5e-10; 1.5e-9; 2e-9; 3e-9 ]) ]
    and* rise = frequency [ (8, float_range 0.005 0.4); (1, oneofl [ 1e-13; 1e-12 ]) ]
    and* decay = frequency [ (8, float_range 0.005 0.6); (1, oneofl [ 5e-13; 1e-12 ]) ]
    and* onset = frequency [ (1, return 0.); (2, float_range (-1.) 1.) ]
    and* lo = float_range (-2.) 3.
    and* width =
      frequency
        [ (2, return 0.); (1, oneofl [ 5e-13; 1e-12; 2e-12 ]); (5, float_range 0. 2.5) ]
    in
    let window = if width = 0. then Interval.point lo else Interval.make lo (lo +. width) in
    return (window, Pulse.make ~onset ~peak ~rise ~decay))

let print_swept (window, p) =
  Printf.sprintf "[%h, %h] %s" (Interval.lo window) (Interval.hi window)
    (Format.asprintf "%a" Pulse.pp p)

(* 1-3 operands take the scan front, 4 or more the heap front *)
let arb_swept_list =
  QCheck.make
    ~print:(fun wps -> String.concat " | " (List.map print_swept wps))
    QCheck.Gen.(
      let* n = frequency [ (1, return 1); (2, int_range 2 3); (4, int_range 4 10) ] in
      list_repeat n swept_gen)

let arb_derated =
  QCheck.make
    ~print:(fun (wp, f) -> Printf.sprintf "%s derate %h" (print_swept wp) f)
    QCheck.Gen.(pair swept_gen (frequency [ (1, return 1.); (3, float_range 0. 1.) ]))

let swept_bits_tests =
  let open QCheck in
  [
    Test.make ~name:"of_pulse is bit-identical to the composed path" ~count:3000 arb_derated
      (fun ((window, p), f) ->
        same_outcome
          (fun () -> List.map (fun (x, y) -> (x, f *. y)) (Old_kernels.envelope ~window p))
          (fun () ->
            let e = Envelope.of_pulse ~window p in
            let e = if f = 1. then e else Envelope.scale f e in
            Pwl.breakpoints (Envelope.waveform e)));
    Test.make ~name:"of_swept is bit-identical to the composed sum" ~count:3000
      arb_swept_list (fun wps ->
        same_outcome
          (fun () ->
            Old_kernels.sum_pts (List.map (fun (window, p) -> Old_kernels.envelope ~window p) wps))
          (fun () -> Pwl.breakpoints (Envelope.waveform (Envelope.of_swept place wps))));
  ]

(* ------------------------------------------------------------------ *)
(* Flat front: the heap front it replaced, kept here                   *)
(* ------------------------------------------------------------------ *)

(* [Pwl.sum]'s heap front as it stood before the flat front, over
   breakpoint arrays: recursive sift closures, an [Array.blit] to leave
   the active list, [value_at] with its end cases. [sum_pts] takes the
   same front as [Pwl.sum] did: the scan for three operands or fewer or
   when one does not start and end at zero at a finite abscissa. *)
module Old_front = struct
  let sum_heap (ops : (float * float) array array) =
    let r = Array.length ops in
    let idx = Array.make r 0 in
    let hx = Array.make r 0. and hc = Array.make r 0 in
    let size = ref 0 in
    let rec sift_up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if hx.(i) < hx.(p) then begin
          let x = hx.(i) and c = hc.(i) in
          hx.(i) <- hx.(p);
          hc.(i) <- hc.(p);
          hx.(p) <- x;
          hc.(p) <- c;
          sift_up p
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 in
      if l < !size then begin
        let j = if l + 1 < !size && hx.(l + 1) < hx.(l) then l + 1 else l in
        if hx.(j) < hx.(i) then begin
          let x = hx.(i) and c = hc.(i) in
          hx.(i) <- hx.(j);
          hc.(i) <- hc.(j);
          hx.(j) <- x;
          hc.(j) <- c;
          sift_down j
        end
      end
    in
    Array.iteri
      (fun c o ->
        hx.(!size) <- fst o.(0);
        hc.(!size) <- c;
        incr size;
        sift_up (!size - 1))
      ops;
    let act = Array.make r 0 and na = ref 0 in
    let insert c =
      let j = ref !na in
      while !j > 0 && act.(!j - 1) > c do
        act.(!j) <- act.(!j - 1);
        decr j
      done;
      act.(!j) <- c;
      incr na
    in
    let remove c =
      let j = ref 0 in
      while act.(!j) <> c do incr j done;
      Array.blit act (!j + 1) act !j (!na - !j - 1);
      decr na
    in
    let out = ref [] in
    let last = ref Float.neg_infinity in
    while !size > 0 do
      let x = hx.(0) in
      if x -. !last > Old_kernels.x_eps then begin
        let acc = ref 0. in
        for j = 0 to !na - 1 do
          acc := !acc +. Old_kernels.value_at ops.(act.(j)) idx.(act.(j)) x
        done;
        out := (x, !acc) :: !out;
        last := x
      end;
      while !size > 0 && hx.(0) = x do
        let c = hc.(0) in
        let o = ops.(c) in
        let i = idx.(c) + 1 in
        idx.(c) <- i;
        if i = 1 && Array.length o > 1 then insert c;
        if i < Array.length o then hx.(0) <- fst o.(i)
        else begin
          if Array.length o > 1 then remove c;
          decr size;
          hx.(0) <- hx.(!size);
          hc.(0) <- hc.(!size)
        end;
        sift_down 0
      done
    done;
    Old_kernels.simplify (Array.of_list (List.rev !out))

  let zero_ended o =
    let n = Array.length o in
    snd o.(0) = 0.
    && snd o.(n - 1) = 0.
    && Float.is_finite (fst o.(0))
    && Float.is_finite (fst o.(n - 1))

  let sum_pts ops =
    let arrs = Array.of_list (List.map Array.of_list ops) in
    if Array.length arrs <= 3 || not (Array.for_all zero_ended arrs) then
      Old_kernels.sum_pts ops
    else sum_heap arrs

  let sum ws = sum_pts (List.map Pwl.breakpoints ws)
end

(* Operands for the front: zero-ended on the shared tick grid, so that
   abscissae of different operands coincide exactly or within x_eps,
   some of them a single point; now and then one that does not end at
   zero, which sends the whole sum to the scan. *)
let front_operand =
  QCheck.Gen.(
    let* kind = int_bound 19 in
    let* z0 = oneofl [ 0.; -0. ] and* z1 = oneofl [ 0.; -0. ] in
    if kind = 0 then
      let* x = map (fun t -> (0.25 *. float_of_int t) +. 1e-13) (int_range (-8) 8) in
      return (Pwl.create [ (x, z0) ])
    else
      let* n = int_range 1 6 in
      let* xs = bits_xs n in
      let* ys = list_repeat (List.length xs) bits_y in
      let pts = List.combine xs ys in
      let first = fst (List.hd pts) and last = fst (List.nth pts (List.length pts - 1)) in
      let tail = if kind = 1 then [] else [ (last +. 0.25, z1) ] in
      return (Pwl.create (((first -. 0.25, z0) :: pts) @ tail)))

let arb_front_operands =
  QCheck.make
    ~print:(fun ws -> String.concat " | " (List.map Pwl.to_string ws))
    QCheck.Gen.(
      let* n = frequency [ (3, int_range 4 12); (1, int_range 13 130) ] in
      list_repeat n front_operand)

let arb_front_swept =
  QCheck.make
    ~print:(fun wps -> String.concat " | " (List.map print_swept wps))
    QCheck.Gen.(
      let* n = frequency [ (3, int_range 4 12); (1, int_range 13 130) ] in
      list_repeat n swept_gen)

(* A victim of i1 under random windows, attacked by 1-130 of its
   aggressors (repeats allowed): window ends on a coarse grid with
   sub-x_eps jitter, onset intervals that collapse to a point. *)
module N = Tka_circuit.Netlist
module TW = Tka_sta.Timing_window
module CN = Tka_noise.Coupled_noise
module EB = Tka_noise.Envelope_builder
module VN = Tka_noise.Victim_noise

let victim_nl = Option.get (Tka_layout.Benchmarks.by_name "i1")

let victim_window =
  QCheck.Gen.(
    let* eat = map (fun t -> 0.05 *. float_of_int t) (int_range 0 40) in
    let* jitter = oneofl [ 0.; 0.; 1e-13; -3e-13 ] in
    let* width = frequency [ (2, return 0.); (1, oneofl [ 1e-12; 0.01 ]); (4, float_range 0. 0.6) ] in
    let* slew_early = oneofl [ 0.02; 0.05; 0.1 ] and* slew_late = frequency [ (3, oneofl [ 0.02; 0.05; 0.1 ]); (1, float_range 1e-7 0.3) ] in
    let eat = eat +. jitter in
    return (TW.make ~eat ~lat:(eat +. width) ~slew_early ~slew_late))

let arb_victim_case =
  let nl = victim_nl in
  let victims =
    List.filter (fun v -> CN.aggressors_of_victim nl v <> []) (List.init (N.num_nets nl) Fun.id)
  in
  QCheck.make
    ~print:(fun (v, ds, own, wins) ->
      Printf.sprintf "victim %d own %h aggressors [%s] windows [%s]" v own
        (String.concat "; " (List.map (fun d -> string_of_int (CN.directed_id d)) ds))
        (String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" TW.pp) wins))))
    QCheck.Gen.(
      let* v = oneofl victims in
      let all = Array.of_list (CN.aggressors_of_victim nl v) in
      let* n = frequency [ (1, int_range 1 3); (4, int_range 4 40); (1, int_range 41 130) ] in
      let* picks = list_repeat n (int_bound (Array.length all - 1)) in
      let* own = oneofl [ 0.; 0.013; 0.2 ] in
      let* wins = array_repeat (N.num_nets nl) victim_window in
      return (v, List.map (fun i -> all.(i)) picks, own, wins))

(* The envelope [Envelope_builder] and [Victim_noise] sweep for [d],
   built from a [Pulse.t] along the composed path. *)
let composed_envelope windows d =
  let w = windows d.CN.dc_aggressor in
  Old_kernels.envelope ~window:(TW.onset_interval w) (CN.pulse victim_nl ~agg_slew:w.TW.slew_late d)

let front_bits_tests =
  let open QCheck in
  let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  [
    Test.make ~name:"front matches the heap, separate slices" ~count:1000 arb_front_operands
      (fun ws -> same_bits (Old_front.sum ws) (Pwl.breakpoints (Pwl.sum ws)));
    Test.make ~name:"front matches the heap, one slice" ~count:1000 arb_front_swept (fun wps ->
        same_outcome
          (fun () ->
            Old_front.sum_pts (List.map (fun (window, p) -> Old_kernels.envelope ~window p) wps))
          (fun () -> Pwl.breakpoints (Envelope.waveform (Envelope.of_swept place wps))));
    Test.make ~name:"delay_noise matches the composed list path" ~count:500 arb_victim_case
      (fun (v, ds, own_noise, wins) ->
        let nl = victim_nl and windows n = wins.(n) in
        let listed =
          List.map
            (fun d ->
              let w = windows d.CN.dc_aggressor in
              Envelope.of_pulse ~window:(TW.onset_interval w) (CN.pulse nl ~agg_slew:w.TW.slew_late d))
            ds
        in
        let env = Envelope.combine listed in
        let expect =
          VN.delay_noise_of_envelope ~victim:(VN.victim_transition ~windows ~own_noise v) env
        in
        bits_eq expect (VN.delay_noise nl ~windows ~own_noise ~victim:v ds)
        && same_bits
             (Old_front.sum_pts (List.map (composed_envelope windows) ds))
             (Pwl.breakpoints (Envelope.waveform env))
        && List.for_all
             (fun d ->
               same_bits (composed_envelope windows d)
                 (Pwl.breakpoints (Envelope.waveform (EB.of_directed nl ~windows d))))
             ds);
  ]

let kernel_bits_tests =
  let open QCheck in
  let eps = Tka_util.Float_cmp.default_eps in
  let pair_bits name count old_f new_f =
    Test.make ~name ~count (pair arb_kernel_pwl arb_kernel_pwl) (fun (a, b) ->
        same_bits (old_f a b) (Pwl.breakpoints (new_f a b)))
  in
  [
    pair_bits "add is bit-identical to the closure co-scan" 1000
      (Old_kernels.combine2 ( +. )) Pwl.add;
    pair_bits "sub is bit-identical to the closure co-scan" 1000
      (Old_kernels.combine2 ( -. )) Pwl.sub;
    pair_bits "max2 is bit-identical to the closure co-scan" 1000
      (Old_kernels.extremum2 true) Pwl.max2;
    pair_bits "min2 is bit-identical to the closure co-scan" 1000
      (Old_kernels.extremum2 false) Pwl.min2;
    Test.make ~name:"dominates matches the closure co-scan" ~count:1000
      (pair arb_kernel_pwl arb_kernel_pwl) (fun (a, b) ->
        Pwl.dominates a b = Old_kernels.dominates ~eps a b
        && Pwl.dominates b a = Old_kernels.dominates ~eps b a);
    Test.make ~name:"dominates_on_pair matches the closure co-scan" ~count:1000
      arb_pair_case (fun (a, b, iv) ->
        Pwl.dominates_on_pair iv a (Pwl.ends iv a) b (Pwl.ends iv b)
        = Old_kernels.dominates_on_pair ~eps iv a b);
    Test.make ~name:"sum is bit-identical to the old front" ~count:2000 arb_sum_operands
      (fun ws -> same_bits (Old_kernels.sum ws) (Pwl.breakpoints (Pwl.sum ws)));
    Test.make ~name:"create is bit-identical to sort-and-merge" ~count:2000
      arb_create_points (fun pts ->
        same_outcome
          (fun () -> Old_kernels.create pts)
          (fun () -> Pwl.breakpoints (Pwl.create pts)));
    Test.make ~name:"sliding_max is bit-identical to the list version" ~count:2000
      arb_sliding_case (fun (w, window) ->
        same_outcome
          (fun () -> Old_kernels.sliding_max ~window w)
          (fun () -> Pwl.breakpoints (Pwl.sliding_max ~window w)));
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
        let victim = Transition.make ~t50:0.5 ~slew:0.2 in
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
      ("kernel bits", List.map QCheck_alcotest.to_alcotest kernel_bits_tests);
      ("one pass", List.map QCheck_alcotest.to_alcotest swept_bits_tests);
      ("flat front", List.map QCheck_alcotest.to_alcotest front_bits_tests);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
