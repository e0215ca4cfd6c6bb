(* Visualising the noise-envelope constructions of Figures 2, 3 and 5:
   a pulse swept over a timing window (trapezoid), superposition of two
   aggressors, and the noisy victim transition whose 50% crossing moves.

     dune exec examples/envelopes.exe *)

module Pwl = Tka_waveform.Pwl
module Pulse = Tka_waveform.Pulse
module Envelope = Tka_waveform.Envelope
module Transition = Tka_waveform.Transition
module Render = Tka_waveform.Render
module Interval = Tka_util.Interval

let () =
  let pulse = Pulse.make ~onset:0. ~peak:0.28 ~rise:0.05 ~decay:0.10 in

  print_endline "Figure 2 — a noise pulse swept over its timing window [0.3, 0.8]";
  print_endline "becomes the trapezoidal noise envelope:";
  let placed = Pwl.shift_x 0.3 (Pulse.waveform pulse) in
  let env1 = Envelope.of_pulse ~window:(Interval.make 0.3 0.8) pulse in
  print_string
    (Render.ascii ~height:12
       [ ("pulse at EAT", placed); ("envelope", Envelope.waveform env1) ]);

  print_endline "";
  print_endline "Figure 3 — two aggressors superpose into a combined envelope:";
  let env2 = Envelope.of_pulse ~window:(Interval.make 0.55 0.9) pulse in
  let combined = Envelope.combine [ env1; env2 ] in
  print_string
    (Render.ascii ~height:12
       [
         ("aggressor 1", Envelope.waveform env1);
         ("aggressor 2", Envelope.waveform env2);
         ("combined", Envelope.waveform combined);
       ]);

  print_endline "";
  print_endline "Worst-case delay noise — the combined envelope drags the victim's";
  print_endline "50% crossing to the right:";
  let victim = Transition.make ~t50:1.0 ~slew:0.15 in
  let noisy = Envelope.noisy_waveform ~victim combined in
  let d = Envelope.delay_noise ~victim combined in
  print_string
    (Render.ascii ~height:14
       ~range:(Interval.make 0.2 1.6)
       [
         ("noiseless victim", Transition.waveform victim);
         ("noisy victim", noisy);
         ("combined envelope", Envelope.waveform combined);
       ]);
  Printf.printf "\ndelay noise (t50 shift): %.4f ns\n" d
