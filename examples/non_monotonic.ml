(* Figure 4 of the paper: top-k aggressor sets are non-monotonic in
   content — the top-1 aggressor need not appear in the top-2 set.

   Aggressor a1 has the largest individual delay noise, but its window
   ends at the victim transition. Aggressors a2 and a3 are individually
   weaker; stacked, their combined envelope exceeds half the supply and
   rides the victim's crossing out along their later windows.

     dune exec examples/non_monotonic.exe *)

module Envelope = Tka_waveform.Envelope
module Pulse = Tka_waveform.Pulse
module Transition = Tka_waveform.Transition
module Interval = Tka_util.Interval
module VN = Tka_noise.Victim_noise

let () =
  let victim = Transition.make ~t50:1.0 ~slew:0.1 in
  let noise label es =
    let d = VN.delay_noise_of_envelope ~victim (Envelope.combine es) in
    Printf.printf "  delay noise of %-10s = %.4f ns\n" label d;
    d
  in
  (* a1: tall pulse, window [0.6, 1.0] — ends at the victim transition *)
  let a1 =
    Envelope.of_pulse
      ~window:(Interval.make 0.6 1.0)
      (Pulse.make ~onset:0. ~peak:0.42 ~rise:0.02 ~decay:0.02)
  in
  (* a2, a3: smaller pulses, windows extending past the transition *)
  let late =
    Envelope.of_pulse
      ~window:(Interval.make 0.6 1.15)
      (Pulse.make ~onset:0. ~peak:0.30 ~rise:0.02 ~decay:0.02)
  in
  let a2 = late and a3 = late in
  Printf.printf "victim: rising transition, t50 = 1.0 ns, slew = 0.1 ns\n\n";
  Printf.printf "singletons:\n";
  let n1 = noise "{a1}" [ a1 ] in
  let n2 = noise "{a2}" [ a2 ] in
  let n3 = noise "{a3}" [ a3 ] in
  Printf.printf "\npairs:\n";
  let n12 = noise "{a1,a2}" [ a1; a2 ] in
  let n13 = noise "{a1,a3}" [ a1; a3 ] in
  let n23 = noise "{a2,a3}" [ a2; a3 ] in
  Printf.printf "\n";
  assert (n1 > n2 && n1 > n3);
  Printf.printf "top-1 aggressor set: {a1}   (a1 has the largest single noise)\n";
  assert (n23 > n12 && n23 > n13);
  Printf.printf "top-2 aggressor set: {a2,a3} — it does NOT contain a1!\n";
  Printf.printf
    "\nThe stacked a2+a3 envelope crosses 0.5*Vdd and drags the victim\n\
     crossing far beyond where any a1-pair can (%.4f vs %.4f ns):\n\
     adding an aggressor to the top-k set does not give the top-(k+1) set.\n"
    n23 (Float.max n12 n13)
