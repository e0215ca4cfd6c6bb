(* Figures 7 and 8 of the paper, by hand: two victims v1 -> v2 with
   four primary aggressors each, walking the irredundant-list machinery
   the engine automates — singleton pruning, extension, pseudo input
   aggressors and the final I-list_2.

     dune exec examples/ilist_walkthrough.exe *)

module Envelope = Tka_waveform.Envelope
module Pulse = Tka_waveform.Pulse
module Transition = Tka_waveform.Transition
module Interval = Tka_util.Interval
module VN = Tka_noise.Victim_noise
module CS = Tka_topk.Coupling_set
module Ilist = Tka_topk.Ilist
module Dominance = Tka_topk.Dominance
module Pseudo = Tka_topk.Pseudo

(* Victim v1 switches at 0.50 ns; its four primary aggressors a1..a4.
   Like Fig. 7, a1's envelope encapsulates the others'. *)
let v1 = Transition.make ~t50:0.50 ~slew:0.08

let env ~peak ~lo ~hi =
  Envelope.of_pulse
    ~window:(Interval.make lo hi)
    (Pulse.make ~onset:0. ~peak ~rise:0.02 ~decay:0.04)

let a1 = env ~peak:0.30 ~lo:0.38 ~hi:0.58 (* tall and wide: dominates *)
let a2 = env ~peak:0.18 ~lo:0.40 ~hi:0.55
let a3 = env ~peak:0.22 ~lo:0.42 ~hi:0.50
let a4 = env ~peak:0.10 ~lo:0.44 ~hi:0.52

let name_of = [ (1, "a1"); (2, "a2"); (3, "a3"); (4, "a4"); (11, "b1"); (12, "b2"); (13, "b3"); (14, "b4") ]

let show_entry (e : Ilist.entry) =
  let names =
    CS.to_list e.Ilist.couplings
    |> List.map (fun id -> List.assoc id name_of)
    |> String.concat ","
  in
  Printf.printf "    {%s}  delay noise %.4f ns\n" names e.Ilist.objective

let entry victim set envs =
  let combined = Envelope.combine envs in
  {
    Ilist.couplings = CS.of_list set;
    envelope = combined;
    objective = VN.delay_noise_of_envelope ~victim combined;
  }

let () =
  let interval1 = Dominance.interval ~victim:v1 in
  let stats = Ilist.fresh_stats () in

  Printf.printf "victim v1 (t50 = 0.50 ns), primary aggressors a1..a4\n\n";
  Printf.printf "I-list_1 of v1 (after dominance pruning):\n";
  let singles =
    [ entry v1 [ 1 ] [ a1 ]; entry v1 [ 2 ] [ a2 ]; entry v1 [ 3 ] [ a3 ];
      entry v1 [ 4 ] [ a4 ] ]
  in
  let ilist1 = Ilist.prune ~interval:interval1 ~stats singles in
  List.iter show_entry ilist1;
  Printf.printf "  (a1 encapsulates the rest: %d of 4 dominated, like Fig. 7)\n\n"
    stats.Ilist.dominated;

  Printf.printf "I-list_2 of v1 (extensions of I-list_1):\n";
  let envs_of = [ (1, a1); (2, a2); (3, a3); (4, a4) ] in
  let extensions =
    List.concat_map
      (fun (e : Ilist.entry) ->
        List.filter_map
          (fun (id, env) ->
            if CS.mem id e.Ilist.couplings then None
            else
              Some
                {
                  Ilist.couplings = CS.add id e.Ilist.couplings;
                  envelope = Envelope.add e.Ilist.envelope env;
                  objective = 0.;
                })
          envs_of)
      ilist1
    |> List.map (fun (e : Ilist.entry) ->
           { e with Ilist.objective = VN.delay_noise_of_envelope ~victim:v1 e.Ilist.envelope })
  in
  let ilist2 = Ilist.prune ~interval:interval1 ~stats extensions in
  List.iter show_entry ilist2;

  (* v2, downstream: v1's chosen set arrives as a pseudo input aggressor *)
  let v2 = Transition.make ~t50:0.62 ~slew:0.08 in
  Printf.printf "\nvictim v2 (t50 = 0.62 ns), primaries b1..b4 + pseudo from v1\n\n";
  let b1 = env ~peak:0.26 ~lo:0.52 ~hi:0.68 in
  let b2 = env ~peak:0.14 ~lo:0.55 ~hi:0.64 in
  let b3 = env ~peak:0.12 ~lo:0.50 ~hi:0.60 in
  let b4 = env ~peak:0.08 ~lo:0.56 ~hi:0.62 in
  let interval2 = Dominance.interval ~victim:v2 in
  (* v1's best singleton propagates: its delay noise shifts v2's input *)
  let best_v1 = List.hd ilist1 in
  let pseudo =
    {
      Ilist.couplings = best_v1.Ilist.couplings;
      envelope = Pseudo.envelope ~victim:v2 ~shift:best_v1.Ilist.objective;
      objective = 0.;
    }
  in
  let pseudo =
    { pseudo with
      Ilist.objective =
        VN.delay_noise_of_envelope ~victim:v2 pseudo.Ilist.envelope }
  in
  let singles2 =
    [ entry v2 [ 11 ] [ b1 ]; entry v2 [ 12 ] [ b2 ]; entry v2 [ 13 ] [ b3 ];
      entry v2 [ 14 ] [ b4 ]; pseudo ]
  in
  Printf.printf "I-list_1 of v2 (primaries plus the pseudo aggressor {a1}):\n";
  let ilist1_v2 = Ilist.prune ~interval:interval2 ~stats singles2 in
  List.iter show_entry ilist1_v2;
  Printf.printf
    "\nThe pseudo aggressor carries v1's upstream set across the gate —\n\
     this is how candidate sets travel the circuit in topological order\n\
     (Fig. 8's columns) without ever re-analysing the fanin cone.\n"
