module Interval = Tka_util.Interval

type t = Pwl.t

let of_waveform w = Pwl.clip_min 0. w

(* [Pwl.sum_swept]'s record of a pulse: its breakpoints, the shift that
   puts its onset at the window's start, and the window's width. *)
let place buf s (window, p) =
  let o = s + (2 * Pulse.points) in
  Pulse.write_points p buf s;
  buf.(o) <- Interval.lo window -. p.Pulse.onset;
  buf.(o + 1) <- Interval.width window

let of_swept write xs = Pwl.sum_swept ~points:Pulse.points write xs

let of_pulse ~window p = of_swept place [ (window, p) ]

let zero = Pwl.zero

let is_zero e = Pwl.max_value e <= Tka_util.Float_cmp.default_eps

let waveform e = e

let add = Pwl.add

let combine = function
  | [] -> zero
  | es -> Pwl.sum es

let scale f e =
  if not (f >= 0. && f <= 1.) then
    invalid_arg "Envelope.scale: factor must be in [0, 1]";
  if f = 1. then e else Pwl.scale f e

let widen d e =
  if d < 0. then invalid_arg "Envelope.widen: negative widening";
  if d = 0. then e else Pwl.sliding_max ~window:d e

let peak = Pwl.max_value

let encapsulates ?interval a b =
  match interval with
  | None -> Pwl.dominates a b
  | Some i -> Pwl.dominates_on i a (Pwl.ends i a) b (Pwl.ends i b)

let noisy_waveform ~victim e = Pwl.sub (Transition.waveform victim) e

let delay_past ~victim = function
  | None -> 0.
  | Some t -> Float.max 0. (t -. victim.Transition.t50)

let crossing_delay ~victim ~neg w e = delay_past ~victim (Pwl.last_upcrossing2 ~neg w e 0.5)

let floor w e = Pwl.floor_index ~level:0.5 (Pwl.sub w e)

let floor_delay ~victim f e = delay_past ~victim (Pwl.floor_upcrossing f e)

let delay_noise ~victim e =
  crossing_delay ~victim ~neg:true (Transition.waveform victim) e

let support e = Pwl.support e

let equal = Pwl.equal

let pp = Pwl.pp
