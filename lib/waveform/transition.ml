type t = { t50 : float; slew : float }

let make ~t50 ~slew =
  if slew <= 0. then invalid_arg "Transition.make: slew must be positive";
  { t50; slew }

let start_time t = t.t50 -. (t.slew /. 2.)
let end_time t = t.t50 +. (t.slew /. 2.)

let waveform t =
  Pwl.create [ (start_time t, 0.); (end_time t, 1.) ]

let shift d t = { t with t50 = t.t50 +. d }

let t50_of_waveform w = Pwl.last_upcrossing w 0.5

let pp ppf t = Format.fprintf ppf "rise(t50=%g, slew=%g)" t.t50 t.slew
