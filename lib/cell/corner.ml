type t = {
  corner_name : string;
  delay_factor : float;
  resistance_factor : float;
  capacitance_factor : float;
}

let make ~name ~delay_factor ~resistance_factor ~capacitance_factor =
  if delay_factor <= 0. || resistance_factor <= 0. || capacitance_factor <= 0.
  then invalid_arg "Corner.make: factors must be positive";
  { corner_name = name; delay_factor; resistance_factor; capacitance_factor }

let typical =
  make ~name:"tt" ~delay_factor:1. ~resistance_factor:1. ~capacitance_factor:1.

let slow =
  make ~name:"ss" ~delay_factor:1.25 ~resistance_factor:1.30
    ~capacitance_factor:1.05

let fast =
  make ~name:"ff" ~delay_factor:0.85 ~resistance_factor:0.78
    ~capacitance_factor:0.97

let all = [ typical; slow; fast ]

let derate_cell c cell =
  let name =
    if c.corner_name = typical.corner_name then cell.Cell.name
    else cell.Cell.name ^ "@" ^ c.corner_name
  in
  Cell.make ~name
    ~inputs:
      (List.map
         (fun p ->
           Cell.input_pin ~name:p.Cell.pin_name
             ~capacitance:(c.capacitance_factor *. p.Cell.capacitance))
         cell.Cell.inputs)
    ~output:(Cell.output_pin ~name:cell.Cell.output.Cell.pin_name)
    ~logic:cell.Cell.logic
    ~intrinsic_delay:(c.delay_factor *. cell.Cell.intrinsic_delay)
    ~drive_resistance:(c.resistance_factor *. cell.Cell.drive_resistance)
    ~intrinsic_slew:(c.delay_factor *. cell.Cell.intrinsic_slew)
    ~slew_resistance:(c.resistance_factor *. cell.Cell.slew_resistance)

let derate_library c cells = List.map (derate_cell c) cells
