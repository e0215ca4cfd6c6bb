(** Process/voltage/temperature corner derating.

    Crosstalk sign-off runs at multiple corners: a slow corner has
    weaker drivers (more noise-sensitive victims) while a fast corner
    has sharper aggressor edges (taller pulses). A corner derates the
    four linear-model parameters and the pin capacitances of every
    cell, producing a new library to analyse against. *)

type t = {
  corner_name : string;
  delay_factor : float;  (** scales intrinsic delay and slew *)
  resistance_factor : float;  (** scales drive and slew resistance *)
  capacitance_factor : float;  (** scales input pin capacitance *)
}

val typical : t
(** TT: all factors 1 — the identity. *)

val slow : t
(** SS, low voltage, hot: 1.25× delays, 1.30× resistances, 1.05× caps. *)

val fast : t
(** FF, high voltage, cold: 0.85× delays, 0.78× resistances, 0.97× caps. *)

val all : t list
(** [typical; slow; fast]. *)

val make :
  name:string ->
  delay_factor:float ->
  resistance_factor:float ->
  capacitance_factor:float ->
  t
(** Custom corner; factors must be positive. *)

val derate_cell : t -> Cell.t -> Cell.t
(** Apply the corner to one cell (name gains a ["@corner"] suffix
    except for {!typical}). *)

val derate_library : t -> Cell.t list -> Cell.t list
