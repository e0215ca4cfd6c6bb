(** Gate-level netlists with coupling capacitances.

    The static structure every analysis in this library runs on: a DAG
    of standard cells connected by nets, plus a list of net-to-net
    coupling capacitances extracted from layout. Construct values with
    {!Builder}; a [Netlist.t] is immutable and validated (single driver
    per internal net, complete pin maps, acyclic).

    Identifiers ([net_id], [gate_id], [coupling_id]) are dense integers
    suitable for array indexing. *)

type net_id = int
type gate_id = int
type coupling_id = int

exception Link_error of { source : string; message : string }
(** Raised when a parsed annotation (SPEF parasitics, SDF delays, ...)
    names a net or instance that does not exist in the netlist it is
    being linked against. [source] is the annotation format
    (["spef"], ["sdf"], ...). Unlike {!Tka_util.Scan.Parse_error} this is
    not a syntax problem — the file is well-formed but refers to a
    different design — so it gets its own structured exception instead
    of a raw [Invalid_argument]. *)

val link_error : string -> ('a, unit, string, 'b) format4 -> 'a
(** [link_error source fmt ...] raises {!Link_error} with a formatted
    message (helper for the annotation parsers). *)

type driver =
  | Primary_input  (** driven from outside the circuit *)
  | Driven_by of gate_id

type sink = { sink_gate : gate_id; sink_pin : string }

type net = {
  net_id : net_id;
  net_name : string;
  wire_cap : float;  (** lumped wire-to-ground capacitance, pF *)
  wire_res : float;  (** lumped wire resistance, kΩ *)
  driver : driver;
  sinks : sink list;
  is_output : bool;  (** primary output *)
}

type gate = {
  gate_id : gate_id;
  gate_name : string;
  cell : Tka_cell.Cell.t;
  fanin : (string * net_id) list;  (** one entry per input pin *)
  fanout : net_id;
}

type coupling = {
  coupling_id : coupling_id;
  net_a : net_id;
  net_b : net_id;
  coupling_cap : float;  (** pF *)
}

type t

(** {1 Access} *)

val name : t -> string
val num_nets : t -> int
val num_gates : t -> int
val num_couplings : t -> int

val net : t -> net_id -> net
val gate : t -> gate_id -> gate
val coupling : t -> coupling_id -> coupling

val nets : t -> net array
val gates : t -> gate array
val couplings : t -> coupling array

val inputs : t -> net_id list
(** Primary-input nets, in creation order. *)

val outputs : t -> net_id list
(** Primary-output nets. *)

val find_net : t -> string -> net option
val find_net_exn : t -> string -> net
val find_gate : t -> string -> gate option

val couplings_of_net : t -> net_id -> coupling_id list
(** All coupling caps incident to the net (either side). *)

val coupling_partner : t -> coupling_id -> net_id -> net_id
(** The other side of the coupling. Raises [Invalid_argument] if the
    given net is on neither side. *)

val driver_gate : t -> net_id -> gate option
(** The gate driving a net, [None] for primary inputs. *)

val fanin_nets : t -> net_id -> net_id list
(** The input nets of the net's driver gate ([] for primary inputs). *)

val fanout_nets : t -> net_id -> net_id list
(** Output nets of all gates this net feeds. *)

val total_pin_cap : t -> net_id -> float
(** Sum of the input-pin capacitances of all sinks, pF. *)

val ground_cap : t -> net_id -> float
(** [wire_cap + total_pin_cap]: capacitance to ground seen on the net,
    excluding coupling. *)

val total_coupling_cap : t -> net_id -> float
(** Sum of all coupling caps incident to the net, pF. *)

val total_cap : t -> net_id -> float
(** [ground_cap + total_coupling_cap]: the load used for nominal delay
    (quiet neighbours, Miller factor 1). *)

(** {1 Internal constructor (used by {!Builder})} *)

val unsafe_create :
  name:string ->
  nets:net array ->
  gates:gate array ->
  couplings:coupling array ->
  inputs:net_id list ->
  outputs:net_id list ->
  t
(** Assembles a netlist {e without} validation; use {!Builder.finalize}
    instead, which validates and then calls this. *)
