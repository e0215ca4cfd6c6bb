(** Mutation fuzzer for the text-format parsers.

    The parsers' error contract: on any input, either parse
    successfully or raise {!Tka_util.Scan.Parse_error} with a line
    number inside the input — never [Invalid_argument],
    [Failure], [Not_found], a stack overflow, or an unstructured
    builder error. The fuzzer starts from a valid document (rendered
    from a random circuit, so the corpus follows the generator's seed)
    and applies byte- and line-level mutations; {!check} classifies
    the parser's reaction. *)

type format = Netlist_fmt | Verilog | Spef | Sdf | Liberty

val all : format list
val name : format -> string

val of_name : string -> format option
(** Inverse of {!name} (used by replay). *)

val generate : Tka_util.Rng.t -> format -> string
(** A valid document of the format: the corresponding printer applied
    to a {!Gen.small_circuit} (the built-in library dump for
    [Liberty]). *)

val mutate : Tka_util.Rng.t -> string -> string
(** 1–4 random mutations: byte flips/inserts/deletes (biased towards
    the formats' delimiter characters), line deletion/duplication/
    swapping, truncation, and replacing a token with a hostile number
    (["nan"], ["inf"], ["1e999"]). *)

val run_parser : format -> string -> [ `Parsed | `Rejected of int * string ]
(** Run the format's parser on the input: [`Rejected (line, message)]
    when it raises {!Tka_util.Scan.Parse_error}; any other exception
    escapes. *)

val check : format -> string -> string option
(** Run the format's parser on the input. [None] when the contract
    holds (clean parse, or a [Parse_error] whose line lies
    in [0, lines+1]); [Some detail] when the parser escaped the
    contract. *)
