(** The input layer shared by the text readers.

    One error for every text format, a whole-file reader, the helpers
    of the line formats (tka text netlists, SPEF-lite) and the character
    scanner of the token formats (Verilog-lite, Liberty-lite, SDF-lite). *)

exception Parse_error of { source : string; line : int; message : string }
(** A rejected input: [source] names the format (["netlist"], ["spef"],
    ["sdf"], ["verilog"], ["liberty"]) and [line] is 1-based (0 for a
    problem of the whole document). *)

val fail : source:string -> int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ~source line fmt ...] raises {!Parse_error}. *)

val read_file : string -> string
(** The whole file, bytes as they are. Raises [Sys_error]. *)

(** {1 Line formats} *)

val words : string -> string list
(** The words of a line, split on spaces, tabs and carriage returns. *)

val float : source:string -> int -> string -> string -> float
(** [float ~source line what v] reads a finite float; otherwise fails
    with ["WHAT: non-finite number V"] or ["WHAT: malformed number V"]. *)

(** {1 Character scanner} *)

type cursor
(** A position and a line in a source text. *)

val line : cursor -> int

val error : cursor -> ('a, unit, string, 'b) format4 -> 'a
(** {!fail} at the cursor's line. *)

val peek : cursor -> char option
val advance : cursor -> unit

val skip_space : cursor -> unit
(** Skips spaces, tabs, carriage returns and newlines. *)

val skip_trivia : cursor -> unit
(** {!skip_space}, plus [//] line comments and [/* */] block comments
    (an unclosed one is an error at the end of the input). *)

val take_while : cursor -> (char -> bool) -> string
(** The longest run of characters from the cursor that satisfy the
    predicate, consumed. *)

val quoted : cursor -> string
(** At a ['"']: the string up to the next ['"'], both quotes consumed
    (no escapes; it may span lines). Fails with ["unterminated string"]
    at the end of the input. *)

val number : cursor -> float
(** The longest run of [0-9 + - . e E], read as a finite float; fails
    with ["non-finite number V"] or ["malformed number V"]. *)

(** {1 Token lookahead} *)

type 'tok lexer = private { cur : cursor; lex : cursor -> 'tok; mutable tok : 'tok }
(** A cursor with one token of lookahead, [tok]; [lex] reads the next
    token at the cursor. *)

val lexer : source:string -> (cursor -> 'tok) -> string -> 'tok lexer
(** A lexer over the text, its first token read. *)

val next : 'tok lexer -> unit

val expect : 'tok lexer -> 'tok -> string -> unit
(** Consumes the token if it is the current one; fails with
    ["expected WHAT"] otherwise. *)

val take : 'tok lexer -> ('tok -> 'a option) -> string -> 'a
(** Consumes the current token if the projection accepts it and
    returns its value; fails with ["expected WHAT"] otherwise. *)
