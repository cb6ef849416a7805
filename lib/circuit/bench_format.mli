(** Reader for the ISCAS-85/89 [.bench] netlist format.

    The other format the paper's benchmark circuits circulate in:

    {v
    # comment
    INPUT(G1)
    OUTPUT(G22)
    G10 = NAND(G1, G3)
    G22 = NOT(G10)
    v}

    Gate operators are mapped to library cells by name and arity
    ([NAND(a,b)] -> [nand2], [NOT] -> [inv], [BUFF] -> [buf], and so on).
    [DFF]s are cut in the standard way for combinational timing: the
    flip-flop output becomes a pseudo primary input and its data input a
    pseudo primary output, so ISCAS-89 sequential circuits analyse as
    their combinational core.

    Statements may come in any order.  Combinational assignments are
    elaborated round by round: an assignment's round is 1 + the largest
    round among the assignments driving its fanins (primary inputs and
    flip-flop outputs are round 0), and gates are numbered in (round,
    statement order).  The rounds come from one Kahn pass, so loading
    is linear in the size of the file whatever its statement order, and
    the circuit goes straight into the CSR columns {!Netlist.of_csr}
    takes, with no per-gate record graph on the way. *)

type error = { line : int; message : string }
(** [line] is 1-based.  Every failure the text causes carries the line
    of the statement at fault: a syntax error or an unsupported
    operator its own line; a net driven twice the second driver; an
    undriven net the first assignment that reads it; an undriven
    [OUTPUT] (or flip-flop data input) its [OUTPUT] ([DFF]) line; a
    combinational cycle the earliest statement on the cycle; a file
    without outputs its last statement.  [line = 0] is left for the
    failures no line causes: an unreadable file or a negative
    [wire_load]. *)

val pp_error : Format.formatter -> error -> unit

val parse_string :
  ?wire_load:float ->
  library:Cell.Library.t ->
  string ->
  (Netlist.t, error) result
(** Never raises.  [wire_load] (default [1.0]) is every gate's output
    wire capacitance. *)

val parse_file :
  ?wire_load:float ->
  library:Cell.Library.t ->
  string ->
  (Netlist.t, error) result
(** {!parse_string} over a file's contents.  Never raises: missing,
    unreadable or truncated files come back as [Error] with
    [line = 0]. *)
