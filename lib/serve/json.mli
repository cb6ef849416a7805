(** Minimal self-contained JSON for the line-oriented serve protocol.

    The repo deliberately carries no JSON dependency; this module
    implements the small subset the daemon needs, with one property the
    usual libraries do not promise: {e float round-trips are exact}, so
    a response travelled through the wire format compares Int64-bit-equal
    to the in-process value — the foundation of the serve-soundness
    invariant and the soak test's served-vs-batch identity check.

    {b Numbers.} An integral value below [1e15] prints as [%.0f] (["7"],
    ["-0"]).  Any other finite value prints as [%.Pg] for the least P in
    15, 16, 17 whose output parses back to the same bits: P-digit
    rounding, trailing zeros and a bare ['.'] dropped, scientific form
    when the decimal exponent is below -4 or at least P, two exponent
    digits at least (["1e-05"], ["1e+20"]).  For a normal double those
    are the shortest digits that round-trip, except for 46 powers of two
    whose 16-digit rounding falls just outside their half-width lower
    rounding interval: they keep 17 digits (2{^-957} prints
    ["8.2090736025967525e-289"]).  Subnormals keep 15 digits where fewer
    would do.  The digits are computed with exact integer arithmetic, in
    the manner of Ryū (Adams, PLDI 2018); nothing goes through
    [sprintf] or [strtod].

    Not a general-purpose JSON library: numbers are [float]s (ints
    survive exactly up to 2^53), [\u] escapes cover the basic
    multilingual plane only, and NaN/infinities serialize as the strings
    ["nan"]/["inf"]/["-inf"] (they never appear on the ok path).
    Nesting is capped at {!max_depth}, and every parse error names the
    byte offset where it was found. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line rendering (no newlines — the protocol is line-framed). *)

val to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s rendering. *)

val add_floats : Buffer.t -> float array -> unit
(** Appends [a] as an array of numbers, byte-equal to the rendering of
    a [List] of [Num]s, without building the list. *)

val max_depth : int
(** Deepest nesting of arrays and objects {!parse} accepts (512). *)

val parse : string -> (t, string) result
(** Parses one complete JSON value; trailing garbage is an error.
    Never raises: malformed input, and nesting deeper than {!max_depth},
    come back as [Error] with a message naming the byte offset. *)

val number_to_string : float -> string
(** The exact-round-trip float rendering used by {!to_string} (see
    {b Numbers} above). *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int_ : t -> int option
val bool_ : t -> bool option
val list_ : t -> t list option
