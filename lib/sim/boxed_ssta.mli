(** Record-based reference SSTA: the verification oracle for
    {!Sta.Ssta}.

    The original boxed sweeps — one {!Statdelay.Normal.t} record per
    arrival and delay, fanin folds over [Netlist.gate] records, adjoints
    as fresh records — kept as the golden reference the flat arena path
    is differentially tested against: [test/test_arena.ml] and the
    [arena-vs-boxed] / [gradient-vs-scratch] invariants compare them
    with [Int64.bits_of_float] on every arrival, delay, load, circuit
    moment and gradient entry.

    Serial and uninstrumented: an oracle run bumps no {!Util.Instr}
    counter or timer, so it never shows up in a production profile.
    The reverse sweep keeps the level-descending, bucket-reversed
    phase-2 scatter order that the arena's phase 2 replays bit for bit.
    Slow and allocation-heavy; use only as a differential oracle. *)

val analyze :
  ?pi_arrival:(int -> Statdelay.Normal.t) ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  Sta.Ssta.result
(** Forward statistical timing, as {!Sta.Ssta.analyze}. *)

val value_and_gradient :
  ?pi_arrival:(int -> Statdelay.Normal.t) ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  seed:(Sta.Ssta.result -> Sta.Ssta.seed) ->
  Sta.Ssta.result * float array
(** Forward result and gradient, as {!Sta.Ssta.value_and_gradient}. *)

val gradient :
  ?pi_arrival:(int -> Statdelay.Normal.t) ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  seed:(Sta.Ssta.result -> Sta.Ssta.seed) ->
  float array
(** [snd] of {!value_and_gradient}. *)
