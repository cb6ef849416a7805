(** Area–delay trade-off curves.

    The first two rows of each Table-1 block are the endpoints of the
    circuit's area–delay trade-off; this module fills in the curve by
    solving [min area s.t. mu + k sigma <= D] over a grid of budgets.
    Printed by [statsize tables extensions] (EXT-PARETO) and handy as a
    library utility for exploring a design's feasible region. *)

type point = {
  bound : float;  (** the delay budget D *)
  solution : Engine.solution;
}

type curve = {
  net : Circuit.Netlist.t;
  k : float;
  mu_fast : float;  (** delay of the min-delay sizing (curve's left end) *)
  mu_slow : float;  (** delay of the all-minimum sizing (right end) *)
  points : point list;  (** sorted by decreasing bound *)
}

val area_delay :
  ?options:Engine.options ->
  ?model:Circuit.Sigma_model.t ->
  ?k:float ->
  ?points:int ->
  Circuit.Netlist.t ->
  curve
(** [area_delay net] computes a [points]-point (default 5) curve between
    the feasible extremes of {m \mu + k\sigma} (default [k = 0.]),
    leaving small margins at both ends so every subproblem is feasible. *)

val print : curve -> unit
(** ASCII table of the curve, tightest budget first. *)
