(** Request execution against one warmed circuit target.

    A {!target} bundles what the daemon keeps warm per circuit: the
    netlist, sigma model, committed speed factors and a persistent
    {!Sta.Incr} dirty-cone engine.  Everything here runs on a single
    thread (the daemon's executor, or the sim harness's state) — no
    locking, no shared mutation.

    Robustness contract: {!exec} {e never raises}.  Malformed inputs
    become [Bad_request]; a request whose deadline already expired is
    answered with the graceful-degradation rung (analyze/whatif: a
    deterministic mean-only {!Sta.Dsta} sweep, flagged [degraded]) or a
    typed [Timeout] (gradient/size); a size request ending in numerical
    breakdown rebuilds the warmed engine so no poisoned incremental
    state survives into the next request. *)

type target = {
  net : Circuit.Netlist.t;
  model : Circuit.Sigma_model.t;
  pool : Util.Pool.t option;
  mutable sizes : float array;  (** committed speed factors *)
  mutable incr : Sta.Incr.t;  (** warmed dirty-cone engine *)
  scratch : float array;
      (** what-if scratch: equal to [scratch_of] between requests; a
          what-if applies its deltas here and restores them, so it
          copies nothing n-sized *)
  mutable scratch_of : float array;
      (** the [sizes] array [scratch] copies; a what-if re-copies when
          [sizes] has been replaced since *)
}

val create :
  ?pool:Util.Pool.t ->
  ?sizes:float array ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  target
(** Fresh target; [sizes] (validated, copied) defaults to all-min. *)

val rebuild_incr : target -> unit
(** Replaces the warmed engine with a cold one — invalidation after a
    failed solve. *)

val exec :
  ?budget:Util.Guard.budget ->
  ?instrument:(Nlp.Problem.constrained -> Nlp.Problem.constrained) ->
  target ->
  Protocol.body ->
  Protocol.payload
(** Executes one request body.  [budget] carries the request deadline /
    eval allowance ({!Util.Guard}); a size request threads the
    {e remaining} budget into the sizing engine.  [instrument] is the
    fault-injection hook forwarded to {!Sizing.Engine.options}.
    [Stats]/[Health] are control-plane and answered by the server, not
    here.  A converged size request commits its sizes to the target. *)

type size_outcome = {
  payload : Protocol.payload;
  failed : bool;  (** counts toward the circuit's breaker *)
}

val exec_size_tracked :
  ?budget:Util.Guard.budget ->
  ?instrument:(Nlp.Problem.constrained -> Nlp.Problem.constrained) ->
  target ->
  objective:Protocol.objective_spec ->
  recovery:bool ->
  size_outcome
(** {!exec} for size requests, additionally reporting whether the solve
    counts as a breaker failure (numerical breakdown after the ladder,
    or an escaped exception — not deadline or non-convergence, which are
    load signals rather than evidence the circuit is poisoned). *)
