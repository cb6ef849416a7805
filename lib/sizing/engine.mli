(** Reduced-space statistical gate sizing.

    This engine solves the paper's sizing problems with the speed factors
    {m S} as the only decision variables: the auxiliary timing quantities
    of equation 17 ({m \mu_t, \sigma_t^2, \mu_T, \sigma_T^2, \ldots}) are
    eliminated by the forward SSTA propagation, and their contribution to
    the derivatives is recovered by the adjoint sweep of {!Sta.Ssta}.
    Mathematically this optimises over exactly the feasible manifold of
    the paper's equality constraints, so the two formulations have the
    same minimisers (the tests cross-check this against
    {!Formulate}).

    Every timing evaluation inside a solve goes through a one-entry
    cache (see {!make_cache}); passing [?pool] threads a
    {!Util.Pool.t} down to the SSTA sweeps so large circuits evaluate
    level-parallel.

    {b Incremental re-timing.}  Every evaluation goes through a
    persistent {!Sta.Incr} engine — the caller's [?timing], or one the
    solve owns — so consecutive solver evaluations re-propagate only the
    fan-out cones of the sizes the line search actually moved, with
    moments and gradients bit-identical to from-scratch sweeps.  The
    cache is invalidated wholesale at every attempt boundary
    (multi-start restarts, each recovery-ladder rung, and any objective
    switch on a caller-shared [?timing] engine).  Counters surface as
    [incr.*] (see {!Sta.Incr}).

    {b Resilience.}  [solve] never raises on numerical failure.  The
    solver stack runs behind {!Nlp.Problem.guarded}; when the initial
    attempt ends in [Breakdown], [Stalled] or [Penalty_ceiling] and
    [options.recovery] is on, a recovery ladder retries with (1) a
    perturbed start, (2) the other inner solver (Lbfgs <-> Newton),
    (3) gentler penalty growth, and finally (4) the mean-model {!Gp}
    sizing, degrading to (5) the deterministic {!Baseline} when the GP
    has no analogue or cannot certify, recording every rung taken in
    [solution.recovery].  Optional [deadline] / [max_evaluations]
    budgets bound the {e whole} ladder, not each rung, the GP rung
    included (it gets the remaining deadline); a [Deadline] exit
    returns the best iterate seen and stops the ladder.
    Instrumented via {!Util.Instr}: counters [engine.solve],
    [engine.cache_hit], [engine.cache_miss],
    [engine.recovery.engaged], [engine.recovery.<rung>] and timer
    [engine.solve]. *)

type options = {
  solver : Nlp.Auglag.options;
  start : [ `Low | `Mid | `High | `Given of float array ];
      (** initial speed factors: all-1, mid-box, all-max, or explicit *)
  warm_start : [ `None | `Gp | `Baseline ];
      (** start the solve from a cheap surrogate's solution instead of
          [start]: [`Gp] solves the mean-model geometric program
          ({!Gp.solve} — globally optimal on the mean), [`Baseline] runs
          the deterministic greedy.  Takes precedence over [start] when
          the surrogate applies to the objective and succeeds; falls
          back to [start] otherwise (e.g. the sigma objectives, or an
          infeasible GP bound).  Default [`None]. *)
  restarts : int;
      (** additional multi-start attempts from perturbed starting points;
          best result wins.  0 (default) disables. *)
  restart_seed : int;
  deadline : float option;
      (** wall-clock budget in seconds for the whole solve including
          recovery, default [None] *)
  max_evaluations : int option;
      (** budget on objective/constraint evaluations across all attempts,
          default [None] *)
  recovery : bool;  (** enable the recovery ladder (default [true]) *)
  instrument : (Nlp.Problem.constrained -> Nlp.Problem.constrained) option;
      (** hook applied to the internally built problem before solving —
          used by the fault-injection tests to corrupt evaluations;
          default [None] *)
}

val default_options : options

type rung =
  | Initial  (** the first (non-recovery) attempt, recorded only on failure *)
  | Perturbed_restart  (** deterministic keyed perturbation of the start *)
  | Alternate_solver  (** flip the inner solver: Lbfgs <-> Newton *)
  | Gentler_penalty  (** slower penalty growth, more outer iterations *)
  | Gp_fallback
      (** mean-model {!Gp} sizing — tried before the greedy: it is
          globally optimal on the mean and carries a KKT certificate *)
  | Baseline_fallback  (** deterministic {!Baseline} sizing *)

val rung_name : rung -> string
(** Stable kebab-case identifier, e.g. for JSON diagnoses. *)

val pp_rung : Format.formatter -> rung -> unit

type attempt = {
  rung : rung;
  outcome : Nlp.Auglag.termination;
  breakdown : Nlp.Problem.breakdown option;
  violation : float;
  evals : int;
}

type solution = {
  objective : Objective.t;
  sizes : float array;
  timing : Sta.Ssta.result;
  mu : float;  (** {m \mu_{T_{max}}} at the solution *)
  sigma : float;  (** {m \sigma_{T_{max}}} at the solution *)
  area : float;  (** {m \sum_i area_i S_i} *)
  wall_time : float;  (** seconds spent in [solve] *)
  evaluations : int;
      (** objective/constraint evaluations, summed over every attempt *)
  iterations : int;  (** inner solver iterations of the accepted attempt *)
  max_violation : float;  (** residual constraint violation *)
  converged : bool;
  termination : Nlp.Auglag.termination;
      (** why the accepted attempt ended; [Converged] iff [converged].
          After a baseline fallback this keeps the {e failure} reason of
          the best solver attempt — the fallback is a graceful degrade,
          not a statistical solve. *)
  recovery : attempt list;
      (** every ladder rung taken, in order; [[]] when the first attempt
          converged (guards are observability, not behaviour change) *)
}

val solve :
  ?options:options ->
  ?pool:Util.Pool.t ->
  ?timing:Sta.Incr.t ->
  ?varmodel:Circuit.Varmodel.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  Objective.t ->
  solution
(** Solves the sizing problem; see {!options} for the solver knobs.
    [pool] parallelises every SSTA evaluation of the run — solutions are
    bit-identical with and without it.  [timing] shares a caller-owned
    incremental engine across solves (it must be bound to [net], else
    [Invalid_argument]); it is invalidated at every attempt boundary, so
    switching objectives between solves forces a full sweep.  Never
    raises on numerical failure: guards, budgets and the recovery ladder
    turn NaN/Inf, stalls and expired budgets into a typed [termination]
    plus the [recovery] trail.

    [varmodel] sizes under the canonical correlated delay model: every
    timing evaluation and gradient of the solve flows through the
    canonical {!Sta.Arena} sweeps (tightness-probability backprop
    included), so the optimiser sees the correlation-aware
    {m \mu + k\sigma}.  A caller-shared [timing] engine (and any
    [arena] passed to the lower-level entry points) must have been
    created with the same varmodel, else [Invalid_argument].  The GP
    and baseline warm starts/fallbacks stay mean-model — the mean is
    unchanged by the varmodel. *)

val evaluate :
  ?pool:Util.Pool.t ->
  ?arena:Sta.Arena.t ->
  ?varmodel:Circuit.Varmodel.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  Sta.Ssta.result * float
(** Forward timing and area of a given sizing — used to report rows for
    fixed (e.g. all-min) sizings.  [arena] reuses a flat {!Sta.Arena}'s
    planes for the sweep. *)

type cache_entry = {
  cx : float array;  (** the point the entry was computed at *)
  cmom : float array;
      (** circuit moments at [cx]: [cmom.(0)] the mean, [cmom.(1)] the
          variance of {m T_{max}} *)
  grad_mu : float array;  (** gradient of {m \mu_{T_{max}}} *)
  grad_var : float array;  (** gradient of {m \sigma^2_{T_{max}}} *)
  mutable filled : bool;  (** false only before the first evaluation *)
}

val make_cache :
  ?pool:Util.Pool.t ->
  ?timing:Sta.Incr.t ->
  ?varmodel:Circuit.Varmodel.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  float array ->
  cache_entry
(** [make_cache ~model net] returns a memoised evaluator with a
    {e one-entry} cache: calling it at the same point (element-wise
    float equality) as the previous call returns the stored entry
    without re-running the analysis.  The reverse sweep is linear in its
    seed, so the entry stores the two {e basis} gradients (of the mean
    and of the variance) and the gradient of any functional
    {m f(\mu, \sigma^2)} is their linear combination — objective and
    constraint closures evaluated at one iterate share a single timing
    analysis.  Cache misses evaluate through an incremental engine —
    [timing], or a private {!Sta.Incr} created with [pool] and
    [varmodel] — with dirty-cone re-timing (the second basis gradient
    hits its forward cache) and no per-miss allocation.  The single
    entry and its
    buffers are allocated once and overwritten in place — callers must
    not mutate or retain them across calls. *)

val build_problem :
  ?pool:Util.Pool.t ->
  ?timing:Sta.Incr.t ->
  ?varmodel:Circuit.Varmodel.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  Objective.t ->
  Nlp.Problem.constrained
(** The reduced-space NLP the engine solves for a given objective —
    exposed so tests can instrument it directly. *)
