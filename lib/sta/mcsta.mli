(** Batched circuit-level Monte Carlo SSTA — the sampling golden oracle.

    The paper's headline evidence is statistical: sized circuits meet
    their constraint in 50% / 84.1% / 99.8% of manufactured instances for
    {m \mu} / {m \mu + \sigma} / {m \mu + 3\sigma} guard-banding
    (Section 4), and the normal approximation behind Clark's max is only
    ever validated by sampling.  This engine draws whole-circuit delay
    realizations directly: per-gate delay samples propagate level by
    level with the {e exact} [max]/[+] semantics (no moment matching), so
    its empirical distribution of {m T_{max}} is the reference the
    analytic {!Ssta} is judged against.

    {2 Determinism contract}

    Sampling is keyed, not sequential: gate [g] draws from the private
    stream [Util.Rng.keyed seed ~key:g], and sample [k] of that stream is
    consumed in global order.  Consequences, locked in by the test suite:

    - results are {e bit-identical} (every [Int64.bits_of_float]) for the
      same [seed] regardless of [batch] size, and
    - regardless of [?pool] domain count — within a level each gate fills
      only its own row of the batch buffer from its own stream, and every
      cross-gate reduction (the primary-output max, the moment
      accumulation, quantiles) runs serially in a fixed order.

    Instrumented via {!Util.Instr}: counters [mc.sample], [mc.samples],
    [mc.batches], [mc.parallel_levels], [mc.serial_levels]; timer
    [mc.sample]. *)

type shape = Gaussian | Uniform | Shifted_exponential | Two_point
(** The per-gate delay family.  [Gaussian] is the model's own
    assumption; the others are the moment-matched non-normal families
    of the F-SHAPE experiment (re-exported as {!Yield.delay_shape}):
    [Uniform] on {m \mu \pm \sigma\sqrt3}, [Shifted_exponential]
    {m \mu - \sigma + Exp(\sigma)} and [Two_point] {m \mu \pm \sigma}
    with probability 1/2 each. *)

val draw_shape : Util.Rng.t -> shape -> mu:float -> sigma:float -> float
(** One draw from the given family with the given first two moments: a
    deterministic function of the generator state.  Inlined into the
    sampling loops, so no draw calls a closure or boxes a float. *)

val sample :
  ?pool:Util.Pool.t ->
  ?arena:Arena.t ->
  ?batch:int ->
  ?seed:int ->
  ?shape:shape ->
  ?pi_arrival:(int -> float) ->
  ?varmodel:Circuit.Varmodel.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  n:int ->
  float array
(** [sample ~model net ~sizes ~n] is [n] independent realizations of the
    circuit delay {m T_{max}}, in sample order.  Each realization draws
    every gate delay from the family [shape] (default [Gaussian]) with the
    sizable-cell mean and the {!Circuit.Sigma_model} standard deviation
    at the given [sizes], and propagates worst-case arrivals exactly.

    [batch] (default 1024) bounds the working set: arrivals are kept in a
    flat [n_gates * batch] float array reused across batches.  [seed]
    (default 1) selects the keyed stream family.  [pi_arrival] gives each
    primary input a deterministic arrival time (default [0.]); it is read
    once per fanin edge per batch, so it must be a pure function.  [pool]
    distributes the per-level gate rows over its domains; see the
    determinism contract above.

    [arena], when given, must belong to [net] ([Invalid_argument]
    otherwise) and is left untouched: the per-gate delay means come
    from {!Dsta.delays}, which reads the flat columns with the arena
    kernel's load and delay arithmetic, so sweeping the arena for them
    would give the same bits for a full fanin fold's cost.

    [varmodel] (default {!Circuit.Varmodel.independent}) turns on
    correlated sampling: each trial draws one shared standard normal per
    variation source from the keyed streams [ng + i] (disjoint from the
    gate streams), and gate [g]'s delay becomes
    {m \mu_t + \sigma_t (w_g \Delta X_{glob} + w_c \Delta X_{cell})}
    plus a private [shape] draw at standard deviation {m w_r \sigma_t} —
    the per-gate marginal keeps the independent mode's total variance
    under the default Gaussian shape, only cross-gate correlation
    changes.
    The determinism contract above extends to the shared draws (one per
    trial per source, consumed in trial order), so correlated samples
    are likewise bit-identical across [batch] sizes and pool widths.
    This is the ground truth the canonical {!Ssta} sweeps are judged
    against. *)

(** {1 Reductions} *)

type summary = {
  n : int;
  mu : float;  (** empirical mean of {m T_{max}} *)
  sigma : float;  (** unbiased sample standard deviation *)
  min_t : float;
  max_t : float;
  quantiles : (float * float) list;  (** [(p, empirical p-quantile)] *)
}

val default_quantiles : float list
(** The paper-relevant probabilities: 0.5, {m \Phi(1)} = 0.8413 and
    {m \Phi(3)} = 0.99865. *)

val summarize : ?quantiles:float list -> float array -> summary
(** Empirical moments and quantiles of a sample array (serial, fixed
    order — deterministic). *)

type conformance = {
  budget : float;  (** the delay constraint {m D} being checked *)
  n : int;
  hits : int;  (** samples with {m T_{max} \le D} *)
  p : float;  (** point estimate [hits / n] *)
  ci_lo : float;
  ci_hi : float;
      (** 95% Wilson score interval for the true conformance probability *)
}

val conformance : ?z:float -> float array -> budget:float -> conformance
(** [conformance samples ~budget] estimates {m P(T_{max} \le budget)}
    with a binomial confidence interval ([z] defaults to 1.96, i.e.
    95%).  This is the estimator that reproduces the Section-4
    50% / 84.1% / 99.8% guard-band claim. *)

val pp_summary : Format.formatter -> summary -> unit
val pp_conformance : Format.formatter -> conformance -> unit
