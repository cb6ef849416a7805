(** Timing yield: the fraction of manufactured/operating circuits that
    meet a delay constraint.

    Section 4 of the paper: constraining {m \mu_{T_{max}}} makes 50% of
    circuits conform, {m \mu + \sigma} 84.1%, {m \mu + 3\sigma} 99.8%.
    {!analytic} evaluates that claim from the SSTA result; {!monte_carlo}
    validates it by sampling actual gate delays and re-running a
    deterministic timing analysis per sample. *)

val analytic : Statdelay.Normal.t -> deadline:float -> float
(** [analytic circuit ~deadline] is {m P(T_{max} \le deadline)} under the
    normal approximation. *)

type delay_shape = Mcsta.shape =
  | Gaussian  (** the model's own assumption *)
  | Uniform  (** uniform on {m \mu \pm \sigma\sqrt3} *)
  | Shifted_exponential
      (** {m \mu - \sigma + Exp(\sigma)}: maximally skewed, same moments *)
  | Two_point  (** {m \mu \pm \sigma} with probability 1/2 each *)
(** Alternative gate-delay distributions with the same mean and variance.
    Section 3 of the paper (citing [1]) claims the element distribution's
    shape is almost irrelevant to the circuit-level delay distribution;
    sampling with these families tests that claim (experiment F-SHAPE).
    The type is {!Mcsta.shape}, re-exported, so the batched engine's
    [?shape] takes these constructors directly. *)

val draw_shape : Util.Rng.t -> delay_shape -> mu:float -> sigma:float -> float
(** One draw from the given family with the given first two moments —
    the per-gate sampler behind {!sample_circuit_delays} and
    {!Mcsta.sample} ({!Mcsta.draw_shape}). *)

val sample_circuit_delays :
  ?rng:Util.Rng.t ->
  ?shape:delay_shape ->
  ?arena:Arena.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  n:int ->
  float array
(** [n] Monte Carlo samples of the true circuit delay: each sample draws
    every gate delay independently from the given [shape] (default
    {!Gaussian}) with the model's {m (\mu_t, \sigma_t)} and propagates
    worst-case arrivals deterministically ({!Dsta.propagate_into}, one
    shared arrival scratch).  The delay moments come from the
    arena-backed {!Ssta.analyze}; [arena] reuses a caller-owned
    {!Arena}. *)

val monte_carlo :
  ?rng:Util.Rng.t ->
  ?arena:Arena.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  deadline:float ->
  n:int ->
  float
(** Empirical yield: fraction of samples with circuit delay at most
    [deadline]. *)
