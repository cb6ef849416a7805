(** Statistical static timing analysis (paper Sections 2–4).

    Forward pass: in topological order, each gate's input arrival is the
    repeated two-operand Clark max of its fanin arrivals (paper eq. 1 /
    18b), the gate delay — mean from the sizable-cell model, variance
    from the {!Circuit.Sigma_model} — is added with the independent-sum
    rule (eq. 4), and the circuit-level distribution is the stochastic
    max over all primary outputs (eq. 17's {m T_{max}}).

    Reverse pass: because every step is a closed-form function of means
    and variances with known partials ({!Statdelay.Clark.max2_full}), the
    gradient of any scalar functional of the circuit distribution with
    respect to {e all} gate sizes is computed exactly by one adjoint
    sweep — the same derivative information the paper feeds to LANCELOT,
    organised as reverse-mode differentiation instead of explicit
    constraint derivatives.

    {2 Parallel evaluation}

    Both sweeps walk the netlist level by level
    ({!Circuit.Netlist.level_buckets}); gates within a level are
    independent, so passing [?pool] evaluates each sufficiently wide
    level across the pool's domains.  Results are {e bit-identical} to
    the serial path: parallel phases only write per-gate slots, and every
    shared accumulation (the adjoint and gradient scatters) runs serially
    in a fixed order — see ARCHITECTURE.md's determinism contract.  When
    [?pool] is used, a caller-supplied [pi_arrival] must be pure (it is
    called concurrently from worker domains).

    Instrumented via {!Util.Instr}: counters [ssta.analyze],
    [ssta.gradient] and timers [ssta.forward], [ssta.reverse]; the
    arena sweeps underneath count [ssta.parallel_levels] and
    [ssta.serial_levels].

    This module ships one engine, the {!Arena} sweeps.  The record-based
    reference they are differentially tested against lives with the
    verification code ([Sim.Boxed_ssta]). *)

open Statdelay

type result = {
  arrival : Normal.t array;  (** arrival distribution at each gate output *)
  gate_delay : Normal.t array;  (** delay distribution of each gate *)
  loads : float array;  (** capacitive load seen by each gate *)
  circuit : Normal.t;  (** stochastic max over the primary outputs *)
}

val analyze :
  ?pool:Util.Pool.t ->
  ?arena:Arena.t ->
  ?varmodel:Circuit.Varmodel.t ->
  ?pi_arrival:(int -> Normal.t) ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  result
(** Forward statistical timing.  [pi_arrival] defaults to the
    deterministic arrival [Normal.deterministic 0.] at every input.
    [pool] parallelises the per-level gate evaluations (bit-identical to
    the serial result).

    The sweep runs over a flat structure-of-arrays {!Arena}; passing
    [?arena] (created with {!Arena.create} on the same netlist) reuses
    its planes so repeated evaluations allocate only the returned
    [result] snapshot.  Raises [Invalid_argument] if the arena belongs
    to a different netlist (or was created for a different [varmodel]).

    [varmodel] (default {!Circuit.Varmodel.independent}) selects the
    canonical first-order correlated sweeps: with shared sources, the
    internal arena carries one sensitivity plane per parameter and the
    maxima use the correlated {!Statdelay.Canon} kernels.  The returned
    [result] keeps its shape — [circuit] then reports the canonical
    distribution's total moments. *)

val analyze_exact_nary :
  ?pi_arrival:(int -> Normal.t) ->
  ?points:int ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  result
(** Like {!analyze} but every multi-operand maximum (gate fanins and the
    primary-output reduction) uses the exact n-ary operator of
    {!Statdelay.Nary} instead of the paper's repeated two-operand fold —
    the analysis-side integration of the paper's future work #2.
    Analysis only (no gradients); noticeably slower per max. *)

type seed = { d_mu : float; d_var : float }
(** Derivative of the objective functional with respect to the circuit
    distribution's mean ([d_mu]) and variance ([d_var]) — the reverse
    sweep is seeded with {m (\partial f/\partial\mu,
    \partial f/\partial\sigma^2)} of the functional [f] being
    differentiated.  Note the variance, not the standard deviation:
    {!mu_plus_k_sigma_seed} shows the conversion. *)

val gradient :
  ?pool:Util.Pool.t ->
  ?arena:Arena.t ->
  ?varmodel:Circuit.Varmodel.t ->
  ?pi_arrival:(int -> Normal.t) ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  seed:(result -> seed) ->
  float array
(** [gradient ~model net ~sizes ~seed] is
    {m \nabla_S\, f(\mu_{T_{max}}(S), \sigma^2_{T_{max}}(S))} where the
    caller supplies {m (\partial f/\partial\mu, \partial f/\partial\sigma^2)}
    via [seed] (evaluated on the forward result).  One forward plus one
    reverse sweep, O(edges).  [pool] parallelises both sweeps
    (bit-identical to the serial result). *)

val value_and_gradient :
  ?pool:Util.Pool.t ->
  ?arena:Arena.t ->
  ?varmodel:Circuit.Varmodel.t ->
  ?pi_arrival:(int -> Normal.t) ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  sizes:float array ->
  seed:(result -> seed) ->
  result * float array
(** Like {!gradient} but also returns the forward result. *)

val of_arena : Arena.t -> result
(** Boundary conversion: snapshot an arena's forward state (as left by
    {!Arena.forward}) into the public result shape.  Bit-exact — the
    records are built directly from the plane values. *)

val forward_raw :
  ?pool:Util.Pool.t ->
  ?pi_arrival:(int -> Normal.t) ->
  model:Circuit.Sigma_model.t ->
  Arena.t ->
  sizes:float array ->
  unit
(** {!analyze} without the snapshot: runs the forward sweep on the given
    arena (same instrumentation) and leaves the results in its planes —
    {!Arena.circuit_mu} / {!Arena.circuit_var} and the per-gate planes.
    Allocation-free in serial mode; the sizing engine's inner loop is
    built on this. *)

val reverse_raw :
  ?pool:Util.Pool.t ->
  model:Circuit.Sigma_model.t ->
  Arena.t ->
  d_mu:float ->
  d_var:float ->
  unit
(** The adjoint sweep of {!gradient} without the snapshot or the fresh
    gradient array: requires the state left by {!forward_raw}, fills the
    arena's [grad] plane.  Counted as [ssta.gradient]. *)

(** {1 Common functionals} *)

val k_sigma_dvar : k:float -> var:float -> float
(** {m \partial (k\sigma)/\partial\sigma^2 = k / (2\sigma)} at the
    circuit variance [var]: the variance half of every
    {m \mu + k\sigma} (and {m \sigma}, [k = 1.]) seed.  Taken as [0.]
    when [k = 0.] or the distribution is degenerate ([var <= 0.]).  The
    one definition the seeds below, the sizing engine's gradient
    combinations and the serve daemon's gradient replies share. *)

val mu_plus_k_sigma_seed : float -> result -> seed
(** Seed for {m f = \mu + k\sigma}:
    {m \partial f/\partial\mu = 1}, {m \partial f/\partial\sigma^2 = k / (2\sigma)}.
    For [k <> 0.] and a degenerate (zero-variance) circuit distribution
    the variance derivative is taken as [0.]. *)

val sigma_seed : result -> seed
(** Seed for {m f = \sigma}: [k_sigma_dvar ~k:1.]. *)
