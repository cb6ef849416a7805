(** Geometric-programming sizing on the mean delay model.

    The Berkelaar-Jess gate delay {m t = t_{int} + c\,C_{load}/S} is a
    posynomial in the speed factors, so the paper's {e mean}-delay sizing
    problems are geometric programs with a provable global optimum.  This
    backend builds that GP from the {!Circuit.Netlist.flat} CSR view —
    path-free, with one epigraph arrival variable per gate — and solves
    it in log space ({m y_i = \log S_i}) with a damped Newton barrier
    method.  No external solver: the log-sum-exp smoothed constraints,
    the barrier, the preconditioned-CG Newton steps and the KKT
    certificate are all here.

    The engine uses it three ways: as an independent global-optimality
    cross-check of the augmented-Lagrangian solver (the statistical
    problem at {m \sigma = 0} {e is} this GP), as a warm start
    ([Engine.options.warm_start]), and as the [Gp_fallback] rung of the
    recovery ladder.

    Everything is deterministic: no randomness and, unless a deadline is
    given, no wall-clock-dependent control flow — two solves of the same
    problem are bit-identical. *)

(** {1 Posynomial AST}

    The model representation the compiler targets, exposed for the
    property tests: a posynomial is a sum of monomials
    {m c \prod_k x_{i_k}^{\alpha_{i_k}}} with {m c > 0}, evaluated at a
    {e log}-point {m y = \log x} as
    {m \log \sum e^{\log c + \alpha\cdot y}} — a log-sum-exp of affine
    functions, hence convex in {m y} (the log-log convexity the QCheck
    tests exercise). *)
module Posy : sig
  type monomial = { coeff : float; terms : (int * float) list }
      (** [coeff] {m > 0}; [terms] lists [(variable, exponent)] pairs
          (a variable may repeat; exponents add) *)

  type t = monomial list  (** a posynomial: a non-empty sum of monomials *)

  val log_eval : t -> float array -> float
  (** [log_eval p y] {m = \log p(e^y)}, computed with a max-shifted
      log-sum-exp (never overflows for finite inputs). *)

  val log_grad : dim:int -> t -> float array -> float array
  (** Gradient of {!log_eval} at [y]: the convex-combination
      {m \sum_k w_k \alpha_k} of the monomial exponent vectors. *)
end

(** {1 The sizing GP} *)

type objective =
  | Min_delay of { area_budget : float option }
      (** minimise the mean circuit delay, optionally subject to
          {m \sum_i area_i S_i \le A} — with [area_budget] set to a
          {!Baseline} solution's area this is the equal-area
          differential of the test layer *)
  | Min_area of { delay_bound : float }
      (** minimise {m \sum_i area_i S_i} subject to a mean-delay bound
          — the mean-model counterpart of [Objective.Min_area_bounded] *)

type options = {
  t0 : float;  (** initial barrier weight *)
  barrier_growth : float;  (** multiplier on [t] between centerings *)
  complementarity_target : float;
      (** outer loop runs until {m 1/t \le} this; the duality-style gap
          certificate is {m m/t} at exit *)
  newton_tol : float;
      (** centering stops when the (normalized) barrier gradient
          {m \infty}-norm — exactly the certificate's stationarity
          residual — falls below this *)
  max_newton : int;  (** per-centering Newton iteration cap *)
  max_total_newton : int;  (** whole-solve Newton iteration cap *)
  cg_max_iterations : int;  (** cap on CG iterations per Newton system *)
}

val default_options : options

type status =
  | Optimal  (** barrier loop reached the complementarity target *)
  | Infeasible
      (** no strictly feasible start exists: the delay bound (or area
          budget) cannot be met on the mean model *)
  | Stalled  (** iteration caps or a dead line search; best point returned *)

type solution = {
  status : status;
  sizes : float array;  (** speed factors, old-id order, inside the box *)
  delay : float;  (** the epigraph variable {m T} at the solution *)
  mean_delay : float;  (** {!Sta.Dsta} circuit delay at [sizes] *)
  area : float;
  gp_objective : objective;
  n_variables : int;  (** {m 2n + 1}: sizes, arrivals, {m T} *)
  n_constraints : int;
  centerings : int;
  newton_iterations : int;
  duality_gap : float;  (** {m m/t} at exit: bounds [f - f*] in log space *)
  kkt : Nlp.Check.kkt;
      (** first-order certificate at the solution, computed by
          {!Nlp.Check.kkt} over the full log-space GP with the barrier
          dual estimates {m \lambda_j = 1/(t\,(-g_j))} *)
  wall_time : float;
}

val solve :
  ?options:options -> ?deadline:float -> Circuit.Netlist.t -> objective -> solution
(** Compiles the mean-delay/area GP from the netlist's flat view and
    solves it.  [deadline] (seconds from the call, on the monotonic
    clock) is checked before every Newton step: a solve that reaches it
    stops there and returns [Stalled] with its current point, so it
    overruns by at most one Newton step.  Never raises on
    infeasibility — a bound no sizing can meet returns
    [status = Infeasible] with best-effort sizes.  The
    interior-point iterates stay strictly inside the box; at extraction
    any size within a relative [1e-6] of a bound is snapped onto it (the
    rounding step of classic GP sizing), so the returned [sizes] are
    always a valid sizing and saturated gates sit exactly at their
    bounds. *)

val compile : Circuit.Netlist.t -> objective -> Posy.t * Posy.t list
(** The log-space program [(objective, constraints)] the solver
    minimises: each constraint posynomial {m p} stands for
    {m p(S, a, T) \le 1}.  Variable indices: gate sizes in flat (new-id)
    order at [0..n-1], epigraph arrivals at [n..2n-1], the circuit delay
    {m T} at [2n].  Exposed for the differential tests. *)
