(** Incremental statistical timing: dirty-cone re-evaluation.

    The sizing solver re-evaluates the circuit at a sequence of iterates
    that differ in only some of the speed factors (line searches move the
    interior coordinates while projected coordinates stay pinned at their
    bounds, and multiplier updates re-evaluate at the {e same} point).  A
    full forward/reverse sweep per evaluation — the dominant hot path —
    recomputes every gate regardless.  This engine is a persistent
    alternative: it caches the last analysis (per-gate arrival moments,
    gate delays, loads) and, given the next size vector, re-propagates
    {e only} the transitive fan-out cone of the changed gates.

    {2 Dirty-cone rule}

    A gate must be re-evaluated when any input of its delay/arrival
    computation changed:

    - its own size changed, or
    - its load changed — i.e. the size of one of its {e fanout}
      consumers changed, so the drivers of every changed gate are seeded
      dirty alongside it, or
    - the arrival of one of its fanin gates changed.

    Dirtiness propagates level by level (the arena's level-major id
    ranges) with {e early cutoff}: if a re-evaluated gate's arrival is
    bit-identical to its cached value, its consumers are not marked.
    Clean gates keep their cached values, which are bit-identical to
    what a from-scratch sweep would produce because a dirty gate is
    re-evaluated by the sweep's own per-gate kernel
    ({!Arena.eval_gate}, staged the same way) on the same arena planes
    — only its fold half ({!Arena.eval_fold}) when its size and load
    are unchanged, which gives the same arrival bits.

    {2 Gradient}

    The reverse sweep re-runs its cheap scatter phase in full (in the
    exact order of {!Ssta.value_and_gradient}, which is what keeps
    gradients bit-identical), but the expensive phase — the
    {!Statdelay.Clark.partials_into} replays per gate — is reused
    from the previous gradient evaluation whenever the gate's operands,
    delay and adjoint are unchanged since.  Reuse histories are kept per
    seed root (the engine's basis seeds {m (1,0)} and {m (0,1)} each get
    their own slot).

    {2 Exactness}

    Results — values {e and} gradients — are bit-identical to
    {!Ssta.analyze} / {!Ssta.value_and_gradient} at every step; the
    differential harness [test/test_incr.ml] asserts this over
    randomized delta sequences at 1/2/4 domains.

    {2 Parallelism and instrumentation}

    [?pool] parallelises the per-level dirty recomputation and the
    reverse phase-1 replays exactly as in {!Ssta} (disjoint per-gate
    writes, serial scatters), so pooled results are bit-identical to
    serial ones.  Instrumented via {!Util.Instr}: counters
    [incr.analyze], [incr.cache_hit], [incr.full_sweep],
    [incr.gates_reevaluated], [incr.cutoff], [incr.gradient],
    [incr.phase1_reused], [incr.phase1_recomputed],
    [incr.partials_reused]. *)

type t
(** A persistent engine bound to one netlist, sigma model and optional
    pool.  Not thread-safe: one engine per solver. *)

val create :
  ?pool:Util.Pool.t ->
  ?varmodel:Circuit.Varmodel.t ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  t
(** A fresh engine with an empty cache; the first {!analyze} is a full
    sweep.  Primary-input arrivals are the
    default deterministic zero, as in {!Ssta.analyze}.

    With a shared-source [varmodel] the engine degenerates to cached
    full sweeps: a shared parameter couples every arrival through its
    sensitivity row, so no size change is local and the dirty-cone and
    gradient-reuse machinery (whose exactness proofs cover only the
    independent kernels) is bypassed.  Each state-changing {!analyze}
    runs a full canonical {!Arena.forward}, each gradient a full
    {!Arena.reverse}; bitwise-identical size vectors still hit the
    cache.  Results match {!Ssta.analyze} with the same [varmodel]
    bit for bit. *)

val netlist : t -> Circuit.Netlist.t

val analyze : t -> sizes:float array -> Ssta.result
(** Forward timing at [sizes], re-evaluating only the dirty cone of the
    delta against the engine's cached state.  The returned result is a
    fresh snapshot (safe to hold across later calls), bit-identical to
    [Ssta.analyze ~model net ~sizes]. *)

val value_and_gradient :
  t ->
  sizes:float array ->
  seed:(Ssta.result -> Ssta.seed) ->
  Ssta.result * float array
(** Incremental counterpart of {!Ssta.value_and_gradient}; both
    components are bit-identical to it. *)

val gradient :
  t -> sizes:float array -> seed:(Ssta.result -> Ssta.seed) -> float array
(** [snd] of {!value_and_gradient}. *)

(** {2 Raw plane-level access}

    The engine's cached state lives in a flat {!Arena} it owns
    exclusively (its partials plane doubles as the point-keyed Clark
    cache).  The sizing engine's inner loop uses these entry points to
    evaluate timing with {e zero} per-call allocation: no result
    snapshot, no fresh gradient array. *)

val arena : t -> Arena.t
(** The engine's arena.  Read-only for callers: after {!analyze_raw}
    the [load], [del_*], [arr_*] planes and {!Arena.circuit_mu} /
    {!Arena.circuit_var} reflect the analysis at the last [sizes].  Do
    not run {!Arena.reverse} (or any other writer) on it — that would
    corrupt the partials cache. *)

val analyze_raw : t -> sizes:float array -> unit
(** {!analyze} without the snapshot: brings the arena planes to
    [sizes]. *)

val gradient_into :
  t -> sizes:float array -> d_mu:float -> d_var:float -> out:float array -> unit
(** {!gradient} with a raw constant seed [(d_mu, d_var)] and a
    caller-owned output buffer (length [n_gates], overwritten).  Same
    reuse machinery, same bits as the snapshot path. *)

val invalidate : t -> unit
(** Wholesale invalidation: the next {!analyze} runs a full sweep
    (counted in [incr.full_sweep]).  Called by {!Sizing.Engine} at every
    solve attempt boundary — recovery-ladder rungs, perturbed restarts
    and objective switches on a reused engine.  Gradient reuse histories
    survive (they are guarded by change stamps, not by this flag). *)

type counters = {
  analyzes : int;  (** {!analyze} calls, including via the gradient *)
  cache_hits : int;  (** calls with no size delta *)
  full_sweeps : int;  (** cold or invalidated calls *)
  gates_reevaluated : int;  (** dirty gates recomputed, full sweeps included *)
  cutoffs : int;  (** recomputed gates whose arrival was unchanged *)
  gradients : int;  (** gradient calls *)
  phase1_reused : int;  (** reverse-sweep partial replays skipped *)
  phase1_recomputed : int;  (** reverse-sweep partial replays executed *)
  partials_reused : int;
      (** recomputed replays that served their Clark partials from the
          point-keyed cache (shared across seeds at one point) instead of
          re-running the Clark operators *)
}

val counters : t -> counters
(** This engine's lifetime totals (the [incr.*] {!Util.Instr} counters
    aggregate the same quantities across engines). *)

val dirty_fraction : t -> float
(** [gates_reevaluated / ((analyzes - cache_hits) * n_gates)] — the mean
    fraction of the circuit re-evaluated per analyze that changed sizes;
    [1.0] means the dirty cone never engaged, a full sweep on every size
    change.  Cache hits (including the analyze each {!gradient_into}
    runs at its point) re-evaluate nothing and are not counted; [0.]
    before any size-changing analyze. *)
