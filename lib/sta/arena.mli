(** Flat structure-of-arrays timing state shared by every STA engine.

    An arena packs all per-gate and per-fold-step state of a statistical
    timing analysis into unboxed [Bigarray.Array1] float64 planes
    ({!Statdelay.Clark.vec}): the forward planes allocated once per
    circuit by {!create}, the adjoint planes by the first {!reverse}
    (until then each is a 1-element stub, so an arena that only sweeps
    forward never allocates or touches adjoint state).
    Planes are indexed by the flat view's {e level-major} gate ids
    ({!Circuit.Netlist.flat}), and moment planes interleave (mu, var)
    pairs — slot [i] at indices [2i] / [2i + 1] — so one level is one
    contiguous memory block and a fanin gather costs one cache line.
    Bigarray data lives outside the OCaml heap: million-gate planes are
    neither scanned nor moved by the GC.  {!forward} and {!reverse}
    sweep in place: a steady-state evaluation allocates zero words,
    which is what collapses minor-GC traffic in sizing solves
    (DESIGN.md Sections 9 and 10).

    The public boundary stays in {e old} gate ids: {!forward} takes the
    caller's old-id size vector, and {!gradient_into} scatters the
    gradient back through the permutation.

    The sweeps perform bit-identical floating-point operations to the
    record-based reference kept with the verification code
    ([Sim.Boxed_ssta]), via the in-place Clark kernels, at any pool
    width — [test/test_arena.ml] enforces Int64 equality of arrivals,
    circuit moments and gradients differentially.

    The record is exposed so the engines built on top ([Ssta], [Incr],
    [Mcsta], [Sizing.Engine]) and the differential tests can read the
    planes directly.  Treat it as read-only outside [lib/sta]; the
    layout is engine-internal and may change. *)

type vec = Statdelay.Clark.vec

type ivec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Compact (int32) index column, halving the staging loops' index
    stream next to OCaml's 8-byte [int array]. *)

type t = {
  net : Circuit.Netlist.t;
  flat : Circuit.Netlist.flat;
  n : int;  (** gate count; every per-gate plane has this many slots *)
  sizes : vec;  (** sizes last swept by {!forward}, new-id order *)
  load : vec;  (** capacitive load per gate *)
  del : vec;  (** gate delay (mu, var) pairs *)
  arr : vec;  (** arrival (mu, var) pairs per gate *)
  pre : vec;  (** fold-slot pair plane: prefix maxima of each fold *)
  opnd : vec;
      (** level-window pair scratch (sized for the widest level): the
          current level's staged fanin operands at
          [slot - fi_off.(level lo)] — the sweep's random reads,
          gathered by tight copy loops so the cache misses overlap,
          re-used across levels so the window stays cache-resident
          (both sweeps stage each level before folding it) *)
  fosz : vec;
      (** level-window scratch: the current level's staged consumer
          sizes at [edge - fo_off.(level lo)] *)
  fi_b : ivec;
      (** fold-slot column: each operand's pair index in [arr] ([2e]
          for gate [e]; [2 (n + i)] for primary input [i], whose pairs
          occupy [arr]'s tail section), making staging a branch-free
          single-plane gather *)
  fo_c : ivec;  (** fanout-edge column: [fo_consumer] as int32 *)
  pi : vec;
      (** primary-input arrival pairs (zero by default) — a shared
          sub-view of [arr]'s tail section, {e not} a separate plane *)
  mutable pp : vec;
      (** fold-slot plane x8: Clark partials per fold step.  Only the
          independent reverse sweep reads it, so a canonical arena
          ([n_params > 0]) keeps its 1-element stub.  This and the
          other [mutable] planes are adjoint state: 1-element stubs
          until {!ensure_adjoint} (run by the first {!reverse})
          allocates them; read none before a reverse sweep *)
  mutable adj : vec;  (** arrival adjoint pairs per gate *)
  mutable dmu_t : vec;  (** gate-delay mean adjoint per gate *)
  mutable active : Bytes.t;  (** ['\001'] iff gate has a non-zero arrival adjoint *)
  mutable fadj : vec;  (** fold-slot pair plane: per-operand adjoints *)
  mutable grad : vec;  (** gradient w.r.t. gate sizes (new-id), after {!reverse} *)
  vm : Circuit.Varmodel.t;  (** variation-source model of this arena *)
  p : int;
      (** shared-parameter count ([Varmodel.n_params vm]); [0] selects
          the independent sweeps, byte-identical to the pre-canonical
          engine *)
  gparam : int array;
      (** per-gate grid-cell parameter index, new-id order (0 = none) *)
  asens : vec;
      (** arrival sensitivity rows ([p] doubles per gate, PI tail rows
          zero), empty when [p = 0] *)
  presens : vec;  (** fold-slot sensitivity rows: fold prefix sens *)
  mutable sadj : vec;  (** per-gate sensitivity adjoint rows *)
  mutable fsadj : vec;  (** fold-slot sensitivity adjoint rows *)
  mutable cpp : vec;  (** fold-slot plane x16: canonical partials per step *)
}

val create : ?varmodel:Circuit.Varmodel.t -> Circuit.Netlist.t -> t
(** Allocates the forward planes.  O(gates + fanin edges) words, plus
    [p] doubles per gate and fold slot when [varmodel] (default
    {!Circuit.Varmodel.independent}) has shared sources; reusable
    across any number of sweeps.  Planes are not zero-filled: every
    sweep writes a slot before reading it, except the primary-input
    tails of [arr] and [asens], which are zeroed here.  With shared
    sources, {!forward} / {!reverse} run the canonical-form sweeps:
    arrivals carry sensitivity rows, maxima use the correlated
    {!Statdelay.Canon} kernels, and the gradient flows through the
    tightness-probability backprop. *)

val netlist : t -> Circuit.Netlist.t

val varmodel : t -> Circuit.Varmodel.t

val n_params : t -> int
(** [0] for an independent arena; [1 + grid^2] with shared sources. *)

val set_pi_arrival : t -> (int -> Statdelay.Normal.t) -> unit
(** Samples a primary-input arrival closure into the [pi] pair plane
    (the boxed engines' [?pi_arrival] argument). *)

val clear_pi_arrival : t -> unit
(** Resets primary inputs to the default deterministic-zero arrival. *)

val forward :
  ?pool:Util.Pool.t -> model:Circuit.Sigma_model.t -> t -> sizes:float array -> unit
(** Levelized forward sweep: loads, gate delay moments, fanin folds,
    arrivals, primary-output fold.  [sizes] is in old gate-id order
    (validated as {!Circuit.Netlist.check_sizes} plus [Cell.delay]'s
    size-below-1 guard, then gathered into the arena's new-id plane).
    Allocation-free when [pool] is absent or has size 1. *)

val reverse :
  ?pool:Util.Pool.t ->
  model:Circuit.Sigma_model.t ->
  t ->
  d_mu:float ->
  d_var:float ->
  unit
(** Adjoint sweep seeded with [(d_mu, d_var)] on the circuit
    distribution; requires the state left by {!forward}.  Fills [grad]
    (and the adjoint planes).  Same two-phase levelized schedule as the
    boxed sweep, so results are bit-identical at any pool width.
    Allocation-free in serial mode. *)

val ensure_adjoint : t -> unit
(** Allocates the adjoint planes ([pp] or the canonical [sadj] /
    [fsadj] / [cpp], and [adj], [dmu_t], [active], [fadj], [grad]) if
    no reverse sweep has run on [t] yet; a no-op afterwards.
    {!reverse} calls it; engines with their own reverse sweep
    ({!Incr}) call it first.  Not thread-safe. *)

val gradient_into : t -> float array -> unit
(** [gradient_into t out] scatters the gradient left by {!reverse} into
    [out] in old gate-id order ([out.(old_id)]).  Raises
    [Invalid_argument] if [out] is shorter than the gate count or no
    reverse sweep has run on [t]. *)

val eval_gate : t -> Circuit.Sigma_model.t -> int -> int -> int -> unit
(** [eval_gate t model s0 f0 id] is the forward sweep's per-gate kernel:
    gate [id]'s (a new id) load, delay moments and fanin fold into
    [load], [del], [pre] and [arr].  Its fanin operands and consumer
    sizes must have been staged by {!stage_fanin} / {!stage_fanout}
    over a new-id range [[lo, hi)] containing [id], with
    [s0 = fi_off.(lo)] and [f0 = fo_off.(lo)].  Exposed so {!Incr}
    re-evaluates its dirty gates with the sweep's own operations.
    Raises [Invalid_argument] on a size below 1. *)

val eval_fold : t -> int -> int -> unit
(** [eval_fold t s0 id] is {!eval_gate}'s second half: gate [id]'s
    fanin fold and arrival, from the delay moments already in [del]
    (only {!stage_fanin} is required).  [eval_gate] is the load and
    delay computation followed by exactly this, so a gate whose size
    and load are unchanged since its last evaluation gets the same
    arrival bits from [eval_fold] alone. *)

val stage_fanin : t -> int -> int -> unit
(** [stage_fanin t lo hi] gathers the fanin operand pairs of new ids
    [[lo, hi)] into the [opnd] window, sized for the widest level:
    the range must lie within one level. *)

val stage_fanout : t -> int -> int -> unit
(** [stage_fanout t lo hi] gathers the consumer sizes of new ids
    [[lo, hi)] into the [fosz] window; same capacity rule. *)

val fold_pos : t -> unit
(** Re-runs only the primary-output fold over the current [arr]
    plane (the tail step of {!forward}), for engines ({!Incr}) that
    update arrivals selectively. *)

val circuit_mu : t -> float
(** Circuit-level max arrival mean, after {!forward}. *)

val circuit_var : t -> float

val circuit_sens_into : t -> float array -> unit
(** [circuit_sens_into t out] copies the circuit distribution's [p]
    shared-source sensitivities (param 0 = global, then grid cells)
    left by a canonical {!forward} into [out].  Raises
    [Invalid_argument] if [out] is shorter than [p]; no-op when
    [p = 0]. *)

val phase2_gate : t -> int -> unit
(** One gate's serial scatter step of the reverse sweep (gradient
    contributions of [mu_t] plus the fanin adjoint scatter), exposed for
    {!Incr}, whose phase 1 differs (partials caching) but whose phase 2
    must replay exactly these accumulations.  Takes a {e new-id};
    requires [dmu_t], the [fadj] segment and [active] for the gate to
    be set. *)

val stage_block : int
(** Width (in gates) of the blocks a serial sweep stages and evaluates
    at a time, so the staged window stays in the closest caches. *)

val level_grain : int
(** Minimum level width (per the [2 * grain] rule) before a level is
    handed to the pool — same threshold as the boxed sweeps. *)
