(** The registered invariant suite run after every simulated op.

    The differential checks are bitwise ([Int64.bits_of_float]): the
    warm incremental engine, a from-scratch arena sweep, the boxed
    reference sweeps ({!Boxed_ssta}) and every pooled domain
    configuration must agree to the last bit.  The structural checks cover the corner
    envelope against {!Sta.Dsta}/{!Sta.Ssta}, correlation-matrix sanity
    of {!Sta.Cssta}, recovery-ladder soundness under injected faults,
    monotone engine counters, and the release-profile words/eval
    ceiling. *)

type violation = { name : string; detail : string }

type check = {
  name : string;
  applies : State.t -> Op.t -> bool;
      (** cheap predicate deciding whether [run] fires after this op *)
  run : State.t -> Op.t -> (unit, string) result;
      (** [Error detail] on violation; exceptions are converted to a
          violation by {!check_all} *)
}

val default_suite : ?max_cssta_gates:int -> unit -> check list
(** The full registry, in run order:

    - [incr-vs-scratch] (every op) — warm {!Sta.Incr.analyze} bitwise
      equals a from-scratch arena sweep; on [Analyze]/[Gradient] ops
      also cross-checked against each pooled configuration of the
      state.  Catches {!Op.Corrupt_cache}.
    - [monotone-counters] (every op) — engine lifetime counters never
      decrease.
    - [arena-vs-boxed] ([Analyze]) — arena sweep vs the boxed oracle.
    - [gradient-vs-scratch] ([Gradient]) — incremental gradient vs
      scratch, boxed and pooled gradients, bitwise.
    - [corner-envelope] ([Analyze]) — best <= typical <= worst, typical
      equals {!Sta.Dsta}, monotone guard band, statistical mean
      dominates the typical corner.
    - [cssta-vs-ssta] ([Analyze], circuits up to [max_cssta_gates]
      gates, default 200 — the correlation matrix is O(n^2)) —
      correlation entries in [[-1, 1]], finite moments, nonnegative
      variance, and the independent half of
      {!Sta.Cssta.compare_to_independent} bitwise equals the scratch
      sweep.
    - [corr-sound] ([Analyze] and [Set_varmodel], only when the state's
      varmodel is non-independent) — the canonical correlated sweep
      under the current varmodel: a residual-only model (grid with zero
      source weights) must replay the independent scratch sweep bitwise;
      weighted models are cross-checked on circuits up to
      [max_cssta_gates] gates against the dense {!Sta.Cssta} oracle run
      under the same varmodel (canonical mu within 10% of dense, and
      canonical sigma never farther from dense than the independent
      engine's sigma — the canonical form only adds shared-source terms
      the independent engine drops).
    - [recovery-sound] ([Solve]) — solution inside the box, finite
      consistent moments, non-converged solves explained by ladder
      rungs or budget terminations, and fired faults never paired with
      a silently clean first attempt.
    - [gp-sound] ([Solve], only when the solve involved the GP backend:
      a [`Gp] warm start or a gp-fallback recovery rung) — the reported
      circuit moments and area bitwise equal a from-scratch sweep at the
      reported sizes: the GP hands the engine sizes, never timing
      numbers.
    - [serve-sound] ([Serve_request]) — the daemon execution path
      ({!Serve.Exec} against the state's warm serve target) answers
      bit-identically to a fresh batch evaluation of the same request
      (compared through {!Serve.Protocol.result_json}'s exact float
      rendering, so string equality is Int64 bit-identity), and the
      expired-deadline variant takes the flagged mean-only degradation
      rung rather than a statistical answer or an error.
    - [words-per-eval] ([Analyze]) — when the Clark kernels inline
      (release profile), a steady-state forward sweep allocates at most
      256 minor words; skipped in dev builds. *)

val check_all : check list -> State.t -> Op.t -> violation option
(** First violation in suite order, if any.  An exception raised by a
    check becomes a violation with the exception text as detail. *)
