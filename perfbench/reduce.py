"""The benchmark's arithmetic: from the raw record bench.exe writes to the
metrics run.py prints.  Pure functions, pinned by test_perfbench.py.

Every gated timing but set-up uses one estimator: an order statistic, at
quantile GATED_Q, of many short repetitions interleaved through the run.
The host it was tuned on runs in a slow state with fast spells of a few
seconds, whose share changes from run to run; the fastest sample and the
median read that share, a high quantile reads the slow state, which
every run has (NOTES.md has the spreads).  Set-up is the median of a
few full set-ups.
"""

import json
import math
import statistics


# ---- order statistics --------------------------------------------------------

def low_order(xs, q=0.0):
    """The lower order statistic at quantile [q]: element floor(q (n-1))
    of the sorted samples; q = 0 is the fastest."""
    if not xs:
        raise ValueError("no samples")
    s = sorted(xs)
    return s[int(math.floor(q * (len(s) - 1)))]


# The quantile of the gated estimator; the run-to-run spreads of q = 0
# to 0.9, the mean and trimmed means measured while tuning picked 0.9
# (NOTES.md).
GATED_Q = 0.9


def gated(xs):
    return low_order(xs, GATED_Q)


def median(xs):
    if not xs:
        raise ValueError("no samples")
    return statistics.median(xs)


def percentile(xs, p):
    """Nearest-rank percentile, p in (0, 100]."""
    if not xs:
        raise ValueError("no samples")
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def interleaved(groups, q=GATED_Q):
    """The estimator of a mixed workload: each group's (each
    experiment's) order statistic at [q], then the median over groups.
    Groups run interleaved through the run, so a slow spell spoils a few
    samples of many groups rather than one group's statistic."""
    if not groups:
        raise ValueError("no groups")
    return median([low_order(g, q) for g in groups])


# ---- spans -------------------------------------------------------------------

def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover.  Children may overlap each other, so the covered
    part is the length of the union of their intervals, clipped to the
    parent.  [spans] holds (name, start, end, parent_index, op) tuples;
    returns one duration per span, in the spans' unit."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        parent = sp[3]
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, end = 0, t0
        for c0, c1 in sorted((max(t0, spans[c][1]), min(t1, spans[c][2]))
                             for c in children[i]):
            if c1 <= end:
                continue
            covered += c1 - max(c0, end)
            end = c1
        out.append((t1 - t0) - covered)
    return out


# ---- the result line ---------------------------------------------------------

def result_line(correct, attempted, failed, metrics):
    """The last line of a run's output.  [metrics] maps name to
    (value, unit); every value must be finite and every unit named."""
    if not isinstance(attempted, int) or not isinstance(failed, int) or attempted < 1:
        raise ValueError("attempted and failed must be whole numbers, attempted >= 1")
    body = {}
    for name, (value, unit) in metrics.items():
        if not name or not unit:
            raise ValueError(f"metric {name!r} needs a name and a unit")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
        body[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": body})


# ---- metrics -----------------------------------------------------------------

MC_TRIALS = 32

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio",
    "solve_ms": "ms", "set_ms": "ms",
    "sweep_ms": "ms", "canon_sweep_ms": "ms", "mc_trials_per_s": "1/s",
    "whatif_ms": "ms", "gradient_ms": "ms", "requests_per_s": "1/s",
}

PER_LAYER = {
    "circuit.load_s": "s", "circuit.load_words": "words",
    "sta.arena_create_s": "s", "sta.canon_arena_create_s": "s",
    "sta.sweep_words": "words", "sta.canon_sweep_words": "words",
    "sta.arena_mb": "MiB", "sta.canon_arena_mb": "MiB",
    "sta.mcsta_chunk_ms": "ms",
    "sta.incr_dirty_fraction": "ratio", "sta.incr_words_per_eval": "words",
    "statdelay.clark_max2": "count", "statdelay.canon_max2": "count",
    "nlp.evals_per_solve": "count", "nlp.inner_iterations_per_solve": "count",
    "nlp.self_ms": "ms",
    "sizing.eval_us": "us", "sizing.canon_eval_us": "us",
    "sizing.cache_hit_ratio": "ratio", "sizing.recovery_solves": "count",
    "serve.queue_wait_ms": "ms", "serve.exec_ms.whatif": "ms",
    "serve.exec_ms.analyze": "ms", "serve.exec_ms.gradient": "ms",
    "serve.codec_us": "us",
    "serve.evictions": "count", "serve.shed": "count", "serve.degraded": "count",
    "serve.latency_p50_ms": "ms", "serve.latency_p99_ms": "ms",
    "trace.layer_share": "ratio", "trace.overhead_frac": "ratio",
}

# The series of each workload's own timing (a name prefix): the solves,
# the independent sweeps, the served what-ifs.  The tracing overhead is
# measured on them.
PRIMARY = {"size": "solve.", "signoff": "sweep", "serve": "rt.whatif."}

# Suffix of the series sampled on the traced run's untraced steps.
UNTRACED = "#u"


def _round_trips(series, kind=""):
    """Round trips of every request of [kind] (all kinds by default), one
    list per circuit; traced steps only."""
    prefix = f"rt.{kind}"
    return [v for k, v in series.items()
            if k.startswith(prefix) and not k.endswith(UNTRACED)]


def ok_frac(kinds):
    """The lowest share of ok operations over the operation kinds
    ({kind: [attempted, failed]}): solves, requests, whole-run checks."""
    return min((a - f) / a for a, f in kinds.values() if a > 0)


def totals(rec):
    """(attempted, failed) over every kind of a record."""
    return (sum(a for a, _ in rec["kinds"].values()),
            sum(f for _, f in rec["kinds"].values()))


def end_to_end(rec):
    """{name: value} of every end-to-end metric, from an untraced record."""
    s = rec["series"]
    solves = [v for k, v in s.items() if k.startswith("solve.")]
    return {
        "setup_s": median(s["setup"]),
        "peak_rss_mb": rec["peak_rss_mb"],
        "ok_frac": ok_frac(rec["kinds"]),
        "solve_ms": interleaved(solves),
        "set_ms": gated(s["set"]),
        "sweep_ms": gated(s["sweep"]),
        "canon_sweep_ms": gated(s["canon_sweep"]),
        "mc_trials_per_s": MC_TRIALS / (gated(s["mc_chunk"]) / 1e3),
        "whatif_ms": interleaved(_round_trips(s, "whatif.")),
        "gradient_ms": interleaved(_round_trips(s, "gradient.")),
        "requests_per_s": requests_per_s(rec["values"]["block_requests"], s["block"]),
    }


def requests_per_s(block_requests, block_ms):
    """Requests of a schedule block divided by the block's summed round
    trips (ms), at the gated block.  Every block holds the same mix, and
    the re-warms of evicted engines that fall into it count."""
    return block_requests / (gated(block_ms) / 1e3)


def tracing_overhead(series, prefix, q=GATED_Q):
    """The cost of tracing, from one traced run: every series named by
    [prefix] was sampled on traced steps and, as [<name>#u], on the
    untraced steps between them.  Each series' traced order statistic at
    [q] over its untraced one, the median over series, minus 1."""
    ratios = [low_order(xs, q) / low_order(series[k + UNTRACED], q)
              for k, xs in series.items()
              if k.startswith(prefix) and not k.endswith(UNTRACED)
              and series.get(k + UNTRACED)]
    return median(ratios) - 1.0


def per_layer(traced):
    """{name: value} of every per-layer metric, from a traced record."""
    v, s = traced["values"], traced["series"]
    spans = [tuple(x) for x in traced["spans"]]
    selfs = self_times(spans)

    def durations(name, scale):
        return [(t1 - t0) / scale for n, t0, t1, _, _ in spans if n == name]

    def ratio(a, b):
        return v.get(a, 0.0) / v[b] if v.get(b) else 0.0

    solve_self = [st / 1e6 for sp, st in zip(spans, selfs) if sp[0] == "size.solve"]
    rts = [x for v in _round_trips(s) for x in v]
    return {
        "circuit.load_s": median(durations("circuit.load", 1e9)),
        "circuit.load_words": v["circuit.load_words"],
        "sta.arena_create_s": median(durations("sta.arena_create", 1e9)),
        "sta.canon_arena_create_s": median(durations("sta.canon_arena_create", 1e9)),
        "sta.sweep_words": v["sta.sweep_words"],
        "sta.canon_sweep_words": v["sta.canon_sweep_words"],
        "sta.arena_mb": v["sta.arena_mb"],
        "sta.canon_arena_mb": v["sta.canon_arena_mb"],
        "sta.mcsta_chunk_ms": median(durations("sta.mcsta_chunk", 1e6)),
        "sta.incr_dirty_fraction": ratio("incr_reevaluated", "incr_gate_analyses"),
        "sta.incr_words_per_eval": ratio("incr_words", "incr_analyses"),
        "statdelay.clark_max2": v["statdelay.clark_max2"],
        "statdelay.canon_max2": v["statdelay.canon_max2"],
        "nlp.evals_per_solve": ratio("evaluations", "solves"),
        "nlp.inner_iterations_per_solve": ratio("inner_iterations", "solves"),
        "nlp.self_ms": median(solve_self),
        "sizing.eval_us": median(durations("sizing.eval", 1e3)),
        "sizing.canon_eval_us": median(durations("sizing.canon_eval", 1e3)),
        "sizing.cache_hit_ratio":
            v.get("cache_hits", 0.0) / (v.get("cache_hits", 0.0) + v["cache_misses"]),
        "sizing.recovery_solves": v.get("recovery_solves", 0.0),
        "serve.queue_wait_ms": median(durations("serve.queue", 1e6)),
        "serve.exec_ms.whatif": median(durations("serve.exec.whatif", 1e6)),
        "serve.exec_ms.analyze": median(durations("serve.exec.analyze", 1e6)),
        "serve.exec_ms.gradient": median(durations("serve.exec.gradient", 1e6)),
        "serve.codec_us": median(s["codec_us"]),
        "serve.evictions": v["serve.evictions"],
        "serve.shed": v["serve.shed"],
        "serve.degraded": v["serve.degraded"],
        "serve.latency_p50_ms": percentile(rts, 50),
        "serve.latency_p99_ms": percentile(rts, 99),
        "trace.layer_share":
            sum(selfs) / 1e9 / (traced["wall_s"] - v["untraced_s"]),
        "trace.overhead_frac": tracing_overhead(s, PRIMARY[traced["workload"]]),
    }


def timing_summary(rec):
    """Count, median and p90 of every timing series (not gated); the
    solves and the round trips of each kind pooled."""
    groups = {}
    for name, xs in rec["series"].items():
        untraced = name.endswith(UNTRACED)
        for prefix in ("solve.", "rt.whatif.", "rt.analyze.", "rt.gradient."):
            if name.startswith(prefix):
                name = prefix.strip(".") + " (pooled)" + (" untraced" if untraced else "")
        groups.setdefault(name, []).extend(xs)
    return [f"{name}: n={len(xs)} median={median(xs):.6g} p90={percentile(xs, 90):.6g}"
            for name, xs in groups.items() if xs]
