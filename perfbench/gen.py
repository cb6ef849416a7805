"""Benchmark inputs, made from the seed before the measured process starts.

Every input is a pure function of (name, seed): the same seed gives
byte-identical files.  Files are cached under a name derived from their
content (a SHA-256 fingerprint), so a cached file can never be stale.
"""

import hashlib
import os
import random

# Gate counts of the five served circuits, in registration order (the
# DAG sizes must match Serving.circuits in serving.ml).
SERVE_CIRCUITS = [("apex2", 117), ("apex1", 982), ("k2", 1692),
                  ("dag6k", 6000), ("dag24k", 24000)]
PAPER_CIRCUITS = ["apex2", "apex1", "k2"]

# Signoff netlist: big enough that the independent arena far exceeds the
# 4 MiB L2 while staying inside the 105 MiB L3, and the 17 parameter
# planes push the canonical arena past L3 (NOTES.md gives both sizes).
SIGNOFF_GATES = 120_000
SIGNOFF_DEPTH = 36
PROBE_GATES = 6_000
PROBE_DEPTH = 24

SERVE_REQUESTS = 40_020
# Each block of 60 requests, shuffled, holds 9 what-ifs per circuit and
# 3 analyses and 2 gradients per paper circuit (75 / 15 / 10 %): fixed
# proportions keep the medians of the mix from moving with the seed.
BLOCK = ([("whatif", c) for c, _ in SERVE_CIRCUITS] * 9
         + [("analyze", c) for c in PAPER_CIRCUITS] * 3
         + [("gradient", c) for c in PAPER_CIRCUITS] * 2)
GATES = dict(SERVE_CIRCUITS)

# .bench operators and arities, weighted like mapped combinational logic.
OPS = [("NAND", 2, 4), ("NAND", 3, 2), ("NOR", 2, 3), ("NOR", 3, 1),
       ("AND", 2, 2), ("OR", 2, 2), ("NOT", 1, 3), ("BUFF", 1, 1)]


def _rng(name, seed):
    # One independent stream per input, so adding an input never shifts
    # another's contents.
    key = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(key[:8], "big"))


def bench_text(n_gates, depth, rng):
    """A levelized random DAG in ISCAS .bench syntax."""
    n_pis = max(16, n_gates // 150)
    ops = [op for op in OPS for _ in range(op[2])]
    lines = [f"# generated: {n_gates} gates, depth {depth}"]
    lines += [f"INPUT(i{j})" for j in range(n_pis)]
    levels = [[f"i{j}" for j in range(n_pis)]]
    used = set()
    body = []
    per_level = n_gates // depth
    g = 0
    for lvl in range(depth):
        count = per_level if lvl < depth - 1 else n_gates - g
        prev, here = levels[-1], []
        for _ in range(count):
            op, arity, _w = rng.choice(ops)
            # The first fanin comes from the previous level, which keeps
            # the depth; the others mostly too, else from any level.
            args = [rng.choice(prev)]
            while len(args) < arity:
                pool = prev if rng.random() < 0.6 else levels[rng.randrange(len(levels))]
                src = rng.choice(pool)
                if src not in args:
                    args.append(src)
            name = f"g{g}"
            g += 1
            used.update(args)
            here.append(name)
            body.append(f"{name} = {op}({', '.join(args)})")
        levels.append(here)
    outs = [s for level in levels[1:] for s in level if s not in used]
    lines += [f"OUTPUT({o})" for o in outs]
    lines += body
    return "\n".join(lines) + "\n"


def size_seeds(seed):
    """Generator seeds of the dozen apex2*-spec circuits; circuit 0 is the
    paper's apex2* (its generator seed is 43)."""
    rng = _rng("size", seed)
    return "\n".join(["43"] + [str(rng.randrange(1, 1 << 30)) for _ in range(11)]) + "\n"


def serve_schedule(seed, n=SERVE_REQUESTS):
    """The DAG seeds and the block length, then one line per request: its kind, its circuit and
    the request as sent.  75 % what-ifs of 1-8 gates on any circuit, the
    rest analyses at fresh uniform sizes and mu+3sigma gradients on the
    paper circuits."""
    rng = _rng("serve", seed)
    lines = [f"dag_seeds {rng.randrange(1, 1 << 30)} {rng.randrange(1, 1 << 30)} "
             f"block {len(BLOCK)}"]
    i = 0
    while i < n:
        block = BLOCK[:]
        rng.shuffle(block)
        for kind, name in block:
            if kind == "whatif":
                picked = rng.sample(range(GATES[name]), rng.randint(1, 8))
                deltas = ",".join(f"[{g},{rng.uniform(1.0, 3.0)!r}]" for g in picked)
                lines.append(f'whatif {name} {{"id":{i},"circuit":"{name}","op":"whatif",'
                             f'"deltas":[{deltas}]}}')
            elif kind == "analyze":
                lines.append(f'analyze {name} {{"id":{i},"circuit":"{name}","op":"analyze",'
                             f'"sizes":{rng.uniform(1.0, 3.0)!r}}}')
            else:
                lines.append(f'gradient {name} {{"id":{i},"circuit":"{name}","op":"gradient",'
                             f'"seed":{{"mu_k_sigma":3}}}}')
            i += 1
    return "\n".join(lines) + "\n"


def inputs(workload, seed):
    """Every input a run of [workload] reads, as {name: text}."""
    big = workload == "signoff"
    return {
        "seeds": size_seeds(seed),
        "schedule": serve_schedule(seed),
        "netlist": bench_text(SIGNOFF_GATES if big else PROBE_GATES,
                              SIGNOFF_DEPTH if big else PROBE_DEPTH,
                              _rng("netlist", seed)),
    }


def fingerprint(text):
    return hashlib.sha256(text.encode()).hexdigest()


def materialize(workload, seed, cache_dir):
    """Writes the inputs under content-fingerprint names in [cache_dir]
    (reusing files already there) and returns {name: path}."""
    os.makedirs(cache_dir, exist_ok=True)
    paths = {}
    for name, text in inputs(workload, seed).items():
        ext = "bench" if name == "netlist" else "txt"
        path = os.path.join(cache_dir, f"{fingerprint(text)[:32]}.{ext}")
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        paths[name] = path
    return paths
