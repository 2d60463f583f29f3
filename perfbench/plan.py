"""Seeded inputs for the three workloads.

A workload seed fixes everything the package is asked to do in one run:
walk parameters, the order of sizes and formats, query levels and the
simulator ``--seed`` values.  The multiset of sizes and the pairing of
size, format and walk family are fixed, so every seed asks for the same
amount of work and only its arrangement changes.  The package only ever
sees the CLI arguments and API inputs produced here.
"""

from __future__ import annotations

import math
import random
import time

# dist-emit: (n_max, format, family) per op of one round.  Each format has
# one call at 1e6 rows; the four 1e5 calls hold the median.
DIST_ROUND = (
    (1_000_000, "csv", "perturbed"),
    (100_000, "csv", "constant"),
    (100_000, "csv", "perturbed"),
    (10_000, "csv", "half"),
    (1_000_000, "json", "constant"),
    (100_000, "json", "perturbed"),
    (100_000, "json", "constant"),
    (10_000, "json", "half"),
)

# deep-table: table depth and the query batch served per walk.
DEEP_N = 10_000_000
DEEP_HIT = 48          # hit_before, b log-uniform (stratified) in [1e2, 1e7]
DEEP_HIT_SMALL = 8     # hit_before with b <= 12, checked against a tridiagonal solve
DEEP_TAIL = 40         # tail_mass; return_prob replaces half of them on transient walks
DEEP_FIT = 10          # estimate_constant
DEEP_DIAG = 10         # series_diagnostic
DEEP_B_RANGE = (100, 10_000_000)

# simulate: one round of distinct argument sets, each run with --workers 1 and 2.
SIM_HALF = {"excursions": 32_768, "cap_steps": 10_000, "cap_height": 1_000}
SIM_SHORT = {"excursions": 65_536, "cap_steps": 1_000_000, "cap_height": 1_000}
SIM_PERT = {"excursions": 32_768, "cap_steps": 100_000, "cap_height": 200}

ROUNDS = 8  # rounds generated per run; a run stops when its time is up


def timed_rounds(rounds: list, seconds: float):
    """Yield (index, round) while the previous round's time still fits in ``seconds``.

    The first round always runs, so a run holds at least one whole round.
    """
    start, last = time.perf_counter(), 0.0
    for r, ops in enumerate(rounds):
        if r and time.perf_counter() - start + last > seconds:
            return
        t = time.perf_counter()
        yield r, ops
        last = time.perf_counter() - t


def walk_args(walk: dict) -> list[str]:
    """CLI walk-selection arguments for a walk dict."""
    if walk["family"] == "constant":
        return ["--p", repr(walk["p"])]
    return ["--family", "perturbed", "--sign", walk["sign"], "--K", str(walk["k"]),
            "--B", repr(walk["b"])]


def _constant(rng: random.Random) -> dict:
    return {"family": "constant", "p": round(rng.uniform(0.40, 0.45), 6)}


def _perturbed(rng: random.Random) -> dict:
    sign = rng.choice(("plus", "minus"))
    k = rng.choice((1, 2))
    b = round(rng.uniform(0.5, 2.5), 4)
    return {"family": "perturbed", "sign": sign, "k": k, "b": b}


def dist_plan(seed: int) -> list[list[dict]]:
    """Rounds of ``lmax dist`` calls: each op has argv, n_max, format and walk."""
    rng = random.Random(f"dist-emit/{seed}")
    rounds = []
    for _ in range(ROUNDS):
        ops = []
        for n_max, fmt, family in DIST_ROUND:
            if family == "half":
                walk = {"family": "constant", "p": 0.5}
            elif family == "constant":
                walk = _constant(rng)
            else:
                walk = _perturbed(rng)
            argv = ["dist", *walk_args(walk), "--n-max", str(n_max), "--format", fmt]
            ops.append({"argv": argv, "n_max": n_max, "format": fmt, "walk": walk})
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def _stratified_log(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """One log-uniform draw per equal-width stratum of [log lo, log hi].

    Stratifying keeps the summed query cost (which is linear in b) close
    to its mean for every seed; plain log-uniform draws would let a
    single seed's cost swing by a third.
    """
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    return [int(math.exp(a + width * (i + rng.random()))) for i in range(count)]


def _deep_walks(rng: random.Random) -> list[dict]:
    walks = [
        {"family": "constant", "p": round(rng.uniform(0.40, 0.45), 6)},
        {"family": "constant", "p": 0.5},
        # Transient (b > 1), so return_prob and the transient tail_mass run.
        {"family": "perturbed", "sign": "plus", "k": 1, "b": round(rng.uniform(1.5, 3.0), 4)},
        # The telescoping walk: pmf 1/n^2 - 1/(n+1)^2 is an oracle at any depth.
        {"family": "perturbed", "sign": "minus", "k": 1, "b": 1.0},
    ]
    # A fixed order keeps the server's peak memory from depending on the seed.
    return walks


def _deep_queries(rng: random.Random, walk: dict, n: int) -> list[dict]:
    transient = (walk["family"] == "constant" and walk["p"] > 0.5) or (
        walk["family"] == "perturbed" and walk["sign"] == "plus" and walk["b"] > 1.0
    )
    qs = []
    for b in _stratified_log(rng, *DEEP_B_RANGE, DEEP_HIT):
        a = rng.randrange(0, b // 4)
        k = rng.randrange(a + 1, b)
        qs.append({"kind": "hit_before", "a": a, "k": k, "b": b})
    for _ in range(DEEP_HIT_SMALL):
        b = rng.randrange(3, 13)
        a = rng.randrange(0, b - 1)
        qs.append({"kind": "hit_small", "a": a, "k": rng.randrange(a + 1, b), "b": b})
    for i in range(DEEP_TAIL):
        if transient and i % 2:
            qs.append({"kind": "return_prob"})
        else:
            qs.append({"kind": "tail_mass", "n": int(math.exp(rng.uniform(0.0, math.log(n))))})
    for _ in range(DEEP_FIT):
        n_hi = int(math.exp(rng.uniform(math.log(1e5), math.log(n))))
        qs.append({"kind": "estimate_constant", "n_lo": n_hi // 100, "n_hi": n_hi})
    qs.extend({"kind": "series_diagnostic"} for _ in range(DEEP_DIAG))
    rng.shuffle(qs)
    return qs


def deep_plan(seed: int) -> list[list[dict]]:
    """Rounds of walks served by one process: each walk has n and its query batch."""
    rng = random.Random(f"deep-table/{seed}")
    rounds = []
    for _ in range(ROUNDS):
        rounds.append([
            {"walk": w, "n": DEEP_N, "queries": _deep_queries(rng, w, DEEP_N)}
            for w in _deep_walks(rng)
        ])
    return rounds


def sim_plan(seed: int) -> list[list[dict]]:
    """Rounds of simulate/compare calls; each argument set appears with 1 and 2 workers."""
    rng = random.Random(f"simulate/{seed}")
    rounds = []
    for _ in range(ROUNDS):
        sets = [
            ("compare", {"family": "constant", "p": 0.5}, SIM_HALF),
            ("simulate", _constant(rng), SIM_SHORT),
            ("compare", {"family": "perturbed", "sign": "minus", "k": 1,
                         "b": round(rng.uniform(0.8, 1.5), 4)}, SIM_PERT),
        ]
        ops = []
        for pair, (command, walk, size) in enumerate(sets):
            sim_seed = rng.randrange(2**63)
            for workers in (1, 2):
                argv = [command, *walk_args(walk), "--excursions", str(size["excursions"]),
                        "--seed", str(sim_seed), "--workers", str(workers),
                        "--cap-steps", str(size["cap_steps"]),
                        "--cap-height", str(size["cap_height"]), "--format", "json"]
                ops.append({"argv": argv, "command": command, "walk": walk,
                            "pair": f"{len(rounds)}.{pair}",
                            "workers": workers, "excursions": size["excursions"],
                            "cap_height": size["cap_height"]})
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


PLANS = {"dist-emit": dist_plan, "deep-table": deep_plan, "simulate": sim_plan}
