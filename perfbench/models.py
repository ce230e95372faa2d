"""Seeded model generators for the benchmark workloads.

Every generator takes the workload seed and returns model documents in the
chanjump model-file schema.  The same seed always gives the same documents;
the structure of each workload (sizes, record counts, kinds) is fixed and
only the random values (chord placement, rates, increments, dot parameters)
depend on the seed, so the amount of work varies little between seeds.
"""

from __future__ import annotations

import numpy as np

# (N, q) rungs of the analytic ladder; the --fd cross-check runs where N <= FD_MAX_N.
# The top rung is small enough that every op stays well under a second, so a
# run repeats each op dozens of times (see worker.end_to_end).
LADDER = ((10, 3), (20, 8), (40, 16))
FD_MAX_N = 20
CHANNELS_PER_PAIR = 4

# The canonical twin dot of the README: one level at eps=1, reservoirs L (mu=0.5)
# and R (mu=-0.5) at T=1, both couplings 1.
TWIN_DOT = {
    "dot": {
        "levels": [1.0],
        "reservoirs": [{"name": "L", "mu": 0.5, "T": 1.0}, {"name": "R", "mu": -0.5, "T": 1.0}],
        "couplings": [
            {"level": 0, "reservoir": "L", "gamma": 1.0},
            {"level": 0, "reservoir": "R", "gamma": 1.0},
        ],
    }
}

_SALT = {"ladder-analytic": 1, "twin-montecarlo": 2, "many-small": 3}


def rng_for(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    """Stream 0 draws the models, stream 1 the flags of the calls made on them."""
    return np.random.default_rng([seed, _SALT[workload], stream])


def pair_network(rng: np.random.Generator, n: int, q: int, pairs, per_pair) -> dict:
    """Network with channels both ways along every unordered pair given.

    Channel k of a pair uses reservoir ``r<k>`` in both directions, so every
    channel has a conjugate partner and entropy production stays finite.
    Rates are uniform on [0.5, 1.5], increments standard Gaussian.
    """
    records = [f"x{r}" for r in range(q)]
    channels = []
    for (a, b), k_max in zip(pairs, per_pair):
        for src, dst in ((a, b), (b, a)):
            for k in range(k_max):
                incs = rng.normal(size=q)
                channels.append({
                    "from": f"s{src}",
                    "to": f"s{dst}",
                    "reservoir": f"r{k}",
                    "filter": "",
                    "rate": float(rng.uniform(0.5, 1.5)),
                    "increments": {rec: float(v) for rec, v in zip(records, incs)},
                })
    return {"states": [f"s{i}" for i in range(n)], "records": records, "channels": channels}


def _ring(n: int) -> list[tuple[int, int]]:
    ring = [(i, i + 1) for i in range(n - 1)]
    if n > 2:
        ring.append((n - 1, 0))
    return ring


def _chords(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(count):
        a, b = rng.choice(n, size=2, replace=False)
        out.append((int(a), int(b)))
    return out


def ladder_models(seed: int, rungs=LADDER) -> dict[str, dict]:
    """Bidirectional ring plus N random bidirectional chords, 4 channels per ordered pair."""
    rng = rng_for("ladder-analytic", seed)
    models = {}
    for n, q in rungs:
        pairs = _ring(n) + _chords(rng, n, n)
        models[f"n{n}"] = pair_network(rng, n, q, pairs, [CHANNELS_PER_PAIR] * len(pairs))
    return models


def small_dot(rng: np.random.Generator, n_levels: int, n_res: int) -> dict:
    """Multi-level dot; level 0 also couples to reservoir L through a second filter."""
    names = ["L", "R", "C"][:n_res]
    levels = sorted(float(x) for x in rng.uniform(-1.5, 1.5, size=n_levels))
    reservoirs = [
        {"name": nm, "mu": float(rng.uniform(-1.0, 1.0)), "T": float(rng.uniform(0.5, 2.0))}
        for nm in names
    ]
    couplings = [
        {"level": i, "reservoir": nm, "gamma": float(rng.uniform(0.3, 1.5))}
        for i in range(n_levels)
        for nm in names
    ]
    couplings.append({"level": 0, "reservoir": "L", "filter": "b", "gamma": float(rng.uniform(0.3, 1.5))})
    return {"dot": {"levels": levels, "reservoirs": reservoirs, "couplings": couplings}}


def small_mix_kinds() -> list[tuple[str, int, int]]:
    """Fixed stratified mix: (kind, N or levels, q or reservoirs).

    Both network kinds at every N from 2 to 8, with q cycling through 1..3 so
    that each kind meets every q, and every dot shape: 20 models.
    """
    combos = [(kind, n, 1 + (n + k) % 3) for n in range(2, 9) for k, kind in enumerate(("random", "paired"))]
    combos += [("dot", levels, res) for levels in (1, 2, 3) for res in (2, 3)]
    return combos


def small_models(seed: int) -> dict[str, dict]:
    """Random ring-plus-chord networks, complete ("fully paired") networks and dots."""
    rng = rng_for("many-small", seed)
    models = {}
    for i, (kind, a, b) in enumerate(small_mix_kinds()):
        if kind == "dot":
            doc = small_dot(rng, a, b)
        else:
            if kind == "random":
                pairs = _ring(a) + (_chords(rng, a, a // 2) if a > 2 else [])
            else:
                pairs = [(x, y) for x in range(a) for y in range(x + 1, a)]
            per_pair = [int(k) for k in rng.integers(1, 4, size=len(pairs))]
            doc = pair_network(rng, a, b, pairs, per_pair)
        models[f"m{i:03d}-{kind}"] = doc
    return models
