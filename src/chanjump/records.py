"""Mean records, entropy production, and exact compatible-record intervals.

With only the state generator known, the channel currents on each ordered
transition can be redistributed freely subject to their fixed total, so a
scalar record a . J can take any value in an interval whose endpoints pick,
per transition, the channel with the smallest or largest projected increment.
``record_interval`` evaluates that interval exactly; ``record_hull_summary``
reports the per-transition increment hulls whose weighted Minkowski sum is
the full compatible-record set.

Entropy production comes in two resolutions: summed over conjugate channel
pairs (reservoir and filter resolved) or over transition totals.  The
resolved rate is never smaller (log-sum inequality), and the gap is exactly
the part invisible to state-only observation.  Units: k_B = 1, rates carry
1/time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import stationary_state
from .network import ChannelNetwork, build_generator

__all__ = [
    "RecordInterval",
    "EntropyReport",
    "HullSummand",
    "mean_record",
    "entropy_production",
    "record_interval",
    "record_hull_summary",
    "stationary_transition_totals",
]


@dataclass(frozen=True)
class RecordInterval:
    """Exact range of a scalar record compatible with fixed transition totals.

    ``tight_channels`` lists, per transition, which channel attains each
    endpoint: tuples (transition, argmin_label, argmax_label).  The interval
    degenerates to a point exactly when every transition with nonzero total
    has a single projected increment value.
    """

    lo: float
    hi: float
    direction: dict[str, float]
    tight_channels: tuple[tuple[tuple[int, int], object, object], ...]


@dataclass(frozen=True)
class EntropyReport:
    """Resolved and coarse-grained entropy production rates (k_B = 1).

    ``resolved`` pairs channels by (reservoir, filter) with reversed
    transition; ``coarse`` pairs transition totals.  A unidirectional pair
    with positive forward flux makes the rate infinite; that is reported as
    math.inf, not an exception, with the pair named in ``note``.
    """

    resolved: float
    coarse: float
    note: str


@dataclass(frozen=True)
class HullSummand:
    """Deduplicated channel increment vectors of one transition, scaled by u."""

    transition: tuple[int, int]
    weight: float
    points: tuple[tuple[float, ...], ...]


def _check_probability(net: ChannelNetwork, p) -> np.ndarray:
    pv = np.asarray(p, dtype=float)
    if pv.shape != (net.n_states,):
        raise ValidationError(f"probability vector has length {pv.size}, expected {net.n_states}")
    if pv.min() < -1e-12 or abs(pv.sum() - 1.0) > 1e-9:
        raise ValidationError("p must be a probability vector")
    return pv


def mean_record(net: ChannelNetwork, p, mu: str) -> float:
    """Mean rate of record mu at occupation p: sum_e d_e rate_e p_from(e)."""
    if mu not in net.records:
        raise ValidationError(f"unknown record name {mu!r}")
    pv = _check_probability(net, p)
    a = net.arrays
    return math.fsum(a.increments[net.records.index(mu)] * a.rate * pv[a.from_state])


def _flux_pairs(net: ChannelNetwork, pv: np.ndarray, coarse: bool):
    """Conjugate flux pairs (label, forward flux, backward flux).

    Resolved pairing groups channels by (reservoir, filter, state pair);
    coarse pairing ignores the channel labels.  Duplicate conjugate
    candidates are summed into one effective pair.  Raises when a positive
    rate channel has no structurally declared reverse partner.
    """
    groups: dict[tuple, dict[str, list[float]]] = {}
    for ch in net.channels:
        m, n = ch.from_state, ch.to_state
        lo, hi = (m, n) if m < n else (n, m)
        key = (lo, hi) if coarse else (ch.reservoir, ch.filter, lo, hi)
        g = groups.setdefault(key, {"fwd": [], "bwd": [], "has_fwd": [], "has_bwd": []})
        if m == lo:
            g["fwd"].append(ch.rate * pv[m])
            g["has_fwd"].append(ch.rate)
        else:
            g["bwd"].append(ch.rate * pv[m])
            g["has_bwd"].append(ch.rate)
    for key, g in groups.items():
        if not coarse:
            if not g["has_bwd"] and any(r > 0 for r in g["has_fwd"]):
                raise ValidationError(f"channel group {key} has no reverse partner")
            if not g["has_fwd"] and any(r > 0 for r in g["has_bwd"]):
                raise ValidationError(f"channel group {key} has no forward partner")
        yield key, math.fsum(g["fwd"]), math.fsum(g["bwd"])


def _sigma(pairs) -> tuple[float, list]:
    total = 0.0
    infinite = []
    for key, fwd, bwd in pairs:
        if fwd == 0.0 and bwd == 0.0:
            continue
        if fwd == 0.0 or bwd == 0.0:
            infinite.append(key)
            total = math.inf
            continue
        total += (fwd - bwd) * math.log(fwd / bwd)
    return total, infinite


def entropy_production(net: ChannelNetwork, p) -> EntropyReport:
    """Entropy production rate at occupation p, resolved and coarse-grained."""
    pv = _check_probability(net, p)
    resolved, inf_res = _sigma(_flux_pairs(net, pv, coarse=False))
    coarse, inf_coarse = _sigma(_flux_pairs(net, pv, coarse=True))
    bits = ["pairing: (reservoir, filter) with reversed transition"]
    if inf_res:
        bits.append(f"unidirectional resolved pairs: {inf_res}")
    if inf_coarse:
        bits.append(f"unidirectional transitions: {inf_coarse}")
    return EntropyReport(resolved=resolved, coarse=coarse, note="; ".join(bits))


def _check_totals(net: ChannelNetwork, u) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    transitions = net.transitions()
    uv = np.asarray(u, dtype=float)
    if uv.shape != (len(transitions),):
        raise ValidationError(
            f"u has length {uv.size}, expected {len(transitions)} transitions"
        )
    if uv.min() < 0:
        raise ValidationError("transition totals must be nonnegative")
    return uv, transitions


def _direction_values(net: ChannelNetwork, a: dict[str, float]) -> list[float]:
    for rec in a:
        if rec not in net.records:
            raise ValidationError(f"unknown record name {rec!r} in direction")
    return net.arrays.weighted([net.records.index(rec) for rec in a], list(a.values()))


def record_interval(net: ChannelNetwork, u, a: dict[str, float]) -> RecordInterval:
    """Exact compatible interval of the scalar record a . J at totals u.

    lo sums u_t times the smallest projected increment over the transition's
    channels, hi the largest; ties break toward the lowest channel index.
    """
    uv, transitions = _check_totals(net, u)
    proj = _direction_values(net, a)
    lows: list = [None] * len(transitions)
    highs: list = [None] * len(transitions)
    for e, k in enumerate(net.arrays.transition.tolist()):
        v = proj[e]
        if lows[k] is None or v < lows[k][0]:
            lows[k] = (v, e)
        if highs[k] is None or v > highs[k][0]:
            highs[k] = (v, e)
    return RecordInterval(
        lo=math.fsum(uv[k] * vmin for k, (vmin, _) in enumerate(lows)),
        hi=math.fsum(uv[k] * vmax for k, (vmax, _) in enumerate(highs)),
        direction=dict(a),
        tight_channels=tuple(
            (t, emin, emax) for t, (_, emin), (_, emax) in zip(transitions, lows, highs)
        ),
    )


def record_hull_summary(net: ChannelNetwork, u, selected) -> tuple[HullSummand, ...]:
    """Per-transition increment hulls, scaled by u.

    The compatible-record set is the Minkowski sum of these summands; they
    are reported as deduplicated generator points, not as an enumerated
    polytope.
    """
    uv, transitions = _check_totals(net, u)
    declared = set(net.records)
    for rec in selected:
        if rec not in declared:
            raise ValidationError(f"unknown record name {rec!r}")
    rows = net.arrays.increments[[net.records.index(rec) for rec in selected]]
    points: list[list[tuple[float, ...]]] = [[] for _ in transitions]
    for k, col in zip(net.arrays.transition.tolist(), rows.T.tolist()):
        vec = tuple(uv[k] * x for x in col)
        if vec not in points[k]:
            points[k].append(vec)
    return tuple(
        HullSummand(transition=t, weight=float(uv[k]), points=tuple(points[k]))
        for k, t in enumerate(transitions)
    )


def stationary_transition_totals(net: ChannelNetwork) -> np.ndarray:
    """Stationary ordered-transition currents u_t = W_t p_from, canonical order."""
    L = build_generator(net)
    p = stationary_state(L).p
    transitions = net.transitions()
    u = np.array([L.matrix[n, m] * p[m] for (m, n) in transitions])
    u.flags.writeable = False
    return u
