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
from .network import ChannelNetwork, finite_fsum

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
    (row,) = net.record_rows([mu])
    pv = _check_probability(net, p)
    a = net.arrays
    return math.fsum(a.increments[row] * a.rate * pv[a.from_state])


def _flux_pairs(net: ChannelNetwork, pv: np.ndarray, coarse: bool):
    """Conjugate flux pairs (label, forward flux, backward flux).

    Resolved pairing groups channels by (reservoir, filter, state pair);
    coarse pairing ignores the channel labels.  Duplicate conjugate
    candidates are summed into one effective pair.  Raises when a positive
    rate channel has no structurally declared reverse partner.
    """
    groups: dict[tuple, tuple[list[float], list[float]]] = {}
    for ch in net.channels:
        lo, hi = sorted((ch.from_state, ch.to_state))
        key = (lo, hi) if coarse else (ch.reservoir, ch.filter, lo, hi)
        groups.setdefault(key, ([], []))[ch.from_state == hi].append(ch.rate)
    for key, (fwd, bwd) in groups.items():
        if not coarse:
            if not bwd and any(r > 0 for r in fwd):
                raise ValidationError(f"channel group {key} has no reverse partner")
            if not fwd and any(r > 0 for r in bwd):
                raise ValidationError(f"channel group {key} has no forward partner")
        lo, hi = key[-2:]
        yield key, math.fsum(r * pv[lo] for r in fwd), math.fsum(r * pv[hi] for r in bwd)


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
        ratio = fwd / bwd
        # where the quotient under- or overflows, the difference of logs does not
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(fwd) - math.log(bwd)
        total += (fwd - bwd) * log_ratio
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
    if not (uv.min() >= 0 and uv.max() < math.inf):  # NaN fails the first test
        raise ValidationError("transition totals must be finite and nonnegative")
    return uv, transitions


def record_interval(net: ChannelNetwork, u, a: dict[str, float]) -> RecordInterval:
    """Exact compatible interval of the scalar record a . J at totals u.

    lo sums u_t times the smallest projected increment over the transition's
    channels, hi the largest; ties break toward the lowest channel index.
    """
    uv, transitions = _check_totals(net, u)
    proj = net.arrays.weighted(net.record_rows(a), list(a.values()))
    order = net.arrays.grouped.tolist()
    # min and max return the first extreme, so ties go to the lowest channel index
    emin = [min(order[lo:hi], key=proj.__getitem__) for lo, hi in net.arrays.spans]
    emax = [max(order[lo:hi], key=proj.__getitem__) for lo, hi in net.arrays.spans]
    return RecordInterval(
        lo=finite_fsum((uv[k] * proj[e] for k, e in enumerate(emin)), "a record-interval endpoint"),
        hi=finite_fsum((uv[k] * proj[e] for k, e in enumerate(emax)), "a record-interval endpoint"),
        direction=dict(a),
        tight_channels=tuple(zip(transitions, emin, emax)),
    )


def record_hull_summary(net: ChannelNetwork, u, selected) -> tuple[HullSummand, ...]:
    """Per-transition increment hulls, scaled by u.

    The compatible-record set is the Minkowski sum of these summands; they
    are reported as deduplicated generator points, not as an enumerated
    polytope.
    """
    uv, transitions = _check_totals(net, u)
    a = net.arrays
    columns = a.increments[net.record_rows(selected)][:, a.grouped].T.tolist()
    return tuple(
        HullSummand(transition=t, weight=w, points=tuple(
            dict.fromkeys(tuple(map(w.__mul__, col)) for col in columns[lo:hi])
        ))
        for t, w, (lo, hi) in zip(transitions, uv.tolist(), a.spans)
    )


def stationary_transition_totals(net: ChannelNetwork) -> np.ndarray:
    """Stationary ordered-transition currents u_t = W_t p_from, canonical order."""
    p = net.stationary.p
    frm, to = net.arrays.pairs.T
    u = net.generator.matrix[to, frm] * p[frm]
    u.flags.writeable = False
    return u
