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
from .network import ChannelArrays, ChannelNetwork, checked_probability, checked_vector, finite_fsum

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
    transition; ``coarse`` pairs the state generator's transition currents
    W_t p_from.  A unidirectional pair with positive forward flux makes the
    rate infinite, reported as math.inf with the pair named in ``note``.
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


def mean_record(net: ChannelNetwork, p, mu: str) -> float:
    """Mean rate of record mu at occupation p: sum_e d_e rate_e p_from(e)."""
    (row,) = net.record_rows([mu])
    pv = checked_probability(p, net.n_states)
    a = net.arrays
    with np.errstate(over="ignore"):  # finite_fsum refuses a term that overflows
        terms = a.increments[row] * a.rate * pv[a.from_state]
    return finite_fsum(terms, f"the mean of record {mu!r}")


def _conjugate_fluxes(a: ChannelArrays, pv: np.ndarray):
    """Conjugate flux pairs (key, forward flux, backward flux), group by group of ``a.conjugate``.

    Each direction's fluxes rate * p_from are summed exactly.  A group with
    positive rate one way and no channel the other way is a ValidationError.
    """
    order, slots = a.conjugate_slots
    with np.errstate(over="ignore"):  # finite_fsum refuses a flux that overflows
        flux = (a.rate * pv[a.from_state])[order].tolist()
    rate = a.rate[order].tolist()
    for key, (start, mid, end) in zip(a.conjugate_keys, slots):
        if mid == end and max(rate[start:mid]) > 0:
            raise ValidationError(f"channel group {key} has no reverse partner")
        if start == mid and max(rate[mid:end]) > 0:
            raise ValidationError(f"channel group {key} has no forward partner")
        yield key, finite_fsum(flux[start:mid], "a flux"), finite_fsum(flux[mid:end], "a flux")


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
    """Entropy production rate at occupation p; ``coarse`` reads the generator's currents alone."""
    pv = np.maximum(checked_probability(p, net.n_states), 0.0)  # an entry let through below 0 reads as 0
    a = net.arrays
    resolved, inf_res = _sigma(_conjugate_fluxes(a, pv))
    # each state pair once, in first-appearance order; a pair with positive rate one way
    # and none back has a channel group without a partner, refused above
    lo, hi = np.sort(a.pairs, axis=1).T
    first = np.sort(np.unique(lo * net.n_states + hi, return_index=True)[1])
    lo, hi, W = lo[first], hi[first], net.generator.matrix
    with np.errstate(over="ignore"):  # finite_fsum refuses a flux that overflows
        fluxes = zip(zip(lo.tolist(), hi.tolist()), (W[hi, lo] * pv[lo]).tolist(), (W[lo, hi] * pv[hi]).tolist())
    coarse, inf_coarse = _sigma((t, finite_fsum((f,), "a flux"), finite_fsum((b,), "a flux")) for t, f, b in fluxes)
    bits = ["pairing: (reservoir, filter) with reversed transition"]
    if inf_res:
        bits.append(f"unidirectional resolved pairs: {inf_res}")
    if inf_coarse:
        bits.append(f"unidirectional transitions: {inf_coarse}")
    return EntropyReport(resolved=resolved, coarse=coarse, note="; ".join(bits))


def _check_totals(net: ChannelNetwork, u) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    transitions = net.transitions()
    uv = checked_vector(u, len(transitions), "u", " transitions")
    if not (uv.min() >= 0 and uv.max() < math.inf):  # NaN fails the first test
        raise ValidationError("transition totals must be finite and nonnegative")
    return uv, transitions


def record_interval(net: ChannelNetwork, u, a: dict[str, float]) -> RecordInterval:
    """Exact compatible interval of the scalar record a . J at totals u.

    lo sums u_t times the smallest projected increment over the transition's
    channels, hi the largest; ties break toward the lowest channel index.
    """
    uv, transitions = _check_totals(net, u)
    proj = net.arrays.weighted(net.record_rows(a), a)
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
    """Stationary ordered-transition currents u_t = W_t p_from, read off the generator alone."""
    frm, to = net.arrays.pairs.T
    u = net.generator.matrix[to, frm] * net.stationary.p[frm]
    u.flags.writeable = False
    return u
