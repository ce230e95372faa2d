"""The dot builder, heat bounds and twin rebalance against the code they replaced.

``_reference_build_dot`` and ``_reference_dot_heat_bounds`` write the
entering and leaving directions out separately, and
``_reference_rebalanced_rates`` finds its target with exact rationals; all
three are kept as they were apart from their names.  The one-loop-per-direction
builder, the signed-increment bounds and the ``fsum`` target of
``network.shift_rate`` (which ``make_twin`` calls) must agree with them bit
for bit, ties and signed zeros included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chanjump import (
    ChannelNetwork,
    DotSpec,
    DotTotals,
    NumericalError,
    Reservoir,
    TransitionChannel,
    ValidationError,
    build_dot,
    build_generator,
    dot_heat_bounds,
    dot_totals,
    serialize_network,
)
from chanjump.dot import _level_contacts, fermi
from chanjump.network import ChannelArrays, checked_vector, shift_rate
from chanjump.records import RecordInterval


# ---------------------------------------------------------------------------
# the reference: each direction written out, and the rational rebalance target


def _reference_build_dot(spec: DotSpec) -> ChannelNetwork:
    states = ("empty",) + tuple(f"level_{i}" for i in range(len(spec.levels)))
    records = (
        tuple(f"heat_{r.name}" for r in spec.reservoirs)
        + tuple(f"charge_{r.name}" for r in spec.reservoirs)
        + ("heat_total",)
    )
    channels: list[TransitionChannel] = []
    for i, eps in enumerate(spec.levels):
        contacts = _level_contacts(spec, i)
        for res, lam, g in contacts:
            q = eps - res.mu
            channels.append(
                TransitionChannel(
                    from_state=0,
                    to_state=i + 1,
                    reservoir=res.name,
                    rate=g * fermi(eps, res.mu, res.temperature),
                    filter=lam,
                    increments={f"heat_{res.name}": -q, f"charge_{res.name}": -1.0, "heat_total": -q},
                )
            )
        for res, lam, g in contacts:
            q = eps - res.mu
            channels.append(
                TransitionChannel(
                    from_state=i + 1,
                    to_state=0,
                    reservoir=res.name,
                    rate=g * (1.0 - fermi(eps, res.mu, res.temperature)),
                    filter=lam,
                    increments={f"heat_{res.name}": q, f"charge_{res.name}": 1.0, "heat_total": q},
                )
            )
    return ChannelNetwork(states=states, channels=tuple(channels), records=records)


def _reference_rebalanced_rates(rates: Sequence[float], er: int, es: int, eta: float) -> tuple[float, float]:
    total = math.fsum(rates)
    others = sum((Fraction(r) for k, r in enumerate(rates) if k not in (er, es)), Fraction(0))
    a2_seed = rates[er] + eta
    for a2 in (a2_seed, math.nextafter(a2_seed, math.inf), math.nextafter(a2_seed, -math.inf)):
        if a2 < 0:
            continue
        center = float(Fraction(total) - others - Fraction(a2))
        candidates = [center]
        up = down = center
        for _ in range(3):
            up = math.nextafter(up, math.inf)
            down = math.nextafter(down, -math.inf)
            candidates.extend((up, down))
        candidates.append(0.0)
        for b2 in candidates:
            if b2 < 0:
                continue
            trial = list(rates)
            trial[er], trial[es] = a2, b2
            if math.fsum(trial) == total:
                return a2, b2
    raise NumericalError("could not rebalance rates while preserving the generator")


def _reference_dot_heat_bounds(
    totals: DotTotals,
    p,
    spec: DotSpec,
    allowed_in: Sequence[Sequence[str]],
    allowed_out: Sequence[Sequence[str]],
) -> tuple[tuple[RecordInterval, RecordInterval], ...]:
    n = len(spec.levels)
    pv = checked_vector(p, n + 1, "probability vector")
    if len(allowed_in) != n or len(allowed_out) != n:
        raise ValidationError("allowed reservoir sets must be given per level")

    def extremes(i: int, names: Sequence[str]) -> tuple[float, str, float, str]:
        if not names:
            raise ValidationError(f"empty allowed reservoir set for level {i}")
        order = [r.name for r in spec.reservoirs]
        for nm in names:
            if nm not in order:
                raise ValidationError(f"unknown reservoir {nm!r} in allowed set")
        ranked = sorted(set(names), key=order.index)
        qs = [(spec.levels[i] - spec.reservoir(nm).mu, nm) for nm in ranked]
        qmin, rmin = min(qs, key=lambda t: t[0])
        qmax, rmax = max(qs, key=lambda t: t[0])
        return qmin, rmin, qmax, rmax

    out = []
    for i in range(n):
        qmin_in, rmin_in, qmax_in, rmax_in = extremes(i, allowed_in[i])
        base_in = totals.gamma_plus[i] * pv[0]
        entering = RecordInterval(
            lo=base_in * (-qmax_in),
            hi=base_in * (-qmin_in),
            direction={"heat_total": 1.0},
            tight_channels=(((0, i + 1), rmax_in, rmin_in),),
        )
        qmin_out, rmin_out, qmax_out, rmax_out = extremes(i, allowed_out[i])
        base_out = totals.gamma_minus[i] * pv[i + 1]
        leaving = RecordInterval(
            lo=base_out * qmin_out,
            hi=base_out * qmax_out,
            direction={"heat_total": 1.0},
            tight_channels=(((i + 1, 0), rmin_out, rmax_out),),
        )
        out.append((entering, leaving))
    return tuple(out)


# ---------------------------------------------------------------------------
# dots with ties: shared chemical potentials, levels on them, zero couplings

_NAMES = ("L", "R", "M")
_energy = st.sampled_from([-0.5, 0.0, 0.5, 1.0]) | st.floats(-3, 3)


@st.composite
def _dots(draw):
    n_levels = draw(st.integers(1, 4))
    n_res = draw(st.integers(1, 3))
    reservoirs = tuple(
        Reservoir(name, draw(_energy), draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 5)))
        for name in _NAMES[:n_res]
    )
    contacts = [(i, name, lam) for i in range(n_levels) for name in _NAMES[:n_res] for lam in ("", "b")]
    chosen = draw(st.lists(st.sampled_from(contacts), min_size=1, unique=True))
    couplings = {c: draw(st.just(0.0) | st.floats(0, 3)) for c in chosen}
    levels = tuple(draw(_energy) for _ in range(n_levels))
    return DotSpec(levels=levels, reservoirs=reservoirs, couplings=couplings)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spec=_dots(), data=st.data())
def test_one_loop_per_direction_matches_the_written_out_directions(spec, data):
    net, ref = build_dot(spec), _reference_build_dot(spec)
    assert (net.states, net.records) == (ref.states, ref.records)
    # repr shows signed zeros, the float type of every value and the increment key order
    assert repr(net.channels) == repr(ref.channels)
    for name in ChannelArrays.__dataclass_fields__:
        got, want = getattr(net.arrays, name), getattr(ref.arrays, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name

    n = len(spec.levels)
    names = [r.name for r in spec.reservoirs]
    allowed = st.lists(st.lists(st.sampled_from(names), min_size=1, max_size=4), min_size=n, max_size=n)
    allowed_in, allowed_out = data.draw(allowed), data.draw(allowed)
    p = data.draw(st.lists(st.floats(0, 1), min_size=n + 1, max_size=n + 1))
    totals = dot_totals(spec)
    got = dot_heat_bounds(totals, p, spec, allowed_in, allowed_out)
    want = _reference_dot_heat_bounds(totals, p, spec, allowed_in, allowed_out)
    assert repr(got) == repr(want)


_rate = st.sampled_from([0.0, 1e-300, 1e300]) | st.floats(1e-300, 1e300)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rates=st.lists(_rate, min_size=2, max_size=6), data=st.data())
def test_the_fsum_rebalance_target_matches_the_rational_one(rates, data):
    er, es = data.draw(st.lists(st.integers(0, len(rates) - 1), min_size=2, max_size=2, unique=True))
    lo, hi = -rates[er], rates[es]
    eta = data.draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))

    # one transition a -> b carrying the rates, and one channel back
    channels = tuple(TransitionChannel(0, 1, f"r{k}", r) for k, r in enumerate(rates))
    net = ChannelNetwork(("a", "b"), channels + (TransitionChannel(1, 0, "r0", 1.0),), ())
    if eta == 0.0:
        assert shift_rate(net, er, es, eta) is net
        return

    def outcome(rebalance):
        try:
            return rebalance(rates, er, es, eta)
        except NumericalError as exc:
            return str(exc)

    def shifted(rates, er, es, eta):
        twin = shift_rate(net, er, es, eta)
        untouched = [k for k in range(len(twin.channels)) if k not in (er, es)]
        assert [twin.channels[k] for k in untouched] == [net.channels[k] for k in untouched]
        return twin.channels[er].rate, twin.channels[es].rate

    assert repr(outcome(shifted)) == repr(outcome(_reference_rebalanced_rates))


def test_a_losing_rate_emptied_below_the_smallest_subnormal_is_plus_zero():
    # s -> t carries 1.0, 0.5 and 5e-324; moving 0.5 onto the first leaves the second exactly nothing
    rates = (1.0, 0.5, 5e-324)
    channels = tuple(TransitionChannel(0, 1, name, r) for name, r in zip("ABC", rates))
    net = ChannelNetwork(("s", "t"), channels + (TransitionChannel(1, 0, "A", 1.0),), ())
    twin = shift_rate(net, 0, 1, 0.5)
    assert [ch.rate for ch in twin.channels] == [1.5, 0.0, 5e-324, 1.0]
    assert math.copysign(1.0, twin.channels[1].rate) == 1.0  # 0.0, not -0.0
    assert '"rate": -0.0' not in serialize_network(twin)
    assert build_generator(twin).matrix.tobytes() == build_generator(net).matrix.tobytes()


def test_a_transition_total_near_the_largest_double_still_rebalances():
    # the total 1.8e308 is finite, but the fsum of a candidate pair overflows on the way to it
    rates, eta = (2.824038044067485e307, 1.5152893304555671e308), 3.906708936313846e307
    channels = tuple(TransitionChannel(0, 1, name, r) for name, r in zip("AB", rates))
    net = ChannelNetwork(("s", "t"), channels + (TransitionChannel(1, 0, "A", 1.0),), ())
    twin = shift_rate(net, 0, 1, eta)
    assert abs(twin.channels[0].rate - (rates[0] + eta)) <= math.ulp(rates[0] + eta)  # rate + eta or one ulp off it
    assert build_generator(twin).matrix.tobytes() == build_generator(net).matrix.tobytes()
