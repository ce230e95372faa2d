"""Energy-filtered quantum-dot network builder.

The dot is either empty or singly occupied in one of its levels.  Each
coupling (level, reservoir, filter) contributes an entering channel with rate
gamma * f_r(eps_i) and a leaving channel with rate gamma * (1 - f_r(eps_i)),
where f_r is the Fermi function of that reservoir.  Units: k_B = 1, energies
and temperatures share one arbitrary unit, rates are 1/time.

Record conventions (per reservoir r): ``heat_r`` counts heat entering r, so
an electron entering the dot carries -(eps_i - mu_r) and a leaving one
+(eps_i - mu_r); ``charge_r`` counts electrons gained by r (-1 entering the
dot, +1 leaving); ``heat_total`` sums the per-reservoir heat.

The state dynamics of the dot depends only on the per-level totals of the
entering and leaving rates, which is why ``make_twin`` can shift rate
between two reservoirs and leave the state generator exactly unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .network import ChannelNetwork, TransitionChannel, build_generator
from .records import RecordInterval

__all__ = [
    "Reservoir",
    "DotSpec",
    "DotTotals",
    "fermi",
    "build_dot",
    "dot_totals",
    "dot_stationary",
    "dot_relaxation_matrix",
    "make_twin",
    "dot_heat_bounds",
    "dot_spec_from_document",
    "twin_dot_spec",
]


@dataclass(frozen=True)
class Reservoir:
    name: str
    mu: float
    temperature: float


@dataclass(frozen=True)
class DotSpec:
    """Dot description: level energies, reservoirs, and tunnel couplings.

    ``couplings`` maps (level index, reservoir name, filter label) to a
    nonnegative coupling strength gamma.
    """

    levels: tuple[float, ...]
    reservoirs: tuple[Reservoir, ...]
    couplings: Mapping[tuple[int, str, str], float]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(x) for x in self.levels))
        object.__setattr__(self, "reservoirs", tuple(self.reservoirs))
        object.__setattr__(self, "couplings", dict(self.couplings))
        if not self.levels:
            raise ValidationError("dot needs at least one level")
        if not self.reservoirs:
            raise ValidationError("dot needs at least one reservoir")
        names = [r.name for r in self.reservoirs]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate reservoir name")
        if "total" in names:
            raise ValidationError("reservoir name 'total' is reserved")
        for r in self.reservoirs:
            if r.temperature <= 0:
                raise ValidationError(f"reservoir {r.name!r} needs temperature > 0")
        known = set(names)
        for (i, rname, lam), g in self.couplings.items():
            if not (0 <= i < len(self.levels)):
                raise ValidationError(f"coupling references unknown level {i}")
            if rname not in known:
                raise ValidationError(f"coupling references unknown reservoir {rname!r}")
            if not math.isfinite(g) or g < 0:
                raise ValidationError(f"coupling ({i}, {rname!r}, {lam!r}) must be >= 0")

    def reservoir(self, name: str) -> Reservoir:
        for r in self.reservoirs:
            if r.name == name:
                return r
        raise ValidationError(f"unknown reservoir {name!r}")


@dataclass(frozen=True)
class DotTotals:
    """Per-level totals of entering and leaving rates; all the state sees."""

    gamma_plus: np.ndarray
    gamma_minus: np.ndarray


def fermi(eps: float, mu: float, temperature: float) -> float:
    """Fermi occupation 1 / (1 + exp((eps - mu) / T)), overflow safe."""
    if temperature <= 0:
        raise ValidationError("fermi requires temperature > 0")
    x = (eps - mu) / temperature
    if x >= 0:
        z = math.exp(-x)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(x))


def _level_contacts(spec: DotSpec, i: int) -> list[tuple[Reservoir, str, float]]:
    """Contacts of level i in canonical order: declared reservoirs, sorted filters."""
    out = []
    for res in spec.reservoirs:
        lams = sorted(lam for (j, rname, lam) in spec.couplings if j == i and rname == res.name)
        for lam in lams:
            out.append((res, lam, float(spec.couplings[(i, res.name, lam)])))
    return out


def build_dot(spec: DotSpec) -> ChannelNetwork:
    """Expand a dot spec into a channel network.

    States are "empty" followed by one state per level.  Channels come per
    level, entering channels first (reservoirs in declared order, filters
    sorted), then the leaving channels in the same contact order.  Zero
    couplings still produce structural channels.
    """
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


def dot_totals(spec: DotSpec) -> DotTotals:
    """Per-level entering/leaving rate totals, read off the dot's generator."""
    if not spec.couplings:  # no channels, so no network to build
        zero = np.zeros(len(spec.levels))
        zero.flags.writeable = False
        return DotTotals(gamma_plus=zero, gamma_minus=zero)
    L = build_generator(build_dot(spec)).matrix
    return DotTotals(gamma_plus=L[1:, 0], gamma_minus=L[0, 1:])


def dot_stationary(totals: DotTotals) -> np.ndarray:
    """Closed-form stationary occupation (empty state first)."""
    gp, gm = totals.gamma_plus, totals.gamma_minus
    if np.any(gm <= 0):
        raise NumericalError("dot_stationary requires every leaving total > 0")
    ratios = gp / gm
    p0 = 1.0 / (1.0 + ratios.sum())
    p = np.concatenate([[p0], ratios * p0])
    p.flags.writeable = False
    return p


def dot_relaxation_matrix(totals: DotTotals) -> np.ndarray:
    """Occupation relaxation matrix A_ij = -Gamma_i^- delta_ij - Gamma_i^+.

    The second term is constant along each row; the spectrum equals the
    nonzero spectrum of the full dot generator.
    """
    gp, gm = totals.gamma_plus, totals.gamma_minus
    n = len(gp)
    A = -np.tile(gp[:, None], (1, n)) - np.diag(gm)
    A.flags.writeable = False
    return A


def _rebalanced_rates(rates: Sequence[float], er: int, es: int, eta: float) -> tuple[float, float]:
    """New rates for channels er (gains eta) and es (loses eta) such that the
    correctly rounded total over ``rates`` is bitwise unchanged.

    The ideal shifted pair rarely preserves the rounded total exactly, so the
    losing rate is recentered on the exact rational target and nudged by at
    most a couple of ulps; the deviation from rates[es] - eta is below
    roundoff of the total.
    """
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


def make_twin(
    net: ChannelNetwork, level: int, gain_res: str, lose_res: str, eta: float
) -> ChannelNetwork:
    """Shift entering rate eta between two reservoirs of one level.

    The twin has the gain reservoir's entering channel at rate + eta and the
    losing one at rate - eta (up to an ulp-level rebalance), leaving the
    assembled state generator bitwise identical.  With reservoirs at
    different chemical potentials the twin's heat records differ.  When a
    reservoir contacts the level through several filters, the lowest-index
    channel is shifted.
    """
    to_state = level + 1
    if not (0 <= to_state < net.n_states):
        raise ValidationError(f"level {level} out of range")
    members = [e for e, ch in enumerate(net.channels)
               if ch.from_state == 0 and ch.to_state == to_state]
    er = next((e for e in members if net.channels[e].reservoir == gain_res), None)
    es = next((e for e in members if net.channels[e].reservoir == lose_res), None)
    if er is None:
        raise ValidationError(f"no entering channel for level {level} via {gain_res!r}")
    if es is None:
        raise ValidationError(f"no entering channel for level {level} via {lose_res!r}")
    if er == es:
        raise ValidationError("gain and lose reservoirs must differ")
    rate_r = net.channels[er].rate
    rate_s = net.channels[es].rate
    if not -rate_r <= eta <= rate_s:  # NaN fails too
        raise ValidationError(
            f"eta {eta:g} out of range; must keep rates in [{-rate_r:g}, {rate_s:g}] nonnegative"
        )
    if eta == 0.0:
        return net
    rates = [net.channels[e].rate for e in members]
    new_r, new_s = _rebalanced_rates(rates, members.index(er), members.index(es), eta)
    channels = list(net.channels)
    channels[er] = replace(channels[er], rate=new_r)
    channels[es] = replace(channels[es], rate=new_s)
    return ChannelNetwork(states=net.states, channels=tuple(channels), records=net.records)


def dot_heat_bounds(
    totals: DotTotals,
    p,
    spec: DotSpec,
    allowed_in: Sequence[Sequence[str]],
    allowed_out: Sequence[Sequence[str]],
) -> tuple[tuple[RecordInterval, RecordInterval], ...]:
    """Per-level intervals for the entering and leaving heat contributions.

    Only the totals and the candidate reservoir sets are used: the entering
    contribution lies between -p0 Gamma+ max(q) and -p0 Gamma+ min(q) with
    q = eps_i - mu_r over the allowed reservoirs, and correspondingly for
    leaving.  Tight labels name the reservoirs attaining each endpoint.
    """
    pv = np.asarray(p, dtype=float)
    n = len(spec.levels)
    if pv.shape != (n + 1,):
        raise ValidationError(f"probability vector has length {pv.size}, expected {n + 1}")
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


def dot_spec_from_document(obj: dict) -> DotSpec:
    """Parse the 'dot' convenience key of a model file."""
    if not isinstance(obj, dict):
        raise ValidationError("'dot' must be an object")
    for key in ("levels", "reservoirs", "couplings"):
        if key not in obj:
            raise ValidationError(f"'dot' missing key {key!r}")
    try:
        reservoirs = tuple(
            Reservoir(name=str(r["name"]), mu=float(r["mu"]), temperature=float(r["T"]))
            for r in obj["reservoirs"]
        )
        couplings = {
            (int(c["level"]), str(c["reservoir"]), str(c.get("filter", ""))): float(c["gamma"])
            for c in obj["couplings"]
        }
        levels = tuple(float(x) for x in obj["levels"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed 'dot' description: {exc}") from exc
    return DotSpec(levels=levels, reservoirs=reservoirs, couplings=couplings)


def twin_dot_spec(
    eps: float = 1.0,
    mu_left: float = 0.5,
    mu_right: float = -0.5,
    temperature: float = 1.0,
    gamma: float = 1.0,
) -> DotSpec:
    """Single level contacted by two reservoirs; the canonical twin setup."""
    return DotSpec(
        levels=(eps,),
        reservoirs=(
            Reservoir("L", mu_left, temperature),
            Reservoir("R", mu_right, temperature),
        ),
        couplings={(0, "L", ""): gamma, (0, "R", ""): gamma},
    )
