"""Energy-filtered quantum-dot network builder.

The dot is either empty or singly occupied in one of its levels.  Each
coupling (level, reservoir, filter) contributes an entering channel with rate
gamma * f_r(eps_i) and a leaving channel with rate gamma * (1 - f_r(eps_i)),
where f_r is the Fermi function of that reservoir.  Units: k_B = 1, energies
and temperatures share one arbitrary unit, rates are 1/time.

Record conventions (per reservoir r): an electron tunnelling with sign -1
(into the dot) or +1 (out of it) adds sign * (eps_i - mu_r) to ``heat_r``,
the heat entering r, and sign to ``charge_r``, the electrons gained by r;
``heat_total`` sums the per-reservoir heat.

The state dynamics of the dot depends only on the per-level totals of the
entering and leaving rates, which is why ``make_twin`` can shift rate
between two reservoirs and leave the state generator exactly unchanged.
``make_twin`` finds the two entering channels and makes one call to
``network.shift_rate``, which keeps the transition's ``fsum`` total's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .network import (
    ChannelNetwork, TransitionChannel, all_integers, build_generator, checked_number, checked_vector, shift_rate,
)
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
    nonnegative coupling strength gamma.  Construction checks the whole dot:
    levels, mu, T and gamma are numbers, stored as floats (levels and mu
    finite, T > 0, gamma finite and >= 0), reservoir names distinct nonempty
    strings, and a coupling names a level index, a reservoir and a string filter.
    """

    levels: tuple[float, ...]
    reservoirs: tuple[Reservoir, ...]
    couplings: Mapping[tuple[int, str, str], float]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(checked_number(x, f"level {k}") for k, x in enumerate(self.levels)))
        object.__setattr__(self, "reservoirs", tuple(
            Reservoir(r.name, checked_number(r.mu, f"reservoir {r.name!r}: mu"),
                      checked_number(r.temperature, f"reservoir {r.name!r}: T"))
            for r in self.reservoirs
        ))
        couplings = {key: checked_number(g, f"coupling {key}: gamma") for key, g in self.couplings.items()}
        object.__setattr__(self, "couplings", couplings)
        if not self.levels:
            raise ValidationError("dot needs at least one level")
        if not all(map(math.isfinite, self.levels)):
            raise ValidationError("level energies must be finite")
        if not self.reservoirs:
            raise ValidationError("dot needs at least one reservoir")
        names = [r.name for r in self.reservoirs]
        if not all(isinstance(name, str) and name for name in names):
            raise ValidationError("reservoir names must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate reservoir name")
        if "total" in names:
            raise ValidationError("reservoir name 'total' is reserved")
        for r in self.reservoirs:
            if not (math.isfinite(r.mu) and r.temperature > 0):  # NaN fails too
                raise ValidationError(f"reservoir {r.name!r} needs a finite mu and temperature > 0")
        for (i, rname, lam), g in self.couplings.items():
            if not (all_integers((i,)) and 0 <= i < len(self.levels)):
                raise ValidationError(f"coupling references unknown level {i!r}")
            if rname not in names:
                raise ValidationError(f"coupling references unknown reservoir {rname!r}")
            if not isinstance(lam, str):
                raise ValidationError(f"coupling filter must be a string, got {lam!r}")
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
            out.append((res, lam, spec.couplings[(i, res.name, lam)]))
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
        contacts = [(res, lam, g, fermi(eps, res.mu, res.temperature))
                    for res, lam, g in _level_contacts(spec, i)]
        for frm, to, sign in ((0, i + 1, -1.0), (i + 1, 0, 1.0)):
            for res, lam, g, f in contacts:
                q = sign * (eps - res.mu)
                rate = g * (f if sign < 0 else 1.0 - f)
                incs = {f"heat_{res.name}": q, f"charge_{res.name}": sign, "heat_total": q}
                channels.append(TransitionChannel(frm, to, res.name, rate, lam, incs))
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


def make_twin(
    net: ChannelNetwork, level: int, gain_res: str, lose_res: str, eta: float
) -> ChannelNetwork:
    """Shift entering rate eta between two reservoirs of one level.

    The twin is ``shift_rate`` from the losing reservoir's entering channel to
    the gain reservoir's: rate + eta and rate - eta up to an ulp-level
    rebalance, with the state generator bitwise identical.  With reservoirs at
    different chemical potentials the twin's heat records differ.  Of a
    reservoir's several filters on the level, the lowest-index channel is
    shifted.  ``level`` is a level index: an int or numpy integer, not a bool.
    """
    if not (all_integers((level,)) and 0 <= level < net.n_states - 1):
        raise ValidationError(f"level {level!r} out of range")
    to_state = level + 1
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
    return shift_rate(net, er, es, eta)


def dot_heat_bounds(
    totals: DotTotals,
    p,
    spec: DotSpec,
    allowed_in: Sequence[Sequence[str]],
    allowed_out: Sequence[Sequence[str]],
) -> tuple[tuple[RecordInterval, RecordInterval], ...]:
    """Per-level intervals for the entering and leaving heat contributions.

    Only the totals and the candidate reservoir sets are used: each side's
    contribution lies between base * min(s) and base * max(s), with s the
    signed heat increment sign * (eps_i - mu_r) over the allowed reservoirs
    (entering: sign -1, base p0 Gamma+; leaving: sign +1, base p_i Gamma-).
    Tight labels name the first reservoirs attaining each endpoint.
    """
    n = len(spec.levels)
    pv = checked_vector(p, n + 1, "probability vector")
    if len(allowed_in) != n or len(allowed_out) != n:
        raise ValidationError("allowed reservoir sets must be given per level")

    def extremes(i: int, names: Sequence[str], sign: float) -> tuple[tuple[float, str], tuple[float, str]]:
        if not names:
            raise ValidationError(f"empty allowed reservoir set for level {i}")
        order = [r.name for r in spec.reservoirs]
        for nm in names:
            if nm not in order:
                raise ValidationError(f"unknown reservoir {nm!r} in allowed set")
        ranked = sorted(set(names), key=order.index)
        qs = [(sign * (spec.levels[i] - spec.reservoir(nm).mu), nm) for nm in ranked]
        return min(qs, key=lambda t: t[0]), max(qs, key=lambda t: t[0])

    out = []
    for i in range(n):
        sides = []
        for frm, to, sign, allowed, gamma, pk in (
            (0, i + 1, -1.0, allowed_in[i], totals.gamma_plus[i], pv[0]),
            (i + 1, 0, 1.0, allowed_out[i], totals.gamma_minus[i], pv[i + 1]),
        ):
            (q_lo, r_lo), (q_hi, r_hi) = extremes(i, allowed, sign)
            base = gamma * pk
            sides.append(RecordInterval(
                lo=base * q_lo,
                hi=base * q_hi,
                direction={"heat_total": 1.0},
                tight_channels=(((frm, to), r_lo, r_hi),),
            ))
        out.append(tuple(sides))
    return tuple(out)


def dot_spec_from_document(obj: dict) -> DotSpec:
    """Parse the 'dot' convenience key of a model file into a DotSpec.

    Only reshapes the JSON: arrays of levels, reservoirs {name, mu, T} and couplings {level, reservoir,
    filter?, gamma}, each coupling once, go to DotSpec as they are; errors start "malformed 'dot' description: ".
    """
    try:
        if not isinstance(obj, dict):
            raise ValidationError("not an object")
        for key in ("levels", "reservoirs", "couplings"):
            if not isinstance(obj.get(key), list):
                raise ValidationError(f"{key!r} must be an array")
        reservoirs = tuple(Reservoir(*r) for r in _fields(obj["reservoirs"], "reservoir", ("name", "mu", "T")))
        couplings = _fields(obj["couplings"], "coupling", ("level", "reservoir", "gamma"))
        keys = [(level, r, c.get("filter", "")) for (level, r, _), c in zip(couplings, obj["couplings"])]
        for k, key in enumerate(keys):  # each key part must be hashable: a JSON array or object is not
            for name, value in zip(("level", "reservoir", "filter"), key):
                if isinstance(value, (list, dict)):
                    raise ValidationError(f"coupling {k}: {name!r} must not be an array or an object, got {value!r}")
        spec = DotSpec(tuple(obj["levels"]), reservoirs, dict(zip(keys, [gamma for *_, gamma in couplings])))
        if len(spec.couplings) < len(keys):  # the keys passed DotSpec's type checks, so == tells them apart
            repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ValidationError(f"coupling {repeated} appears twice")
        return spec
    except ValidationError as exc:
        raise ValidationError(f"malformed 'dot' description: {exc}") from exc


def _fields(entries: list, kind: str, keys: tuple[str, ...]) -> list[list]:
    """Each entry's values at keys; a ValidationError naming the entry (by position) and the first missing key."""
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{kind} {k} must be an object")
        for key in keys:
            if key not in entry:
                raise ValidationError(f"{kind} {k} has no {key!r}")
    return [[entry[key] for key in keys] for entry in entries]


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
