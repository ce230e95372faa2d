"""Full counting statistics of record currents.

The tilted generator multiplies every channel rate by exp(sum of counting
fields times that channel's record increments) while keeping the untilted
escape rates on the diagonal, so the zero-field matrix is the plain state
generator.  Long-time cumulants come from its dominant eigenvalue; the mean
and zero-frequency noise also have closed forms in terms of the stationary
state and the Drazin inverse, which is what ``mean_currents`` and
``noise_matrix`` evaluate.  ``cumulants_fd`` is the finite-difference
cross-check on the dominant eigenvalue.

Sign convention: a counting field chi on record mu weights a channel by
exp(chi * d) where d is the channel's increment for mu.  For the dot
networks built by :mod:`chanjump.dot`, whose entering channels carry heat
increment -(eps - mu_r), this reproduces the usual heat-counting weights
exp(-chi (eps - mu_r)) for electrons entering the dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import drazin_inverse, stationary_state
from .network import ChannelArrays, ChannelNetwork, build_generator

__all__ = [
    "CumulantReport",
    "tilted_generator",
    "tilt_derivatives",
    "mean_currents",
    "noise_matrix",
    "scgf",
    "analytic_cumulants",
    "cumulants_fd",
    "tilted_null_variation",
]

_MAX_EXPONENT = 700.0  # exp overflow threshold for doubles


@dataclass(frozen=True)
class CumulantReport:
    """First two record cumulants with provenance.

    ``noise`` is the symmetric zero-frequency noise matrix in the order given
    by ``records``, or None when it cannot be estimated (``note`` says why).
    ``method`` is one of "analytic", "finite_difference", "monte_carlo"; the
    error fields are populated for Monte Carlo only.
    """

    records: tuple[str, ...]
    means: dict[str, float]
    noise: np.ndarray | None
    method: str
    mean_errors: dict[str, float] | None = None
    noise_errors: np.ndarray | None = None
    note: str | None = None


def _tilt_factors(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    """exp(chi . d_e) for every channel, refusing exponents that overflow."""
    exponents = net.arrays.weighted(net.record_rows(chi), list(chi.values()))
    for x in exponents:
        if x > _MAX_EXPONENT:
            raise NumericalError(f"counting-field exponent {x:g} overflows; use smaller fields")
    return np.array([math.exp(x) for x in exponents])


def tilted_generator(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    """Generator with counting-field weights on the off-diagonal entries.

    Off-diagonal (n, m) is the exact sum of rate * exp(chi . d) over channels
    m -> n; the diagonal keeps the untilted escape rates, so chi = 0 returns
    exactly the state generator.
    """
    a, n = net.arrays, net.n_states
    M = a.transition_totals(a.rate * _tilt_factors(net, chi), n)
    M.flat[:: n + 1] = build_generator(net).matrix.flat[:: n + 1]
    return M


def tilt_derivatives(net: ChannelNetwork, mu: str, nu: str) -> tuple[np.ndarray, np.ndarray]:
    """First and mixed second field derivatives of the tilted generator at 0.

    Returns (L_mu, L_munu) with off-diagonal entries sum(w d_mu) and
    sum(w d_mu d_nu); diagonals are zero since escape rates are untilted.
    """
    i, j = net.record_rows([mu, nu])
    a = net.arrays
    n = net.n_states
    w_mu = a.rate * a.increments[i]
    w_munu = w_mu * a.increments[j]
    cells = a.to_state * n + a.from_state
    L1, L2 = ChannelArrays.sum_by(np.vstack([w_mu, w_munu]), cells, n * n)
    return L1.reshape(n, n), L2.reshape(n, n)


def mean_currents(net: ChannelNetwork) -> dict[str, float]:
    """Stationary mean rate of every declared record: D (rate * p_from)."""
    a = net.arrays
    p = stationary_state(build_generator(net)).p
    means = a.increments @ (a.rate * p[a.from_state])
    return {rec: float(m) for rec, m in zip(net.records, means)}


def noise_matrix(net: ChannelNetwork) -> np.ndarray:
    """Zero-frequency record-noise matrix at stationarity.

    S_munu = 1.L_munu.p - 1.(L_mu R L_nu + L_nu R L_mu).p with R the Drazin
    inverse; symmetric and positive semidefinite.  Over the channel arrays
    this is S = D W D^T - A R B^T - (A R B^T)^T with W = diag(rate p_from),
    A the rate-weighted increments summed by source state (1.L_mu) and B the
    flux-weighted increments summed by destination state (L_nu p).
    """
    a = net.arrays
    L = build_generator(net)
    ss = stationary_state(L)
    R = drazin_inverse(L, ss)
    D = a.increments
    DW = D * (a.rate * ss.p[a.from_state])
    A = ChannelArrays.sum_by(D * a.rate, a.from_state, net.n_states)
    B = ChannelArrays.sum_by(DW, a.to_state, net.n_states)
    C = A @ R @ B.T
    S = DW @ D.T - C - C.T
    return 0.5 * (S + S.T)


def scgf(net: ChannelNetwork, chi: Mapping[str, float]) -> float:
    """Dominant eigenvalue of the tilted generator (scaled CGF).

    Real and simple for irreducible networks; zero at chi = 0.
    """
    M = tilted_generator(net, chi)
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on tilted generator: {exc}") from exc
    k = int(np.argmax(ev.real))
    lam = ev[k]
    scale = max(1.0, float(np.abs(M).max()))
    if abs(lam.imag) > 1e-9 * scale:
        raise NumericalError(
            f"dominant eigenvalue has imaginary part {lam.imag:g}; network may be reducible"
        )
    return float(lam.real)


def analytic_cumulants(net: ChannelNetwork) -> CumulantReport:
    return CumulantReport(
        records=net.records,
        means=mean_currents(net),
        noise=noise_matrix(net),
        method="analytic",
    )


def cumulants_fd(net: ChannelNetwork, h: float = 1e-4) -> CumulantReport:
    """Means and noise from central differences of the dominant eigenvalue.

    First derivatives use the two-point stencil, the noise diagonal the
    three-point stencil, and mixed entries the four-point stencil.
    """
    stationary_state(build_generator(net))  # fail early on non-ergodic input
    recs = net.records
    q = len(recs)
    lam0 = scgf(net, {})
    up = [scgf(net, {rec: h}) for rec in recs]
    down = [scgf(net, {rec: -h}) for rec in recs]
    means = {rec: (u - d) / (2 * h) for rec, u, d in zip(recs, up, down)}
    S = np.zeros((q, q))
    for i, ri in enumerate(recs):
        S[i, i] = (up[i] - 2 * lam0 + down[i]) / h**2
        for j in range(i + 1, q):
            rj = recs[j]
            S[i, j] = S[j, i] = (
                scgf(net, {ri: h, rj: h})
                - scgf(net, {ri: h, rj: -h})
                - scgf(net, {ri: -h, rj: h})
                + scgf(net, {ri: -h, rj: -h})
            ) / (4 * h**2)
    return CumulantReport(records=recs, means=means, noise=S, method="finite_difference")


def tilted_null_variation(
    net: ChannelNetwork, c, chi: Mapping[str, float]
) -> np.ndarray:
    """First-order change of the tilted generator under a rate perturbation c.

    Off-diagonal entry (n, m) gets sum over channels m -> n of c_e exp(chi .
    d_e); the diagonal gets the (untilted) escape-rate change, which vanishes
    exactly when c preserves per-transition totals, i.e. for every c in
    ker P.
    """
    cv = np.asarray(c, dtype=float)
    if cv.shape != (net.n_channels,):
        raise ValidationError(
            f"perturbation has length {cv.size}, expected {net.n_channels} channels"
        )
    a = net.arrays
    n = net.n_states
    weights = np.concatenate([cv * _tilt_factors(net, chi), -cv])
    cells = np.concatenate([a.to_state * n + a.from_state, a.from_state * (n + 1)])
    return ChannelArrays.sum_by(weights[None, :], cells, n * n).reshape(n, n)
