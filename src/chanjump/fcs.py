"""Full counting statistics of record currents.

The tilted generator multiplies every channel rate by exp(sum of counting
fields times that channel's record increments) while keeping the untilted
escape rates on the diagonal, so the zero-field matrix is the plain state
generator.  Long-time cumulants come from its dominant eigenvalue; the mean
and zero-frequency noise also have closed forms in terms of the stationary
state and the Drazin inverse, which is what ``mean_currents`` and
``noise_matrix`` evaluate.  ``cumulants_fd`` is the finite-difference
cross-check on the dominant eigenvalue.  It tilts the stencil one record at
a time, that record's own points and its mixed points with every later
record, as one stack of generators with one eigensolve; each point is
bitwise what ``scgf`` returns for it, since one path assembles both.

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
from .linalg import drazin_inverse
from .network import ChannelArrays, ChannelNetwork

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


def _tilt_factors(exponents: np.ndarray) -> np.ndarray:
    """exp(chi . d) for an array of exponents, refusing exponents that overflow.

    math.exp, not np.exp: the two differ in the last bit on some machines.
    """
    flat = exponents.ravel()
    over = np.flatnonzero(flat > _MAX_EXPONENT)
    if over.size:
        raise NumericalError(f"counting-field exponent {float(flat[over[0]]):g} overflows; use smaller fields")
    return np.fromiter(map(math.exp, flat.tolist()), float, flat.size).reshape(exponents.shape)


def _exponents(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    """chi . d_e for every channel, each sum correctly rounded."""
    return np.array(net.arrays.weighted(net.record_rows(chi), list(chi.values())))


def _tilted_stack(net: ChannelNetwork, exponents: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Tilted generators for K x E exponents: K x n x n, with the diagonal of L."""
    a, n = net.arrays, net.n_states
    with np.errstate(over="ignore"):  # an inf total fails the eigensolve
        M = np.stack([a.transition_totals(row, n) for row in a.rate * _tilt_factors(exponents)])
    M[:, range(n), range(n)] = L.diagonal()
    return M


def _dominant_eigenvalues(M: np.ndarray) -> list[float]:
    """Dominant eigenvalue of every matrix of the K x n x n stack, in one eigensolve."""
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on tilted generator: {exc}") from exc
    lam = ev[np.arange(len(M)), np.argmax(ev.real, axis=1)]
    scale = np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
    complex_at = np.flatnonzero(np.abs(lam.imag) > 1e-9 * scale)
    if complex_at.size:
        raise NumericalError(
            f"dominant eigenvalue has imaginary part {float(lam.imag[complex_at[0]]):g}; "
            "network may be reducible"
        )
    return lam.real.tolist()


def tilted_generator(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    """Generator with counting-field weights on the off-diagonal entries.

    Off-diagonal (n, m) is the exact sum of rate * exp(chi . d) over channels
    m -> n; the diagonal keeps the untilted escape rates, so chi = 0 returns
    exactly the state generator.
    """
    return _tilted_stack(net, _exponents(net, chi)[None], net.generator.matrix)[0]


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
    means = a.increments @ (a.rate * net.stationary.p[a.from_state])
    return {rec: float(m) for rec, m in zip(net.records, means)}


def noise_matrix(net: ChannelNetwork) -> np.ndarray:
    """Zero-frequency record-noise matrix at stationarity.

    S_munu = 1.L_munu.p - 1.(L_mu R L_nu + L_nu R L_mu).p with R the Drazin
    inverse; symmetric and positive semidefinite.  Over the channel arrays
    this is S = D W D^T - A R B^T - (A R B^T)^T with W = diag(rate p_from),
    A the rate-weighted increments summed by source state (1.L_mu) and B the
    flux-weighted increments summed by destination state (L_nu p).  A matrix
    past the largest double is a NumericalError, not inf or NaN entries.
    """
    a = net.arrays
    R = drazin_inverse(net.generator, net.stationary)
    D = a.increments
    with np.errstate(over="ignore", invalid="ignore"):
        DW = D * (a.rate * net.stationary.p[a.from_state])
        A = ChannelArrays.sum_by(D * a.rate, a.from_state, net.n_states)
        B = ChannelArrays.sum_by(DW, a.to_state, net.n_states)
        C = A @ R @ B.T
        S = DW @ D.T - C - C.T
        S = 0.5 * (S + S.T)
    if not np.isfinite(S).all():
        raise NumericalError("noise matrix exceeds the largest double; rescale the record increments")
    return S


def scgf(net: ChannelNetwork, chi: Mapping[str, float]) -> float:
    """Dominant eigenvalue of the tilted generator (scaled CGF).

    Real and simple for irreducible networks; zero at chi = 0.
    """
    return _dominant_eigenvalues(tilted_generator(net, chi)[None])[0]


def analytic_cumulants(net: ChannelNetwork) -> CumulantReport:
    return CumulantReport(
        records=net.records,
        means=mean_currents(net),
        noise=noise_matrix(net),
        method="analytic",
    )


def _stencil_block(D: np.ndarray, i: int, h: float) -> np.ndarray:
    """Exponents of record i's stencil points, one row per point.

    The rows are +h e_i, -h e_i, then (+h, +h), (+h, -h), (-h, +h), (-h, -h)
    on records (i, j) for every j > i.  One product is what fsum of one term
    returns, and IEEE addition of two products is correctly rounded, as fsum
    of two terms is.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        up, down = h * D[i:], -h * D[i:]
        first = np.stack([up[0], up[0], down[0], down[0]])
        second = np.stack([up[1:], down[1:], up[1:], down[1:]], axis=1)
        pairs = first + second
    # fsum raises where finite terms sum past the largest double (inf - inf fails the eigensolve)
    if np.any(np.isinf(pairs) & np.isfinite(first) & np.isfinite(second)):
        raise NumericalError("weighted record increments exceed the largest double")
    return np.vstack([up[0], down[0], pairs.reshape(-1, D.shape[1])])


def _stencil(records: tuple[str, ...], h: float):
    """Every stencil point as a counting field, in the order of the per-point loop."""
    yield {}
    yield from ({rec: h} for rec in records)
    yield from ({rec: -h} for rec in records)
    for i, ri in enumerate(records):
        for rj in records[i + 1 :]:
            yield from ({ri: si, rj: sj} for si, sj in ((h, h), (h, -h), (-h, h), (-h, -h)))


def cumulants_fd(net: ChannelNetwork, h: float = 1e-4) -> CumulantReport:
    """Means and noise from central differences of the dominant eigenvalue.

    First derivatives use the two-point stencil, the noise diagonal the
    three-point stencil, and mixed entries the four-point stencil.  Each
    record's points are tilted and solved as one stack; every point is
    bitwise what ``scgf`` returns for it.  A failure is replayed point by
    point, so the error names the first failing point of the stencil order.
    """
    L = net.generator.matrix
    net.stationary  # fail early on non-ergodic input
    recs = net.records
    q = len(recs)
    lam0 = _dominant_eigenvalues(L[None])[0]
    D = net.arrays.increments
    try:
        blocks = [_dominant_eigenvalues(_tilted_stack(net, _stencil_block(D, i, h), L)) for i in range(q)]
    except NumericalError:
        for chi in _stencil(recs, h):
            scgf(net, chi)
        raise
    if h * h == 0:
        raise ValidationError(f"finite-difference step {h!r} is too small: its square is zero")
    up = [block[0] for block in blocks]
    down = [block[1] for block in blocks]
    means = {rec: (u - d) / (2 * h) for rec, u, d in zip(recs, up, down)}
    S = np.zeros((q, q))
    for i in range(q):
        S[i, i] = (up[i] - 2 * lam0 + down[i]) / h**2
        for j in range(i + 1, q):
            k = 2 + 4 * (j - i - 1)  # block i's (+h, +h) point on (i, j)
            pp, pm, mp, mm = blocks[i][k : k + 4]
            S[i, j] = S[j, i] = (pp - pm - mp + mm) / (4 * h**2)
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
    weights = np.concatenate([cv * _tilt_factors(_exponents(net, chi)), -cv])
    cells = np.concatenate([a.to_state * n + a.from_state, a.from_state * (n + 1)])
    return ChannelArrays.sum_by(weights[None, :], cells, n * n).reshape(n, n)
