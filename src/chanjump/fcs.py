"""Full counting statistics of record currents.

The tilted generator multiplies every channel rate by exp(sum of counting
fields times that channel's record increments) while keeping the untilted
escape rates on the diagonal, so the zero-field matrix is the plain state
generator.  Long-time cumulants come from its dominant eigenvalue; the mean
and zero-frequency noise also have closed forms in terms of the stationary
state and the Drazin inverse, which is what ``mean_currents`` and
``noise_matrix`` evaluate.  ``cumulants_fd`` is the finite-difference
cross-check on the dominant eigenvalue (Bagrets and Nazarov, PRB 67, 085316
(2003)).  The tilted generator is a Metzler matrix, so that eigenvalue is
its Perron root, and a positive eigenvector certifies it.  A chord
iteration on the network's cached Drazin inverse finds it from the
stationary state with two mat-vecs a step; a point it does not certify
goes through a full eigensolve (``np.linalg.eigvals``).  The whole stencil is
tilted as one stack, in chunks of bounded size, and each point is bitwise
what ``scgf`` returns for it, since one path assembles and solves both.

Sign convention: a counting field chi on record mu weights a channel by
exp(chi * d) where d is the channel's increment for mu.  For the dot
networks built by :mod:`chanjump.dot`, whose entering channels carry heat
increment -(eps - mu_r), this reproduces the usual heat-counting weights
exp(-chi (eps - mu_r)) for electrons entering the dot.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ChanjumpError, NumericalError, ValidationError
from .network import ChannelArrays, ChannelNetwork, checked_vector

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
_EPS = float(np.finfo(float).eps)
_CHORD_STEPS = 12  # chord steps before a point falls back to eigvals
# A noise diagonal below -_VARIANCE_SLACK * eps (2**-6, about 0.016) times the size of the
# terms that form it is a negative variance, not rounding.  The SVD stationary state loses
# relative accuracy on stiff rates, so the bound is loose: a state-function record, whose
# variance is exactly 0, read down to -1e13 eps on random networks with channel rates
# spread over 16 decades, and to -3e14 eps over 20 decades, where it can be refused.  The
# stiff two-state model, rates 1e-300 and 1e300, sits at -1.5e15 eps.
_VARIANCE_SLACK = 2.0**46
# One stack of the finite-difference stencil holds about this many cells, n^2 + E per
# point, so its transient memory does not grow with the number of records.
_STACK_CELLS = 1 << 16


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

    One elementwise np.exp, for a stencil chunk of ``cumulants_fd`` as for
    the one point of ``scgf``; every stencil point stays bitwise ``scgf``
    because np.exp gives an element the same bits whatever array holds it
    (contiguous, strided or single, checked on x86-64 with AVX-512).  np.exp
    differs from math.exp in the last bit on some inputs, and its bits may
    depend on the SIMD support of the CPU.
    """
    flat = exponents.ravel()
    over = np.flatnonzero(flat > _MAX_EXPONENT)
    if over.size:
        raise NumericalError(f"counting-field exponent {float(flat[over[0]]):g} overflows; use smaller fields")
    return np.exp(exponents)


def _exponents(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    """chi . d_e for every channel, each sum correctly rounded."""
    return np.array(net.arrays.weighted(net.record_rows(chi), chi))


def _tilted_stack(net: ChannelNetwork, exponents: np.ndarray) -> np.ndarray:
    """Tilted generators for K x E exponents: K x n x n, with the untilted diagonal."""
    a, n = net.arrays, net.n_states
    with np.errstate(over="ignore"):  # an inf total fails the eigensolve
        M = a.transition_totals(a.rate * _tilt_factors(exponents), n)
    M[:, range(n), range(n)] = net.generator.matrix.diagonal()
    return M


def _scale(M: np.ndarray) -> np.ndarray:
    """max(1, max |M_k|) for every matrix of the stack, without an |M| copy."""
    return np.maximum(1.0, np.maximum(M.max(axis=(1, 2)), -M.min(axis=(1, 2))))


def _dominant_eigenvalues(M: np.ndarray) -> list[float]:
    """Dominant eigenvalue of every matrix of the K x n x n stack, in one eigensolve."""
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on tilted generator: {exc}") from exc
    lam = ev[np.arange(len(M)), np.argmax(ev.real, axis=1)]
    complex_at = np.flatnonzero(np.abs(lam.imag) > 1e-9 * _scale(M))
    if complex_at.size:
        raise NumericalError(
            f"dominant eigenvalue has imaginary part {float(lam.imag[complex_at[0]]):g}; "
            "network may be reducible"
        )
    return lam.real.tolist()


def _chord_roots(M: np.ndarray, p: np.ndarray, R: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Perron roots by a chord iteration on the untilted bordered system; NaN where not certified.

    Each point solves ((M - mu I) v, 1.v - 1) = 0 for x = (v, mu).  The
    Jacobian at the untilted point, [[L, -p], [1, 0]], has the exact inverse
    [[R, p], [-1, 0]] with R the Drazin inverse, so a simplified Newton
    (chord) step costs two mat-vecs and no factorization: with r = (M - mu I) v,
    v <- v - R r and mu <- mu + 1.r.  The step's p (1.v - 1) term is left
    out: 1.R = 0 and 1.p = 1 keep 1.v at 1 up to rounding.  A step's size
    is max(max |dv| / (4 eps max p), |dmu| / tol).  The first step starts
    from (p, 0) and lands on mu = 1.M p, so it never stops a point.  After
    it, a point stops once its size is at most 1, or once the a-posteriori
    bound on the steps still to come, size rho / (1 - rho), is, which saves
    the last step; rho = max(size / last, last / before) over its last
    three sizes, since one ratio alone can come from a component that has
    already died out.  It is certified if then v > 0.  A step that grows
    stops the point uncertified, as does reaching _CHORD_STEPS.  Every
    point is its own mat-vec and stops on its own, so its value does not
    depend on the other points of the stack.
    """
    K, n = M.shape[:2]
    lam = np.full(K, np.nan)
    G = np.empty((n + 1, n))  # maps r to (v - v', mu - mu') = (R r, -1.r)
    G[:n], G[n] = R, -1.0
    X = np.zeros((K, n + 1, 1))  # each point's x = (v, mu), as a column
    X[:, :n, 0] = p
    F = (M @ p)[:, :, None]  # and its residual r
    W = np.full((K, n + 1, 1), 1 / (4 * _EPS * p.max()))  # a step's size is max |dx| W
    W[:, n, 0] = 1 / tol
    rows, Mk, left = np.arange(K), M, K  # the stack rows still iterated; W is NaN on stopped ones
    last = before = np.nan  # the sizes of the two steps before; NaN compares false
    for step in range(_CHORD_STEPS):
        dX = G @ F
        X -= dX
        size = (np.abs(dX, out=dX) * W).max(axis=(1, 2))
        if step:  # the first step only moves mu from 0 to 1.M p
            grown = size + 1
            converged = (size <= 1) | ((size * grown <= last) & (last * grown <= before))
            stop = converged | (size > last)
            if stop.any():
                done = np.flatnonzero(stop)
                good = done[converged[done] & (X[done, :n, 0] > 0).all(axis=1)]
                lam[rows[good]] = X[good, n, 0]
                W[done] = np.nan
                left -= done.size
                if not left:
                    break
                if 2 * left <= rows.size:
                    keep = np.flatnonzero(W[:, n, 0] == W[:, n, 0])
                    rows, X, W, size, last = rows[keep], X[keep], W[keep], size[keep], last[keep]
                    Mk = M[rows]
        before, last = last, size
        F = Mk @ X[:, :n] - X[:, n:] * X[:, :n]
    return lam


def _perron_roots(M: np.ndarray, net: ChannelNetwork) -> list[float]:
    """Dominant eigenvalue of every matrix of the K x n x n stack of tilts of net's generator.

    A Metzler matrix's eigenvalue with a positive eigenvector is its
    dominant one, so a converged, entrywise positive v certifies lam.  Every
    point starts with the chord iteration on net's cached Drazin inverse
    (``_chord_roots``), which converges to |dlam| <= tol = 4 eps
    max(1, max |M|) and stops each point on its own values alone, so a
    point's value does not depend on the other points of the stack.  A
    point it does not certify, every point of a network without a Drazin
    inverse and every point of one without a stationary state go to
    ``_dominant_eigenvalues``.
    """
    try:
        p = net.stationary.p
    except NumericalError:
        return _dominant_eigenvalues(M)
    lam = np.full(len(M), np.nan)  # NaN until certified
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite M fails to converge
        with contextlib.suppress(ChanjumpError):  # no Drazin inverse: every point goes to eigvals
            lam = _chord_roots(M, p, net.drazin, 4 * _EPS * _scale(M))
    rest = np.flatnonzero(np.isnan(lam))
    if rest.size:
        lam[rest] = _dominant_eigenvalues(M[rest])
    return lam.tolist()


def tilted_generator(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    """Generator with counting-field weights on the off-diagonal entries.

    Off-diagonal (n, m) is the exact sum of rate * exp(chi . d) over channels
    m -> n; the diagonal keeps the untilted escape rates, so chi = 0 returns
    exactly the state generator.
    """
    return _tilted_stack(net, _exponents(net, chi)[None])[0]


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
    """Stationary mean rate of every declared record: D (rate * p_from).

    A mean past the largest double is a NumericalError, as in ``records.mean_record``.
    """
    a = net.arrays
    with np.errstate(over="ignore"):
        means = a.increments @ (a.rate * net.stationary.p[a.from_state])
    overflow = np.flatnonzero(~np.isfinite(means))
    if overflow.size:
        raise NumericalError(f"the mean of record {net.records[overflow[0]]!r} exceeds the largest double")
    return dict(zip(net.records, means.tolist()))


def noise_matrix(net: ChannelNetwork) -> np.ndarray:
    """Zero-frequency record-noise matrix at stationarity.

    S_munu = 1.L_munu.p - 1.(L_mu R L_nu + L_nu R L_mu).p with R the Drazin
    inverse; symmetric and positive semidefinite.  Over the channel arrays
    this is S = D W D^T - A R B^T - (A R B^T)^T with W = diag(rate p_from),
    A the rate-weighted increments summed by source state (1.L_mu) and B the
    flux-weighted increments summed by destination state (L_nu p).  A matrix
    past the largest double is a NumericalError, not inf or NaN entries, and
    so is a variance S_mumu below -_VARIANCE_SLACK eps times the size of
    its terms, (D W D^T)_mumu + 2 |(A R B^T)_mumu|.
    """
    a = net.arrays
    R = net.drazin
    D = a.increments
    with np.errstate(over="ignore", invalid="ignore"):
        DW = D * (a.rate * net.stationary.p[a.from_state])
        A = ChannelArrays.sum_by(D * a.rate, a.from_state, net.n_states)
        B = ChannelArrays.sum_by(DW, a.to_state, net.n_states)
        C = A @ R @ B.T
        DWD = DW @ D.T
        S = DWD - C - C.T
        S = 0.5 * (S + S.T)
    if not np.isfinite(S).all():
        raise NumericalError("noise matrix exceeds the largest double; rescale the record increments")
    terms = np.diagonal(DWD) + 2 * np.abs(np.diagonal(C))
    negative = np.flatnonzero(np.diagonal(S) < -_VARIANCE_SLACK * _EPS * terms)
    if negative.size:
        k = negative[0]
        raise NumericalError(
            f"noise of record {net.records[k]!r} is a negative variance, {S[k, k]:g}, "
            f"beyond the rounding of its terms ({terms[k]:g}); the rates may be too stiff"
        )
    return S


def scgf(net: ChannelNetwork, chi: Mapping[str, float]) -> float:
    """Dominant eigenvalue of the tilted generator (scaled CGF).

    Real and simple for irreducible networks; zero at chi = 0.  It is the
    Perron root of the tilted generator, found from the stationary state by
    a chord iteration on the network's cached Drazin inverse and certified
    by a positive eigenvector.  A point the chord does not certify, or a
    network without a stationary state, goes through a full eigensolve
    (``np.linalg.eigvals``) instead.
    """
    return _perron_roots(tilted_generator(net, chi)[None], net)[0]


def analytic_cumulants(net: ChannelNetwork) -> CumulantReport:
    return CumulantReport(
        records=net.records,
        means=mean_currents(net),
        noise=noise_matrix(net),
        method="analytic",
    )


def _stencil_points(q: int) -> np.ndarray:
    """Every stencil point as a row (i, s_i, j, s_j), in the order of the per-point
    loop: chi = 0, +h e_i for every record, -h e_i for every record, then the four
    sign points of every pair (i, j > i).

    The point's exponents are s_i h d_i + s_j h d_j; record index q is a zero
    row, so (q, 1, q, 1) is chi = 0 and (i, s, q, 1) a single-record point.
    """
    rows = [(q, 1, q, 1)] + [(i, s, q, 1) for s in (1, -1) for i in range(q)]
    rows += [(i, si, j, sj) for i in range(q) for j in range(i + 1, q) for si in (1, -1) for sj in (1, -1)]
    return np.array(rows, dtype=np.intp)


def _stencil_exponents(hD: np.ndarray, points: np.ndarray, screen: bool = True) -> np.ndarray:
    """Exponents of the given stencil points, one row per point.

    A product by +-1 is exact, one product is what fsum of one term returns,
    and IEEE addition of two products is correctly rounded, as fsum of two
    terms is; adding the zero row changes only the sign of a zero exponent.
    ``screen`` looks for sums that overflow cell by cell; a caller that
    knows 2 max |hD| is finite passes False, since then none can.
    """
    first = points[:, 1, None] * hD[points[:, 0]]
    second = points[:, 3, None] * hD[points[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = first + second
    # fsum raises where finite terms sum past the largest double (inf - inf fails the eigensolve)
    if screen and np.any(np.isinf(rows) & np.isfinite(first) & np.isfinite(second)):
        raise NumericalError("weighted record increments exceed the largest double")
    return rows


def cumulants_fd(net: ChannelNetwork, h: float = 1e-4) -> CumulantReport:
    """Means and noise from central differences of the dominant eigenvalue.

    First derivatives use the two-point stencil, the noise diagonal the
    three-point stencil, and mixed entries the four-point stencil.  The
    whole stencil, in the order of the per-point loop (chi = 0, +h on every
    record, -h on every record, then the four sign points of every pair), is
    tilted as one stack, split into chunks of about _STACK_CELLS cells, and
    each chunk's Perron roots are found together by ``scgf``'s path: the
    chord on the network's Drazin inverse, then ``eigvals`` for the
    points it leaves; every point is bitwise what ``scgf`` returns for it.
    A failing chunk is replayed point by point through ``scgf``; every
    earlier chunk succeeded, so the error names the first failing point of
    the per-point loop.
    """
    net.stationary  # fail early on non-ergodic input
    if not math.isfinite(h):
        raise ValidationError(f"finite-difference step {h!r} must be finite")
    if h * h == 0:
        raise ValidationError(f"finite-difference step {h!r} is too small: its square is zero")
    recs = net.records
    q = len(recs)
    a = net.arrays
    with np.errstate(over="ignore"):
        hD = np.vstack([h * a.increments, np.zeros(a.increments.shape[1])])
        # doubling is exact, so no two entries sum past 2 max |hD|; NaN or inf screens every cell
        screen = not np.isfinite(2 * np.abs(hD).max(initial=0.0))
    points = _stencil_points(q)
    chunk = max(1, _STACK_CELLS // (net.n_states**2 + net.n_channels))
    lam = []
    for start in range(0, len(points), chunk):
        rows = points[start : start + chunk]
        try:
            lam += _perron_roots(_tilted_stack(net, _stencil_exponents(hD, rows, screen)), net)
        except NumericalError:
            for i, si, j, sj in rows.tolist():
                scgf(net, {recs[k]: s * h for k, s in ((i, si), (j, sj)) if k < q})
            raise
    if q and h * h == math.inf:  # only tiny increments get here; h**2 would raise OverflowError
        raise ValidationError(f"finite-difference step {h!r} is too large: its square overflows")
    h2 = h**2 if q else 1.0  # with no record there is nothing to divide
    lam = np.array(lam)
    lam0, up, down, mixed = lam[0], lam[1 : q + 1], lam[q + 1 : 2 * q + 1], lam[2 * q + 1 :].reshape(-1, 4)
    S = np.zeros((q, q))
    with np.errstate(all="ignore"):  # as Python floats: an overflow gives inf, not a warning
        S[range(q), range(q)] = (up - 2 * lam0 + down) / h2
        i, j = np.triu_indices(q, 1)
        S[i, j] = S[j, i] = (mixed[:, 0] - mixed[:, 1] - mixed[:, 2] + mixed[:, 3]) / (4 * h2)
        means = dict(zip(recs, ((up - down) / (2 * h)).tolist()))
    return CumulantReport(records=recs, means=means, noise=S, method="finite_difference")


def tilted_null_variation(
    net: ChannelNetwork, c, chi: Mapping[str, float]
) -> np.ndarray:
    """First-order change of the tilted generator under a rate perturbation c.

    c perturbs rates, not fluxes: a channel-flux vector f, such as a kernel
    vector or a witness, is the rate change f / p_from.

    Off-diagonal entry (n, m) gets sum over channels m -> n of c_e exp(chi .
    d_e); the diagonal gets the (untilted) escape-rate change, which vanishes
    exactly when c preserves per-transition totals, i.e. for every c in
    ker P.
    """
    cv = checked_vector(c, net.n_channels, "perturbation", " channels")
    a = net.arrays
    n = net.n_states
    weights = np.concatenate([cv * _tilt_factors(_exponents(net, chi)), -cv])
    cells = np.concatenate([a.to_state * n + a.from_state, a.from_state * (n + 1)])
    return ChannelArrays.sum_by(weights[None, :], cells, n * n).reshape(n, n)
