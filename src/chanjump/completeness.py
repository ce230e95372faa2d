"""Record completeness of state dynamics.

The state generator only fixes per-transition total rates, so any channel
redistribution in ker P (the generator-invisible space) leaves it unchanged.
A set of records is complete when its increment matrix D annihilates that
kernel; otherwise some record direction is lost, and ``completeness_test``
returns how many (the rank of D restricted to ker P) together with the worst
witness direction.  ``remaining_kernel`` and ``predictability_test`` answer
the follow-up question: given some measured records, which further records
are already pinned down?

P groups channels by transition, so restricting a record map to ker P
subtracts each transition's mean increment: O(q E), no decomposition of P.

``quotient_form`` builds the effective quadratic fluctuation cost of the
transition totals, obtained by minimizing a diagonal channel-current cost
over all redistributions producing the same totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import DEFAULT_TOL, KernelBasis, numerical_rank
from .network import (
    ChannelArrays,
    ChannelNetwork,
    RecordMap,
    build_projection,
    channel_counts,
)

__all__ = [
    "CompletenessVerdict",
    "QuotientForm",
    "generator_preserving_basis",
    "completeness_test",
    "remaining_kernel",
    "predictability_test",
    "quotient_form",
    "first_order_record_change",
    "velocity_only_kernel_dim",
]


@dataclass(frozen=True)
class CompletenessVerdict:
    """Outcome of a kernel test.

    ``witness`` is a unit channel-space vector with P c = 0 and D c != 0,
    present exactly when the verdict is incomplete; ``witness_image`` is its
    record image D c.  ``lost_rank`` counts the independent record directions
    not reconstructible from state dynamics.
    """

    complete: bool
    witness: np.ndarray | None
    lost_rank: int
    witness_image: np.ndarray | None = None


@dataclass(frozen=True)
class QuotientForm:
    """Quadratic cost of transition-total fluctuations.

    Q is the pseudoinverse of P R_inv P^T for a positive-diagonal channel
    covariance R_inv; cost(u) = u^T Q u / 2.
    """

    Q: np.ndarray
    R_inv_source: str

    def cost(self, u) -> float:
        uv = np.asarray(u, dtype=float)
        return 0.5 * float(uv @ self.Q @ uv)


def _record_matrix(D, n_channels: int, what: str) -> np.ndarray:
    A = D.D if isinstance(D, RecordMap) else np.asarray(D, dtype=float)
    A = A.reshape(0, n_channels) if A.size == 0 else np.atleast_2d(A)
    if A.shape[1] != n_channels:
        raise ValidationError(
            f"{what} has {A.shape[1]} columns, expected {n_channels} channels"
        )
    return A


def generator_preserving_basis(net: ChannelNetwork, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Orthonormal basis of ker P, the generator-invisible channel space.

    Its dimension is exactly E - E0: one independent redistribution per
    excess channel on a transition.  A transition's k channels (in channel
    order) get the k - 1 Helmert columns, so the basis is exact and ``tol``
    is only recorded.
    """
    a = net.arrays
    V = np.zeros((net.n_channels, net.n_channels - len(a.counts)))
    col = 0
    for lo, hi in a.spans:
        group = a.grouped[lo:hi]
        for j in range(1, len(group)):
            V[group[:j], col] = 1.0 / math.sqrt(j * (j + 1))
            V[group[j], col] = -j / math.sqrt(j * (j + 1))
            col += 1
    V.flags.writeable = False
    return KernelBasis(vectors=V, dim=V.shape[1], tolerance=tol)


def _fix_sign(c: np.ndarray) -> np.ndarray:
    for x in c:
        if abs(x) > 1e-12:
            return c if x > 0 else -c
    return c


def _restricted_rank(D: np.ndarray, DK: np.ndarray, dim: int, tol: float):
    """(rank, Vh) of DK, the rows of D projected onto a kernel of dimension dim.

    Singular values count against tol times the largest one of D itself, so
    an exactly annihilated kernel compares against the record scale rather
    than against roundoff noise.
    """
    if dim == 0 or D.shape[0] == 0:
        return 0, None
    try:
        smax_D = float(np.linalg.svd(D, compute_uv=False)[0])
        _, s, Vh = np.linalg.svd(DK, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # e.g. increments so large that centring overflows
        raise NumericalError(f"SVD of the record map failed: {exc}") from exc
    return min(int(np.sum(s > tol * smax_D)), dim), Vh


def _kernel_verdict(D: np.ndarray, DK: np.ndarray, dim: int, tol: float) -> CompletenessVerdict:
    lost, Vh = _restricted_rank(D, DK, dim, tol)
    if lost == 0:
        return CompletenessVerdict(complete=True, witness=None, lost_rank=0)
    c = _fix_sign(Vh[0].copy())
    c.flags.writeable = False
    image = D @ c
    image.flags.writeable = False
    return CompletenessVerdict(complete=False, witness=c, lost_rank=lost, witness_image=image)


def _hidden_dim(net: ChannelNetwork) -> int:
    e, e0 = channel_counts(net)
    return e - e0


def completeness_test(net: ChannelNetwork, D, tol: float = DEFAULT_TOL) -> CompletenessVerdict:
    """Are the records of D determined by the state generator alone?

    Complete iff D c = 0 for every c in ker P, equivalently iff every row of
    D lies in the row space of P.  When incomplete, the witness is the kernel
    direction with the largest record image (sign fixed so its first nonzero
    component is positive).
    """
    Dm = _record_matrix(D, net.n_channels, "record map")
    return _kernel_verdict(Dm, net.arrays.centred(Dm), _hidden_dim(net), tol)


def _measured_rows(net: ChannelNetwork, D_meas, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the centred D_meas, one per unit of its rank."""
    Dm = _record_matrix(D_meas, net.n_channels, "measured record map")
    rank, Vh = _restricted_rank(Dm, net.arrays.centred(Dm), _hidden_dim(net), tol)
    return Vh[:rank] if rank else np.zeros((0, net.n_channels))


def _remaining_dim(net: ChannelNetwork, D_meas, tol: float = DEFAULT_TOL) -> int:
    """Dimension of ``remaining_kernel``: (E - E0) - rank(centred D_meas)."""
    return _hidden_dim(net) - len(_measured_rows(net, D_meas, tol))


def remaining_kernel(net: ChannelNetwork, D_meas, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Generator-invisible directions not resolved by the measured records.

    The kernel of the stacked matrix [P; D_meas]: the generator-preserving
    directions orthogonal to the centred measured rows.  Empty measured rows
    give back the full generator-preserving basis.
    """
    Q = _measured_rows(net, D_meas, tol)
    K = generator_preserving_basis(net, tol)
    if len(Q) == 0:
        return K
    _, _, Vh = np.linalg.svd(Q @ K.vectors)
    basis = K.vectors @ Vh[len(Q):].T
    basis.flags.writeable = False
    return KernelBasis(vectors=basis, dim=basis.shape[1], tolerance=tol)


def predictability_test(
    net: ChannelNetwork, D_meas, D_tar, tol: float = DEFAULT_TOL
) -> CompletenessVerdict:
    """Is the target record fixed once the generator and D_meas are known?

    Decided like ``completeness_test`` on the centred target rows with their
    component along the centred measured rows removed.
    """
    Dt = _record_matrix(D_tar, net.n_channels, "target record map")
    Q = _measured_rows(net, D_meas, tol)
    Tc = net.arrays.centred(Dt)
    return _kernel_verdict(Dt, Tc - (Tc @ Q.T) @ Q, _hidden_dim(net) - len(Q), tol)


def quotient_form(net: ChannelNetwork, R_inv=None) -> QuotientForm:
    """Effective quadratic cost of transition-current fluctuations.

    R_inv is the diagonal channel-current covariance; by default the
    stationary channel traffic rate_e * p_from(e), the independent-Poisson
    choice.  Supplying R_inv (a positive diagonal, as a vector or a diagonal
    matrix) overrides it.  P R_inv P^T is diagonal, holding the per-transition
    sums of R_inv, so Q is their reciprocal; as in a pseudoinverse at rcond
    1e-10, a sum at most 1e-10 times the largest gives 0.
    """
    e = net.n_channels
    arrays = net.arrays
    if R_inv is None:
        diag = arrays.rate * net.stationary.p[arrays.from_state]
        source = "stationary_traffic"
        if not np.all(diag > 0):
            raise ValidationError(
                "stationary traffic is not strictly positive; supply R_inv explicitly"
            )
    else:
        A = np.asarray(R_inv, dtype=float)
        if A.ndim == 2:
            if A.shape != (e, e) or np.any(A != np.diag(np.diag(A))):
                raise ValidationError("R_inv must be diagonal of size E x E")
            diag = np.diag(A).copy()
        elif A.ndim == 1 and A.size == e:
            diag = A.copy()
        else:
            raise ValidationError(f"R_inv must be a length-{e} diagonal")
        source = "user_supplied"
        if not np.all(diag > 0):
            raise ValidationError("R_inv diagonal must be strictly positive")
    g = ChannelArrays.sum_by(diag[None, :], arrays.transition, len(arrays.counts))[0]
    kept = g > DEFAULT_TOL * g.max()
    Q = np.diag(np.divide(1.0, g, out=np.zeros_like(g), where=kept))
    Q.flags.writeable = False
    return QuotientForm(Q=Q, R_inv_source=source)


def first_order_record_change(net: ChannelNetwork, c, p, mu: str) -> float:
    """Record-rate change, to first order, under the rate perturbation c.

    Evaluates sum_e d_e c_e p_from(e); zero for every p exactly when the
    record is insensitive to the redistribution c.
    """
    (row,) = net.record_rows([mu])
    cv = np.asarray(c, dtype=float)
    if cv.shape != (net.n_channels,):
        raise ValidationError(
            f"perturbation has length {cv.size}, expected {net.n_channels} channels"
        )
    pv = np.asarray(p, dtype=float)
    if pv.shape != (net.n_states,):
        raise ValidationError("probability vector has wrong length")
    arrays = net.arrays
    d = arrays.increments[row]
    return float(np.sum(d * cv * pv[arrays.from_state]))


def velocity_only_kernel_dim(net: ChannelNetwork, tol: float = DEFAULT_TOL) -> int:
    """Dimension of ker(BP): hidden directions under velocity-only observation.

    Informational count only.  Knowing just an instantaneous state velocity
    (instead of the full generator) additionally hides closed loops through
    the transition network; this reports the combined dimension.  P has
    full row rank, so this is E - rank(B) on the N x E0 incidence matrix B.
    """
    return net.n_channels - numerical_rank(build_projection(net).B, tol)
