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
from .linalg import DEFAULT_TOL, KernelBasis
from .network import (
    ChannelArrays,
    ChannelNetwork,
    RecordMap,
    channel_counts,
    checked_vector,
    graph_walk,
)
from .records import stationary_transition_totals

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

    ``witness`` is a unit vector c of channel-flux changes with P c = 0 and
    D c != 0, present exactly when the verdict is incomplete;
    ``witness_image`` is D c, the record-rate change it causes.  ``lost_rank``
    counts the independent record directions not reconstructible from state
    dynamics.
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
        uv = checked_vector(u, len(self.Q), "u", " transitions")
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
    """Orthonormal basis of ker P, the generator-invisible channel-flux redistributions.

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

    Each row of D and DK is divided by that row's largest |d| (a zero row
    stays zero), so every record counts against its own scale, not against
    the largest record's.  The scaled singular values then count against
    tol times the largest one of the scaled D, so an exactly annihilated
    kernel compares against the record scale rather than against roundoff
    noise.  Vh, for the witness and the measured rows, is the unscaled
    DK's; it is None when the rank is 0.
    """
    if dim == 0 or D.shape[0] == 0:
        return 0, None
    row_max = np.abs(D).max(axis=1, keepdims=True)
    scale = np.where(row_max > 0, row_max, 1.0)
    try:
        smax_D = float(np.linalg.svd(D / scale, compute_uv=False)[0])
        s = np.linalg.svd(DK / scale, compute_uv=False)
        rank = min(int(np.sum(s > tol * smax_D)), dim)
        return rank, np.linalg.svd(DK, full_matrices=False)[2] if rank else None
    except np.linalg.LinAlgError as exc:  # e.g. increments so large that centring overflows
        raise NumericalError(f"SVD of the record map failed: {exc}") from exc


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

    Complete iff D c = 0 for every channel-flux change c in ker P,
    equivalently iff every row of D lies in the row space of P.  When
    incomplete, the witness is the kernel direction with the largest record
    image (sign fixed so its first nonzero component is positive).
    """
    Dm = _record_matrix(D, net.n_channels, "record map")
    return _kernel_verdict(Dm, net.arrays.centred(Dm), _hidden_dim(net), tol)


def _measured_rows(net: ChannelNetwork, D_meas, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the centred D_meas, one per unit of its rank."""
    Dm = _record_matrix(D_meas, net.n_channels, "measured record map")
    rank, Vh = _restricted_rank(Dm, net.arrays.centred(Dm), _hidden_dim(net), tol)
    return Vh[:rank] if rank else np.zeros((0, net.n_channels))


def remaining_kernel(net: ChannelNetwork, D_meas, tol: float = DEFAULT_TOL) -> KernelBasis:
    """Generator-invisible channel-flux directions not resolved by the measured records.

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
    component along the centred measured rows removed; the witness is a flux change.
    """
    Dt = _record_matrix(D_tar, net.n_channels, "target record map")
    Q = _measured_rows(net, D_meas, tol)
    Tc = net.arrays.centred(Dt)
    return _kernel_verdict(Dt, Tc - (Tc @ Q.T) @ Q, _hidden_dim(net) - len(Q), tol)


def quotient_form(net: ChannelNetwork, R_inv=None) -> QuotientForm:
    """Effective quadratic cost of transition-current fluctuations.

    R_inv is the diagonal channel-current covariance, by default the
    stationary traffic rate_e * p_from(e) (independent Poisson; positive on
    every channel), whose per-transition sums are the generator's stationary
    totals u, so Q = diag(1/u).  A supplied R_inv (a positive diagonal, as a
    vector or a diagonal matrix) is summed per transition, P R_inv P^T; as in
    a pseudoinverse at rcond 1e-10, a sum at most 1e-10 times the largest gives 0.
    """
    e = net.n_channels
    arrays = net.arrays
    if R_inv is None:
        if not np.all(arrays.rate * net.stationary.p[arrays.from_state] > 0):
            raise ValidationError(
                "stationary traffic is not strictly positive; supply R_inv explicitly"
            )
        g, source = stationary_transition_totals(net), "stationary_traffic"
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
    record is insensitive to the redistribution c.  c perturbs rates: a
    channel-flux vector f (a kernel vector or witness) is the rate change
    f / p_from, which moves record mu by (D f)[mu].
    """
    (row,) = net.record_rows([mu])
    cv = checked_vector(c, net.n_channels, "perturbation", " channels")
    pv = checked_vector(p, net.n_states, "probability vector")
    arrays = net.arrays
    d = arrays.increments[row]
    return float(np.sum(d * cv * pv[arrays.from_state]))


def velocity_only_kernel_dim(net: ChannelNetwork, tol: float = DEFAULT_TOL) -> int:
    """Dimension of ker(BP): hidden directions under velocity-only observation.

    Informational count only.  Knowing just an instantaneous state velocity
    (instead of the full generator) additionally hides closed loops through
    the transition network; this reports the combined dimension.  P has
    full row rank, so this is E - rank(B) for the N x E0 incidence matrix B,
    and rank(B) is N minus the number of connected components of the
    undirected transition graph, isolated states included.  The count is
    exact, read off the graph; ``tol`` is unused.
    """
    frm, to = net.arrays.pairs.T
    components = len(set(graph_walk(net.n_states, np.concatenate([frm, to]), np.concatenate([to, frm]))))
    return net.n_channels - net.n_states + components
