from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from chanjump import (
    NonErgodicError,
    NumericalError,
    build_dot,
    build_generator,
    build_projection,
    drazin_inverse,
    kernel_basis,
    numerical_rank,
    pseudo_inverse,
    stationary_state,
    twin_dot_spec,
)

from conftest import P0, P1, random_ergodic_generator


def test_stationary_two_state():
    L = np.array([[-1.0, 2.0], [1.0, -2.0]])
    ss = stationary_state(L)
    assert ss.ergodic
    assert np.abs(ss.p - np.array([2 / 3, 1 / 3])).max() < 1e-14


def test_stationary_twin_dot():
    net = build_dot(twin_dot_spec())
    ss = stationary_state(build_generator(net))
    assert abs(ss.p[0] - P0) < 1e-10
    assert abs(ss.p[1] - P1) < 1e-10


def test_stationary_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        L = random_ergodic_generator(rng, n)
        p = stationary_state(L).p
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.abs(L @ p).max() < 1e-10 * np.abs(L).max()


def test_stationary_non_ergodic_block_diagonal():
    L1 = np.array([[-1.0, 2.0], [1.0, -2.0]])
    L = scipy.linalg.block_diag(L1, L1)
    with pytest.raises(NonErgodicError) as exc:
        stationary_state(L)
    assert exc.value.null_dim == 2


def test_stationary_agrees_with_long_time_propagation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        L = random_ergodic_generator(rng, n)
        p = stationary_state(L).p
        lam2 = sorted(np.linalg.eigvals(L).real)[-2]
        t = 50.0 / abs(lam2)
        p0 = np.zeros(n)
        p0[0] = 1.0
        pt = scipy.linalg.expm(L * t) @ p0
        assert np.abs(pt - p).max() < 1e-8


def test_drazin_defining_identities_simple():
    L = np.array([[-1.0, 2.0], [1.0, -2.0]])
    ss = stationary_state(L)
    R = drazin_inverse(L, ss)
    Q = np.eye(2) - np.outer(ss.p, np.ones(2))
    assert np.abs(L @ R - Q).max() < 1e-14
    assert np.abs(R @ L - Q).max() < 1e-14
    assert np.abs(R @ ss.p).max() < 1e-14
    assert np.abs(np.ones(2) @ R).max() < 1e-14
    # consistency conditions L R L = L and R L R = R
    assert np.abs(L @ R @ L - L).max() < 1e-13
    assert np.abs(R @ L @ R - R).max() < 1e-13


def test_drazin_identities_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        L = random_ergodic_generator(rng, n)
        ss = stationary_state(L)
        R = drazin_inverse(L, ss)
        Q = np.eye(n) - np.outer(ss.p, np.ones(n))
        scale = max(1.0, np.abs(Q).max())
        assert np.abs(L @ R - Q).max() < 1e-9 * scale
        assert np.abs(R @ L - Q).max() < 1e-9 * scale
        rscale = max(1.0, np.abs(R).max())
        assert np.abs(R @ ss.p).max() < 1e-10 * rscale
        assert np.abs(np.ones(n) @ R).max() < 1e-10 * rscale


def test_drazin_annihilates_stationary():
    L = np.array([[-0.3, 0.9], [0.3, -0.9]])
    ss = stationary_state(L)
    assert np.abs(drazin_inverse(L, ss) @ ss.p).max() < 1e-14


def test_pseudo_inverse_scalar_and_row():
    assert np.allclose(pseudo_inverse(np.array([[2.0]])), [[0.5]])
    M = np.array([[1.0, 1.0]])
    assert np.allclose(pseudo_inverse(M), M.T / 2)


def test_pseudo_inverse_penrose_conditions():
    rng = np.random.default_rng(31)
    for _ in range(20):
        M = rng.standard_normal((5, 7))
        Mp = pseudo_inverse(M)
        assert np.abs(M @ Mp @ M - M).max() < 1e-10
        assert np.abs(Mp @ M @ Mp - Mp).max() < 1e-10
        assert np.abs((M @ Mp) - (M @ Mp).T).max() < 1e-10
        assert np.abs((Mp @ M) - (Mp @ M).T).max() < 1e-10


def test_kernel_basis_single_row():
    kb = kernel_basis(np.array([[1.0, 1.0]]))
    assert kb.dim == 1
    v = kb.vectors[:, 0]
    ref = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(np.abs(v - ref).max(), np.abs(v + ref).max()) < 1e-14


def test_kernel_basis_identity_and_twin_projection():
    assert kernel_basis(np.eye(4)).dim == 0
    proj = build_projection(build_dot(twin_dot_spec()))
    kb = kernel_basis(proj.P)
    assert kb.dim == 2
    assert np.abs(proj.P @ kb.vectors).max() < 1e-14
    # columns orthonormal
    G = kb.vectors.T @ kb.vectors
    assert np.abs(G - np.eye(2)).max() < 1e-12


def test_numerical_rank_cases():
    assert numerical_rank(np.zeros((3, 4))) == 0
    assert numerical_rank(np.array([[-0.5, 1.5], [0.5, -1.5]])) == 1
    assert numerical_rank(np.eye(6)) == 6


def test_rank_plus_kernel_dim_is_column_count():
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(m, n) + 1))
        M = (rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
             if r else np.zeros((m, n)))
        kb = kernel_basis(M)
        assert kb.dim + numerical_rank(M) == n
        assert kb.dim == n - r


def test_a_singular_bordered_system_is_a_numerical_error():
    # two closed pairs: p = (0.5, 0.5, 0, 0) is stationary, but the bordered matrix is singular
    L = np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, -2.0, 2.0], [0.0, 0.0, 2.0, -2.0]])
    with pytest.raises(NumericalError, match=r"^singular bordered system: Singular matrix$"):
        drazin_inverse(L, np.array([0.5, 0.5, 0.0, 0.0]))
