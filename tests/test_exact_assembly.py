"""Generator assembly from exact per-transition sums.

``reference_build_generator``, ``reference_tilted_generator`` and
``reference_dot_totals`` are the per-channel dict-of-lists assembly and the
Fermi-sum dot totals the library used before it summed over the transition
grouping of ``net.arrays``, kept here verbatim as the reference, except that
the tilt factors call np.exp, as the library does.  math.fsum is correctly
rounded, so both must agree bit for bit, the sign of every zero included.
``reference_cumulants_fd`` is the per-point finite-difference loop (one
tilted generator and one eigensolve per stencil point) that the stacked
stencil of ``cumulants_fd`` replaced.  The stack adds each cell's terms in
channel order, so every stacked tilted generator must equal
``channel_order_tilted_generator`` bitwise and the first error must be the
same; each Perron root must lie within 1e-12 max(1, max |M|) of that
matrix's ``eigvals`` root, and means and noise must be bitwise what the
per-point loop gives on the library's ``scgf``.  With the math.exp tilt
the library used before, the FD cumulants of the benchmark models must
stay within 1e-6 of their scale, and so must they with
``newton_perron_roots``, the bordered Newton on every point that the
library ran before its chord iteration, and with ``fsum_tilted_stack``,
the fsum-exact stack it summed before it added in channel order.  The
property tests check that rescaling every rate by a power of two rescales
the generator exactly and leaves every verdict alone, and that no model
document, however extreme its numbers, makes the CLI raise.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanjump import (
    ChannelNetwork,
    CumulantReport,
    DotSpec,
    Reservoir,
    build_dot,
    build_generator,
    build_record_map,
    completeness_test,
    cumulants_fd,
    dot_totals,
    load_network,
    make_twin,
    mean_currents,
    noise_matrix,
    predictability_test,
    record_interval,
    scgf,
    stationary_state,
    stationary_transition_totals,
    tilted_generator,
    twin_dot_spec,
)
from chanjump import fcs
from chanjump.cli import main
from chanjump.dot import _level_contacts, fermi
from chanjump.errors import ChanjumpError, NonErgodicError, NumericalError, ValidationError

from conftest import make_network, random_network, read_report, stray_non_finite, wide_numbers

_MAX_EXPONENT = 700.0


# ---------------------------------------------------------------------------
# reference: the per-channel assembly, verbatim


def reference_build_generator(net: ChannelNetwork) -> np.ndarray:
    n = net.n_states
    cells: dict[tuple[int, int], list[float]] = defaultdict(list)
    for ch in net.channels:
        cells[(ch.to_state, ch.from_state)].append(ch.rate)
    L = np.zeros((n, n))
    for (i, j), rates in cells.items():
        L[i, j] = math.fsum(rates)
    for m in range(n):
        L[m, m] = -math.fsum(L[i, m] for i in range(n) if i != m)
    L.flags.writeable = False
    return L


def _check_fields(net: ChannelNetwork, chi: Mapping[str, float]) -> None:
    declared = set(net.records)
    for key in chi:
        if key not in declared:
            raise ValidationError(f"unknown record name {key!r} in counting field")


def _tilt_factors(net: ChannelNetwork, chi: Mapping[str, float]) -> list[float]:
    """exp(chi . d_e) for every channel, refusing exponents that overflow."""
    exponents = net.arrays.weighted([net.records.index(r) for r in chi], chi)
    for x in exponents:
        if x > _MAX_EXPONENT:
            raise NumericalError(f"counting-field exponent {x:g} overflows; use smaller fields")
    return [float(np.exp(x)) for x in exponents]


def reference_tilted_generator(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    _check_fields(net, chi)
    M = np.array(reference_build_generator(net))
    off: dict[tuple[int, int], list[float]] = {}
    for ch, factor in zip(net.channels, _tilt_factors(net, chi)):
        off.setdefault((ch.to_state, ch.from_state), []).append(ch.rate * factor)
    for (i, j), terms in off.items():
        M[i, j] = math.fsum(terms)
    return M


def channel_order_tilted_generator(net: ChannelNetwork, chi: Mapping[str, float]) -> np.ndarray:
    """The stack's tilt: from zero, rate * np.exp(chi . d) added channel by channel into
    M[to, from], in channel order; the diagonal keeps the untilted escape rates."""
    _check_fields(net, chi)
    n = net.n_states
    M = np.zeros((n, n))
    with np.errstate(over="ignore"):  # a cell past the largest double reads inf
        for ch, factor in zip(net.channels, _tilt_factors(net, chi)):
            M[ch.to_state, ch.from_state] += ch.rate * factor
    M[range(n), range(n)] = np.diag(reference_build_generator(net))
    return M


def reference_dot_totals(spec: DotSpec) -> tuple[np.ndarray, np.ndarray]:
    gp, gm = [], []
    for i, eps in enumerate(spec.levels):
        contacts = _level_contacts(spec, i)
        gp.append(math.fsum(g * fermi(eps, res.mu, res.temperature) for res, _, g in contacts))
        gm.append(math.fsum(g * (1.0 - fermi(eps, res.mu, res.temperature)) for res, _, g in contacts))
    plus = np.array(gp)
    minus = np.array(gm)
    plus.flags.writeable = False
    minus.flags.writeable = False
    return plus, minus


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


# ---------------------------------------------------------------------------
# bitwise equality with the reference


def wide_network(rng) -> ChannelNetwork:
    """Random pairs without a ring, so some states may have no outgoing channel.

    Rates are zero (either sign) about one time in six and otherwise spread
    over 24 decades; increments are Gaussian, some missing.
    """
    n = int(rng.integers(2, 8))
    records = ["a", "b", "c"]
    channels = []
    for _ in range(int(rng.integers(1, 3 * n))):
        m, k = (int(x) for x in rng.choice(n, size=2, replace=False))
        for copy in range(int(rng.integers(1, 5))):
            draw = rng.random()
            if draw < 0.1:
                rate = 0.0
            elif draw < 0.17:
                rate = -0.0
            else:
                rate = float(rng.random() * 10.0 ** rng.uniform(-12, 12))
            incs = {r: float(rng.standard_normal()) for r in records if rng.random() < 0.8}
            channels.append((m, k, f"r{copy}", rate, "", incs))
    return make_network([f"s{i}" for i in range(n)], channels, records)


def check_generators(net, rng) -> None:
    L = build_generator(net).matrix
    assert bitwise_equal(L, reference_build_generator(net))
    assert not L.flags.writeable
    a, b, c = net.records
    for chi in ({}, {a: 0.0}, {a: float(rng.normal(0, 0.3))},
                {b: float(rng.normal(0, 0.3)), c: float(rng.normal(0, 0.3))},
                {a: float(rng.normal(0, 0.3)), b: float(rng.normal(0, 0.3)), c: float(rng.normal(0, 0.3))}):
        assert bitwise_equal(tilted_generator(net, chi), reference_tilted_generator(net, chi))


def test_generators_match_reference_on_random_networks():
    rng = np.random.default_rng(20261018)
    no_escape = 0
    for _ in range(300):
        net = wide_network(rng)
        check_generators(net, rng)
        no_escape += int(np.signbit(np.diag(build_generator(net).matrix)).sum() > 0)
    assert no_escape > 0  # the -0.0 diagonal of a state without outgoing rate was exercised


def test_generators_match_reference_on_the_twin():
    net = build_dot(twin_dot_spec())
    twin = make_twin(net, 0, "L", "R", 0.1)
    chi = {"heat_L": 0.2, "heat_total": -0.1}
    for device in (net, twin):
        assert bitwise_equal(build_generator(device).matrix, reference_build_generator(device))
        assert bitwise_equal(tilted_generator(device, chi), reference_tilted_generator(device, chi))
    assert bitwise_equal(build_generator(twin).matrix, build_generator(net).matrix)


def random_dot_spec(rng) -> DotSpec:
    levels = tuple(float(x) for x in rng.normal(0, 2, size=int(rng.integers(1, 4))))
    reservoirs = tuple(
        Reservoir(f"R{k}", float(rng.normal(0, 2)), float(rng.uniform(0.05, 3)))
        for k in range(int(rng.integers(1, 4)))
    )
    couplings = {}
    for i in range(len(levels)):
        for res in reservoirs:
            for filt in ("", "x"):
                if rng.random() < 0.5:
                    couplings[(i, res.name, filt)] = 0.0 if rng.random() < 0.1 else float(rng.uniform(0, 3))
    return DotSpec(levels=levels, reservoirs=reservoirs, couplings=couplings)


def test_dot_totals_match_reference():
    rng = np.random.default_rng(5)
    with_couplings = 0
    for _ in range(300):
        spec = random_dot_spec(rng)
        with_couplings += bool(spec.couplings)
        totals = dot_totals(spec)
        plus, minus = reference_dot_totals(spec)
        assert bitwise_equal(totals.gamma_plus, plus)
        assert bitwise_equal(totals.gamma_minus, minus)
        assert not totals.gamma_plus.flags.writeable and not totals.gamma_minus.flags.writeable
    assert with_couplings > 200


def test_dot_totals_without_couplings_are_zero():
    spec = DotSpec(levels=(0.5, -1.0), reservoirs=(Reservoir("L", 0.0, 1.0),), couplings={})
    totals = dot_totals(spec)
    plus, minus = reference_dot_totals(spec)
    assert bitwise_equal(totals.gamma_plus, plus) and bitwise_equal(totals.gamma_minus, minus)


# ---------------------------------------------------------------------------
# finite-difference cumulants: the per-point loop, verbatim, as the reference


def reference_scgf(net: ChannelNetwork, chi: Mapping[str, float]) -> float:
    """The per-point ``scgf``, tilting with the reference assembly above."""
    return reference_root(reference_tilted_generator(net, chi))


def reference_root(M: np.ndarray) -> float:
    """Dominant eigenvalue from the full eigensolve."""
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


def reference_cumulants_fd(net: ChannelNetwork, h: float = 1e-4, root=reference_scgf):
    stationary_state(build_generator(net))  # fail early on non-ergodic input
    recs = net.records
    q = len(recs)
    lam0 = root(net, {})
    up = [root(net, {rec: h}) for rec in recs]
    down = [root(net, {rec: -h}) for rec in recs]
    means = {rec: (u - d) / (2 * h) for rec, u, d in zip(recs, up, down)}
    S = np.zeros((q, q))
    for i, ri in enumerate(recs):
        S[i, i] = (up[i] - 2 * lam0 + down[i]) / h**2
        for j in range(i + 1, q):
            rj = recs[j]
            S[i, j] = S[j, i] = (
                root(net, {ri: h, rj: h})
                - root(net, {ri: h, rj: -h})
                - root(net, {ri: -h, rj: h})
                + root(net, {ri: -h, rj: -h})
            ) / (4 * h**2)
    return CumulantReport(records=recs, means=means, noise=S, method="finite_difference")


def fd_outcome(fd, net, h):
    """Records, means and noise of one finite-difference evaluation, or its error's type and text."""
    try:
        result = fd(net, h)
    except ChanjumpError as exc:
        return type(exc), str(exc)
    return list(result.means), np.array(list(result.means.values())), result.noise


def stencil_fields(records, h):
    """The stencil in stack order: chi = 0, +h on every record, -h on every record, then the mixed points."""
    fields = [{}] + [{rec: h} for rec in records] + [{rec: -h} for rec in records]
    for i, ri in enumerate(records):
        for rj in records[i + 1 :]:
            fields += [{ri: si, rj: sj} for si, sj in ((h, h), (h, -h), (-h, h), (-h, -h))]
    return fields


def stacked_fd(net, h):
    """``cumulants_fd``'s outcome, with every tilted generator it solved and its root."""
    solved = []
    perron_roots = fcs._perron_roots

    def record(M, p):
        lam = perron_roots(M, p)
        solved.extend(zip(M.copy(), lam))
        return lam

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fcs, "_perron_roots", record)
        outcome = fd_outcome(cumulants_fd, net, h)
    return outcome, solved


ROOT_BOUND = 1e-12  # |lam - eigvals| relative to max(1, max |M|)


def assert_same_fd(net, h) -> bool:
    """Library and reference agree; True when both succeeded.

    Errors and every tilted generator are bitwise the channel-order
    reference's, roots are within ROOT_BOUND of its eigvals roots, and means
    and noise are bitwise the per-point loop's on the library's ``scgf``.
    """
    reference = {}

    def root(n, chi):
        M = channel_order_tilted_generator(n, chi)
        lam = reference_root(M)
        reference[tuple(chi.items())] = M, lam
        return lam

    got, solved = stacked_fd(net, h)
    want = fd_outcome(lambda n, step: reference_cumulants_fd(n, step, root), net, h)
    assert len(got) == len(want)
    if len(want) == 2:
        assert got == want
        return False
    fields = stencil_fields(net.records, h)
    assert len(solved) == len(fields)
    for (M, lam), chi in zip(solved, fields):
        R, eig = reference[tuple(chi.items())]
        assert bitwise_equal(M, R)
        assert abs(lam - eig) <= ROOT_BOUND * max(1.0, float(np.abs(M).max()))
    assert got[0] == want[0]
    per_point = fd_outcome(lambda n, step: reference_cumulants_fd(n, step, root=scgf), net, h)
    assert bitwise_equal(got[1], per_point[1]) and bitwise_equal(got[2], per_point[2])
    return True


def fd_network(rng) -> ChannelNetwork:
    """Two-way ring plus random pairs, 1-4 channels per transition, 1-8 records.

    The first channel of every transition has a positive rate; the others are
    zero (either sign) about one time in six and otherwise spread over eight
    decades.  Increments are Gaussian on a random scale, some missing.
    """
    n = int(rng.integers(2, 7))
    records = [f"x{r}" for r in range(int(rng.integers(1, 9)))]
    pairs = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    pairs += [tuple(int(x) for x in rng.choice(n, size=2, replace=False)) for _ in range(int(rng.integers(0, n)))]
    channels = []
    for m, k in dict.fromkeys(pairs):
        for copy in range(int(rng.integers(1, 5))):
            draw = rng.random()
            if copy and draw < 0.1:
                rate = 0.0
            elif copy and draw < 0.17:
                rate = -0.0
            else:
                rate = float(rng.uniform(0.1, 1.0) * 10.0 ** rng.uniform(-4, 4))
            scale = 10.0 ** rng.uniform(-2, 1)
            incs = {r: float(scale * rng.standard_normal()) for r in records if rng.random() < 0.8}
            channels.append((m, k, f"r{copy}", rate, "", incs))
    return make_network([f"s{i}" for i in range(n)], channels, records)


def test_cumulants_fd_matches_the_per_point_loop_on_random_networks():
    rng = np.random.default_rng(20261019)
    solved = 0
    for _ in range(120):
        net = fd_network(rng)
        solved += assert_same_fd(net, float(rng.choice([1e-4, 1e-3, 1e-2, 0.1])))
    assert solved >= 100


def test_cumulants_fd_matches_the_per_point_loop_on_the_twin():
    net = build_dot(twin_dot_spec())
    for device in (net, make_twin(net, 0, "L", "R", 0.1)):
        for h in (1e-4, 1e-2):
            assert assert_same_fd(device, h)


def test_cumulants_fd_raises_at_the_first_failing_point():
    # -h on x and +h on y overflow; the loop meets +h on y before -h on x
    net = make_network(
        ["a", "b"],
        [(0, 1, "r", 1.0, "", {"x": -8.0}), (1, 0, "r", 2.0, "", {"y": 7.5})],
        ["x", "y"],
    )
    assert fd_outcome(cumulants_fd, net, 100.0) == (
        NumericalError, "counting-field exponent 750 overflows; use smaller fields"
    )
    assert_same_fd(net, 100.0)
    # only the mixed points overflow: 400 + 400 on the (x, y) pair
    both = make_network(["a", "b"], [(0, 1, "r", 1.0, "", {"x": 1.0, "y": 1.0}), (1, 0, "r", 2.0)], ["x", "y"])
    assert fd_outcome(cumulants_fd, both, 400.0) == (
        NumericalError, "counting-field exponent 800 overflows; use smaller fields"
    )
    assert_same_fd(both, 400.0)


def test_cumulants_fd_errors_match_the_per_point_loop():
    rng = np.random.default_rng(77)
    failed = 0
    for _ in range(40):
        failed += not assert_same_fd(fd_network(rng), float(rng.choice([300.0, 1e4, 1e308])))
    assert failed >= 30
    broken = make_network(["a", "b", "c"], [(0, 1, "r", 1.0, "", {"n": 1.0}), (1, 0, "r", 1.0)], ["n"])
    assert fd_outcome(cumulants_fd, broken, 1e-4)[0] is NonErgodicError
    assert not assert_same_fd(broken, 1e-4)


def replayed_fd(net, h, points_per_chunk, monkeypatch):
    """``cumulants_fd``'s outcome at the given chunk size, with the fields it replayed through ``scgf``."""
    replayed = []

    def counted(n, chi):
        replayed.append(chi)
        return scgf(n, chi)

    monkeypatch.setattr(fcs, "_STACK_CELLS", points_per_chunk * (net.n_states**2 + net.n_channels))
    monkeypatch.setattr(fcs, "scgf", counted)
    return fd_outcome(cumulants_fd, net, h), replayed


@pytest.mark.parametrize("points_per_chunk", [1, 2, 4])
def test_only_the_failing_chunk_is_replayed(points_per_chunk, monkeypatch):
    # at h = 400 only the mixed (+h, +h) points overflow (400 + 400), and they come after
    # the 2q + 1 single-record points, so the failing chunk is a late one
    recs = ["w", "x", "y", "z"]
    net = make_network(["a", "b"], [(0, 1, "r", 1.0, "", dict.fromkeys(recs, 1.0)), (1, 0, "r", 2.0)], recs)
    per_point = fd_outcome(lambda n, step: reference_cumulants_fd(n, step, root=scgf), net, 400.0)
    assert per_point == (NumericalError, "counting-field exponent 800 overflows; use smaller fields")
    outcome, replayed = replayed_fd(net, 400.0, points_per_chunk, monkeypatch)
    assert outcome == per_point
    assert 0 < len(replayed) <= points_per_chunk
    assert replayed[-1] == {"w": 400.0, "x": 400.0}


def test_a_replayed_chunk_names_the_per_point_error(monkeypatch):
    rng = np.random.default_rng(91)
    failed = 0
    for _ in range(30):
        net = fd_network(rng)
        h = float(rng.choice([30.0, 300.0, 1e4]))
        points_per_chunk = int(rng.integers(1, 6))
        per_point = fd_outcome(lambda n, step: reference_cumulants_fd(n, step, root=scgf), net, h)
        with monkeypatch.context() as mp:
            outcome, replayed = replayed_fd(net, h, points_per_chunk, mp)
        assert len(outcome) == len(per_point) and len(replayed) <= points_per_chunk
        if len(outcome) == 2:
            failed += 1
            assert outcome == per_point
        else:
            assert not replayed and outcome[0] == per_point[0]
            assert bitwise_equal(outcome[1], per_point[1]) and bitwise_equal(outcome[2], per_point[2])
    assert failed >= 10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), h=st.sampled_from([1e-4, 1e-3, 1e-2, 0.1, 0.3]))
def test_every_stencil_point_is_its_own_scgf(seed, h):
    # a point's root does not depend on the other points of its stack
    net = fd_network(np.random.default_rng(seed))
    outcome, solved = stacked_fd(net, h)
    if len(outcome) == 2:
        return
    for (M, lam), chi in zip(solved, stencil_fields(net.records, h)):
        assert lam == scgf(net, chi)
        eig = fcs._dominant_eigenvalues(M[None])[0]
        assert abs(lam - eig) <= ROOT_BOUND * max(1.0, float(np.abs(M).max()))


def test_scgf_is_the_root_of_the_exact_tilted_generator():
    # scgf solves the channel-order stack, not the fsum-exact matrix of tilted_generator;
    # its root must still lie within ROOT_BOUND of that matrix's eigvals root
    rng = np.random.default_rng(20261022)
    checked = 0
    for _ in range(100):
        net = fd_network(rng)
        for _ in range(3):
            chi = {rec: float(rng.normal(0, 0.3)) for rec in net.records if rng.random() < 0.7}
            with contextlib.suppress(NumericalError):
                M = tilted_generator(net, chi)
                lam, eig = scgf(net, chi), fcs._dominant_eigenvalues(M[None])[0]
                assert abs(lam - eig) <= ROOT_BOUND * max(1.0, float(np.abs(M).max()))
                checked += 1
    assert checked >= 250


@pytest.mark.parametrize("seed", [14, 79])
def test_the_chord_does_not_stop_on_one_ratio_of_steps(seed):
    # at h = 0.3 on these networks, stopping on size * rho / (1 - rho) <= 1 with rho the
    # last ratio of step sizes alone left roots up to 2.5e-12 of their scale off
    net = fd_network(np.random.default_rng(seed))
    outcome, solved = stacked_fd(net, 0.3)
    assert len(outcome) == 3
    for M, lam in solved:
        assert abs(lam - fcs._dominant_eigenvalues(M[None])[0]) <= ROOT_BOUND * max(1.0, float(np.abs(M).max()))


def plain_newton(M, p, steps=8):
    """Bordered Newton from (p, 1.M p) without the positivity certificate."""
    n = len(M)
    v, lam = p, float((M @ p).sum())
    for _ in range(steps):
        B = np.zeros((n + 1, n + 1))
        B[:n, :n] = M - lam * np.eye(n)
        B[:n, n] = -v
        B[n, :n] = 1.0
        x = np.linalg.solve(B, np.eye(n + 1)[n])
        v, lam = x[:n], lam + x[n]
    return lam, v


def test_an_uncertified_root_falls_back_to_eigvals(monkeypatch):
    # at this field Newton from the stationary state converges to another
    # eigenvalue, whose eigenvector has entries of both signs
    net = fd_network(np.random.default_rng(337))
    chi = {"x0": -1.0}
    M = tilted_generator(net, chi)
    wrong, v = plain_newton(M, net.stationary.p)
    eig = fcs._dominant_eigenvalues(M[None])[0]
    assert not (v > 0).all() and eig - wrong > 10.0
    assert scgf(net, chi) == eig
    assert fcs._perron_roots(np.stack([tilted_generator(net, {}), M]), net)[1] == eig
    # a point that has not converged when the step cap is hit falls back too
    monkeypatch.setattr(fcs, "_CHORD_STEPS", 2)
    for field in ({"x0": 1e-3}, {"x0": 0.1}, chi):
        assert scgf(net, field) == fcs._dominant_eigenvalues(tilted_generator(net, field)[None])[0]


def math_exp_tilt_factors(exponents: np.ndarray) -> np.ndarray:
    """The library's tilt before it took np.exp: one math.exp per exponent."""
    flat = exponents.ravel()
    over = np.flatnonzero(flat > _MAX_EXPONENT)
    if over.size:
        raise NumericalError(f"counting-field exponent {float(flat[over[0]]):g} overflows; use smaller fields")
    return np.fromiter(map(math.exp, flat.tolist()), float, flat.size).reshape(exponents.shape)


def benchmark_models(seed: int) -> dict[str, dict]:
    """The FD-sized ladder rungs and the small models of perfbench/models.py at one seed."""
    spec = importlib.util.spec_from_file_location("models", Path(__file__).parents[1] / "perfbench" / "models.py")
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    ladder = models.ladder_models(seed, [rung for rung in models.LADDER if rung[0] <= models.FD_MAX_N])
    return {**ladder, **models.small_models(seed)}


@pytest.mark.parametrize("seed", [7, 11])
def test_the_np_exp_tilt_moves_fd_cumulants_by_rounding_only(seed, monkeypatch):
    # np.exp and math.exp differ in the last bit on some inputs; that must not
    # move the FD means or noise past 1e-6 of their scale
    for name, doc in benchmark_models(seed).items():
        net = load_network(doc)
        got = cumulants_fd(net)
        with monkeypatch.context() as mp:
            mp.setattr(fcs, "_tilt_factors", math_exp_tilt_factors)
            want = cumulants_fd(net)
        means, want_means = np.array(list(got.means.values())), np.array(list(want.means.values()))
        assert np.abs(means - want_means).max() <= 1e-6 * max(1.0, float(np.abs(want_means).max())), name
        assert np.abs(got.noise - want.noise).max() <= 1e-6 * max(1.0, float(np.abs(want.noise).max())), name


def newton_perron_roots(M: np.ndarray, p: np.ndarray) -> list[float]:
    """The library's Perron roots before the chord: bordered Newton on every point, then eigvals.

    Verbatim, but for the ``fcs.`` prefixes, the step cap of 8 written out and one
    np.linalg.solve for the stack in place of the library's per-system retry of a
    singular stack, which no benchmark model needs.
    """
    K, n = M.shape[:2]
    tol = 4 * fcs._EPS * fcs._scale(M)
    lam = np.full(K, np.nan)  # NaN until certified
    B = np.zeros((K, n + 1, n + 1))  # reused: every step rewrites the first k systems
    B[:, n, :n] = 1.0
    rhs = np.zeros((K, n + 1, 1))
    rhs[:, n] = 1.0
    running = np.arange(K)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite M fails to converge
        mu = (M @ p).sum(axis=1)
        v = np.broadcast_to(p, (K, n))
        for _ in range(8):
            k = running.size
            B[:k, :n, :n] = M if k == K else M[running]
            B[:k, range(n), range(n)] -= mu[:, None]
            B[:k, :n, n] = -v
            x = np.linalg.solve(B[:k], rhs[:k])[:, :, 0]
            v, step = x[:, :n], x[:, n]
            mu = mu + step
            stop = ~(np.abs(step) > tol[running])  # converged, or NaN: the solve failed
            certified = stop & np.isfinite(step) & (v > 0).all(axis=1)
            lam[running[certified]] = mu[certified]
            running, mu, v = running[~stop], mu[~stop], v[~stop]
            if not running.size:
                break
    uncertified = np.flatnonzero(np.isnan(lam))
    if uncertified.size:
        lam[uncertified] = fcs._dominant_eigenvalues(M[uncertified])
    return lam.tolist()


@pytest.mark.parametrize("seed", [7, 11])
def test_the_chord_moves_fd_cumulants_by_rounding_only(seed, monkeypatch):
    # the chord stops on its own rule, so its roots differ from Newton's in the last
    # bits; that must not move the FD means or noise past 1e-6 of their scale, every
    # root must stay within ROOT_BOUND of eigvals, and no point may need eigvals
    eigvals = fcs._dominant_eigenvalues
    for name, doc in benchmark_models(seed).items():
        net = load_network(doc)
        fallbacks = []
        with monkeypatch.context() as mp:
            mp.setattr(fcs, "_dominant_eigenvalues", lambda M: fallbacks.append(len(M)) or eigvals(M))
            got, solved = stacked_fd(net, 1e-4)
        assert not fallbacks, name
        for M, lam in solved:
            assert abs(lam - eigvals(M[None])[0]) <= ROOT_BOUND * max(1.0, float(np.abs(M).max())), name
        with monkeypatch.context() as mp:
            mp.setattr(fcs, "_perron_roots", lambda M, net: newton_perron_roots(M, net.stationary.p))
            want = fd_outcome(cumulants_fd, net, 1e-4)
        assert got[0] == want[0], name
        assert np.abs(got[1] - want[1]).max() <= 1e-6 * max(1.0, float(np.abs(want[1]).max())), name
        assert np.abs(got[2] - want[2]).max() <= 1e-6 * max(1.0, float(np.abs(want[2]).max())), name


def fsum_tilted_stack(net: ChannelNetwork, exponents: np.ndarray) -> np.ndarray:
    """The library's stack before it added in channel order: every row's totals by fsum."""
    a, n = net.arrays, net.n_states
    M = np.stack([a.transition_totals(row, n) for row in a.rate * fcs._tilt_factors(exponents)])
    M[:, range(n), range(n)] = net.generator.matrix.diagonal()
    return M


@pytest.mark.parametrize("seed", [7, 11])
def test_the_channel_order_stack_moves_fd_cumulants_by_rounding_only(seed, monkeypatch):
    # a channel-order sum rounds after every term, fsum once per cell; that must not move
    # the FD means or noise past 1e-6 of their scale
    moved = 0
    for name, doc in benchmark_models(seed).items():
        net = load_network(doc)
        got = fd_outcome(cumulants_fd, net, 1e-4)
        with monkeypatch.context() as mp:
            mp.setattr(fcs, "_tilted_stack", fsum_tilted_stack)
            want = fd_outcome(cumulants_fd, net, 1e-4)
        assert got[0] == want[0], name
        assert np.abs(got[1] - want[1]).max() <= 1e-6 * max(1.0, float(np.abs(want[1]).max())), name
        assert np.abs(got[2] - want[2]).max() <= 1e-6 * max(1.0, float(np.abs(want[2]).max())), name
        moved += not bitwise_equal(got[2], want[2])
    assert moved  # the two sums differ on some model


def test_an_overflowing_stencil_is_screened_cell_by_cell():
    # 2 max |h d| overflows here, so every cell is screened; the (+h, +h) sum of the two
    # records is -inf, and the error must still be the per-point loop's first one
    net = make_network(["a", "b"], [(0, 1, "r", 1.0, "", {"x": -1e308, "y": -1e308}), (1, 0, "r", 2.0)], ["x", "y"])
    hD = np.vstack([net.arrays.increments, np.zeros(2)])
    mixed = fcs._stencil_points(2)[-4:-3]
    with pytest.raises(NumericalError, match="weighted record increments exceed the largest double"):
        fcs._stencil_exponents(hD, mixed)
    assert fd_outcome(cumulants_fd, net, 1.0) == (NumericalError, "counting-field exponent 1e+308 overflows; use smaller fields")
    assert_same_fd(net, 1.0)


# ---------------------------------------------------------------------------
# rate rescaling


def relclose(a, b, tol=1e-12) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = float(np.abs(b).max(initial=0.0))
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= tol * scale


def _verdicts(net):
    D = build_record_map(net, net.records)
    measured = build_record_map(net, net.records[:1])
    u = stationary_transition_totals(net)
    interval = record_interval(net, u, {net.records[0]: 1.0, net.records[2]: -0.5})
    return {
        "lost": completeness_test(net, D).lost_rank,
        "targets": [
            (v.complete, v.lost_rank)
            for v in (predictability_test(net, measured, build_record_map(net, [r]))
                      for r in net.records[1:])
        ],
        "tight": interval.tight_channels,
    }, interval


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-40, 40))
def test_rate_rescaling_by_a_power_of_two(seed, k):
    net = random_network(np.random.default_rng(seed), n_records=3)
    c = 2.0**k
    scaled = ChannelNetwork(
        states=net.states,
        channels=tuple(replace(ch, rate=ch.rate * c) for ch in net.channels),
        records=net.records,
    )
    assert np.array_equal(build_generator(scaled).matrix, c * build_generator(net).matrix)
    assert relclose(stationary_state(build_generator(scaled)).p, stationary_state(build_generator(net)).p)

    means, means_scaled = mean_currents(net), mean_currents(scaled)
    assert relclose([means_scaled[r] for r in net.records], [c * means[r] for r in net.records])
    assert relclose(noise_matrix(scaled), c * noise_matrix(net))

    (verdicts, interval), (verdicts_scaled, interval_scaled) = _verdicts(net), _verdicts(scaled)
    assert verdicts == verdicts_scaled
    assert relclose([interval_scaled.lo, interval_scaled.hi], [c * interval.lo, c * interval.hi])


# ---------------------------------------------------------------------------
# no document makes the CLI raise

_EXTREME = [0, 0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 3, -1.0, 1e300, 1e308, -1e308,
            10**400, -(10**400), math.inf, math.nan]

documents = st.integers(2, 4).flatmap(
    lambda n: st.fixed_dictionaries({
        "states": st.just([f"s{i}" for i in range(n)]),
        "records": st.sampled_from([["x"], ["x", "y"]]),
        "channels": st.lists(
            st.fixed_dictionaries({
                "ends": st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                "reservoir": st.sampled_from(["r", "t"]),
                "rate": st.sampled_from(_EXTREME),
                "increments": st.dictionaries(st.sampled_from(["x", "y"]), st.sampled_from(_EXTREME)),
            }),
            min_size=1, max_size=6,
        ),
    })
)


def _model(doc) -> dict:
    records = doc["records"]
    channels = [
        {"from": f"s{ch['ends'][0]}", "to": f"s{ch['ends'][1]}", "reservoir": ch["reservoir"],
         "rate": ch["rate"], "increments": {r: v for r, v in ch["increments"].items() if r in records}}
        for ch in doc["channels"]
    ]
    return {"states": doc["states"], "records": records, "channels": channels}


def _conjugate_pair(rate, x) -> dict:
    """A two-state document: s0 -> s1 with increment x and s1 -> s0 with -x, both at ``rate``."""
    return {"states": ["s0", "s1"], "records": ["x"], "channels": [
        {"ends": [0, 1], "reservoir": "r", "rate": rate, "increments": {"x": x}},
        {"ends": [1, 0], "reservoir": "r", "rate": rate, "increments": {"x": -x}},
    ]}


@pytest.mark.filterwarnings("ignore::UserWarning")  # simulate warns of a non-ergodic network; nothing else may warn
@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=documents, weights=st.lists(st.one_of(st.sampled_from(["1", "-1", "0.5", "1e308"]), wide_numbers),
                                       min_size=2, max_size=2))
# two jumps of 1e308 each: the record total of a trajectory overflows
@example(doc={"states": ["s0", "s1"], "records": ["x"], "channels": [
    {"ends": ends, "reservoir": "r", "rate": 1.0, "increments": {"x": 1e308}} for ends in ([0, 1], [1, 0])
]}, weights=["1", "1"])
# the interval is finite, but the hull points 5 * 1e308 overflow
@example(doc=_conjugate_pair(10.0, 1e308), weights=["1e-300", "1"])
# the endpoint products 5e9 * 1e300 overflow
@example(doc=_conjugate_pair(1e10, 1e300), weights=["1", "1"])
def test_extreme_documents_never_raise(doc, weights, tmp_path_factory):
    model = _model(doc)
    directory = tmp_path_factory.mktemp("fuzz")
    path, report = directory / "model.json", directory / "report.json"
    path.write_text(json.dumps(model))
    records = model["records"]
    direction = sum((["--direction", f"{r}={w}"] for r, w in zip(records, weights)), [])
    for argv in (
        ["analyze", str(path)],
        ["analyze", str(path), "--fd"],
        ["bounds", str(path)] + direction,
        ["diagnose", str(path), "--measured", records[0], "--target", records[-1]],
        ["simulate", str(path), "--seed", "1", "--trajectories", "3", "--horizon", "10"],
        ["simulate", str(path), "--seed", "1", "--trajectories", "3", "--jumps", "2"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json", str(report)])
        assert code in (0, 1, 2)
        assert code == 0 or "error:" in err.getvalue()
        if code == 0:
            assert stray_non_finite(read_report(report)) == [], argv
