from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanjump import (
    DotSpec,
    NumericalError,
    Reservoir,
    ValidationError,
    build_dot,
    build_generator,
    channel_counts,
    dot_heat_bounds,
    dot_relaxation_matrix,
    dot_stationary,
    dot_totals,
    entropy_production,
    fermi,
    generator_preserving_basis,
    make_twin,
    mean_currents,
    record_interval,
    stationary_state,
    stationary_transition_totals,
    twin_dot_spec,
)

from conftest import (
    ENTER_HI,
    ENTER_LO,
    F_L,
    F_R,
    GAMMA_MINUS,
    GAMMA_PLUS,
    P0,
    P1,
    TWIN_HEAT_DIFF,
)


def random_spec(rng, n_levels=None, n_reservoirs=None):
    nl = int(n_levels if n_levels is not None else rng.integers(1, 5))
    nr = int(n_reservoirs if n_reservoirs is not None else rng.integers(1, 4))
    reservoirs = tuple(
        Reservoir(f"r{k}", float(rng.normal()), float(rng.random() + 0.3)) for k in range(nr)
    )
    couplings = {}
    for i in range(nl):
        for r in reservoirs:
            couplings[(i, r.name, "")] = float(rng.random() + 0.1)
    levels = tuple(float(rng.normal()) for _ in range(nl))
    return DotSpec(levels=levels, reservoirs=reservoirs, couplings=couplings)


def test_fermi_values():
    assert fermi(1.0, 1.0, 1.0) == 0.5
    assert abs(fermi(1.0, 0.5, 1.0) - F_L) < 1e-16
    assert abs(fermi(1.0, -0.5, 1.0) - F_R) < 1e-16


def test_fermi_large_argument_safe():
    val = fermi(50.0, 0.0, 1.0)
    assert 0.0 < val < 1e-20
    assert abs(val - math.exp(-50.0)) < 1e-21
    assert fermi(-50.0, 0.0, 1.0) >= 1.0 - 1e-20


def test_fermi_needs_positive_temperature():
    with pytest.raises(ValidationError):
        fermi(1.0, 0.0, 0.0)


def test_build_dot_twin_rates(twin_net):
    rates = [ch.rate for ch in twin_net.channels]
    assert rates == [F_L, F_R, 1.0 - F_L, 1.0 - F_R]
    # channel order: L-in, R-in, L-out, R-out
    assert [ch.reservoir for ch in twin_net.channels] == ["L", "R", "L", "R"]
    assert [ch.from_state for ch in twin_net.channels] == [0, 0, 1, 1]
    ins = twin_net.channels[0]
    assert ins.increment("heat_L") == -0.5
    assert ins.increment("charge_L") == -1.0
    assert ins.increment("heat_total") == -0.5
    out_r = twin_net.channels[3]
    assert out_r.increment("heat_R") == 1.5
    assert out_r.increment("charge_R") == 1.0


def test_build_dot_zero_coupling_is_structural():
    spec = twin_dot_spec()
    spec = DotSpec(
        levels=spec.levels,
        reservoirs=spec.reservoirs,
        couplings={(0, "L", ""): 1.0, (0, "R", ""): 0.0},
    )
    net = build_dot(spec)
    assert channel_counts(net) == (4, 2)
    assert net.channels[1].rate == 0.0


def test_build_dot_counts_scale_with_contacts():
    rng = np.random.default_rng(5)
    for _ in range(10):
        nl = int(rng.integers(1, 4))
        nr = int(rng.integers(1, 4))
        spec = random_spec(rng, n_levels=nl, n_reservoirs=nr)
        net = build_dot(spec)
        e, e0 = channel_counts(net)
        assert (e, e0) == (2 * nl * nr, 2 * nl)
        assert generator_preserving_basis(net).dim == 2 * nl * (nr - 1)


def test_dot_stationary_closed_forms():
    from chanjump.dot import DotTotals

    t = DotTotals(gamma_plus=np.array([1.0]), gamma_minus=np.array([1.0]))
    assert np.array_equal(dot_stationary(t), np.array([0.5, 0.5]))
    t2 = DotTotals(gamma_plus=np.array([1.0, 1.0]), gamma_minus=np.array([1.0, 1.0]))
    assert np.abs(dot_stationary(t2) - 1 / 3).max() < 1e-15

    totals = dot_totals(twin_dot_spec())
    assert totals.gamma_plus[0] == GAMMA_PLUS
    assert totals.gamma_minus[0] == GAMMA_MINUS
    p = dot_stationary(totals)
    assert abs(p[0] - P0) < 1e-15
    assert abs(p[1] - P1) < 1e-15


def test_dot_stationary_requires_positive_leaving():
    from chanjump.dot import DotTotals

    t = DotTotals(gamma_plus=np.array([1.0]), gamma_minus=np.array([0.0]))
    with pytest.raises(NumericalError):
        dot_stationary(t)


def test_dot_stationary_matches_generic_solver():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_spec(rng, n_levels=int(rng.integers(1, 5)), n_reservoirs=3)
        net = build_dot(spec)
        p_closed = dot_stationary(dot_totals(spec))
        p_generic = stationary_state(build_generator(net)).p
        assert np.abs(p_closed - p_generic).max() < 1e-10


def test_relaxation_matrix_single_level():
    from chanjump.dot import DotTotals

    t = DotTotals(gamma_plus=np.array([0.7]), gamma_minus=np.array([1.1]))
    A = dot_relaxation_matrix(t)
    assert A.shape == (1, 1)
    assert A[0, 0] == -(0.7 + 1.1)


def test_relaxation_matrix_twin_dot_is_minus_two():
    A = dot_relaxation_matrix(dot_totals(twin_dot_spec()))
    assert A[0, 0] == -2.0  # f_L + f_R + (1-f_L) + (1-f_R) with gamma = 1


def test_relaxation_spectrum_matches_generator():
    rng = np.random.default_rng(13)
    for _ in range(10):
        spec = random_spec(rng, n_levels=int(rng.integers(1, 5)), n_reservoirs=2)
        net = build_dot(spec)
        L = build_generator(net).matrix
        A = dot_relaxation_matrix(dot_totals(spec))
        ev_L = np.sort(np.linalg.eigvals(L).real)
        ev_A = np.sort(np.linalg.eigvals(A).real)
        # L has the extra zero mode
        assert np.abs(ev_L[:-1] - ev_A).max() < 1e-10
        assert abs(ev_L[-1]) < 1e-12


def test_make_twin_zero_eta_identity(twin_net):
    assert make_twin(twin_net, 0, "L", "R", 0.0) == twin_net


def test_make_twin_canonical(twin_net):
    twin = make_twin(twin_net, 0, "L", "R", 0.1)
    assert np.array_equal(build_generator(twin).matrix, build_generator(twin_net).matrix)
    diff = mean_currents(twin)["heat_total"] - mean_currents(twin_net)["heat_total"]
    assert abs(diff - TWIN_HEAT_DIFF) < 1e-14
    # shifted rates stay within an ulp-scale rebalance of the ideal values
    assert abs(twin.channels[0].rate - (F_L + 0.1)) < 1e-15
    assert abs(twin.channels[1].rate - (F_R - 0.1)) < 1e-15


def test_make_twin_boundary_empties_channel(twin_net):
    eta = twin_net.channels[1].rate  # all of R-in
    twin = make_twin(twin_net, 0, "L", "R", eta)
    assert twin.channels[1].rate == 0.0
    assert channel_counts(twin) == (4, 2)  # structure retained
    assert np.array_equal(build_generator(twin).matrix, build_generator(twin_net).matrix)


def test_make_twin_eta_out_of_range(twin_net):
    with pytest.raises(ValidationError, match="out of range"):
        make_twin(twin_net, 0, "L", "R", 0.5)
    with pytest.raises(ValidationError, match="no entering channel"):
        make_twin(twin_net, 0, "L", "X", 0.1)


def test_make_twin_negative_eta_shifts_backwards(twin_net):
    twin = make_twin(twin_net, 0, "L", "R", -0.1)
    assert twin.channels[0].rate < F_L
    assert np.array_equal(build_generator(twin).matrix, build_generator(twin_net).matrix)


def test_make_twin_random_specs_bitwise():
    rng = np.random.default_rng(17)
    for _ in range(50):
        spec = random_spec(rng, n_levels=int(rng.integers(1, 4)), n_reservoirs=int(rng.integers(2, 4)))
        net = build_dot(spec)
        level = int(rng.integers(0, len(spec.levels)))
        names = [r.name for r in spec.reservoirs]
        gain, lose = rng.choice(names, size=2, replace=False)
        lose_rate = next(
            ch.rate for ch in net.channels
            if ch.from_state == 0 and ch.to_state == level + 1 and ch.reservoir == lose
        )
        eta = float(rng.random()) * lose_rate
        twin = make_twin(net, level, str(gain), str(lose), eta)
        assert np.array_equal(build_generator(twin).matrix, build_generator(net).matrix)


def test_a_numpy_integer_level_works_in_a_dot_spec_and_in_make_twin(twin_net):
    spec = twin_dot_spec()
    couplings = {(np.int64(i), name, lam): g for (i, name, lam), g in spec.couplings.items()}
    net = build_dot(DotSpec(spec.levels, spec.reservoirs, couplings))
    assert [ch.rate for ch in net.channels] == [ch.rate for ch in twin_net.channels]
    twin, numpy_twin = make_twin(twin_net, 0, "L", "R", 0.1), make_twin(twin_net, np.int64(0), "L", "R", 0.1)
    assert numpy_twin == twin


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_make_twin_keeps_the_generator_on_random_multi_reservoir_dots(data):
    # 1-3 levels, 2-3 reservoirs, each contact through filter "" and maybe "x"; eta anywhere in range
    energy, gamma = st.floats(-3.0, 3.0), st.floats(0.0, 3.0)
    n_levels = data.draw(st.integers(1, 3))
    reservoirs = tuple(
        Reservoir(f"r{k}", data.draw(energy), data.draw(st.floats(0.05, 3.0)))
        for k in range(data.draw(st.integers(2, 3)))
    )
    couplings = {}
    for i in range(n_levels):
        for res in reservoirs:
            couplings[(i, res.name, "")] = data.draw(gamma)
            if data.draw(st.booleans()):
                couplings[(i, res.name, "x")] = data.draw(gamma)
    spec = DotSpec(levels=tuple(data.draw(energy) for _ in range(n_levels)),
                   reservoirs=reservoirs, couplings=couplings)
    net = build_dot(spec)
    level = data.draw(st.integers(0, n_levels - 1))
    gain, lose = data.draw(st.permutations([r.name for r in reservoirs]))[:2]
    # make_twin shifts the lowest-index entering channel of each reservoir
    rate = {
        res: next(ch.rate for ch in net.channels
                  if ch.from_state == 0 and ch.to_state == level + 1 and ch.reservoir == res)
        for res in (gain, lose)
    }
    eta = data.draw(st.floats(-rate[gain], rate[lose]))
    L = build_generator(net).matrix
    L_twin = build_generator(make_twin(net, level, gain, lose, eta)).matrix
    assert np.array_equal(L_twin, L) and np.array_equal(np.signbit(L_twin), np.signbit(L))


def test_heat_bounds_twin_dot(twin_net, twin_spec):
    totals = dot_totals(twin_spec)
    p = stationary_state(build_generator(twin_net)).p
    bounds = dot_heat_bounds(totals, p, twin_spec, [["L", "R"]], [["L", "R"]])
    entering, leaving = bounds[0]
    assert abs(entering.lo - ENTER_LO) < 1e-14
    assert abs(entering.hi - ENTER_HI) < 1e-14
    assert entering.tight_channels[0] == ((0, 1), "R", "L")
    assert leaving.lo <= leaving.hi


def test_heat_bounds_match_generic_interval_exactly():
    rng = np.random.default_rng(19)
    for _ in range(20):
        spec = random_spec(rng, n_levels=int(rng.integers(1, 4)), n_reservoirs=int(rng.integers(1, 4)))
        net = build_dot(spec)
        totals = dot_totals(spec)
        p = stationary_state(build_generator(net)).p
        names = [[r.name for r in spec.reservoirs]] * len(spec.levels)
        bounds = dot_heat_bounds(totals, p, spec, names, names)
        u = stationary_transition_totals(net)
        transitions = net.transitions()
        for i, (entering, leaving) in enumerate(bounds):
            for interval, trans in ((entering, (0, i + 1)), (leaving, (i + 1, 0))):
                u_masked = np.where(
                    [t == trans for t in transitions], u, 0.0
                )
                generic = record_interval(net, u_masked, {"heat_total": 1.0})
                assert generic.lo == interval.lo
                assert generic.hi == interval.hi


def test_heat_bounds_collapse_cases(twin_spec):
    totals = dot_totals(twin_spec)
    p = dot_stationary(totals)
    single = dot_heat_bounds(totals, p, twin_spec, [["L"]], [["R"]])
    entering, leaving = single[0]
    assert entering.lo == entering.hi
    assert leaving.lo == leaving.hi

    flat = twin_dot_spec(mu_left=0.3, mu_right=0.3)
    net = build_dot(flat)
    totals2 = dot_totals(flat)
    p2 = stationary_state(build_generator(net)).p
    both = dot_heat_bounds(totals2, p2, flat, [["L", "R"]], [["L", "R"]])
    assert both[0][0].lo == both[0][0].hi


def test_heat_bounds_validation(twin_spec):
    totals = dot_totals(twin_spec)
    p = dot_stationary(totals)
    with pytest.raises(ValidationError, match="empty"):
        dot_heat_bounds(totals, p, twin_spec, [[]], [["L"]])
    with pytest.raises(ValidationError, match="unknown reservoir"):
        dot_heat_bounds(totals, p, twin_spec, [["Q"]], [["L"]])


def test_equilibrium_dot_is_quiet():
    # single reservoir, and two reservoirs at equal potential and temperature
    for spec in (
        DotSpec(levels=(0.7,), reservoirs=(Reservoir("L", 0.2, 1.3),),
                couplings={(0, "L", ""): 0.8}),
        twin_dot_spec(mu_left=-0.1, mu_right=-0.1),
    ):
        net = build_dot(spec)
        p = stationary_state(build_generator(net)).p
        for rec, val in mean_currents(net).items():
            if rec.startswith("heat"):
                assert abs(val) < 1e-12, rec
        rep = entropy_production(net, p)
        assert abs(rep.resolved) < 1e-12
        assert abs(rep.coarse) < 1e-12


def test_spec_validation():
    with pytest.raises(ValidationError, match="temperature"):
        DotSpec(levels=(1.0,), reservoirs=(Reservoir("L", 0.0, 0.0),), couplings={})
    with pytest.raises(ValidationError, match="unknown reservoir"):
        DotSpec(levels=(1.0,), reservoirs=(Reservoir("L", 0.0, 1.0),),
                couplings={(0, "X", ""): 1.0})
    with pytest.raises(ValidationError, match="unknown level"):
        DotSpec(levels=(1.0,), reservoirs=(Reservoir("L", 0.0, 1.0),),
                couplings={(3, "L", ""): 1.0})


def multi_filter_spec():
    return DotSpec(
        levels=(1.0,),
        reservoirs=(Reservoir("L", 0.5, 1.0), Reservoir("R", -0.5, 1.0)),
        couplings={
            (0, "L", "f1"): 0.4,
            (0, "L", "f2"): 0.6,
            (0, "R", "f1"): 1.0,
        },
    )


def test_multi_filter_dot_structure():
    spec = multi_filter_spec()
    net = build_dot(spec)
    # contacts per level: L/f1, L/f2, R/f1 entering, then leaving
    assert channel_counts(net) == (6, 2)
    assert [(ch.reservoir, ch.filter) for ch in net.channels[:3]] == [
        ("L", "f1"), ("L", "f2"), ("R", "f1"),
    ]
    assert generator_preserving_basis(net).dim == 4
    p_closed = dot_stationary(dot_totals(spec))
    p_generic = stationary_state(build_generator(net)).p
    assert np.abs(p_closed - p_generic).max() < 1e-12


def test_multi_filter_entropy_pairs_by_filter():
    spec = multi_filter_spec()
    net = build_dot(spec)
    p = stationary_state(build_generator(net)).p
    rep = entropy_production(net, p)
    assert rep.resolved >= rep.coarse - 1e-12
    assert math.isfinite(rep.resolved)


def test_make_twin_shifts_lowest_filter_channel():
    spec = multi_filter_spec()
    net = build_dot(spec)
    twin = make_twin(net, 0, "R", "L", 0.05)
    # L/f1 is the lowest-index entering L channel and loses the rate
    assert twin.channels[0].rate < net.channels[0].rate
    assert twin.channels[1].rate == net.channels[1].rate
    assert twin.channels[2].rate > net.channels[2].rate
    assert np.array_equal(build_generator(twin).matrix, build_generator(net).matrix)
