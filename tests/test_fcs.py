from __future__ import annotations

import json
import math

import numpy as np
import pytest

from chanjump import (
    NumericalError,
    ValidationError,
    analytic_cumulants,
    build_dot,
    build_generator,
    cumulants_fd,
    drazin_inverse,
    generator_preserving_basis,
    make_twin,
    mean_currents,
    noise_matrix,
    scgf,
    stationary_state,
    tilt_derivatives,
    tilted_generator,
    tilted_null_variation,
    twin_dot_spec,
)
from chanjump import cli, fcs

from conftest import (
    F_L,
    F_R,
    J_HEAT_L,
    J_HEAT_R,
    J_HEAT_TOTAL,
    S_HEAT_A,
    TWIN_HEAT_DIFF,
    make_network,
    random_network,
    read_report,
    two_state_cycle,
)


def heat_block(net, S):
    idx = [net.records.index(r) for r in ("heat_L", "heat_R")]
    return S[np.ix_(idx, idx)]


def test_tilted_at_zero_equals_generator_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        net = random_network(rng)
        assert np.array_equal(tilted_generator(net, {}), build_generator(net).matrix)
        assert np.array_equal(
            tilted_generator(net, {"rec0": 0.0}), build_generator(net).matrix
        )


def test_tilted_twin_dot_heat_entry(twin_net):
    chi = 0.37
    M = tilted_generator(twin_net, {"heat_L": chi})
    expected = F_L * math.exp(-chi * 0.5) + F_R
    assert abs(M[1, 0] - expected) < 1e-15
    # diagonal stays untilted
    assert M[0, 0] == build_generator(twin_net).matrix[0, 0]


def test_tilted_single_channel():
    net = make_network(
        ["a", "b"], [(0, 1, "r", 0.8, "", {"n": 2.0}), (1, 0, "r", 1.0)], ["n"]
    )
    M = tilted_generator(net, {"n": 0.3})
    assert abs(M[1, 0] - 0.8 * math.exp(0.6)) < 1e-15


def test_tilted_overflow_guarded():
    net = two_state_cycle()
    with pytest.raises(NumericalError, match="smaller"):
        tilted_generator(net, {"n": 800.0})


def test_tilted_unknown_record():
    with pytest.raises(ValidationError, match="unknown record"):
        tilted_generator(two_state_cycle(), {"nope": 1.0})


def test_tilt_derivatives_zero_increments():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 1.0)], ["n"])
    L1, L2 = tilt_derivatives(net, "n", "n")
    assert not L1.any() and not L2.any()


def test_tilt_derivatives_twin_dot(twin_net):
    L1, _ = tilt_derivatives(twin_net, "heat_total", "heat_total")
    assert abs(L1[1, 0] - (-0.5 * F_L - 1.5 * F_R)) < 1e-15
    assert L1[0, 0] == 0.0 and L1[1, 1] == 0.0


def test_tilt_derivatives_match_finite_difference():
    # (L(h) - L(-h)) / 2h approximates the first tilt derivative to O(h^2)
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(10):
        net = random_network(rng, n_records=2)
        rec = "rec0"
        L1, _ = tilt_derivatives(net, rec, rec)
        fd = (tilted_generator(net, {rec: h}) - tilted_generator(net, {rec: -h})) / (2 * h)
        np.fill_diagonal(fd, 0.0)
        assert np.abs(fd - L1).max() < 1e-8 * max(1.0, np.abs(L1).max())


def test_mean_currents_equilibrium_dot():
    net = build_dot(twin_dot_spec(mu_left=0.2, mu_right=0.2))
    means = mean_currents(net)
    for rec, val in means.items():
        assert abs(val) < 1e-12, rec


def test_mean_currents_two_state_cycle():
    assert abs(mean_currents(two_state_cycle())["n"] - 0.5) < 1e-14


def test_mean_currents_twin_dot_values(twin_net):
    means = mean_currents(twin_net)
    assert abs(means["heat_L"] - J_HEAT_L) < 1e-14
    assert abs(means["heat_R"] - J_HEAT_R) < 1e-14
    assert abs(means["heat_total"] - J_HEAT_TOTAL) < 1e-14


def test_twin_pair_heat_difference(twin_net):
    twin = make_twin(twin_net, 0, "L", "R", 0.1)
    diff = mean_currents(twin)["heat_total"] - mean_currents(twin_net)["heat_total"]
    assert abs(diff - TWIN_HEAT_DIFF) < 1e-14


def test_noise_two_state_cycle():
    S = noise_matrix(two_state_cycle())
    assert abs(S[0, 0] - 0.25) < 1e-13


def test_noise_zero_increments():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0), (1, 0, "r", 1.0)], ["n"])
    assert not noise_matrix(net).any()


def test_noise_twin_dot_heat_block(twin_net):
    S = heat_block(twin_net, noise_matrix(twin_net))
    assert np.abs(S - S_HEAT_A).max() < 1e-12


def test_twin_pair_noise_differs(twin_net):
    twin = make_twin(twin_net, 0, "L", "R", 0.1)
    S_a = heat_block(twin_net, noise_matrix(twin_net))
    S_b = heat_block(twin, noise_matrix(twin))
    assert np.linalg.norm(S_a - S_b) > 1e-3


def test_noise_symmetric_positive_semidefinite():
    rng = np.random.default_rng(29)
    for _ in range(30):
        net = random_network(rng, n_states=int(rng.integers(2, 6)), n_records=3)
        S = noise_matrix(net)
        assert np.abs(S - S.T).max() < 1e-10
        assert np.linalg.eigvalsh(S).min() >= -1e-9


def test_scgf_zero_field(twin_net):
    assert abs(scgf(twin_net, {})) < 1e-12
    assert abs(scgf(two_state_cycle(), {"n": 0.0})) < 1e-12


def test_scgf_derivatives_match_cumulants():
    net = two_state_cycle()
    h = 1e-4
    d1 = (scgf(net, {"n": h}) - scgf(net, {"n": -h})) / (2 * h)
    assert abs(d1 - 0.5) < 1e-8
    d2 = (scgf(net, {"n": h}) - 2 * scgf(net, {}) + scgf(net, {"n": -h})) / h**2
    assert abs(d2 - 0.25) < 1e-6


def test_scgf_gradient_and_hessian_random():
    # unit-scale increments keep the third cumulant small enough for the
    # pinned step h = 1e-4 to reach the stated tolerances
    rng = np.random.default_rng(37)
    h = 1e-4
    for _ in range(10):
        net = random_network(rng, n_states=int(rng.integers(2, 6)), n_records=2,
                             inc_scale=0.5)
        means = mean_currents(net)
        S = noise_matrix(net)
        for i, rec in enumerate(net.records):
            d1 = (scgf(net, {rec: h}) - scgf(net, {rec: -h})) / (2 * h)
            assert abs(d1 - means[rec]) < 1e-8 * max(1.0, abs(means[rec]))
            d2 = (scgf(net, {rec: h}) - 2 * scgf(net, {}) + scgf(net, {rec: -h})) / h**2
            assert abs(d2 - S[i, i]) < 1e-6 * max(1.0, abs(S[i, i]))


def test_cumulants_fd_two_state():
    rep = cumulants_fd(two_state_cycle())
    assert rep.method == "finite_difference"
    assert abs(rep.means["n"] - 0.5) < 1e-8
    assert abs(rep.noise[0, 0] - 0.25) < 1e-6


def test_cumulants_fd_matches_analytic_twin_dot(twin_net):
    fd = cumulants_fd(twin_net, h=1e-4)
    an = analytic_cumulants(twin_net)
    for rec in twin_net.records:
        assert abs(fd.means[rec] - an.means[rec]) < 1e-6 * max(1.0, abs(an.means[rec]))
    assert np.abs(fd.noise - an.noise).max() < 1e-6 * max(1.0, np.abs(an.noise).max())


def test_cumulants_fd_zero_increment_record():
    net = make_network(
        ["a", "b"],
        [(0, 1, "r", 1.0, "", {"n": 1.0}), (1, 0, "r", 1.0)],
        ["n", "silent"],
    )
    rep = cumulants_fd(net)
    assert abs(rep.means["silent"]) < 1e-8
    i = rep.records.index("silent")
    assert abs(rep.noise[i, i]) < 1e-8


def test_cumulants_fd_solves_one_stack_per_record(monkeypatch):
    from chanjump import fcs, network

    net = random_network(np.random.default_rng(8), n_records=5)
    calls = {"eigvals": 0, "build_generator": 0, "_perron_roots": 0}
    eigvals, build, roots = np.linalg.eigvals, network.build_generator, fcs._perron_roots

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", eigvals))
    monkeypatch.setattr(network, "build_generator", counted("build_generator", build))
    monkeypatch.setattr(fcs, "_perron_roots", counted("_perron_roots", roots))
    cumulants_fd(net)
    # the per-point loop made 2q + 1 + 2q(q - 1) = 51 eigensolves and as many assemblies;
    # the whole stencil is now one stack, every point certified
    assert calls == {"eigvals": 0, "build_generator": 1, "_perron_roots": 1}


def test_the_chord_certifies_a_stack_with_a_zero_matrix(twin_net):
    # the zero matrix is a tilt whose root the chord certifies at once, 0.0; the other
    # point of the stack must still get its own root
    from chanjump import fcs

    M = tilted_generator(twin_net, {"heat_L": 0.3})
    stack = np.stack([M, np.zeros_like(M)])
    chord = fcs._perron_roots(M[None], twin_net)[0]
    tol = 4 * fcs._EPS * fcs._scale(stack)
    certified = fcs._chord_roots(stack, twin_net.stationary.p, twin_net.drazin, tol).tolist()
    assert certified == fcs._perron_roots(stack, twin_net) == [chord, 0.0]  # the chord certifies both
    assert abs(chord - fcs._dominant_eigenvalues(M[None])[0]) <= 1e-15


def test_a_chord_root_without_a_positive_eigenvector_is_not_certified():
    # M has the eigenpair (0, v), v = (1 + 1e-6, -1e-6), next to p = (1 - 1e-6, 1e-6), and the
    # chord converges to it; v has a negative entry, so neither iteration certifies the root
    from chanjump import fcs

    net = make_network(["a", "b"], [(0, 1, "r", 1e-6, "", {"n": 1.0}), (1, 0, "r", 1.0)], ["n"])
    L, v = net.generator.matrix, np.array([1 + 1e-6, -1e-6])
    M = (L - np.outer(L @ v, v) / (v @ v))[None]
    tol = 4 * fcs._EPS * fcs._scale(M)
    assert np.isnan(fcs._chord_roots(M, net.stationary.p, net.drazin, tol)).all()
    assert fcs._perron_roots(M, net) == fcs._dominant_eigenvalues(M)


def test_two_closed_classes_send_every_point_to_eigvals(monkeypatch):
    # without a stationary state the chord cannot start, so every root is eigvals' own
    from chanjump import fcs

    net = make_network(
        ["a", "b", "c", "d"],
        [(0, 1, "r", 1.0, "", {"x": 1.0}), (1, 0, "r", 1.0), (2, 3, "r", 1.0), (3, 2, "r", 1.0)],
        ["x"],
    )
    calls = []
    chord = fcs._chord_roots
    monkeypatch.setattr(fcs, "_chord_roots", lambda *args: calls.append(args) or chord(*args))
    fields = (0.3, -1.2, math.log(4.0))
    M = np.stack([tilted_generator(net, {"x": chi}) for chi in fields])
    alone = [fcs._dominant_eigenvalues(m[None])[0] for m in M]
    assert np.array([scgf(net, {"x": chi}) for chi in fields]).tobytes() == np.array(alone).tobytes()
    assert np.array(fcs._perron_roots(M, net)).tobytes() == np.array(fcs._dominant_eigenvalues(M)).tobytes()
    assert calls == []


def test_a_complex_dominant_eigenvalue_is_refused():
    from chanjump import fcs

    with pytest.raises(NumericalError, match=r"^dominant eigenvalue has imaginary part 1; network may be reducible$"):
        fcs._dominant_eigenvalues(np.array([[[0.0, -1.0], [1.0, 0.0]]]))


def test_the_drazin_inverse_is_solved_once_per_network(monkeypatch):
    from chanjump import linalg

    net = random_network(np.random.default_rng(5), n_records=3)
    calls = []
    solve = linalg.drazin_inverse
    monkeypatch.setattr(linalg, "drazin_inverse", lambda *args: calls.append(args) or solve(*args))
    noise_matrix(net)
    cumulants_fd(net)
    scgf(net, {net.records[0]: 0.1})
    assert len(calls) == 1 and net.drazin is net.drazin
    assert net.drazin.tobytes() == solve(net.generator, net.stationary).tobytes()


def test_a_failed_drazin_solve_is_cached_and_the_roots_go_to_eigvals(monkeypatch):
    from chanjump import fcs, linalg

    calls, eigvals = [], []

    def failing(*args):
        calls.append(args)
        raise NumericalError("singular bordered system: no pivot")

    roots = fcs._dominant_eigenvalues
    monkeypatch.setattr(linalg, "drazin_inverse", failing)
    monkeypatch.setattr(fcs, "_dominant_eigenvalues", lambda M: eigvals.append(len(M)) or roots(M))
    net = random_network(np.random.default_rng(6), n_records=2)
    for _ in range(2):
        with pytest.raises(NumericalError, match="singular bordered system: no pivot"):
            noise_matrix(net)
    assert len(calls) == 1
    fd = cumulants_fd(net)
    assert eigvals == [2 * 2**2 + 1]  # the whole stencil, in one eigensolve
    assert np.isfinite(fd.noise).all()
    broken = make_network(["a", "b", "c"], [(0, 1, "r", 1.0, "", {"n": 1.0}), (1, 0, "r", 1.0)], ["n"])
    for _ in range(2):
        with pytest.raises(NumericalError, match="not ergodic"):
            broken.drazin


def test_cumulants_fd_memory_does_not_grow_with_the_records():
    import tracemalloc
    from dataclasses import replace

    from chanjump import ChannelNetwork

    wide = random_network(np.random.default_rng(60), n_states=60, n_records=16)
    narrow = ChannelNetwork(
        states=wide.states,
        channels=tuple(replace(ch, increments={r: v for r, v in ch.increments.items() if r in wide.records[:4]})
                       for ch in wide.channels),
        records=wide.records[:4],
    )
    peaks = []
    for net in (narrow, wide):
        net.stationary  # cached state is not transient
        tracemalloc.start()
        try:
            cumulants_fd(net)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_null_variation_shared_increments_vanishes():
    # both channels of the transition carry the same increment
    net = make_network(
        ["a", "b"],
        [
            (0, 1, "x", 0.4, "", {"n": 2.0}),
            (0, 1, "y", 0.6, "", {"n": 2.0}),
            (1, 0, "x", 1.0),
        ],
        ["n"],
    )
    c = np.array([1.0, -1.0, 0.0])
    for chi in (0.0, 0.3, -1.2):
        assert np.abs(tilted_null_variation(net, c, {"n": chi})).max() < 1e-15


def test_null_variation_twin_dot(twin_net):
    c = np.array([1.0, -1.0, 0.0, 0.0])
    chi = 0.8
    M = tilted_null_variation(twin_net, c, {"heat_total": chi})
    expected = math.exp(-chi * 0.5) - math.exp(-chi * 1.5)
    assert abs(M[1, 0] - expected) < 1e-15
    assert abs(M[1, 0]) > 1e-3  # visibly nonzero away from chi = 0
    assert M[0, 0] == 0.0


def test_null_variation_zero_field_kernel_vectors():
    rng = np.random.default_rng(43)
    for _ in range(20):
        net = random_network(rng)
        basis = generator_preserving_basis(net)
        for k in range(basis.dim):
            M = tilted_null_variation(net, basis.vectors[:, k], {})
            assert np.abs(M).max() < 1e-13


def test_null_variation_length_check(twin_net):
    with pytest.raises(ValidationError, match="length"):
        tilted_null_variation(twin_net, np.ones(3), {})


def test_twin_pair_shares_state_level_objects(twin_net):
    twin = make_twin(twin_net, 0, "L", "R", 0.1)
    L_a = build_generator(twin_net).matrix
    L_b = build_generator(twin).matrix
    assert np.array_equal(L_a, L_b)
    ss_a = stationary_state(L_a)
    ss_b = stationary_state(L_b)
    assert np.array_equal(ss_a.p, ss_b.p)
    assert np.array_equal(drazin_inverse(L_a, ss_a), drazin_inverse(L_b, ss_b))


@pytest.mark.parametrize("decades", [0, 4, 6, 8])
def test_a_state_function_record_never_reads_as_a_negative_variance(decades):
    # d_e = phi(to) - phi(from) has variance exactly 0; its rounding must not trip the PSD
    # check while the channel rates span up to 2 * decades decades
    from dataclasses import replace

    from chanjump import ChannelNetwork, NumericalError

    for seed in range(600):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_states=int(rng.integers(2, 16)), max_parallel=4)
        phi = rng.standard_normal(net.n_states) * 10.0 ** rng.uniform(-3, 3)
        channels = tuple(
            replace(ch, rate=ch.rate * 10.0 ** rng.uniform(-decades, decades),
                    increments={"phi": phi[ch.to_state] - phi[ch.from_state], "x": float(rng.standard_normal())})
            for ch in net.channels
        )
        net = ChannelNetwork(states=net.states, channels=channels, records=("phi", "x"))
        try:
            net.stationary
        except NumericalError:  # stiff rates can leave no stationary state the solver accepts
            continue
        noise_matrix(net)


def ring20_document() -> dict:
    """A 20-state ring with 20 random chords, 4 channels per ordered pair and 8 records."""
    rng = np.random.default_rng(2026)
    n, q = 20, 8
    pairs = [(i, (i + 1) % n) for i in range(n)] + [tuple(int(s) for s in rng.choice(n, 2, replace=False)) for _ in range(n)]
    records = [f"x{r}" for r in range(q)]
    channels = [
        {"from": f"s{a}", "to": f"s{b}", "reservoir": f"r{k}", "rate": float(rng.uniform(0.5, 1.5)),
         "increments": dict(zip(records, rng.normal(size=q).tolist()))}
        for i, j in pairs for a, b in ((i, j), (j, i)) for k in range(4)
    ]
    return {"states": [f"s{i}" for i in range(n)], "records": records, "channels": channels}


DOT3 = {"dot": {
    "levels": [0.3, 1.0, -0.6],
    "reservoirs": [{"name": "L", "mu": 0.5, "T": 1.0}, {"name": "R", "mu": -0.5, "T": 0.5}, {"name": "H", "mu": 0.0, "T": 2.0}],
    "couplings": [{"level": i, "reservoir": r, "gamma": g} for i, g in enumerate([1.0, 0.7, 1.3]) for r in "LRH"]
    + [{"level": 1, "reservoir": "H", "filter": "b", "gamma": 0.4}],
}}


def analyze_fd(document: dict, tmp_path, name: str):
    """``analyze --fd`` on the document; its report path, once FD agrees with the analytic cumulants."""
    model, out = tmp_path / f"{name}.json", tmp_path / f"fd_{name}.json"
    model.write_text(json.dumps(document))
    assert cli.main(["analyze", str(model), "--fd", "--json", str(out)]) == 0
    report = read_report(out)
    an, fd = report["cumulants_analytic"], report["cumulants_finite_difference"]
    scale = max([1.0] + [abs(v) for v in an["means"].values()])
    assert max(abs(fd["means"][k] - an["means"][k]) for k in an["means"]) <= 1e-6 * scale
    S_an, S_fd = np.array(an["noise"]), np.array(fd["noise"])
    assert np.abs(S_an - S_fd).max() <= 1e-4 * max(1.0, float(np.abs(S_an).max()))
    return model, out


def test_the_ring20_fd_stack_stays_on_the_chord(tmp_path, monkeypatch):
    fallbacks, eigvals = [], fcs._dominant_eigenvalues
    monkeypatch.setattr(fcs, "_dominant_eigenvalues", lambda M: fallbacks.append(len(M)) or eigvals(M))
    model, first = analyze_fd(ring20_document(), tmp_path, "ring20")
    assert not fallbacks, f"the chord left ring20 points to eigvals: {fallbacks}"
    again = tmp_path / "fd_ring20_again.json"
    assert cli.main(["analyze", str(model), "--fd", "--json", str(again)]) == 0
    assert first.read_bytes() == again.read_bytes()


def test_fd_and_bounds_on_a_dot_with_several_levels_temperatures_and_filters(tmp_path):
    model = analyze_fd(DOT3, tmp_path, "dot3")[0]
    out = tmp_path / "bounds_dot3.json"
    assert cli.main(["bounds", str(model), "--direction", "heat_total=1", "--json", str(out)]) == 0
    read_report(out)
