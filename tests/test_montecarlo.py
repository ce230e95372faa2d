from __future__ import annotations

import io
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from chanjump import (
    SimConfig,
    ValidationError,
    analytic_cumulants,
    build_dot,
    build_generator,
    empirical_cumulants,
    make_twin,
    serialize_network,
    simulate,
    stationary_state,
    twin_dot_spec,
)

from chanjump import cli, montecarlo
from chanjump.montecarlo import _ChannelTable, _check_expected_jumps, _jump_rate

from conftest import make_network, random_network, read_report, two_state_cycle
from test_sampler_equivalence import _bits


def test_simulation_is_deterministic():
    net = two_state_cycle()
    cfg = SimConfig(n_trajectories=20, seed=42, t_max=50.0)
    a = simulate(net, cfg)
    b = simulate(net, cfg)
    for sa, sb in zip(a, b):
        assert sa.totals == sb.totals
        assert np.array_equal(sa.jump_counts, sb.jump_counts)
        assert sa.elapsed == sb.elapsed
        assert np.array_equal(sa.occupation, sb.occupation)


def test_two_state_rate_within_three_sigma():
    net = two_state_cycle()
    stats = simulate(net, SimConfig(n_trajectories=400, seed=7, t_max=200.0))
    rep = empirical_cumulants(stats)
    assert abs(rep.means["n"] - 0.5) < 3 * rep.mean_errors["n"]
    assert abs(rep.noise[0, 0] - 0.25) < 3 * rep.noise_errors[0, 0]


def test_occupation_matches_stationary():
    rng = np.random.default_rng(3)
    net = random_network(rng, n_states=4, max_parallel=2)
    p = stationary_state(build_generator(net)).p
    stats = simulate(net, SimConfig(n_trajectories=200, seed=11, t_max=100.0))
    occ = np.sum([st.occupation for st in stats], axis=0)
    frac = occ / occ.sum()
    per_traj = np.array([st.occupation / st.elapsed for st in stats])
    se = per_traj.std(axis=0, ddof=1) / math.sqrt(len(stats))
    assert np.all(np.abs(frac - p) < 3 * se + 1e-12)


def test_twins_share_state_statistics_but_not_heat():
    base = build_dot(twin_dot_spec())
    twin = make_twin(base, 0, "L", "R", 0.1)
    cfg = SimConfig(n_trajectories=300, seed=5, t_max=100.0)
    stats_a = simulate(base, cfg)
    stats_b = simulate(twin, cfg)
    # same seed and identical state dynamics: the state paths coincide exactly
    for sa, sb in zip(stats_a, stats_b):
        assert np.array_equal(sa.occupation, sb.occupation)
        assert sa.n_jumps == sb.n_jumps
    rep_a = empirical_cumulants(stats_a)
    rep_b = empirical_cumulants(stats_b)
    se = rep_a.mean_errors["heat_total"] + rep_b.mean_errors["heat_total"]
    assert abs(rep_b.means["heat_total"] - rep_a.means["heat_total"]) > 3 * se
    # and each agrees with its own analytic value
    for net, rep in ((base, rep_a), (twin, rep_b)):
        an = analytic_cumulants(net)
        for recname in ("heat_L", "heat_total"):
            assert abs(rep.means[recname] - an.means[recname]) < 3 * rep.mean_errors[recname]


def test_cross_correlation_matches_analytic():
    net = build_dot(twin_dot_spec())
    stats = simulate(net, SimConfig(n_trajectories=400, seed=23, t_max=100.0))
    rep = empirical_cumulants(stats)
    an = analytic_cumulants(net)
    i = rep.records.index("heat_L")
    j = rep.records.index("heat_R")
    assert abs(rep.noise[i, j] - an.noise[i, j]) < 3 * rep.noise_errors[i, j]


def test_zero_increment_record_is_exactly_zero():
    net = make_network(
        ["a", "b"],
        [(0, 1, "r", 1.0, "", {"n": 1.0}), (1, 0, "r", 1.0)],
        ["n", "silent"],
    )
    stats = simulate(net, SimConfig(n_trajectories=10, seed=1, t_max=20.0))
    rep = empirical_cumulants(stats)
    assert rep.means["silent"] == 0.0
    k = rep.records.index("silent")
    assert rep.noise[k, k] == 0.0


def test_absorbing_state_flagged():
    net = make_network(["a", "b"], [(0, 1, "r", 1.0)], [])
    with pytest.warns(UserWarning, match="non-ergodic"):
        stats = simulate(net, SimConfig(n_trajectories=5, seed=2, t_max=10.0, initial=0))
    assert all(st.absorbed for st in stats)
    assert all(st.elapsed == 10.0 for st in stats)  # window still runs to the horizon
    occ = stats[0].occupation
    assert occ.sum() == pytest.approx(10.0)


def test_zero_rate_network_flags_immediately():
    net = make_network(["a", "b"], [(0, 1, "r", 0.0)], [])
    with pytest.warns(UserWarning):
        stats = simulate(net, SimConfig(n_trajectories=3, seed=2, t_max=5.0, initial=0))
    assert all(st.absorbed and st.n_jumps == 0 for st in stats)


def _strongly_connected_by_closure(net) -> bool:
    """Dense boolean transitive closure (Warshall) over the positive-rate channels."""
    reach = np.eye(net.n_states, dtype=bool)
    for ch in net.channels:
        if ch.rate > 0:
            reach[ch.from_state, ch.to_state] = True
    for k in range(net.n_states):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return bool(reach.all())


def test_the_ergodicity_warning_matches_the_transitive_closure():
    rng = np.random.default_rng(31)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(2, 7))
        channels = []
        for _ in range(int(rng.integers(1, 5 * n))):
            i, j = (int(s) for s in rng.choice(n, size=2, replace=False))
            channels.append((i, j, "r", 0.0 if rng.random() < 0.3 else float(rng.random() + 0.05)))
        net = make_network([f"s{k}" for k in range(n)], channels, [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate(net, SimConfig(n_trajectories=1, seed=0, max_jumps=1, initial=0))
        warned = any("non-ergodic" in str(w.message) for w in caught)
        assert warned != _strongly_connected_by_closure(net)
        verdicts.append(warned)
    assert 60 <= sum(verdicts) <= 240, sum(verdicts)


def test_disconnected_network_needs_explicit_initial():
    # two disconnected blocks: no unique stationary state to sample from
    net = make_network(
        ["a", "b", "c", "d"],
        [(0, 1, "r", 1.0), (1, 0, "r", 1.0), (2, 3, "r", 1.0), (3, 2, "r", 1.0)],
        [],
    )
    with pytest.raises(ValidationError, match="initial"):
        with pytest.warns(UserWarning):
            simulate(net, SimConfig(n_trajectories=1, seed=0, t_max=1.0))
    with pytest.warns(UserWarning):
        stats = simulate(net, SimConfig(n_trajectories=2, seed=0, t_max=1.0, initial=2))
    assert all(st.occupation[:2].sum() == 0.0 for st in stats)


def test_the_pinned_seed_twin_run_reproduces_the_benchmark_reference(tmp_path):
    # the benchmark's reference payload, read here and never written
    model, out = tmp_path / "twin.json", tmp_path / "twin_ref.json"
    model.write_text(serialize_network(build_dot(twin_dot_spec())))
    argv = ["simulate", str(model), "--seed", "2024", "--trajectories", "50", "--horizon", "1000.0", "--json", str(out)]
    assert cli.main(argv) == 0
    report = read_report(out)
    got = {key: report[key] for key in ("cumulants_monte_carlo", "simulation")}
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "twin_reference.json"
    want = json.loads(reference.read_text())["full"]["payload"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_jump_budget_mode():
    net = two_state_cycle()
    stats = simulate(net, SimConfig(n_trajectories=4, seed=9, max_jumps=100))
    assert all(st.n_jumps == 100 for st in stats)
    # unequal windows cannot feed the noise estimator: pooled means only
    rep = empirical_cumulants(stats)
    assert rep.noise is None and rep.noise_errors is None
    assert "equal observation windows" in rep.note


def test_single_trajectory_rejected():
    net = two_state_cycle()
    stats = simulate(net, SimConfig(n_trajectories=1, seed=9, t_max=10.0))
    with pytest.raises(ValidationError, match="at least 2"):
        empirical_cumulants(stats)


def test_burn_in_runs():
    net = two_state_cycle()
    stats = simulate(net, SimConfig(n_trajectories=10, seed=31, t_max=20.0, burn_in=5.0, initial=0))
    assert all(abs(st.elapsed - 20.0) < 1e-12 for st in stats)


def test_dump_matches_accumulated_totals():
    # increments representable exactly: per-jump accumulation equals the
    # grouped count * increment totals bit for bit
    net = build_dot(twin_dot_spec())
    buf = io.StringIO()
    stats = simulate(net, SimConfig(n_trajectories=3, seed=13, t_max=30.0), dump=buf)
    lines = buf.getvalue().splitlines()
    k = -1
    replayed = None
    replays = []
    for line in lines:
        if line.startswith("# trajectory"):
            if replayed is not None:
                replays.append(replayed)
            replayed = {rec: 0.0 for rec in net.records}
            k += 1
            continue
        t_str, e_str, s_str = line.split(",")
        e = int(e_str)
        ch = net.channels[e]
        assert ch.to_state == int(s_str)
        for recname in net.records:
            replayed[recname] += ch.increment(recname)
    replays.append(replayed)
    assert len(replays) == 3
    for st, rep in zip(stats, replays):
        for recname in net.records:
            assert st.totals[recname] == rep[recname]


def test_waiting_times_are_exponential():
    # KS check at 1% significance; retried over documented seeds since a
    # correct sampler still fails one seed in a hundred
    net = two_state_cycle(a=1.3, b=0.7)
    escapes = {0: 1.3, 1: 0.7}
    for seed in (101, 102, 103):
        buf = io.StringIO()
        simulate(net, SimConfig(n_trajectories=1, seed=seed, max_jumps=100_000, initial=0), dump=buf)
        waits = {0: [], 1: []}
        prev_t, prev_state = 0.0, 0
        for line in buf.getvalue().splitlines():
            if line.startswith("#"):
                continue
            t_str, _, s_str = line.split(",")
            t = float(t_str)
            waits[prev_state].append(t - prev_t)
            prev_t, prev_state = t, int(s_str)
        ok = True
        for s, esc in escapes.items():
            stat = scipy.stats.kstest(waits[s], "expon", args=(0.0, 1.0 / esc))
            ok = ok and stat.pvalue > 0.01
        if ok:
            return
    pytest.fail("waiting times failed the exponential KS check on all retry seeds")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"t_max": math.inf}, "t_max must be finite"),
        ({"t_max": math.nan}, "t_max must be finite"),
        ({"t_max": 1.0, "burn_in": math.inf}, "burn_in must be finite"),
        ({"t_max": 1.0, "burn_in": math.nan}, "burn_in must be finite"),
        ({"max_jumps": 5, "burn_in": math.nan}, "burn_in must be finite"),
        ({"t_max": 1.0, "seed": -1}, "seed must be >= 0"),
    ],
    ids=["t-max-inf", "t-max-nan", "burn-in-inf", "burn-in-nan", "jumps-burn-in-nan", "seed-negative"],
)
def test_sim_config_rejects_non_finite_windows_and_negative_seeds(fields, message):
    with pytest.raises(ValidationError, match=message):
        SimConfig(**{"n_trajectories": 1, "seed": 0, **fields})


@pytest.mark.parametrize(
    "fields",
    [{"t_max": 1e300}, {"t_max": 1.0, "burn_in": 1e300}, {"max_jumps": 10**12}, {"max_jumps": 10**400},
     {"t_max": 1e4, "n_trajectories": 10**6}],
    ids=["window", "burn-in", "jumps", "huge-jumps", "trajectories"],
)
def test_runs_past_the_expected_jump_budget_are_refused(fields):
    net = build_dot(twin_dot_spec())  # about 0.8 jumps per unit time at stationarity
    with pytest.raises(ValidationError, match="the run would make about .* jumps, more than 1e"):
        simulate(net, SimConfig(**{"n_trajectories": 2, "seed": 0, **fields}))


def test_each_trajectory_counts_against_the_work_bound():
    net = build_dot(twin_dot_spec())
    with pytest.raises(ValidationError, match="about 5e\\+10 jumps"):
        simulate(net, SimConfig(n_trajectories=10**8, seed=0, t_max=1e-9))
    # the benchmark's twin calls and the 10^4 x 10^3 acceptance run stay within the bound
    table = _ChannelTable(net)
    for n, t_max in [(50, 1000.0), (20, 20.0), (10_000, 1000.0), (10**6, 1e-9)]:
        cfg = SimConfig(n_trajectories=n, seed=0, t_max=t_max)
        expected = _check_expected_jumps(net, cfg, table.escape)
        assert expected == pytest.approx(n * t_max * float(net.stationary.p @ table.escape))


def test_expected_jumps_without_a_stationary_state_use_the_largest_escape_rate():
    net = make_network(["a", "b", "c"], [(0, 1, "r", 3.0), (1, 0, "r", 0.5)], [])
    with pytest.raises(ValidationError, match="about 3e\\+09 jumps"):
        simulate(net, SimConfig(n_trajectories=1, seed=0, t_max=1e9, initial=0))
    with pytest.warns(UserWarning, match="non-ergodic"):
        stats = simulate(net, SimConfig(n_trajectories=1, seed=0, t_max=10.0, initial=2))
    assert stats[0].absorbed and stats[0].n_jumps == 0


def _run_with_dump(net, cfg):
    buf = io.StringIO()
    stats = simulate(net, cfg, dump=buf)
    return [(st.totals, st.jump_counts.tobytes(), st.elapsed, st.n_jumps, st.absorbed, st.occupation.tobytes())
            for st in stats], buf.getvalue()


@pytest.mark.parametrize("factor", [1e-6, 1e6])
@pytest.mark.parametrize(
    "net_name, fields",
    # the rate is read only where a window stops the walk: a time window or the burn-in
    [("dot", {"t_max": 200.0}), ("dot", {"max_jumps": 300, "burn_in": 3.0}),
     ("random", {"t_max": 20.0, "burn_in": 2.0})],
)
def test_the_walk_rate_only_sizes_chunks(factor, net_name, fields, monkeypatch):
    net = build_dot(twin_dot_spec()) if net_name == "dot" else random_network(np.random.default_rng(4), 6, 3)
    cfg = SimConfig(n_trajectories=5, seed=77, **fields)
    reference = _run_with_dump(net, cfg)
    walk = montecarlo._Walk

    def scaled(table, gen, state, rate):
        assert rate == _jump_rate(net, table.escape)
        return walk(table, gen, state, rate * factor)

    monkeypatch.setattr(montecarlo, "_Walk", scaled)
    assert _run_with_dump(net, cfg) == reference


@pytest.mark.filterwarnings("ignore:simulating a non-ergodic network")
@pytest.mark.parametrize("initial", [0, None])
def test_one_stationary_solve_per_simulate_call(initial, monkeypatch):
    # two disconnected pairs: the failed solve is cached and re-raised, not repeated
    from chanjump import linalg

    pairs = [(0, 1, "r", 1.0), (1, 0, "r", 1.0), (2, 3, "r", 1.0), (3, 2, "r", 1.0)]
    net = make_network(["a", "b", "c", "d"], pairs, [])
    solves = []
    solve = linalg.stationary_state
    monkeypatch.setattr(linalg, "stationary_state", lambda L: solves.append(L) or solve(L))
    cfg = SimConfig(n_trajectories=2, seed=3, t_max=5.0, initial=initial)
    if initial is None:
        with pytest.raises(ValidationError, match="network is not ergodic"):
            simulate(net, cfg)
    else:
        simulate(net, cfg)
    assert len(solves) == 1


@pytest.mark.parametrize("initial", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0], [math.inf, -math.inf]])
def test_a_non_finite_initial_distribution_is_refused(initial):
    cfg = SimConfig(n_trajectories=2, seed=1, t_max=1.0, initial=initial)
    with pytest.raises(ValidationError, match="initial must be a probability vector"):
        simulate(two_state_cycle(), cfg)


def _stats_bits(st):
    return (list(st.totals), _bits(list(st.totals.values())), _bits(st.jump_counts), _bits(st.occupation),
            _bits(st.elapsed), st.n_jumps, st.absorbed)


def _span(net, cfg):
    table = _ChannelTable(net)
    table.compose(_check_expected_jumps(net, cfg, table.escape))
    return table.span


@pytest.mark.filterwarnings("ignore:simulating a non-ergodic network")
@pytest.mark.parametrize("totals_cells", [None, 1])
@pytest.mark.parametrize("window", [{"t_max": 30.0}, {"max_jumps": 25, "burn_in": 2.0}], ids=["time", "jumps"])
@pytest.mark.parametrize("case", ["twin", "absorbing", "coarse"])
def test_a_trajectory_does_not_depend_on_how_many_the_call_runs(case, window, totals_cells, monkeypatch):
    # the call's expected jump count sets the composed span, so the short calls walk
    # with other lookups and chunk groupings than the 40-trajectory call
    if case == "twin":
        net = build_dot(twin_dot_spec())
    elif case == "absorbing":
        net = make_network(
            ["a", "b", "c"],
            [(0, 1, "r", 1.0, "", {"n": 1.0}), (0, 2, "r", 0.01), (1, 0, "r", 0.5), (1, 0, "q", 0.7),
             (1, 2, "r", 0.05, "", {"n": -2.0}), (2, 0, "r", 0.0)],
            ["n"],
        )
    else:
        monkeypatch.setattr(montecarlo, "_TABLE_CELLS", 8)
        monkeypatch.setattr(montecarlo, "_CELLS_PER_CHANNEL", 0)
        net = random_network(np.random.default_rng(9100), max_parallel=4)
        table = _ChannelTable(net)
        assert table.split in table.step
    cfg = dict(seed=61, initial=0, **window)
    full = SimConfig(n_trajectories=40, **cfg)
    whole = [_stats_bits(st) for st in simulate(net, full)]  # one block of totals
    if totals_cells is not None:
        monkeypatch.setattr(montecarlo, "_TOTALS_CELLS", totals_cells)  # a block per trajectory
    spans = set()
    for k in (0, 3, 11, 39):
        short = SimConfig(n_trajectories=k + 1, **cfg)
        spans.add(_span(net, short))
        assert _stats_bits(simulate(net, short)[k]) == whole[k]
    if case == "twin":  # a split cell, or a stationary state on an absorbing one, keeps span 1
        assert len(spans | {_span(net, full)}) > 1
    if case == "absorbing":
        assert any(st[-1] for st in whole) and not all(st[-1] for st in whole)


def test_totals_are_summed_a_block_of_trajectories_at_a_time():
    # 400 trajectories over q = 16 records and E = 640 channels: an n x q x E product of
    # their terms would take about 33 MB; the channel table, the draw buffers and one
    # block of terms fit in the 2 MB allowed beyond what the returned stats hold
    rng = np.random.default_rng(640)
    n, q = 20, 16
    records = [f"x{r}" for r in range(q)]
    channels = [(a, b, f"r{m}", float(rng.uniform(0.5, 1.5)), "", dict(zip(records, rng.normal(size=q).tolist())))
                for i in range(n) for a, b in ((i, (i + 1) % n), ((i + 1) % n, i)) for m in range(16)]
    net = make_network([f"s{i}" for i in range(n)], channels, records)
    assert (net.n_channels, len(net.records)) == (640, 16)
    cfg = SimConfig(n_trajectories=400, seed=5, t_max=2.0, initial=0)
    simulate(net, SimConfig(n_trajectories=1, seed=5, t_max=2.0, initial=0))  # the network's own caches
    tracemalloc.start()
    try:
        stats = simulate(net, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = {id(a.base if a.base is not None else a): a.base if a.base is not None else a
              for st in stats for a in (st.jump_counts, st.occupation)}
    held = sum(a.nbytes for a in arrays.values()) + sum(
        sys.getsizeof(st) + sys.getsizeof(st.__dict__) + sys.getsizeof(st.totals)
        + sum(map(sys.getsizeof, st.totals.values())) for st in stats)
    assert sum(st.n_jumps for st in stats) > 10 * net.n_channels
    assert peak < held + 2_000_000
