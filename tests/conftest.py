"""Shared builders and frozen reference values.

The TWIN-DOT constants below were computed independently from the closed
forms (Fermi functions, stationary ratios, per-channel record sums) at full
precision; tests compare library output against them rather than against
round-tripped library calls.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from chanjump import ChannelNetwork, TransitionChannel, build_dot, twin_dot_spec

# canonical twin dot: eps=1, mu_L=0.5, mu_R=-0.5, T=1, gamma=1
F_L = 0.37754066879814546          # fermi(1, 0.5, 1)
F_R = 0.18242552380635632          # fermi(1, -0.5, 1)
GAMMA_PLUS = 0.5599661926045018    # F_L + F_R (exactly rounded)
GAMMA_MINUS = 1.4400338073954981   # (1-F_L) + (1-F_R)
P0 = 0.7200169036977491
P1 = 0.2799830963022509
J_HEAT_L = -0.04877878624794728    # 0.5 * ((1-F_L) P1 - F_L P0)
J_HEAT_R = 0.14633635874384188
J_HEAT_TOTAL = 0.09755757249589458
TWIN_HEAT_DIFF = 0.07200169036977491   # eta (mu_L - mu_R) p0 at eta = 0.1
U_ENTER = 0.40318512417451075          # GAMMA_PLUS * P0
ENTER_LO = -0.6047776862617661         # U_ENTER * (-1.5)
ENTER_HI = -0.20159256208725537        # U_ENTER * (-0.5)
# heat-noise matrix of device A over (heat_L, heat_R), Drazin formula
S_HEAT_A = np.array(
    [
        [0.05039814052181386, -0.15119442156544155],
        [-0.15119442156544155, 0.4535832646963247],
    ]
)


@pytest.fixture
def twin_spec():
    return twin_dot_spec()


@pytest.fixture
def twin_net():
    return build_dot(twin_dot_spec())


def read_report(path):
    """The JSON report at ``path`` (a Path), which must be json.dumps(sort_keys=True, indent=2) byte for byte."""
    text = path.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2), path
    return report


def make_network(states, channel_tuples, records):
    """Channels given as (from, to, reservoir, rate[, filter[, increments]])."""
    channels = []
    for tup in channel_tuples:
        frm, to, res, rate = tup[:4]
        filt = tup[4] if len(tup) > 4 else ""
        incs = tup[5] if len(tup) > 5 else {}
        channels.append(
            TransitionChannel(
                from_state=frm, to_state=to, reservoir=res, rate=rate,
                filter=filt, increments=incs,
            )
        )
    return ChannelNetwork(states=tuple(states), channels=tuple(channels), records=tuple(records))


def two_state_cycle(a=1.0, b=1.0, d_forward=1.0):
    """Two states, forward channel counted with increment d_forward."""
    return make_network(
        ["s0", "s1"],
        [
            (0, 1, "fwd", a, "", {"n": d_forward}),
            (1, 0, "bwd", b, "", {}),
        ],
        ["n"],
    )


def random_network(rng, n_states=None, max_parallel=5, n_records=2, ergodic=True,
                   dyadic=False, inc_scale=1.0):
    """Random channel network; a bidirectional ring keeps it ergodic.

    With dyadic=True all rates and increments sit on coarse power-of-two
    grids so that linear identities hold exactly in floating point.
    """
    n = int(n_states if n_states is not None else rng.integers(2, 7))

    def rand_rate():
        if dyadic:
            return float(rng.integers(1, 2**20)) / 2**20
        return float(rng.random() + 0.05)

    def rand_inc():
        if dyadic:
            return float(rng.integers(-2**10, 2**10)) / 2**10
        return inc_scale * float(rng.standard_normal())

    records = [f"rec{i}" for i in range(n_records)]
    channels = []
    pairs = []
    if ergodic:
        for i in range(n):
            pairs.append((i, (i + 1) % n))
            pairs.append(((i + 1) % n, i))
    n_extra = int(rng.integers(1, 2 * n + 2))
    for _ in range(n_extra):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i != j:
            pairs.append((i, j))
    for m, k in pairs:
        for copy in range(int(rng.integers(1, max_parallel + 1))):
            incs = {r: rand_inc() for r in records if rng.random() < 0.8}
            channels.append((m, k, f"res{copy}", rand_rate(), "", incs))
    return make_network([f"s{i}" for i in range(n)], channels, records)


def random_paired_network(rng, n_states=None, n_records=1):
    """Every channel has a conjugate (same reservoir/filter, reversed pair)."""
    n = int(n_states if n_states is not None else rng.integers(2, 6))
    records = [f"rec{i}" for i in range(n_records)]
    channels = []
    edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    for extra in range(int(rng.integers(0, 3))):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((int(i), int(j)))
    for idx, (i, j) in enumerate(edges):
        for copy in range(int(rng.integers(1, 3))):
            res = f"res{copy}"
            inc_f = {r: float(rng.standard_normal()) for r in records}
            inc_b = {r: -v for r, v in inc_f.items()}
            channels.append((i, j, res, float(rng.random() + 0.05), "", inc_f))
            channels.append((j, i, res, float(rng.random() + 0.05), "", inc_b))
    return make_network([f"s{i}" for i in range(n)], channels, records)


def random_ergodic_generator(rng, n):
    """Dense generator with strictly positive off-diagonal rates."""
    L = rng.random((n, n)) + 0.05
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=0))
    return L


def subnetwork(net, keep_channel_indices):
    """Same states and records, a subset of channels."""
    channels = tuple(net.channels[e] for e in keep_channel_indices)
    return ChannelNetwork(states=net.states, channels=channels, records=net.records)
