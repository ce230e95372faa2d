"""Tracing of chanjump from outside the program.

``Tracer.install`` replaces every public function of each chanjump module
with a wrapper that records a span (op id, name, parent span, start, end),
everywhere the function object is referenced: in its own module, in modules
that imported it by name (``completeness.build_projection``,
``cli.stationary_state``) and in the package namespace.  It also wraps the
``ChannelNetwork.transitions`` method, which rescans the channel list on
every call.  Self time is a span's duration minus the time covered by its
child spans; counts that need the call's arguments or result (computed
bytes, distinct inputs, jumps) are taken after the span closes and charged
to no span, so they show as overhead.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("network", "linalg", "fcs", "completeness", "records", "dot", "montecarlo", "report", "cli")

# (layer, function) pairs reported as per-layer metrics; every public function is
# wrapped so that self times are attributed correctly, but only these are printed
REPORTED = {
    "network": ("load_network", "build_generator", "build_projection", "build_record_map", "transitions"),
    "linalg": ("kernel_basis", "numerical_rank", "stationary_state", "drazin_inverse"),
    "fcs": ("noise_matrix", "mean_currents", "cumulants_fd", "scgf", "tilted_generator"),
    "completeness": (
        "generator_preserving_basis", "completeness_test", "remaining_kernel",
        "predictability_test", "quotient_form", "velocity_only_kernel_dim",
    ),
    "records": ("record_interval", "record_hull_summary", "stationary_transition_totals", "entropy_production"),
    "montecarlo": ("simulate", "empirical_cumulants"),
    "report": ("render_text", "to_json"),
    "dot": ("build_dot", "make_twin"),
    "cli": ("main",),
}

# counts computed at the layer boundary (units in BENCHMARK.json)
COUNTS = (
    "linalg.kernel_basis.vh_bytes",
    "montecarlo.jumps",
    "montecarlo.trajectories",
    "report.json_bytes",
)


def _matrix_digest(M) -> bytes:
    A = np.ascontiguousarray(getattr(M, "matrix", M), dtype=float)
    h = hashlib.blake2b(repr(A.shape).encode(), digest_size=16)
    h.update(A.tobytes())
    return h.digest()


class Tracer:
    """Span recorder over the chanjump package; not reentrant across threads."""

    def __init__(self):
        # span: [op, name, parent index, start, end, time covered by children]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = None
        self.jumps = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._digests: dict[str, set] = defaultdict(set)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"chanjump.{m}") for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in [importlib.import_module("chanjump")] + modules:
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, entry[1])
        cls = importlib.import_module("chanjump.network").ChannelNetwork
        self._restore.append((cls, "transitions", cls.transitions))
        cls.transitions = self._wrap("network.transitions", cls.transitions)

    def uninstall(self) -> None:
        for target, name, obj in reversed(self._restore):
            setattr(target, name, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [self.op, name, parent, 0.0, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec[3], rec[4] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if probe is not None:
                probe(args, result)
                if parent >= 0:
                    spans[parent][5] += time.perf_counter() - t1
            return result

        return wrapper

    # -- counts taken at the layer boundary ----------------------------------

    def _probe_linalg_kernel_basis(self, args, result) -> None:
        A = np.atleast_2d(np.asarray(args[0], dtype=float))
        self.counts["linalg.kernel_basis.vh_bytes"] += 8 * A.shape[1] ** 2
        self._digests["linalg.kernel_basis"].add(_matrix_digest(A))

    def _probe_linalg_stationary_state(self, args, result) -> None:
        self._digests["linalg.stationary_state"].add(_matrix_digest(args[0]))

    def _probe_montecarlo_simulate(self, args, result) -> None:
        jumps = sum(st.n_jumps for st in result)
        self.jumps += jumps
        self.counts["montecarlo.jumps"] += jumps
        self.counts["montecarlo.trajectories"] += len(result)

    def _probe_report_to_json(self, args, result) -> None:
        self.counts["report.json_bytes"] += len(result)

    # -- derived metrics -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _, name, _, t0, t1, child in self.spans:
            self_s[name] += (t1 - t0) - child
            calls[name] += 1
        return self_s, calls

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for layer, names in REPORTED.items():
            for fn in names:
                out[f"{layer}.{fn}.self_s"] = self_s.get(f"{layer}.{fn}", 0.0)
                out[f"{layer}.{fn}.calls"] = calls.get(f"{layer}.{fn}", 0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        for fn in ("linalg.kernel_basis", "linalg.stationary_state"):
            n = calls.get(fn, 0)
            out[fn + ".distinct_ratio"] = len(self._digests[fn]) / n if n else 0.0
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["bench.overhead_s"] = traced_wall - sum(self_s.values())
        return out

    def inclusive_under(self, name: str, ancestor_prefix: str) -> dict[object, float]:
        """Per op: inclusive time of outermost ``name`` spans below an ``ancestor_prefix`` span."""
        out: dict[object, float] = defaultdict(float)
        spans = self.spans
        for op, nm, parent, t0, t1, _ in spans:
            if nm != name:
                continue
            p, under, nested = parent, False, False
            while p >= 0:
                pname = spans[p][1]
                nested |= pname == name
                under |= pname.startswith(ancestor_prefix)
                p = spans[p][2]
            if under and not nested:
                out[op] += t1 - t0
        return out

    def top_self(self, op_filter, k: int = 3) -> list[tuple[str, float]]:
        acc: dict[str, float] = defaultdict(float)
        for op, name, _, t0, t1, child in self.spans:
            if op_filter(op):
                acc[name] += (t1 - t0) - child
        return sorted(acc.items(), key=lambda kv: -kv[1])[:k]
