"""One benchmark process: set up a workload, then (unless --setup-only) time it.

Started by ``run.py`` with BLAS pinned to one thread through the environment.
The first statement takes the start time, so ``setup_s`` covers importing
chanjump, generating and writing the seeded models and ``load_network`` on
each of them.  The last line of standard output is one JSON object.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chanjump

    if Path(chanjump.__file__).resolve().parent != (src / "chanjump").resolve():
        raise SystemExit(f"imported chanjump from {chanjump.__file__}, not from {src}")
    return chanjump


def environment() -> list[str]:
    """Python, numpy and BLAS versions, pinned thread counts, CPUs; refuses unpinned BLAS."""
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).resolve().parent.parent / "numpy.libs" / "*openblas*"))
    threads = config = None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and conf is not None:
                    get.restype, conf.restype = ctypes.c_int, ctypes.c_char_p
                    threads, config = get(), conf().decode()
    if threads is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        raise SystemExit(f"cannot query the thread count of numpy's BLAS ({blas.get('name')}); "
                         "refusing to run unpinned")
    if threads != 1:
        raise SystemExit(f"BLAS runs {threads} threads; refusing to run unpinned")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    pinned = " ".join(f"{k}={os.environ.get(k)}" for k in sorted(os.environ) if k.endswith("_THREADS"))
    return [
        f"python {platform.python_version()}; numpy {np.__version__}; BLAS: {config}",
        f"BLAS threads {threads}; pinned: {pinned}",
        f"nproc {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()}); cpu: {cpu}",
    ]


class JumpCounter:
    """Counts Monte Carlo jumps in an untraced pass by wrapping montecarlo.simulate only."""

    def __init__(self, mc):
        self.mc = mc
        self.jumps = 0
        self.op = None

    def __enter__(self):
        orig = self._orig = self.mc.simulate

        def simulate(*args, **kwargs):
            stats = orig(*args, **kwargs)
            self.jumps += sum(st.n_jumps for st in stats)
            return stats

        self.mc.simulate = simulate
        return self

    def __exit__(self, *exc):
        self.mc.simulate = self._orig


def run_pass(wl, nets, cj, probe, results_sink):
    """Run every op once in order; return the pass wall time in seconds."""
    from workloads import OpResult

    main = cj.cli.main
    completeness = cj.completeness
    sink = io.StringIO()
    t_pass = time.perf_counter()
    for i, op in enumerate(wl.ops):
        probe.op = (op.label, i)
        j0 = probe.jumps
        if op.argv:
            out = Path(op.argv[-1])
            out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(list(op.argv))
            dt = time.perf_counter() - t0
            text = sink.getvalue()[:300]
            sink.seek(0)
            sink.truncate()
            res = OpResult(code, dt, out.read_bytes() if out.exists() else None, text=text)
        else:
            net = nets[op.model]
            t0 = time.perf_counter()
            value = (completeness.quotient_form(net), completeness.velocity_only_kernel_dim(net))
            dt = time.perf_counter() - t0
            res = OpResult(0, dt, value=value)
        res.jumps = probe.jumps - j0
        results_sink.append((op, res))
    probe.op = None
    return time.perf_counter() - t_pass


def check_pass(checker, results):
    """Check every op of a pass, then drop its outputs so memory does not grow with passes."""
    failures = []
    for op, res in results:
        problems = checker.check(op, res)
        if problems:
            failures.append((op, res, problems))
        res.output = res.value = None
    return failures


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_vals) - 1, int(-(-p * len(sorted_vals) // 100)) - 1))
    return sorted_vals[k]


def end_to_end(passes) -> tuple[dict, list[str]]:
    """Each op's best time over the run's passes; metrics sum the best times of their ops.

    On a shared virtual machine (seen on a 2-vCPU Xeon guest) the speed of one
    thread jumps between two levels about 1.7x apart, for fractions of a
    second up to tens of seconds at a time, as other tenants load the host.
    A sum or median of whole passes follows that level, so 30-second runs
    spread by 20-30 %; the best of dozens of repetitions of a short op,
    spread over the run, finds the fast level in nearly every run.  So every
    pass is kept short and every time metric is the sum, over the ops it
    covers, of each op's minimum over the passes (as ``timeit`` advises).
    """
    from workloads import KIND_METRIC

    ops = [op for op, _ in passes[0][1]]
    best = [min(results[i][1].seconds for _, results in passes) for i in range(len(ops))]
    jumps = [res.jumps for _, res in passes[0][1]]  # seeded, so the same in every pass
    out = dict.fromkeys(KIND_METRIC.values(), 0.0)
    sim_jumps = 0
    for op, t, j in zip(ops, best, jumps):
        metric = KIND_METRIC.get(op.kind)
        if metric:
            out[metric] += t
        if op.kind == "simulate":
            sim_jumps += j
    out["wall_s"] = sum(best)
    out["jumps_per_s"] = sim_jumps / out["simulate_s"] if out["simulate_s"] else 0.0
    best_ms = sorted(t * 1e3 for t in best)
    out["op_p50_ms"] = percentile(best_ms, 50)
    out["op_p95_ms"] = percentile(best_ms, 95)

    latencies = sorted(res.seconds * 1e3 for _, results in passes for _, res in results)
    n = len(latencies)
    tail = max([p for p in (50, 90, 95, 99, 99.9) if n * (100 - p) / 100 >= 10], default=50)
    walls = sorted(w for w, _ in passes)
    lines = [
        f"passes: {len(passes)}; pass wall median {statistics.median(walls):.4g} s, range "
        f"[{walls[0]:.4g}, {walls[-1]:.4g}] s; sum of per-op best times {out['wall_s']:.4g} s",
        f"all {n} op timings: latency p50 {percentile(latencies, 50):.4g} ms, p{tail:g} "
        f"{percentile(latencies, tail):.4g} ms (highest percentile with >= 10 samples beyond it), "
        f"max {latencies[-1]:.4g} ms",
        f"per-op best of {len(passes)} ({len(ops)} ops): p50 {out['op_p50_ms']:.4g} ms, "
        f"p95 {out['op_p95_ms']:.4g} ms",
    ]
    return out, lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--profile", default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cj = _import_program()
    import chanjump.cli  # noqa: F401  (the CLI module is not imported by the package)
    import workloads

    wl = workloads.build(args.workload, args.seed, Path(args.workdir), args.profile)
    nets = {key: cj.load_network(path.read_text()) for key, path in wl.paths.items()}
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    lines = environment()
    lines.append(f"models ({len(wl.sizes)}):")
    for key, s in wl.sizes.items():
        lines.append(f"  {key}: {s['kind']} N={s['N']} E={s['E']} E0={s['E0']} q={s['q']}")
    lines.append(f"ops per pass: {len(wl.ops)}")

    checker = workloads.Checker(wl, args.profile)
    passes, failures = [], []
    if args.trace:
        from spans import Tracer

        results = []
        with JumpCounter(cj.montecarlo) as counter:
            untraced = run_pass(wl, nets, cj, counter, results)
        failures += check_pass(checker, results)
        tracer = Tracer()
        tracer.install()
        traced_results = []
        try:
            traced = run_pass(wl, nets, cj, tracer, traced_results)
        finally:
            tracer.uninstall()
        failures += check_pass(checker, traced_results)
        attempted = len(results) + len(traced_results)
        metrics = tracer.metrics(traced, untraced)
        lines += attribution(tracer, wl, traced_results)
    else:
        t_start = time.perf_counter()
        with JumpCounter(cj.montecarlo) as counter:
            while True:
                results = []
                wall = run_pass(wl, nets, cj, counter, results)
                failures += check_pass(checker, results)
                passes.append((wall, results))
                elapsed = time.perf_counter() - t_start
                mean_wall = statistics.fmean(w for w, _ in passes)
                if elapsed + mean_wall > args.seconds:
                    break
        attempted = sum(len(r) for _, r in passes)
        metrics, summary = end_to_end(passes)
        lines += summary
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    unexpected = [f for f in failures if not _known_defect(f)]
    if len(failures) > len(unexpected):
        lines.append(f"FAILED {len(failures) - len(unexpected)} simulate --jumps ops with exit 1 "
                     "(known defect: empirical_cumulants demands equal windows)")
    for op, res, problems in unexpected[:20]:
        lines.append(f"FAILED {op.label} ({op.kind}): {'; '.join(problems)}")
    if len(unexpected) > 20:
        lines.append(f"... {len(unexpected) - 20} more failed ops")
    print(json.dumps({
        "lines": lines,
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(failures),
        "unexpected_failures": len(unexpected),
        "metrics": metrics,
    }))


def _known_defect(failure) -> bool:
    from workloads import KNOWN_DEFECT_KIND

    op, res, problems = failure
    return op.kind == KNOWN_DEFECT_KIND and res.code == 1 and "equal observation windows" in res.text


def attribution(tracer, wl, results) -> list[str]:
    """Where the traced time went, per op kind, from the span tree."""
    lines = ["traced attribution (self time unless noted):"]
    kernel = tracer.inclusive_under("linalg.kernel_basis", "completeness.")
    by_kind: dict[str, list] = {}
    for i, (op, res) in enumerate(results):
        by_kind.setdefault(op.kind, []).append(((op.label, i), op, res))
    largest = max(wl.sizes, key=lambda k: wl.sizes[k]["E"])
    for kind, entries in by_kind.items():
        total = sum(res.seconds for _, _, res in entries)
        keys = {key for key, _, _ in entries}
        top = tracer.top_self(lambda op_key: op_key in keys)
        tops = ", ".join(f"{name} {t:.4g} s ({t / total:.0%})" for name, t in top) if total else "-"
        lines.append(f"  {kind}: {total:.4g} s over {len(entries)} ops; top: {tops}")
        big = [(key, res) for key, op, res in entries if op.model == largest]
        if big and kind in ("analyze", "diagnose", "analyze_fd", "library"):
            t_big = sum(res.seconds for _, res in big)
            k_big = sum(kernel.get(key, 0.0) for key, _ in big)
            lines.append(f"    on {largest}: {t_big:.4g} s, of which linalg.kernel_basis under "
                         f"completeness (inclusive) {k_big:.4g} s ({k_big / t_big:.0%})")
    return lines


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    main()
