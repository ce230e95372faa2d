"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at the "tiny" profile, traced and untraced, and asserts
that the last output line carries exactly the metrics BENCHMARK.json names,
each with its unit; that a deliberately corrupted output is counted as a
failed op; and that the benchmark refuses to run without the program's
sources.  Takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_run" / "selftest"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_printed(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, wl["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout[-3000:]
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            assert set(got) == set(expected), set(got) ^ set(expected)
            for name, unit in expected.items():
                assert got[name]["unit"] == unit, (name, got[name])
                assert math.isfinite(got[name]["value"]), (name, got[name])
                if section == "end_to_end":
                    assert got[name]["value"] > 0, (wl["name"], name, got[name])
                assert f"\n{name}: " in proc.stdout, f"{name} not printed"
            # only the known simulate --jumps defect fails
            if wl["name"] != "many-small":
                assert result["failed"] == 0, result
            else:
                assert 0 < result["failed"] < result["attempted"], result
            print(f"ok {wl['name']} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def check_corruption_counts() -> None:
    os.environ.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")})
    sys.path[:0] = [str(HERE)]
    import worker
    import workloads

    cj = worker._import_program()
    import chanjump.cli  # noqa: F401

    wl = workloads.build("ladder-analytic", 5, SCRATCH / "corrupt", "tiny")
    nets = {key: cj.load_network(path.read_text()) for key, path in wl.paths.items()}
    results = []
    with worker.JumpCounter(cj.montecarlo) as counter:
        worker.run_pass(wl, nets, cj, counter, results)
    corrupted = copy.deepcopy(results)
    _, res = next((op, res) for op, res in corrupted if op.kind == "analyze")
    report = json.loads(res.output)
    report["kernel"]["dim_ker_P"] += 1
    res.output = json.dumps(report, sort_keys=True, indent=2).encode()

    clean = worker.check_pass(workloads.Checker(wl, "tiny"), results)
    bad = worker.check_pass(workloads.Checker(wl, "tiny"), corrupted)
    assert len(bad) > len(clean), (clean, bad)
    print(f"ok corrupted output: failed {len(clean)} -> {len(bad)} of {len(results)}")


def check_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "many-small", 0)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print(f"ok refuses to run without sources (exit {proc.returncode})")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "bare").mkdir(parents=True)
    try:
        check_refuses_without_sources()
        check_metrics_printed(spec)
        check_corruption_counts()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
