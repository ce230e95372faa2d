"""chanjump benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a chanjump checkout; the program is imported from its
``src/`` directory.  Each workload is a closed loop with one client: one
process makes sequential in-process ``chanjump.cli.main(argv)`` calls (and the
library-only calls ``quotient_form``/``velocity_only_kernel_dim``) on seeded
model files, with BLAS pinned to one thread.  ``--trace 0`` repeats a short
pass of ops for ``--seconds`` and prints the end-to-end metrics, each summing
its ops' best times over the passes (see ``worker.end_to_end``); ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics.  Every op's output is checked.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads: ladder-analytic, twin-montecarlo, many-small (see workloads.py).
Self-test at tiny sizes: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder-analytic", "twin-montecarlo", "many-small")
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170  # whole run, all worker processes included

# every thread-count variable a BLAS or OpenMP runtime may read
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _child(args, workdir: Path, env: dict, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--profile", args.profile, *extra,
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)  # tiny sizes, for selftest.py only
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chanjump" / "__init__.py").is_file():
        print(f"error: no chanjump sources under {ROOT / 'src'}; run from a chanjump checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a terminated run still kills and waits for its worker (subprocess.run does so on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    env["PYTHONHASHSEED"] = "0"
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # set-up samples half before and half after the timed run, so that
        # their median does not hang on one moment's machine speed
        n_setup = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_child(args, workdir / f"setup{i}", env, deadline, "--setup-only")["setup_s"]
                  for i in range(n_setup // 2)]
        out = _child(args, workdir / "run", env, deadline)
        setups += [_child(args, workdir / f"setup{i}", env, deadline, "--setup-only")["setup_s"]
                   for i in range(n_setup // 2, n_setup)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): closed loop, one client")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == args.workload))
    for line in out["lines"]:
        print(line)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = dict(out["metrics"])
    if not args.trace:
        setups.append(out["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        print(f"setup_s: median of {len(setups)} fresh processes: "
              + ", ".join(f"{s:.4g}" for s in setups))
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"worker did not report {missing}")
    ratio = out["failed"] / out["attempted"]
    print(f"failed_ratio: {ratio:.6g} ({out['failed']} of {out['attempted']} ops; "
          f"{out['unexpected_failures']} outside the known simulate --jumps defect)")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": out["unexpected_failures"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
