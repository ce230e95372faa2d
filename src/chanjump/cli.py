"""Command-line interface.

One binary with subcommands (analyze, diagnose, bounds, twin-demo,
simulate).  Every command builds a JSON report and prints a text rendering
of it; ``--json PATH`` writes the JSON.  All commands are deterministic
given their full flag set, including seeds.  Exit codes: 0 success, 1 input
validation, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import completeness as comp
from . import dot as dotlab
from . import fcs
from . import montecarlo as mc
from . import records as rec
from . import report as rpt
from .errors import NonErgodicError, NumericalError, ValidationError
from .linalg import DEFAULT_TOL, stationary_state
from .network import build_record_map, channel_counts, load_network


def _read_model(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    return load_network(text)


def _open_for_writing(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse a path that ``_open_for_writing`` would refuse, with its message, without opening it.

    Only the file system is asked, so an existing file is not truncated and
    a FIFO is not blocked on.
    """
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = None if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        code = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code is not None:
        raise ValidationError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _model_section(net) -> dict:
    e, e0 = channel_counts(net)
    return {
        "states": list(net.states),
        "records": list(net.records),
        "n_states": net.n_states,
        "n_channels": e,
        "n_transitions": e0,
    }


def _witness_fields(verdict) -> dict:
    """A verdict's witness and its record image, as report vectors; None for a complete verdict."""
    if verdict.witness is None:
        return {"witness": None, "witness_image": None}
    return {"witness": rpt.vector(verdict.witness), "witness_image": rpt.vector(verdict.witness_image)}


def _kernel_section(net, tol: float) -> dict:
    e, e0 = channel_counts(net)
    D = build_record_map(net, net.records)
    verdict = comp.completeness_test(net, D, tol)
    return {
        "E": e,
        "E0": e0,
        "dim_ker_P": e - e0,
        "d_lost": verdict.lost_rank,
        "complete": verdict.complete,
        **_witness_fields(verdict),
        "method": "analytic",
    }


def _entropy_section(net) -> dict:
    try:
        ent = rec.entropy_production(net, net.stationary.p)
    except ValidationError as exc:
        return {"resolved": None, "coarse": None, "note": f"unavailable: {exc}", "method": "analytic"}
    return {
        "resolved": ent.resolved,
        "coarse": ent.coarse,
        "note": ent.note,
        "method": "analytic",
    }


def cmd_analyze(args) -> dict:
    net = _read_model(args.model)
    tol = args.tol
    report = rpt.new_report("analyze", {"rank_tol": tol, "fd_step": args.fd_step})
    report["model"] = _model_section(net)
    report["generator"] = {"matrix": rpt.matrix(net.generator.matrix), "method": "analytic"}
    # at DEFAULT_TOL this is the cached solve the analytic cumulants read too
    ss = net.stationary if tol == DEFAULT_TOL else stationary_state(net.generator, tol)
    report["stationary"] = {"p": rpt.vector(ss.p), "ergodic": ss.ergodic, "method": "analytic"}
    report["kernel"] = _kernel_section(net, tol)
    report["cumulants_analytic"] = rpt.cumulant_section(fcs.analytic_cumulants(net))
    if args.fd:
        report["cumulants_finite_difference"] = rpt.cumulant_section(
            fcs.cumulants_fd(net, h=args.fd_step)
        )
    report["entropy"] = _entropy_section(net)
    return report


def cmd_diagnose(args) -> dict:
    net = _read_model(args.model)
    tol = args.tol
    measured = args.measured or []
    targets = args.target or []
    if not targets:
        raise ValidationError("at least one --target record is required")
    D_meas = build_record_map(net, measured)
    report = rpt.new_report("diagnose", {"rank_tol": tol})
    report["model"] = _model_section(net)
    entries = []
    for name in targets:
        D_tar = build_record_map(net, [name])
        verdict = comp.predictability_test(net, D_meas, D_tar, tol)
        entries.append({
            "record": name,
            "predictable": verdict.complete,
            "lost_rank": verdict.lost_rank,
            **_witness_fields(verdict),
        })
    e, e0 = channel_counts(net)
    report["diagnosis"] = {
        "measured": list(measured),
        "remaining_dim": e - e0 - comp.completeness_test(net, D_meas, tol).lost_rank,
        "targets": entries,
        "method": "analytic",
    }
    return report


def _parse_direction(pairs: list[str]) -> dict[str, float]:
    direction = {}
    for item in pairs:
        name, sep, weight = item.partition("=")
        if not sep or not name:
            raise ValidationError(f"--direction expects record=weight, got {item!r}")
        if name in direction:
            raise ValidationError(f"--direction gives record {name!r} twice")
        try:
            value = float(weight)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValidationError(f"bad weight in --direction {item!r}")
        direction[name] = value
    if not direction:
        raise ValidationError("at least one --direction record=weight is required")
    return direction


def cmd_bounds(args) -> dict:
    net = _read_model(args.model)
    direction = _parse_direction(args.direction)
    if args.u_file is not None:
        try:
            u = json.loads(Path(args.u_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read u file: {exc}") from exc
        if not isinstance(u, list) or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in u):
            raise ValidationError("u file must hold a flat JSON array of numbers")
        try:
            u = np.array([float(x) for x in u])
        except OverflowError:
            raise ValidationError("u file holds a number too large for a float") from None
        u_source = f"file:{args.u_file}"
    else:
        u = rec.stationary_transition_totals(net)
        u_source = "stationary"
    interval = rec.record_interval(net, u, direction)
    hulls = rec.record_hull_summary(net, u, list(direction))
    report = rpt.new_report("bounds", {"rank_tol": DEFAULT_TOL})
    report["model"] = _model_section(net)
    report["interval"] = {
        "lo": interval.lo,
        "hi": interval.hi,
        "direction": interval.direction,
        "u": rpt.vector(u),
        "u_source": u_source,
        "transitions": [list(t) for t in net.transitions()],
        "tight_channels": [
            {"transition": list(t), "argmin": lo_ch, "argmax": hi_ch}
            for t, lo_ch, hi_ch in interval.tight_channels
        ],
        "method": "analytic",
    }
    report["hulls"] = {
        "records": list(direction),
        "summands": [
            {"transition": list(h.transition), "weight": h.weight, "points": [list(p) for p in h.points]}
            for h in hulls
        ],
    }
    return report


def _rate_difference(b: float, a: float) -> float | None:
    """b - a of two entropy rates in [0, inf]; None (JSON null) where both are infinite."""
    return None if a == b == math.inf else b - a


def cmd_twin_demo(args) -> dict:
    spec = dotlab.twin_dot_spec(
        eps=args.eps,
        mu_left=args.mu_l,
        mu_right=args.mu_r,
        temperature=args.temp,
        gamma=args.gamma,
    )
    net = dotlab.build_dot(spec)
    twin = dotlab.make_twin(net, level=0, gain_res=args.gain, lose_res=args.lose, eta=args.eta)
    bitwise_equal = bool(np.array_equal(net.generator.matrix, twin.generator.matrix))
    means_a = fcs.mean_currents(net)
    means_b = fcs.mean_currents(twin)
    heat_records = [f"heat_{r.name}" for r in spec.reservoirs]
    Dq_a = fcs.noise_matrix(net)
    Dq_b = fcs.noise_matrix(twin)
    idx = net.record_rows(heat_records)
    S_a = Dq_a[np.ix_(idx, idx)]
    S_b = Dq_b[np.ix_(idx, idx)]
    k_tot = net.records.index("heat_total")
    ent_a = rec.entropy_production(net, net.stationary.p)
    ent_b = rec.entropy_production(twin, twin.stationary.p)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed norm is rescaled, then refused
        diff = S_b - S_a
        norm = float(np.linalg.norm(diff))
        if not math.isfinite(norm):
            scale = np.abs(diff).max()
            norm = float(scale * np.linalg.norm(diff / scale))
    if not math.isfinite(norm):
        raise NumericalError("the heat noise difference norm exceeds the largest double")

    report = rpt.new_report("twin-demo", {"rank_tol": DEFAULT_TOL})
    report["model"] = _model_section(net)
    report["twin"] = {
        "eta": args.eta,
        "gain": args.gain,
        "lose": args.lose,
        "generators_bitwise_equal": bitwise_equal,
        "stationary_max_diff": float(np.max(np.abs(net.stationary.p - twin.stationary.p))),
        "heat_total_mean_difference": means_b["heat_total"] - means_a["heat_total"],
        "heat_records": heat_records,
        "heat_noise_base": rpt.matrix(S_a),
        "heat_noise_twin": rpt.matrix(S_b),
        "heat_noise_difference_norm": norm,
        "heat_total_noise_difference": float(Dq_b[k_tot, k_tot] - Dq_a[k_tot, k_tot]),
        "entropy_resolved_difference": _rate_difference(ent_b.resolved, ent_a.resolved),
        "entropy_coarse_difference": _rate_difference(ent_b.coarse, ent_a.coarse),
        "method": "analytic",
    }
    if not bitwise_equal:
        raise NumericalError("twin construction failed to preserve the generator bitwise")
    return report


def cmd_simulate(args) -> dict:
    net = _read_model(args.model)
    cfg = mc.SimConfig(
        n_trajectories=args.trajectories,
        seed=args.seed,
        t_max=args.horizon,
        max_jumps=args.jumps,
        initial=args.initial,
        burn_in=args.burn_in,
    )
    # jumps go to a scratch file, copied to --dump only once the report is built,
    # so a refused or failed run leaves an existing dump as it was
    with tempfile.TemporaryFile("w+") if args.dump else contextlib.nullcontext() as dump:
        stats = mc.simulate(net, cfg, dump=dump)
        emp = mc.empirical_cumulants(stats)
        occupation = np.sum([st.occupation for st in stats], axis=0)
        total_time = occupation.sum()
        report = rpt.new_report("simulate", {})
        report["model"] = _model_section(net)
        report["simulation"] = {
            "n_trajectories": cfg.n_trajectories,
            "seed": cfg.seed,
            "horizon": cfg.t_max if cfg.t_max is not None else cfg.max_jumps,
            "horizon_kind": "time" if cfg.t_max is not None else "jumps",
            "burn_in": cfg.burn_in,
            "absorbed_trajectories": sum(1 for st in stats if st.absorbed),
            "occupation_fractions": rpt.vector(occupation / total_time) if total_time > 0 else [],
            "method": "monte_carlo",
        }
        report["cumulants_monte_carlo"] = rpt.cumulant_section(emp)
        try:
            report["cumulants_analytic"] = rpt.cumulant_section(fcs.analytic_cumulants(net))
        except NonErgodicError:
            pass  # non-ergodic networks have no stationary reference
        if dump is not None:
            dump.seek(0)
            with _open_for_writing(args.dump) as handle:
                shutil.copyfileobj(dump, handle)
    return report


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word like -1e-3 is a value, not an option: argparse's own pattern misses exponents
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits 2 on usage errors; bad flags are input validation here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _open_interval(lo: float, hi: float):
    """argparse type: a float strictly between lo and hi (so finite, never NaN)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"expected a number in ({lo:g}, {hi:g}), got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chanjump", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the JSON report to PATH")

    def tolerance(p):
        # only where a rank verdict depends on it; the other commands use DEFAULT_TOL
        p.add_argument("--tol", type=_open_interval(0.0, 1.0), default=DEFAULT_TOL,
                       help="relative rank/kernel threshold (default 1e-10)")

    p = sub.add_parser("analyze", help="full analytic report for a model file")
    p.add_argument("model")
    p.add_argument("--fd", action="store_true", help="add finite-difference cumulants")
    p.add_argument("--fd-step", type=_open_interval(0.0, math.inf), default=1e-4,
                   help="finite-difference step, finite and > 0")
    tolerance(p)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diagnose", help="which target records are fixed by measured ones")
    p.add_argument("model")
    p.add_argument("--measured", action="append", default=[], metavar="RECORD")
    p.add_argument("--target", action="append", default=[], metavar="RECORD")
    tolerance(p)
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("bounds", help="exact compatible interval of a record direction")
    p.add_argument("model")
    p.add_argument("--direction", action="append", default=[], metavar="RECORD=WEIGHT")
    p.add_argument("--u-file", default=None,
                   help="JSON array of transition totals (canonical order); default stationary")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("twin-demo", help="build a dot and a state-identical twin")
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--mu-l", type=float, default=0.5)
    p.add_argument("--mu-r", type=float, default=-0.5)
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gain", default="L")
    p.add_argument("--lose", default="R")
    common(p)
    p.set_defaults(func=cmd_twin_demo)

    p = sub.add_parser("simulate", help="Monte Carlo trajectories with analytic reference")
    p.add_argument("model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trajectories", type=int, required=True)
    p.add_argument("--horizon", type=float, default=None, help="time window per trajectory")
    p.add_argument("--jumps", type=int, default=None, help="jump budget per trajectory")
    p.add_argument("--burn-in", type=float, default=0.0)
    p.add_argument("--initial", type=int, default=None, help="fixed initial state index")
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="write one time,channel,state line per jump")
    common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by every later call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for path in filter(None, (args.json, getattr(args, "dump", None))):
            _check_writable(path)  # before the run, which may take long
        report = args.func(args)
        if args.json:
            with _open_for_writing(args.json) as handle:
                handle.write(rpt.to_json(report))
    except ValidationError as exc:
        print(f"chanjump {args.command}: validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"chanjump {args.command}: numerical error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rpt.render_text(report))
    return 0


def script() -> None:
    raise SystemExit(main())
