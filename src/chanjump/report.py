"""Report assembly and rendering.

Every CLI command produces a JSON-serializable report dict (schema version
1) and the text output is rendered from that dict alone, so the JSON is the
authoritative record.  Reports contain no timestamps or environment data;
given the same inputs and flags they are byte-identical.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .fcs import CumulantReport

SCHEMA_VERSION = 1


def matrix(M) -> list:
    return np.asarray(M, dtype=float).tolist()


def vector(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def new_report(command: str, tolerances: dict[str, float]) -> dict[str, Any]:
    return {"schema": SCHEMA_VERSION, "command": command, "tolerances": tolerances}


def cumulant_section(rep: CumulantReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "method": rep.method,
        "records": list(rep.records),
        "means": {k: float(v) for k, v in rep.means.items()},
        "noise": None if rep.noise is None else matrix(rep.noise),
    }
    if rep.mean_errors is not None:
        out["mean_standard_errors"] = {k: float(v) for k, v in rep.mean_errors.items()}
    if rep.noise is None:
        out["noise_standard_errors"] = None
        out["note"] = rep.note
    elif rep.noise_errors is not None:
        out["noise_standard_errors"] = matrix(rep.noise_errors)
    return out


def to_json(report: dict[str, Any]) -> str:
    """The bytes of ``json.dumps(report, sort_keys=True, indent=2)``.

    Python's C encoder is skipped whenever ``indent`` is set, so the report
    is written here instead.  Types dispatch exactly; subclasses of str, int
    and float are written as json.dumps writes them (``np.float64`` is a
    float).  Floats are ``float.__repr__`` text, or NaN/Infinity/-Infinity,
    and strings are escaped by json's own ASCII escaper.  Dict keys must be
    str: another key, or a value JSON cannot hold, is a TypeError.
    """
    return _json_text(report, "\n")


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj, newline: str) -> str:
    """obj as json.dumps writes it with indent=2, nested one level below ``newline``."""
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    get, inner = _SCALAR_TEXT.get, newline + "  "
    if isinstance(obj, (list, tuple)):
        items = [s(x) if (s := get(type(x))) else _json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(obj, dict):  # the ASCII escaper refuses a key that is not a str
        items = [
            encode_basestring_ascii(k) + ": " + (s(v) if (s := get(type(v))) else _json_text(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    for base in (str, int, float):  # subclasses, in the order json.dumps tests them
        if isinstance(obj, base):
            return _SCALAR_TEXT[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# text rendering

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _render_matrix(rows: list, indent: str = "    ") -> list[str]:
    return [indent + "  ".join(f"{float(v):12.6g}" for v in row) for row in rows]


def _render_cumulants(section: dict, lines: list[str]) -> None:
    lines.append(f"  method: {section['method']}")
    errs = section.get("mean_standard_errors")
    for rec in section["records"]:
        entry = f"  mean[{rec}] = {_fmt(section['means'][rec])}"
        if errs is not None:
            entry += f"  (se {_fmt(errs[rec])})"
        lines.append(entry)
    if section["noise"] is None:
        lines.append(f"  noise matrix: not estimated ({section['note']})")
        return
    lines.append("  noise matrix (record order as above):")
    lines.extend(_render_matrix(section["noise"]))
    if "noise_standard_errors" in section:
        lines.append("  noise standard errors:")
        lines.extend(_render_matrix(section["noise_standard_errors"]))


def render_text(report: dict[str, Any]) -> str:
    """Human-readable view of a report dict."""
    lines = [f"chanjump {report['command']} (schema {report['schema']})"]
    if report.get("tolerances"):
        tols = "  ".join(f"{k}={_fmt(v)}" for k, v in sorted(report["tolerances"].items()))
        lines.append(f"tolerances: {tols}")

    if "model" in report:
        m = report["model"]
        lines.append(
            f"model: {m['n_states']} states, {m['n_channels']} channels, "
            f"{m['n_transitions']} transitions, records: {', '.join(m['records'])}"
        )
    if "generator" in report:
        lines.append("generator matrix:")
        lines.extend(_render_matrix(report["generator"]["matrix"]))
    if "stationary" in report:
        lines.append("stationary state: " + "  ".join(_fmt(x) for x in report["stationary"]["p"]))
    if "kernel" in report:
        k = report["kernel"]
        lines.append(
            f"kernel diagnostics: E={k['E']}  E0={k['E0']}  dim ker P={k['dim_ker_P']}  "
            f"d_lost={k['d_lost']}  complete={_fmt(k['complete'])}"
        )
        if k.get("witness") is not None:
            lines.append("  witness: " + "  ".join(_fmt(x) for x in k["witness"]))
            lines.append("  witness record image: " + "  ".join(_fmt(x) for x in k["witness_image"]))
    for key, title in (("cumulants_analytic", "cumulants (analytic)"),
                       ("cumulants_finite_difference", "cumulants (finite difference)"),
                       ("cumulants_monte_carlo", "cumulants (Monte Carlo)")):
        if key in report:
            lines.append(title + ":")
            _render_cumulants(report[key], lines)
    if "entropy" in report:
        s = report["entropy"]
        lines.append(
            f"entropy production: resolved={_fmt(s['resolved'])}  coarse={_fmt(s['coarse'])}"
        )
        lines.append(f"  note: {s['note']}  [method: {s['method']}]")
    if "diagnosis" in report:
        d = report["diagnosis"]
        lines.append(
            f"remaining kernel after measuring [{', '.join(d['measured'])}]: "
            f"dim {d['remaining_dim']}"
        )
        for t in d["targets"]:
            verdict = "predictable" if t["predictable"] else "NOT predictable"
            lines.append(f"  target {t['record']}: {verdict}")
            if t.get("witness") is not None:
                lines.append("    witness: " + "  ".join(_fmt(x) for x in t["witness"]))
    if "interval" in report:
        iv = report["interval"]
        dirtxt = ", ".join(f"{k}={_fmt(v)}" for k, v in iv["direction"].items())
        lines.append(f"record interval for direction ({dirtxt}):")
        lines.append(f"  [{_fmt(iv['lo'])}, {_fmt(iv['hi'])}]  (u source: {iv['u_source']})")
        for entry in iv["tight_channels"]:
            lines.append(
                f"  transition {entry['transition'][0]}->{entry['transition'][1]}: "
                f"min via {entry['argmin']}, max via {entry['argmax']}"
            )
    if "hulls" in report:
        lines.append("per-transition record hull summands (records: "
                     + ", ".join(report["hulls"]["records"]) + "):")
        for h in report["hulls"]["summands"]:
            pts = "; ".join("(" + ", ".join(_fmt(x) for x in p) + ")" for p in h["points"])
            lines.append(
                f"  {h['transition'][0]}->{h['transition'][1]} weight {_fmt(h['weight'])}: {pts}"
            )
    if "twin" in report:
        t = report["twin"]
        lines.append(f"twin construction: eta={_fmt(t['eta'])} gain={t['gain']} lose={t['lose']}")
        lines.append(f"  generators bitwise equal: {_fmt(t['generators_bitwise_equal'])}")
        lines.append(f"  stationary max |diff|: {_fmt(t['stationary_max_diff'])}")
        lines.append(f"  total heat current difference: {_fmt(t['heat_total_mean_difference'])}")
        lines.append(f"  heat noise difference norm: {_fmt(t['heat_noise_difference_norm'])}")
        lines.append(f"  total-heat noise difference: {_fmt(t['heat_total_noise_difference'])}")
        lines.append(f"  resolved entropy difference: {_fmt(t['entropy_resolved_difference'])}")
        lines.append(f"  coarse entropy difference: {_fmt(t['entropy_coarse_difference'])}")
    if "simulation" in report:
        s = report["simulation"]
        lines.append(
            f"simulation: {s['n_trajectories']} trajectories, seed {s['seed']}, "
            f"horizon {_fmt(s['horizon'])} ({s['horizon_kind']}), "
            f"{s['absorbed_trajectories']} absorbed"
        )
        lines.append("  occupation fractions: " + "  ".join(_fmt(x) for x in s["occupation_fractions"]))
    lines.append("")
    return "\n".join(lines)
