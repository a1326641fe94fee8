"""Deterministic rendering of verdicts as json or text reports.

The json form is byte-stable: insertion-ordered keys, exact rationals
as strings, no timestamps.  A report is replayable by construction,
since every number it contains was recomputed by the verifier that
produced it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from . import __version__ as ENGINE_VERSION
from .division import Certificate
from .lattices import Lattice, ValueVector
from .symbols import SymbolSum, SymbolTerm
from .towers import FormalElement
from .verify import Verdict

SCHEMA = "brauerval.report/1"


def encode(value: object) -> Any:
    """Json-compatible form with deterministic ordering."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, ValueVector):
        return [encode(c) for c in value.coords]
    if isinstance(value, Lattice):
        return {"denominator": value.denominator, "rows": [list(r) for r in value.rows]}
    if isinstance(value, (FormalElement, SymbolTerm, SymbolSum)):
        return str(value)
    if isinstance(value, Certificate):
        return {
            "rule": value.rule,
            "status": value.status,
            "payload": encode(value.payload),
            "children": [encode(c) for c in value.children],
        }
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def report_dict(v: Verdict) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "engine_version": ENGINE_VERSION,
        "task": v.task,
        "parameters": encode(v.parameters),
        "result": v.result,
        "exit_code": v.exit_code,
        "payload": encode(v.payload),
        "certificates": [encode(c) for c in v.certificates],
        "timing": None,
    }


def render_json(verdict: Verdict) -> str:
    return json.dumps(report_dict(verdict), indent=2) + "\n"


def _text_payload_lines(payload: dict[str, object], indent: str) -> list[str]:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_payload_lines(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {_text_value(value)}")
    return lines


def _text_value(value: object) -> str:
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_text_value(v) for v in value) + "]"
    return str(value)


def _certificate_lines(cert: Certificate, indent: str) -> list[str]:
    head = f"{indent}{cert.rule}: {cert.status}"
    summary = ", ".join(
        f"{k}={_text_value(v)}"
        for k, v in cert.payload.items()
        if isinstance(v, (str, int, bool, Fraction, ValueVector)) or v is None
    )
    if summary:
        head += f"  [{summary}]"
    lines = [head]
    for child in cert.children:
        lines.extend(_certificate_lines(child, indent + "  "))
    return lines


def render_text(v: Verdict, timing: float | None = None) -> str:
    """The verdict as indented text, closed by a line for timing (seconds) if given."""
    lines = [f"task: {v.task}"]
    if v.parameters:
        params = " ".join(f"{k}={_text_value(x)}" for k, x in v.parameters.items())
        lines.append(f"parameters: {params}")
    lines.append(f"result: {v.result}")
    if v.payload:
        lines.append("payload:")
        lines.extend(_text_payload_lines(v.payload, "  "))
    if v.certificates:
        lines.append("steps:")
        for cert in v.certificates:
            lines.extend(_certificate_lines(cert, "  "))
    if timing is not None:
        lines.append(f"timing: {timing:.3f}s")
    return "\n".join(lines) + "\n"


def emit_report(
    verdict: Verdict, format: str = "json", out: str | None = None, timing: float | None = None
) -> str:
    """Render the verdict, and write it to out if given; timing reaches text only."""
    if format == "json":
        rendered = render_json(verdict)
    elif format == "text":
        rendered = render_text(verdict, timing)
    else:
        raise ValueError(f"unknown report format {format!r}")
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    return rendered
