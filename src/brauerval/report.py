"""Deterministic rendering of verdicts as json or text reports.

The json form is byte-stable: insertion-ordered keys, exact rationals
as strings, no timestamps, laid out as `json.dumps(..., indent=2)` lays
out the same data.  One writer walks the Verdict and appends text
pieces, which are joined once; the tests keep the old encode-then-dump
path as the oracle the writer's bytes must equal.  A report is
replayable by construction, since every number it contains was
recomputed by the verifier that produced it.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__ as ENGINE_VERSION
from .division import Certificate
from .lattices import Lattice, ValueVector
from .symbols import SymbolSum, SymbolTerm
from .towers import FormalElement
from .verify import Verdict

SCHEMA = "brauerval.report/1"


def _value(value: object, level: int, out: list[str], cache: dict) -> None:
    """Append the json text of value, which opens on a line indented by level.

    cache maps (tuple, level) to the tuple's text, for the tuples that
    _plain admits; it lives for one report.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (tuple, list)):
        _array(value, level, out, cache)
    elif isinstance(value, dict):
        _object(value.items(), level, out, cache)
    elif isinstance(value, Certificate):
        items = (
            ("rule", value.rule),
            ("status", value.status),
            ("payload", value.payload),
            ("children", value.children),
        )
        _object(items, level, out, cache)
    elif isinstance(value, Lattice):
        items = (("denominator", value.denominator), ("rows", value.rows))
        _object(items, level, out, cache)
    elif isinstance(value, ValueVector):
        _array(value.coords, level, out, cache)
    elif isinstance(value, Fraction):
        out.append(f'"{value}"')
    elif isinstance(value, (FormalElement, SymbolTerm, SymbolSum)):
        out.append(_quote(str(value)))
    else:
        raise TypeError(f"cannot encode {type(value).__name__} into a report")


def _plain(items: tuple) -> bool:
    """Whether every item is an int or a str, or a tuple of those.

    Two such tuples that compare equal render alike: an int never
    equals a str, and bool, Fraction and the other types that can equal
    an int are ruled out.  The test looks two levels down at most, so a
    long tuple of pairs is ruled out at its first pair.
    """
    for item in items:
        kind = type(item)
        if kind is tuple:
            for x in item:
                if type(x) is not int and type(x) is not str:
                    return False
        elif kind is not int and kind is not str:
            return False
    return True


def _array(items: tuple | list, level: int, out: list[str], cache: dict) -> None:
    if not items:
        out.append("[]")
        return
    key = None
    if type(items) is tuple and _plain(items):
        key = (items, level)
        text = cache.get(key)
        if text is not None:
            out.append(text)
            return
        mark = len(out)
    inner = "\n" + "  " * (level + 1)
    lead = "[" + inner
    for item in items:
        out.append(lead)
        lead = "," + inner
        _value(item, level + 1, out, cache)
    out.append(inner[:-2] + "]")
    if key is not None:
        text = cache[key] = "".join(out[mark:])
        del out[mark:]
        out.append(text)


def _object(items, level: int, out: list[str], cache: dict) -> None:
    if not items:
        out.append("{}")
        return
    inner = "\n" + "  " * (level + 1)
    lead = "{" + inner
    for key, value in items:
        out.append(lead + _quote(key) + ": ")
        lead = "," + inner
        _value(value, level + 1, out, cache)
    out.append(inner[:-2] + "}")


def render_json(verdict: Verdict) -> str:
    """The verdict as its json report, in one walk over the Verdict."""
    items = (
        ("schema", SCHEMA),
        ("engine_version", ENGINE_VERSION),
        ("task", verdict.task),
        ("parameters", verdict.parameters),
        ("result", verdict.result),
        ("exit_code", verdict.exit_code),
        ("payload", verdict.payload),
        ("certificates", verdict.certificates),
        ("timing", None),
    )
    out: list[str] = []
    _object(items, 0, out, {})
    out.append("\n")
    return "".join(out)


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
