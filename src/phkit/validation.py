"""Structural conformance checks for parsed documents.

Each rule has a fixed code and severity; severity never depends on the
input. Errors are violations of rules the annotation scheme states
absolutely, warnings cover conventions with known exceptions, and info
findings are stylistic lints left to human judgement. ``RULES`` is the
one statement of each code's severity and message; the table below and
the one in README.md restate the codes and severities, and a test keeps
all three in step.

=====  =======  ======================================================
E001   error    non-UNC unit whose PRE element count is not exactly 1
E003   error    PRE element with pattern M whose body has no head group
E005   error    UNC element that is not the sole element covering the
                whole unit
W010   warning  form-P element with no trigger separator
W011   warning  PRE element containing a trigger separator
W020   warning  legacy RAI element (suggest COM)
I040   info     non-ADV element whose trigger starts with 把 or 被
                (such phrases are normally adverbial)
I041   info     SUB element positioned after the PRE element
=====  =======  ======================================================
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .model import (
    Document,
    ElementForm,
    ElementType,
    LabelingUnit,
    PredicatePattern,
    Span,
    Value,
    compact_json,
)


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: Each rule code's severity and message (a format string: E001 takes the
#: PRE count, the others no argument).
RULES: dict[str, tuple[Severity, str]] = {
    "E001": (Severity.ERROR, "expected exactly one PRE element, found {}"),
    "E003": (Severity.ERROR, "PRE-M requires a head group marking the verb"),
    "E005": (Severity.ERROR, "UNC must be the sole element and cover the whole unit"),
    "W010": (Severity.WARNING, "form-P element has no trigger separator"),
    "W011": (Severity.WARNING, "PRE element contains a trigger separator"),
    "W020": (Severity.WARNING, "RAI is a legacy tag; consider COM"),
    "I040": (Severity.INFO, "把/被 phrases are normally annotated as adverbial elements"),
    "I041": (Severity.INFO, "SUB element appears after the PRE element"),
}


class Diagnostic(Value):
    code: str
    severity: Severity
    unit_index: int
    span: Span | None
    message: str
    __slots__ = _fields = tuple(__annotations__)


def validate_unit(unit: LabelingUnit, unit_index: int = 0) -> list[Diagnostic]:
    """Check one unit against the rule table; an empty list means clean.

    One pass over the elements, which the model keeps sorted and disjoint:
    so a SUB after a PRE in element order is a SUB positioned after it.
    """
    out: list[Diagnostic] = []

    def report(code: str, span: Span | None, *args: object) -> None:
        severity, message = RULES[code]
        out.append(Diagnostic(code, severity, unit_index, span, message.format(*args)))

    text = unit.text
    pres = 0
    has_unc = False
    for e in unit.elements:
        kind, span, trigger = e.kind, e.span, e.trigger
        if kind is ElementType.UNC:
            has_unc = True
            # Elements are disjoint and inside the text, so an element that
            # covers the whole unit is also its sole element.
            if span.end - span.start != len(text):
                report("E005", span)
        elif kind is ElementType.PRE:
            pres += 1
            if e.pattern is PredicatePattern.MODIFIED and e.body.head is None:
                report("E003", span)
            if trigger is not None:
                report("W011", span)
        elif kind is ElementType.SUB and pres:
            report("I041", span)
        elif kind is ElementType.RAI:
            report("W020", span)
        if e.form is ElementForm.PHRASE and trigger is None:
            report("W010", span)
        if (
            kind is not ElementType.ADV
            and trigger is not None
            and text.startswith(("把", "被"), trigger.span.start)
        ):
            report("I040", span)
    if not has_unc and pres != 1:
        report("E001", None, pres)

    out.sort(key=_order_key)
    return out


def validate_document(doc: Document) -> list[Diagnostic]:
    """Validate every unit; findings come back in deterministic order."""
    out: list[Diagnostic] = []
    for index, unit in enumerate(doc.units):
        out.extend(validate_unit(unit, index))
    return out


def _order_key(d: Diagnostic) -> tuple[int, int, str]:
    return (d.unit_index, d.span.start if d.span is not None else -1, d.code)


def render_text(
    findings: Iterable[Diagnostic],
    filename: str = "<input>",
    unit_lines: Sequence[int] | None = None,
) -> list[str]:
    """Render findings as ``file:line: CODE severity message`` lines."""
    out = []
    for d in findings:
        line = _source_line(d.unit_index, unit_lines)
        out.append(f"{filename}:{line}: {d.code} {d.severity.value} {d.message}")
    return out


def render_records(
    findings: Iterable[Diagnostic],
    filename: str = "<input>",
    unit_lines: Sequence[int] | None = None,
) -> list[str]:
    """Render findings as one JSON record per line."""
    out = []
    for d in findings:
        record: dict[str, object] = {
            "file": filename,
            "line": _source_line(d.unit_index, unit_lines),
            "unit": d.unit_index,
            "code": d.code,
            "severity": d.severity.value,
        }
        if d.span is not None:
            record["start"] = d.span.start
            record["end"] = d.span.end
        record["message"] = d.message
        out.append(compact_json(record))
    return out


def _source_line(unit_index: int, unit_lines: Sequence[int] | None) -> int:
    if unit_lines is not None and unit_index < len(unit_lines):
        return unit_lines[unit_index]
    return unit_index + 1
