"""Structural conformance checks for parsed documents.

Each rule has a fixed code and severity; severity never depends on the
input. Errors are violations of rules the annotation scheme states
absolutely, warnings cover conventions with known exceptions, and info
findings are stylistic lints left to human judgement.

Rule table:

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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    Document,
    ElementForm,
    ElementType,
    LabelingUnit,
    PredicatePattern,
    Span,
    compact_json,
    span_surface,
)


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


SEVERITY_BY_CODE: dict[str, Severity] = {
    "E001": Severity.ERROR,
    "E003": Severity.ERROR,
    "E005": Severity.ERROR,
    "W010": Severity.WARNING,
    "W011": Severity.WARNING,
    "W020": Severity.WARNING,
    "I040": Severity.INFO,
    "I041": Severity.INFO,
}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    code: str
    severity: Severity
    unit_index: int
    span: Span | None
    message: str


def _finding(code: str, unit_index: int, span: Span | None, message: str) -> Diagnostic:
    return Diagnostic(code, SEVERITY_BY_CODE[code], unit_index, span, message)


def validate_unit(unit: LabelingUnit, unit_index: int = 0) -> list[Diagnostic]:
    """Check one unit against the rule table; an empty list means clean."""
    out: list[Diagnostic] = []
    els = unit.elements
    uncs = [e for e in els if e.kind is ElementType.UNC]
    pres = [e for e in els if e.kind is ElementType.PRE]

    if uncs:
        for e in uncs:
            sole = len(els) == 1
            whole = (
                (e.trigger or e.body).span.start == 0
                and e.body.span.end == len(unit.text)
            )
            if not (sole and whole):
                out.append(
                    _finding(
                        "E005",
                        unit_index,
                        e.span,
                        "UNC must be the sole element and cover the whole unit",
                    )
                )
    elif len(pres) != 1:
        out.append(
            _finding(
                "E001",
                unit_index,
                None,
                f"expected exactly one PRE element, found {len(pres)}",
            )
        )

    for e in els:
        if (
            e.kind is ElementType.PRE
            and e.pattern is PredicatePattern.MODIFIED
            and e.body.head is None
        ):
            out.append(
                _finding(
                    "E003",
                    unit_index,
                    e.span,
                    "PRE-M requires a head group marking the verb",
                )
            )
        if e.form is ElementForm.PHRASE and e.trigger is None:
            out.append(
                _finding(
                    "W010",
                    unit_index,
                    e.span,
                    "form-P element has no trigger separator",
                )
            )
        if e.kind is ElementType.PRE and e.trigger is not None:
            out.append(
                _finding(
                    "W011",
                    unit_index,
                    e.span,
                    "PRE element contains a trigger separator",
                )
            )
        if e.kind is ElementType.RAI:
            out.append(
                _finding(
                    "W020",
                    unit_index,
                    e.span,
                    "RAI is a legacy tag; consider COM",
                )
            )
        if (
            e.kind is not ElementType.ADV
            and e.trigger is not None
            and span_surface(unit, e.trigger.span).startswith(("把", "被"))
        ):
            out.append(
                _finding(
                    "I040",
                    unit_index,
                    e.span,
                    "把/被 phrases are normally annotated as adverbial elements",
                )
            )

    if pres:
        first_pre_end = min(p.body.span.end for p in pres)
        for e in els:
            if e.kind is ElementType.SUB and (e.trigger or e.body).span.start >= first_pre_end:
                out.append(
                    _finding(
                        "I041",
                        unit_index,
                        e.span,
                        "SUB element appears after the PRE element",
                    )
                )

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
