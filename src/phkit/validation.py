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

The P-code diagnoser of the inline reader (``_diagnose``) is here too:
``inline`` imports this module only for a line it rejects, so that valid
input never compiles the diagnoser. So is ``phk validate``'s command.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Sequence

from .inline import _RESERVED, RESERVED_CHARS, ParseDiagnostic
from .model import (
    TAGS,
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

    def __init__(
        self, code: str, severity: Severity, unit_index: int, span: Span | None, message: str
    ) -> None:
        _set_code(self, code)
        _set_severity(self, severity)
        _set_unit_index(self, unit_index)
        _set_span(self, span)
        _set_message(self, message)


_set_code, _set_severity, _set_unit_index, _set_span, _set_message = Diagnostic._setters


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


# The diagnoser's pieces: a token is an escape with its character (empty
# when dangling), one markup character, or a run of text; a tag ends at a
# space, a "]" or the end; a broken element is skipped past its "]".
_TOKEN = re.compile(rf"\\(.?)|[{_RESERVED}]|[^{_RESERVED}]+")
_TAG_END = re.compile(r"[ \]]|\Z")
_SKIP_ELEMENT = re.compile(r"(?:\\.?|[^\]\\])*\]?")


def _tag_message(tag: str) -> str:
    kind, _, sub = tag.partition("-")
    kinds = {k.value for k in ElementType}
    if kind in kinds and sub:
        return f"illegal subtag '{sub}' for element type '{kind}'"
    if tag not in kinds:
        return f"unknown tag '{tag}'"
    what, subtags = ("pattern", PredicatePattern) if tag == "PRE" else ("form", ElementForm)
    *rest, last = (s.value for s in subtags)
    return f"tag '{tag}' requires a {what} subtag ({', '.join(rest)}, or {last})"


def _p011(line: str, line_no: int, chars: str) -> list[ParseDiagnostic]:
    return [
        ParseDiagnostic("P011", line_no, i + 1, f"unit text may not contain {ch!r}")
        for i, ch in enumerate(line)
        if ch in chars
    ]


def _diagnose(line: str, line_no: int) -> list[ParseDiagnostic]:
    """Every diagnostic of a line that ``parse_unit`` does not accept.

    One pass over the line's tokens reports each fault where it is found
    and resumes after a broken element's ``]``. ``opened`` is the index of
    the open ``[`` (-1 in gap text); inside an element, ``tlen`` is the text
    length of the current segment and ``head``/``head_open`` its head group.
    """
    if "\t" in line or "\r" in line:
        return _p011(line, line_no, "\t\r")
    diags: list[ParseDiagnostic] = []
    at, n = 0, len(line)
    opened = tlen = -1

    def report(code: str, column: int, message: str) -> None:
        diags.append(ParseDiagnostic(code, line_no, column, message))

    while at < n:
        token = _TOKEN.match(line, at)
        i, at = at, token.end()
        tok, escaped = token.group(), token.group(1)
        fault = None
        if escaped is not None:
            if not escaped:
                report("P008", i + 1, "dangling '\\' at end of line")
            elif escaped in RESERVED_CHARS:
                tlen += 1
            else:
                report("P008", i + 1, f"invalid escape '\\{escaped}'")
        elif opened < 0:
            if tok == "]":
                report("P007", i + 1, "']' without a matching '['")
            elif tok == "[":
                end = _TAG_END.search(line, at).start()
                tag = line[at:end]
                if end == n:
                    report("P001", i + 1, "element is never closed")
                    at = n
                elif line[end] == "]":
                    if not tag:
                        report("P010", i + 1, "empty tag")
                    elif tag in TAGS:
                        report("P003", end + 1, "expected one space between tag and content")
                    else:
                        report("P002", at + 1, _tag_message(tag))
                    at = end + 1
                elif not tag:
                    report("P010", i + 1, "empty tag")
                    at = _SKIP_ELEMENT.match(line, end).end()
                elif tag not in TAGS:
                    report("P002", at + 1, _tag_message(tag))
                    at = _SKIP_ELEMENT.match(line, end).end()
                else:
                    opened, at, tlen = i, end + 1, 0
                    separated, head, head_open = False, None, None
        elif tok == "]":
            opened = -1
            if head_open is not None:
                report("P006", i + 1, "'(' is never closed")
            elif tlen == 0:
                what = "body segment after separator" if separated else "element content"
                report("P009", i + 1, f"empty {what}")
            elif head == (0, tlen):
                report("P009", i + 1, "head group must not cover its whole segment")
        elif tok == "[":
            fault = "P001", "'[' inside an element: elements cannot nest"
        elif tok == "(":
            if head_open is not None:
                fault = "P006", "'(' nested inside another '('"
            elif head is not None:
                fault = "P005", "more than one head group in one segment"
            else:
                head_open = tlen
        elif tok == ")":
            if head_open is None:
                fault = "P006", "')' without a matching '('"
            elif tlen == head_open:
                fault = "P009", "empty head group"
            else:
                head, head_open = (head_open, tlen), None
        elif tok == "-":
            if head_open is not None:
                fault = "P004", "separator inside a head group"
            elif separated:
                fault = "P004", "more than one separator in an element"
            elif tlen == 0:
                fault = "P009", "empty trigger segment before separator"
            elif head == (0, tlen):
                fault = "P009", "head group must not cover its whole segment"
            else:
                separated, tlen, head = True, 0, None
        else:
            tlen += len(tok)
        if fault:
            report(fault[0], i + 1, fault[1])
            opened, at = -1, _SKIP_ELEMENT.match(line, i).end()
    if opened >= 0:
        if head_open is not None:
            report("P006", n, "'(' is never closed")
        else:
            report("P001", opened + 1, "element is never closed")
    return diags


def cmd_validate(args) -> int:
    from . import cli

    render = render_records if args.format == "records" else render_text

    def check(path: str, status: int, docs: list) -> tuple[int, bool]:
        errors = False
        for doc, unit_lines in docs:
            findings = validate_document(doc)
            if args.strict:
                findings = [
                    Diagnostic(d.code, Severity.ERROR, d.unit_index, d.span, d.message)
                    if d.severity is Severity.WARNING
                    else d
                    for d in findings
                ]
            if any(d.severity is Severity.ERROR for d in findings):
                errors = True
            for line in render(findings, path, unit_lines):
                print(line)
        return status, errors

    status, errors = cli.EXIT_OK, False
    for file_status, file_errors in cli._each_file(args.files, args.from_format, check):
        status, errors = max(status, file_status), errors or file_errors
    if status == cli.EXIT_PARSE:
        return cli.EXIT_PARSE
    return cli.EXIT_VALIDATION if errors else cli.EXIT_OK
