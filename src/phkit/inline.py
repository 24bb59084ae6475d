"""Parser and emitter for the inline bracket notation.

One labeling unit per line. Each element is written as ``[TAG content]``
with exactly one ASCII space after the tag. Inside the content, ``-``
separates a trigger segment from the body, and a single ``(...)`` group
per segment marks that segment's head. Lines starting with ``#`` are
metadata; the first ``#id:`` line names the document. The characters
``[ ] ( ) - \\`` are markup and must be escaped with a backslash when they
occur literally in text.

Parsing is strict: malformed markup produces coded diagnostics and the
offending line is rejected, never repaired by guessing. Emission produces
the canonical serialization, so ``emit(parse(x))`` is a fixed point.

Diagnostic codes:

====  =========================================================
P001  unbalanced or nested square brackets
P002  unknown element type or illegal type/subtag combination
P003  missing space between tag and content
P004  more than one separator, or a separator inside a head group
P005  more than one head group in one segment
P006  nested or unbalanced parentheses
P007  stray closing bracket outside any element
P008  invalid escape sequence
P009  empty content (element, segment, or head group)
P010  empty tag; also undecodable (non-UTF-8) input at file level
P011  tab or carriage return, which unit text cannot contain
====  =========================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import TAGS, Document, Element, ElementType, LabelingUnit, Segment, Span

RESERVED_CHARS = "[]()-\\"
_ESCAPABLE = frozenset(RESERVED_CHARS)
_ESCAPE_MAP = {ord(c): "\\" + c for c in RESERVED_CHARS}

# Jump tables for the scanner: everything up to the next special character
# is literal text and is copied in one slice.
_GAP_SPECIAL = re.compile(r"[][\\]")
_CONTENT_SPECIAL = re.compile(r"[][()\\-]")


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    """One parse finding, located by 1-based line and codepoint column."""

    code: str
    line: int
    column: int
    message: str


@dataclass
class ParseResult:
    """Outcome of parsing one inline source: the document built from the
    lines that parsed cleanly, the diagnostics for the lines that did not,
    and the 1-based source line of every accepted unit."""

    document: Document
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)
    unit_lines: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _tag_message(tag: str) -> str:
    kind, _, sub = tag.partition("-")
    kinds = {k.value for k in ElementType}
    if kind in kinds and sub:
        return f"illegal subtag '{sub}' for element type '{kind}'"
    if tag == "PRE":
        return "tag 'PRE' requires a pattern subtag (S, R, L, M, or V)"
    if tag in kinds and tag != "UNC":
        return f"tag '{tag}' requires a form subtag (W, P, or C)"
    return f"unknown tag '{tag}'"


def _skip_element(line: str, i: int) -> int:
    """Advance past the current element's closing bracket for resync."""
    n = len(line)
    while i < n:
        c = line[i]
        if c == "\\":
            i += 2
        elif c == "]":
            return i + 1
        else:
            i += 1
    return n


def parse_unit(
    line: str, line_no: int = 1
) -> tuple[LabelingUnit | None, list[ParseDiagnostic]]:
    """Parse one source line into a labeling unit.

    Returns ``(unit, [])`` on success or ``(None, diagnostics)`` when the
    markup is malformed. The unit's text is the line with all markup
    stripped and escapes resolved; element spans refer to that text.
    A tab or a carriage return is reported as P011 at each occurrence.
    """
    if "\n" in line:
        raise ValueError("parse_unit expects a single line without line breaks")
    if "\t" in line or "\r" in line:
        return None, [
            ParseDiagnostic("P011", line_no, i + 1, f"unit text may not contain {ch!r}")
            for i, ch in enumerate(line)
            if ch == "\t" or ch == "\r"
        ]
    diags: list[ParseDiagnostic] = []
    parts: list[str] = []
    elements: list[Element] = []
    tlen = 0
    i, n = 0, len(line)

    def report(code: str, column: int, message: str) -> None:
        diags.append(ParseDiagnostic(code, line_no, column, message))

    def escape_at(i: int) -> tuple[str, int]:
        # Resolve a backslash escape at index i; returns (literal, advance).
        if i + 1 >= n:
            report("P008", i + 1, "dangling '\\' at end of line")
            return "", 1
        nxt = line[i + 1]
        if nxt not in _ESCAPABLE:
            report("P008", i + 1, f"invalid escape '\\{nxt}'")
            return "", 2
        return nxt, 2

    def parse_element(i: int, tlen: int) -> tuple[int, int]:
        nonlocal parts, elements
        open_col = i + 1
        i += 1
        j = i
        while j < n and line[j] != " " and line[j] != "]":
            j += 1
        tag = line[i:j]
        if j >= n:
            report("P001", open_col, "element is never closed")
            return n, tlen
        if line[j] == "]":
            if not tag:
                report("P010", open_col, "empty tag")
            elif tag in TAGS:
                report("P003", j + 1, "expected one space between tag and content")
            else:
                report("P002", i + 1, _tag_message(tag))
            return j + 1, tlen
        if not tag:
            report("P010", open_col, "empty tag")
            return _skip_element(line, j), tlen
        entry = TAGS.get(tag)
        if entry is None:
            report("P002", i + 1, _tag_message(tag))
            return _skip_element(line, j), tlen
        kind, pattern, form = entry

        i = j + 1
        seg_start = tlen
        trigger: Segment | None = None
        head: tuple[int, int] | None = None
        head_open: int | None = None
        while i < n:
            ch = line[i]
            if ch == "]":
                break
            if ch == "\\":
                lit, adv = escape_at(i)
                if lit:
                    parts.append(lit)
                    tlen += 1
                i += adv
            elif ch == "(":
                if head_open is not None:
                    report("P006", i + 1, "'(' nested inside another '('")
                    return _skip_element(line, i), tlen
                if head is not None:
                    report("P005", i + 1, "more than one head group in one segment")
                    return _skip_element(line, i), tlen
                head_open = tlen
                i += 1
            elif ch == ")":
                if head_open is None:
                    report("P006", i + 1, "')' without a matching '('")
                    return _skip_element(line, i), tlen
                if tlen == head_open:
                    report("P009", i + 1, "empty head group")
                    return _skip_element(line, i), tlen
                head = (head_open, tlen)
                head_open = None
                i += 1
            elif ch == "-":
                if head_open is not None:
                    report("P004", i + 1, "separator inside a head group")
                    return _skip_element(line, i), tlen
                if trigger is not None:
                    report("P004", i + 1, "more than one separator in an element")
                    return _skip_element(line, i), tlen
                if tlen == seg_start:
                    report("P009", i + 1, "empty trigger segment before separator")
                    return _skip_element(line, i), tlen
                if head == (seg_start, tlen):
                    report("P009", i + 1, "head group must not cover its whole segment")
                    return _skip_element(line, i), tlen
                trigger = Segment(
                    Span(seg_start, tlen), Span(*head) if head else None
                )
                seg_start = tlen
                head = None
                i += 1
            elif ch == "[":
                report("P001", i + 1, "'[' inside an element: elements cannot nest")
                return _skip_element(line, i), tlen
            else:
                m = _CONTENT_SPECIAL.search(line, i)
                j2 = m.start() if m else n
                parts.append(line[i:j2])
                tlen += j2 - i
                i = j2
        if i >= n:
            if head_open is not None:
                report("P006", n, "'(' is never closed")
            else:
                report("P001", open_col, "element is never closed")
            return n, tlen
        if head_open is not None:
            report("P006", i + 1, "'(' is never closed")
            return i + 1, tlen
        if tlen == seg_start:
            if trigger is None:
                report("P009", i + 1, "empty element content")
            else:
                report("P009", i + 1, "empty body segment after separator")
            return i + 1, tlen
        if head == (seg_start, tlen):
            report("P009", i + 1, "head group must not cover its whole segment")
            return i + 1, tlen
        body = Segment(Span(seg_start, tlen), Span(*head) if head else None)
        elements.append(Element(kind, body, trigger, pattern, form))
        return i + 1, tlen

    while i < n:
        ch = line[i]
        if ch == "[":
            i, tlen = parse_element(i, tlen)
        elif ch == "]":
            report("P007", i + 1, "']' without a matching '['")
            i += 1
        elif ch == "\\":
            lit, adv = escape_at(i)
            if lit:
                parts.append(lit)
                tlen += 1
            i += adv
        else:
            m = _GAP_SPECIAL.search(line, i)
            j = m.start() if m else n
            parts.append(line[i:j])
            tlen += j - i
            i = j

    if diags:
        return None, diags
    return LabelingUnit("".join(parts), tuple(elements)), []


def parse_document(source: str) -> ParseResult:
    """Parse a full inline source (LF line endings, UTF-8 text).

    Lines starting with "#" are metadata; the first "#id:" line sets the
    document id (default: empty). Blank lines are separators. Lines with
    parse errors are reported and omitted from the document.
    """
    diags: list[ParseDiagnostic] = []
    units: list[LabelingUnit] = []
    unit_lines: list[int] = []
    metadata: list[str] = []
    doc_id = ""
    id_seen = False
    for line_no, raw in enumerate(source.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if not line:
            continue
        if line.startswith("#"):
            if not id_seen and line.startswith("#id:"):
                doc_id = line[4:].strip()
                id_seen = True
            else:
                metadata.append(line)
            continue
        unit, unit_diags = parse_unit(line, line_no)
        if unit_diags:
            diags.extend(unit_diags)
        else:
            assert unit is not None
            units.append(unit)
            unit_lines.append(line_no)
    doc = Document(doc_id, tuple(metadata), tuple(units))
    return ParseResult(doc, diags, unit_lines)


def parse_bytes(data: bytes) -> ParseResult:
    """Decode and parse raw file contents; bad UTF-8 is a fatal P010."""
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start]
        line = prefix.count(b"\n") + 1
        column = exc.start - (prefix.rfind(b"\n") + 1) + 1
        diag = ParseDiagnostic(
            "P010", line, column, f"input is not valid UTF-8 at byte {exc.start}"
        )
        return ParseResult(Document(), [diag], [])
    if source.startswith("﻿"):
        source = source[1:]
    return parse_document(source)


def escape_text(text: str) -> str:
    """Backslash-escape every reserved markup character in ``text``."""
    return text.translate(_ESCAPE_MAP)


def _emit_segment(text: str, seg: Segment) -> str:
    s, e = seg.span.start, seg.span.end
    if seg.head is None:
        return escape_text(text[s:e])
    hs, he = seg.head.start, seg.head.end
    return (
        escape_text(text[s:hs])
        + "("
        + escape_text(text[hs:he])
        + ")"
        + escape_text(text[he:e])
    )


def emit_unit(unit: LabelingUnit) -> str:
    """Serialize one unit to its canonical inline line."""
    out: list[str] = []
    pos = 0
    text = unit.text
    for el in unit.elements:
        sp = el.span
        out.append(escape_text(text[pos : sp.start]))
        out.append("[")
        out.append(el.tag)
        out.append(" ")
        if el.trigger is not None:
            out.append(_emit_segment(text, el.trigger))
            out.append("-")
        out.append(_emit_segment(text, el.body))
        out.append("]")
        pos = sp.end
    out.append(escape_text(text[pos:]))
    return "".join(out)


def emit_document(doc: Document) -> str:
    """Serialize a document: id line, metadata lines, one line per unit."""
    lines: list[str] = []
    if doc.id:
        lines.append(f"#id: {doc.id}")
    lines.extend(doc.metadata)
    lines.extend(emit_unit(u) for u in doc.units)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
