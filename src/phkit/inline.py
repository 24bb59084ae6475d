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

A line is read in two steps. One compiled regex takes the line element by
element (gap text, then one whole ``[TAG seg(-seg)?]``), and the unit is
built straight from the lengths of the matched pieces; escapes are
resolved only in lines that hold a backslash. A line the regex does not
take, whose tag is unknown, or whose pieces the model constructors reject
(an empty segment, a head covering its segment), goes to a diagnoser
that makes one token pass, builds nothing and reports every fault with
its code and column. The diagnoser runs only on broken lines and lives in
``validation``, imported only then, so its cost is off the path of valid
input, compile included.

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
P011  tab or carriage return, which unit text cannot contain; also a lone
      carriage return in a metadata or ``#id:`` line
P012  ``#id:`` line after an ``#id:`` line with an empty id
====  =========================================================
"""

from __future__ import annotations

import re
from functools import cache, partial

from . import model
from .model import Document, Element, LabelingUnit, ModelError, Segment, Value

RESERVED_CHARS = "[]()-\\"
_ESCAPE_MAP = {ord(c): "\\" + c for c in RESERVED_CHARS}
# Escaped for a character class: the reserved characters, and those that
# are markup in gap text too (outside an element "()-" are literal).
_RESERVED = re.escape(RESERVED_CHARS)
_GAP_RESERVED = re.escape("[]\\")


def _element_regex(escape: str) -> re.Pattern[str]:
    # Gap text, then either one whole element or the end of the line. Groups:
    # gap, tag, then pre/head/post of the first segment and of the segment
    # after a "-". Tabs and carriage returns match nowhere: such lines are diagnosed.
    gap = rf"(?:[^{_GAP_RESERVED}\t\r]{escape})*"
    char = rf"[^{_RESERVED}\t\r]{escape}"
    seg = rf"((?:{char})*)(?:\(((?:{char})+)\)((?:{char})*))?"
    return re.compile(rf"({gap})(?:\[([-A-Z]+) {seg}(?:-{seg})?\]|\Z)")


# Most lines hold no backslash, so the variant with escapes compiles on first use.
_PLAIN_ELEMENT = _element_regex("")
_escaped_element = cache(partial(_element_regex, rf"|\\[{_RESERVED}]"))
_unescape = partial(re.compile(r"\\(.)").sub, r"\1")
# A line end and the next line, if it is a unit line: neither blank nor "#"
# (a "\r" at a line end is dropped, so a lone one makes a blank line).
_unit_line = cache(partial(re.compile, r"\n(?:[^#\r\n]|\r.)"))

class ParseDiagnostic(Value):
    """One parse finding, located by 1-based line and codepoint column."""

    code: str
    line: int
    column: int
    message: str
    __slots__ = _fields = tuple(__annotations__)


class ParseResult(Value):
    """Outcome of parsing one inline source: the document built from the
    lines that parsed cleanly, the diagnostics for the lines that did not,
    and the 1-based source line of every accepted unit."""

    document: Document
    diagnostics: list[ParseDiagnostic]
    unit_lines: list[int]
    __slots__ = _fields = tuple(__annotations__)
    _defaults = (list, list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


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
    escaped = "\\" in line
    match = (_escaped_element() if escaped else _PLAIN_ELEMENT).match
    parts: list[str] = []
    elements: list[Element] = []
    pos = tlen = 0
    while (m := match(line, pos)) is not None:
        gap, tag, pre, head, post, pre2, head2, post2 = m.groups()
        if escaped:
            gap, pre, head, post, pre2, head2, post2 = [
                piece and _unescape(piece)
                for piece in (gap, pre, head, post, pre2, head2, post2)
            ]
        parts.append(gap)
        if tag is None:
            return LabelingUnit("".join(parts), tuple(elements)), []
        # A segment is pre(head)post, or just pre when head is None.
        start = tlen = tlen + len(gap)
        body_start = head_start = head_end = trig_head_start = trig_head_end = None
        if pre2 is not None:  # the first segment is the trigger
            tlen += len(pre)
            parts.append(pre)
            if head is not None:
                trig_head_start, trig_head_end = tlen, tlen + len(head)
                tlen = trig_head_end + len(post)
                parts += (head, post)
            body_start, pre, head, post = tlen, pre2, head2, post2
        tlen += len(pre)
        parts.append(pre)
        if head is not None:
            head_start, head_end = tlen, tlen + len(head)
            tlen = head_end + len(post)
            parts += (head, post)
        try:
            elements.append(model.read_element(
                tag, start, body_start, tlen, head_start, head_end, trig_head_start, trig_head_end
            ))
        except (KeyError, ModelError):
            break  # an unknown tag, an empty segment or a head covering one: diagnosed below
        pos = m.end()
    from .validation import _diagnose  # imported for a broken line only
    return None, _diagnose(line, line_no)


def parse_document(source: str, known: dict[str, LabelingUnit] | None = None) -> ParseResult:
    """Parse a full inline source (LF line endings, UTF-8 text).

    Lines starting with "#" are metadata; the first "#id:" line sets the
    document id (default: empty). Blank lines are separators. Lines with
    parse errors are reported and omitted from the document: a lone
    carriage return in a metadata line (P011), a further "#id:" line after
    an empty id (P012; it could not be told apart from the id on output),
    and any unit line that ``parse_unit`` rejects.

    ``known`` maps unit lines to units and is both read and filled: a line
    found there is not parsed again, and the sources parsed through one dict
    share its (immutable) unit. Only lines that parse cleanly go in, so a
    broken line is diagnosed in each source at its own line number.
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
            if "\r" in line:
                from .validation import _p011
                diags += _p011(line, line_no, "\r")
            elif not line.startswith("#id:"):
                metadata.append(line)
            elif not id_seen:
                doc_id = line[4:].strip()
                id_seen = True
            elif doc_id:
                metadata.append(line)
            else:
                diags.append(
                    ParseDiagnostic(
                        "P012", line_no, 1, "'#id:' line after an empty document id"
                    )
                )
            continue
        unit = known.get(line) if known is not None else None
        if unit is None:
            unit, unit_diags = parse_unit(line, line_no)
            if unit_diags:
                diags.extend(unit_diags)
                continue
            if known is not None:
                known[line] = unit
        units.append(unit)
        unit_lines.append(line_no)
    doc = Document(doc_id, tuple(metadata), tuple(units))
    return ParseResult(doc, diags, unit_lines)


def unit_line_starts(text: str) -> list[int]:
    """Where each line of ``text`` that ``parse_document`` reads as a unit starts."""
    # Found after a line end, so the first line is found after a "\n" put first.
    return [line.start() for line in _unit_line().finditer("\n" + text)]


def decode_utf8(data: bytes) -> str:
    """``data`` as UTF-8 text without a leading BOM; raises UnicodeDecodeError."""
    text = data.decode("utf-8")
    return text[1:] if text.startswith("\ufeff") else text


def parse_bytes(data: bytes) -> ParseResult:
    """Decode and parse raw file contents; bad UTF-8 is a fatal P010."""
    try:
        source = decode_utf8(data)
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start]
        line = prefix.count(b"\n") + 1
        column = exc.start - (prefix.rfind(b"\n") + 1) + 1
        diag = ParseDiagnostic(
            "P010", line, column, f"input is not valid UTF-8 at byte {exc.start}"
        )
        return ParseResult(Document(), [diag], [])
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
