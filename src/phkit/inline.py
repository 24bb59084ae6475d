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
its code and column. The diagnoser runs only on broken lines, so its
cost is off the path of valid input.

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
from dataclasses import dataclass, field
from functools import partial

from .model import (
    TAGS,
    Document,
    Element,
    ElementForm,
    ElementType,
    LabelingUnit,
    ModelError,
    PredicatePattern,
    Segment,
    Span,
)

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


# Lines without a backslash (nearly all) take the variant without escapes.
_PLAIN_ELEMENT = _element_regex("")
_ESCAPED_ELEMENT = _element_regex(rf"|\\[{_RESERVED}]")
_unescape = partial(re.compile(r"\\(.)").sub, r"\1")

# The diagnoser's pieces: a token is an escape with its character (empty
# when dangling), one markup character, or a run of text; a tag ends at a
# space, a "]" or the end; a broken element is skipped past its "]".
_TOKEN = re.compile(rf"\\(.?)|[{_RESERVED}]|[^{_RESERVED}]+")
_TAG_END = re.compile(r"[ \]]|\Z")
_SKIP_ELEMENT = re.compile(r"(?:\\.?|[^\]\\])*\]?")


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


def _segment(
    parts: list[str], start: int, pre: str, head: str | None, post: str | None
) -> Segment:
    """The segment ``pre(head)post`` (just ``pre`` when ``head`` is None)
    at text offset ``start``, its pieces appended to ``parts``. The model
    rejects an empty segment and a head that covers all of it."""
    if head is None:
        parts.append(pre)
        return Segment(Span(start, start + len(pre)))
    head_start = start + len(pre)
    head_end = head_start + len(head)
    parts += (pre, head, post)
    return Segment(Span(start, head_end + len(post)), Span(head_start, head_end))


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
    match = (_ESCAPED_ELEMENT if escaped else _PLAIN_ELEMENT).match
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
        entry = TAGS.get(tag)
        if entry is None:
            break
        tlen += len(gap)
        try:
            first = _segment(parts, tlen, pre, head, post)
            if pre2 is None:
                body, trigger = first, None
            else:
                body = _segment(parts, first.span.end, pre2, head2, post2)
                trigger = first
        except ModelError:
            break  # an empty segment, or a head covering one: diagnosed below
        kind, pattern, form = entry
        elements.append(Element(kind, body, trigger, pattern, form))
        tlen = body.span.end
        pos = m.end()
    return None, _diagnose(line, line_no)


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
