"""The standoff and column readers, imported when one is first used, and
their range rules: ``range_bounds`` cuts one record or column document into
ranges of units, which ``read_range`` decodes with the same decoders. README
"Storage formats" states what each reader accepts and which error it reports.

Error codes: C001 bad span geometry, C002 overlapping elements, C003
illegal kind/subtag combination, C004 malformed standoff record, C010
I-tag without a matching B, C011 role flag inconsistent with the
boundary tag, C012 bad document structure, C013 malformed column row.
The geometry codes (C001 standoff, C011 columns) report the model's
rules: the readers check only their format's own structure and map a
``ModelError`` from ``model.read_element``, which builds each element, to
the code.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import Any

from . import model
from .convert import ConvertError
from .model import STANDOFF_TAGS, TAGS, Document, Element, LabelingUnit, ModelError
from .model import document_unit, read_document


def _offset_type_error(rec: dict[str, Any], *keys: str) -> ConvertError | None:
    """C004 for the first of ``keys`` whose value is present but not an integer."""
    for key in keys:
        value = rec.get(key)
        if value is not None and type(value) is not int:
            return ConvertError("C004", f"field {key!r} must be an integer")
    return None


def _span_keys(rec: dict[str, Any], start_key: str, end_key: str) -> tuple[int | None, int | None]:
    """The offsets under a pair of keys, or two Nones when both are absent.
    Only the keys' types and pairing are checked here."""
    s = rec.get(start_key)
    e = rec.get(end_key)
    if s is None and e is None:
        return s, e
    if type(s) is not int or type(e) is not int:
        raise _offset_type_error(rec, start_key, end_key) or ConvertError(
            "C001", f"{start_key}/{end_key} must be given together"
        )
    return s, e


def _element_from_record(rec: Any) -> tuple[int, int, Element]:
    """Decode one element record into (start, end, element). ``type(v) is int``
    excludes bools: in decoded JSON no other int subclass occurs."""
    if type(rec) is not dict:
        raise ConvertError("C004", "element record must be an object")
    kind = rec.get("kind")
    if type(kind) is not str:
        raise ConvertError("C004", "element record needs a 'kind'")
    sub = rec.get("sub")
    # Check the types first: a list or object is not a valid dict key.
    tag = STANDOFF_TAGS.get((kind, sub)) if sub is None or type(sub) is str else None
    if tag is None:
        raise ConvertError("C003", f"illegal kind/subtag combination {kind!r}/{sub!r}")

    start = rec.get("start")
    end = rec.get("end")
    if type(start) is not int or type(end) is not int:
        raise _offset_type_error(rec, "start", "end") or ConvertError(
            "C004", "element record needs 'start' and 'end'"
        )
    # Most records have no trigger and a head: _span_keys runs for the others.
    trig_start = body_start = trig_head_start = trig_head_end = None
    if "trig_start" in rec or "trig_end" in rec:
        trig_start, body_start = _span_keys(rec, "trig_start", "trig_end")
    if trig_start is None:
        if "trig_head_start" in rec or "trig_head_end" in rec:
            raise ConvertError("C001", "trigger head offsets without a trigger span")
    elif trig_start != start:
        raise ConvertError("C001", "trigger must start at the element start")
    else:
        trig_head_start, trig_head_end = _span_keys(rec, "trig_head_start", "trig_head_end")
    head_start, head_end = rec.get("head_start"), rec.get("head_end")
    if type(head_start) is not int or type(head_end) is not int:
        head_start, head_end = _span_keys(rec, "head_start", "head_end")
    return start, end, model.read_element(
        tag, start, body_start, end, head_start, head_end, trig_head_start, trig_head_end
    )


# A \ud800-\udfff escape that json did not join with its pair into one code
# point: no UTF-8 text holds it, so no writer could write it out.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _lone_surrogate(key: str) -> ConvertError:
    return ConvertError("C004", f"{key!r} holds a lone surrogate escape")


def _unit_from_record(rec: Any) -> LabelingUnit:
    if type(rec) is not dict:
        raise ConvertError("C004", "unit record must be an object")
    text = rec.get("text")
    if type(text) is not str:
        raise ConvertError("C004", "unit record needs a 'text' string")
    if _LONE_SURROGATE.search(text):
        raise _lone_surrogate("text")
    element_recs = rec.get("elements", [])
    if type(element_recs) is not list:
        raise ConvertError("C004", "'elements' must be a list")
    try:
        decoded = [_element_from_record(erec) for erec in element_recs]
        decoded.sort(key=itemgetter(0))
        prev_end = 0
        for start, end, _ in decoded:
            if start < prev_end:
                raise ConvertError("C002", f"element spans overlap at [{start}, {end})")
            prev_end = end
        return LabelingUnit(text, tuple([el for _, _, el in decoded]))
    except ModelError as exc:
        # Span geometry, or text the model forbids.
        raise ConvertError("C001", str(exc)) from None


# A record's structure around its values, matched within its line: "{" or ","
# before a key, the colon, "}" and the line end; the units' "[", "," and "]".
_OPEN = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*(?:(\})[ \t\n\r]*\Z|(?="))')
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")
_NEXT_KEY = re.compile(r'[ \t\n\r]*(?:(\})[ \t\n\r]*\Z|,[ \t\n\r]*(?="))')
_UNITS = re.compile(r"\[[ \t\n\r]*(\])?")
_NEXT_UNIT = re.compile(r"[ \t\n\r]*(?:(\])|,[ \t\n\r]*)")
_RECORD_LINE = re.compile(r"^[^\S\n]*\S[^\n]*", re.MULTILINE)  # str.strip leaves it nonempty
_decode = json.JSONDecoder().raw_decode


def _step(pattern: re.Pattern[str], text: str, pos: int, end: int) -> tuple[int, int | None]:
    """The end of ``pattern`` matched within the line, and 1 if it closed."""
    match = pattern.match(text, pos, end)
    if match is None:
        raise ValueError("broken record")
    return match.end(), match.lastindex


def _units(
    text: str, pos: int, end: int, hi: int | None, opener: re.Pattern[str]
) -> tuple[list[LabelingUnit], int, int | None]:
    """Decode unit records from ``pos``, where ``opener`` matches the
    "units" array's "[" or the "," before a unit, through the array's "]",
    or up to ``hi`` if a unit ends there: the units, the position after the
    last, and 1 if "]" closed."""
    units: list[LabelingUnit] = []
    pos, closed = _step(opener, text, pos, end)
    while not closed:
        unit, pos = _decode(text, pos)
        units.append(document_unit(_unit_from_record(unit)))
        if pos == hi:
            break
        pos, closed = _step(_NEXT_UNIT, text, pos, end)
    return units, pos, closed


def _record(text: str, start: int, end: int, hi: int | None = None) -> tuple[Document, int | None]:
    """Decode the standoff record ``text[start:end]`` one unit at a time, so
    that one unit's dicts are alive at a time: its document, and 1 if it
    closed. Keys may come in any order and the last of a repeated key wins.
    The model's rules on the id and metadata are checked last; any error is
    a ConvertError, C004 but a unit's own, and a broken record is worded as
    ``json.loads`` words it. With ``hi``, it stops after a unit that ends at
    ``hi``, if one does: the record's first range (see ``read_range``)."""
    fields: dict[str, Any] = {"id": "", "meta": [], "units": []}
    try:
        pos, closed = _step(_OPEN, text, start, end)
        while not closed:
            key, pos = _decode(text, pos)  # a string: it starts with a quote
            pos, _ = _step(_COLON, text, pos, end)
            if key == "units" and text.startswith("[", pos, end):
                fields[key], pos, closed = _units(text, pos, end, hi, _UNITS)
                if not closed:  # it stopped at hi
                    break
            else:
                value, pos = _decode(text, pos)
                if key == "id" and type(value) is not str:
                    raise ConvertError("C004", "'id' must be a string")
                strings = type(value) is list and all(type(m) is str for m in value)
                if key == "meta" and not strings:
                    raise ConvertError("C004", "'meta' must be a list of strings")
                if key in ("id", "meta") and _LONE_SURROGATE.search("".join(value)):
                    raise _lone_surrogate(key)  # "".join(id) is the id
                if key == "units":  # a value that does not start with "["
                    raise ConvertError("C004", "'units' must be a list")
                fields[key] = value
            pos, closed = _step(_NEXT_KEY, text, pos, end)
        return read_document(fields["id"], tuple(fields["meta"]), tuple(fields["units"])), closed
    except ModelError as exc:  # a unit's document rule, or the id's and metadata's
        raise ConvertError("C004", str(exc)) from None
    except ConvertError:
        raise
    except (ValueError, RecursionError):
        try:
            json.loads(text[start:end])
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConvertError("C004", f"record is not valid JSON: {exc}") from None
        raise ConvertError("C004", "record must be a JSON object") from None


def from_standoff(line: str) -> Document:
    """Reconstruct a document from one standoff JSON line."""
    return _record(line, 0, len(line))[0]


def read_standoff(text: str, lines: list[int] | None = None) -> list[Document]:
    """Parse a standoff stream: one JSON record per nonempty line, read in
    place. Each record's 1-based line number is appended to ``lines``, if
    given, before the record is decoded, so after a ConvertError the last
    one is the failing record's line."""
    docs, number, pos = [], 1, 0
    for line in _RECORD_LINE.finditer(text):
        number += text.count("\n", pos, line.start())
        pos = line.start()
        if lines is not None:
            lines.append(number)
        docs.append(_record(text, pos, line.end())[0])
    return docs


# One token of a column stream. Each starts at a line start and takes
# its line end with it: a run of rows (one character, then exactly two
# tabs), a "# doc" header, a "# meta" line, a blank line, or any other line.
_COLUMN_TOKEN = re.compile(
    r"(?P<rows>(?:[^\t\n]\t[^\t\n]*\t[^\t\n]*(?:\n|\Z))+)"
    r"|(?P<doc># doc(?: [^\n]*)?)(?:\n|\Z)"
    r"|# meta\t(?P<meta>[^\n]*)(?:\n|\Z)"
    r"|(?P<blank>\n)"
    r"|(?P<bad>[^\n]+)"
)

# Role flags as one character per row ("t" for TH), so that an element's
# roles can be checked with one match over a slice of the unit's codes.
_ROLE_CODES = {"O": "O", "T": "T", "TH": "t", "B": "B", "H": "H"}

# An element's roles: a trigger of T flags with at most one run of TH,
# then a body of B flags with at most one run of H.
_ELEMENT_ROLES = re.compile(r"(T*(t*)T*)B*(H*)B*")


def _unit_from_rows(block: str) -> LabelingUnit:
    """Decode one unit from its rows: newline-separated lines that each
    hold one character and exactly two tabs."""
    fields = block.rstrip("\n").replace("\n", "\t").split("\t")
    btags = fields[1::3]
    roles = fields[2::3]
    codes = "".join([_ROLE_CODES.get(r, "?") for r in roles])
    elements: list[Element] = []
    i = 0
    n = len(btags)
    try:
        while i < n:
            btag = btags[i]
            start = i
            i += 1
            if btag == "O":
                while i < n and btags[i] == "O":
                    i += 1
                if codes.count("O", start, i) != i - start:
                    bad = next(r for r in roles[start:i] if r != "O")
                    raise ConvertError("C011", f"role {bad!r} on an O-tagged character")
                continue
            if not btag.startswith("B-"):
                raise ConvertError("C010", f"{btag!r} without a preceding matching B tag")
            # An empty subtag after UNC ("B-UNC-") reads as bare UNC.
            tag = "UNC" if btag == "B-UNC-" else btag[2:]
            if tag not in TAGS:
                raise ConvertError("C003", f"illegal element tag {btag!r}")
            inside = "I" + btag[1:]
            while i < n and btags[i] == inside:
                i += 1
            if i < n and btags[i].startswith("I-"):
                raise ConvertError("C010", f"{btags[i]!r} without a preceding matching B tag")
            match = _ELEMENT_ROLES.fullmatch(codes, start, i)
            if match is None:
                raise ConvertError(
                    "C011",
                    f"roles {roles[start:i]} are not T/TH flags then B/H flags,"
                    " each head one run",
                )
            body_start = match.end(1)
            trig_head_start, trig_head_end = match.span(2)
            if trig_head_start == trig_head_end:
                trig_head_start = trig_head_end = None
            head_start, head_end = match.span(3)
            if head_start == head_end:
                head_start = head_end = None
            elements.append(model.read_element(
                tag, start, body_start if body_start > start else None, i,
                head_start, head_end, trig_head_start, trig_head_end,
            ))
        return LabelingUnit("".join(fields[0::3]), tuple(elements))
    except ModelError as exc:
        # Span geometry (an empty body, a head run as long as its whole
        # segment), or text the model forbids.
        raise ConvertError("C011", str(exc)) from None


def _at_line(text: str, pos: int, exc: ConvertError) -> ConvertError:
    """``exc`` naming the line of ``text`` that ``pos`` is on."""
    line = text.count("\n", 0, pos) + 1
    return ConvertError(exc.code, f"line {line}: {exc.message}")


def _column_docs(text: str, lo: int, hi: int) -> list[Document]:
    """The documents of the column rows in ``text[lo:hi]``, where ``lo`` is
    a line start and ``text`` holds no "\\r". An error names a line: a
    unit's first row, a document's first line (its ``# doc`` header if it
    has one), or the malformed row."""
    docs: list[Document] = []
    doc_id, meta, units = "", [], []  # of the open document
    blocks: list[str] = []  # row runs of the open unit, split by "# meta" lines
    started = False
    doc_at = unit_at = lo  # where the open document and the open unit start

    def close_unit() -> None:
        if blocks:
            try:
                units.append(document_unit(_unit_from_rows("".join(blocks))))
            except ConvertError as exc:
                raise _at_line(text, unit_at, exc) from None
            blocks.clear()

    def close_doc() -> None:
        nonlocal doc_id, meta, units
        close_unit()
        if started:
            docs.append(read_document(doc_id, tuple(meta), tuple(units)))
        doc_id, meta, units = "", [], []

    try:
        for token in _COLUMN_TOKEN.finditer(text, lo, hi):
            kind = token.lastgroup
            if kind == "rows":
                if not blocks:
                    unit_at = token.start()
                started = True
                blocks.append(token.group())
            elif kind == "blank":
                close_unit()
            elif kind == "doc":
                close_doc()
                started = True
                doc_id = token.group(kind)[6:]
                doc_at = token.start()
                Document(doc_id)
            elif kind == "meta":
                started = True
                meta.append(token.group(kind))
                Document(doc_id, meta[-1:])
            else:
                line = token.group()
                if line.count("\t") != 2:
                    error = ConvertError("C013", "expected 3 tab-separated fields")
                else:
                    error = ConvertError("C013", "first field must be a single character")
                raise _at_line(text, token.start(), error)
        close_doc()
    except ModelError as exc:  # a document's rule, checked as what it covers is read
        raise _at_line(text, doc_at, ConvertError("C012", str(exc))) from None
    return docs


def read_columns(text: str) -> list[Document]:
    """Parse a column-format stream into documents. A read error names its
    line, as ``C011 line N: …``."""
    if "\r" in text:  # one "\r" before each line end is dropped
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    return _column_docs(text, 0, len(text))


def from_columns(text: str) -> Document:
    """Reconstruct a single document from column-format text."""
    docs = read_columns(text)
    if not docs:
        return Document()
    if len(docs) != 1:
        raise ConvertError("C012", f"expected one document, found {len(docs)} '# doc' headers")
    return docs[0]


# Where a range of a one-document file may start: the "," before a unit
# record, which can also open an element record, and a blank line.
_CUTS = {"standoff": (',{"text":', 0), "columns": ("\n\n", 1)}  # (text, offset)
_NON_BLANK = re.compile(r"\S")  # a character that is not whitespace


def range_bounds(text: str, fmt: str, count: int) -> list[int]:
    """Where to cut ``text``, one standoff record or one column document,
    into at most ``count`` ranges of its units, each range after the first
    starting at a cut candidate: ``[start, cut, …, end]``. Empty when the
    text is not one such document, holds "\\r" (columns), or is a record
    whose line does not end with ``]}`` (standoff). A standoff candidate
    may be false: ``read_range`` of its range raises a ValueError."""
    if fmt == "columns":
        if "\r" in text or "\n# doc" in text:
            return []
        start, end = 0, len(text)
    else:  # the one record's line, found without a regex scan of it
        first = _NON_BLANK.search(text)  # None in a blank text, which has no "]}"
        start = text.rfind("\n", 0, first.start()) + 1 if first else 0
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        if _NON_BLANK.search(text, end) or not text.endswith(("]}", "]}\r"), start, end):
            return []
    cut, offset = _CUTS[fmt]
    bounds = [start]
    for k in range(1, count):
        at = text.find(cut, max(start + (end - start) * k // count, bounds[-1] + 1), end)
        if at < 0:
            break
        bounds.append(at + offset)
    return bounds + [end]


def read_range(text: str, fmt: str, bounds: list[int], k: int) -> Document:
    """Decode range ``k`` of ``range_bounds(text, fmt, …)``: a document of
    the units from ``bounds[k]`` to ``bounds[k + 1]``, with every check of
    the reader of ``fmt``. A ConvertError or a ModelError is a ValueError,
    and so is a range that is empty, holds a second document or metadata
    (columns), or does not end where a unit does, the last at the record's
    closing "]}" (standoff)."""
    lo, hi, end = bounds[k], bounds[k + 1], bounds[-1]
    if fmt == "columns":
        docs = _column_docs(text, lo, hi)
        if len(docs) != 1 or not docs[0].units or k and (docs[0].id or docs[0].metadata):
            raise ValueError("a column range holds no unit, or more than units")
        return docs[0]
    last = hi == end
    if k == 0:  # with the id and metadata: later ranges hold units only
        doc, closed = _record(text, lo, end, None if last else hi)
    else:
        units, pos, closed = _units(text, lo, end, hi, _NEXT_UNIT)
        if last:
            _, closed = _step(_NEXT_KEY, text, pos, end)  # "}" and the line end
        doc = read_document("", (), tuple(units))
    if bool(closed) != last:  # stopped at hi, or closed the record
        raise ValueError("a standoff range does not end where a unit does")
    return doc
