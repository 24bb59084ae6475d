import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phkit.inline import (
    ParseDiagnostic,
    emit_document,
    emit_unit,
    parse_bytes,
    parse_document,
    parse_unit,
    unit_line_starts,
)
from phkit.model import TAGS, Document, Element, LabelingUnit, Segment, Span
from phkit.validation import _tag_message

from .strategies import TEXT_ALPHABET, documents, labeling_units


def codes(diags):
    return [d.code for d in diags]


def strip_markup_oracle(line: str) -> str:
    """Independent markup stripper for diag-free lines.

    Walks the line with explicit state instead of the parser's jump
    scanner: drops brackets, tags (up to the first space), parens and
    separators, and resolves escapes.
    """
    out = []
    i, n = 0, len(line)
    in_element = False
    while i < n:
        ch = line[i]
        if ch == "\\":
            out.append(line[i + 1])
            i += 2
        elif ch == "[":
            in_element = True
            i = line.index(" ", i) + 1  # skip "[TAG "
        elif ch == "]":
            in_element = False
            i += 1
        elif in_element and ch in "()-":
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# --- parse_unit -----------------------------------------------------------


def test_parse_two_element_unit_spans():
    unit, diags = parse_unit("[SUB-W 被告人(陈某某)][PRE-S 迁怒]")
    assert not diags
    assert unit.text == "被告人陈某某迁怒"
    sub, pre = unit.elements
    assert (sub.span.start, sub.span.end) == (0, 6)
    assert (sub.body.head.start, sub.body.head.end) == (3, 6)
    assert (pre.span.start, pre.span.end) == (6, 8)


def test_parse_trigger_with_head():
    unit, diags = parse_unit("[ADV-P 多次(向)-被告人][PRE-S 提出]")
    assert not diags
    adv = unit.elements[0]
    assert unit.text == "多次向被告人提出"
    assert adv.trigger.span == Span(0, 3)
    assert adv.trigger.head == Span(2, 3)
    assert adv.separator_offset == 3
    assert adv.body.span == Span(3, 6)
    assert adv.body.head is None


def test_parse_unc_whole_unit():
    unit, diags = parse_unit("[UNC 此句无法标注]")
    assert not diags
    assert unit.text == "此句无法标注"
    (el,) = unit.elements
    assert el.tag == "UNC"
    assert el.span == Span(0, len(unit.text))


def test_illegal_tag_combination_is_p002():
    unit, diags = parse_unit("[PRE-W 我]")
    assert unit is None
    assert codes(diags) == ["P002"]
    assert codes(parse_unit("[SUB-S 我]")[1]) == ["P002"]
    assert codes(parse_unit("[UNC-W 我]")[1]) == ["P002"]
    assert codes(parse_unit("[PRE 我]")[1]) == ["P002"]
    assert codes(parse_unit("[XYZ 我]")[1]) == ["P002"]


@pytest.mark.parametrize(
    "line, message",
    [
        ("[PRE x]", "tag 'PRE' requires a pattern subtag (S, R, L, M, or V)"),
        ("[ADV x]", "tag 'ADV' requires a form subtag (W, P, or C)"),
        ("[PRE-W x]", "illegal subtag 'W' for element type 'PRE'"),
        ("[UNC-S x]", "illegal subtag 'S' for element type 'UNC'"),
        ("[XYZ x]", "unknown tag 'XYZ'"),
        ("[PRE- x]", "unknown tag 'PRE-'"),
    ],
)
def test_p002_message_names_the_fault_and_the_legal_subtags(line, message):
    # Written out here: the reference scanner below calls _tag_message itself.
    assert parse_unit(line) == (None, [ParseDiagnostic("P002", 1, 2, message)])


def test_diagnostic_code_table():
    cases = {
        "[SUB-W 王某": "P001",  # unbalanced bracket
        "[SUB-W 王[PRE-S 某]]": "P001",  # nested element
        "[PRE-S]": "P003",  # missing space
        "[ADV-P 因-家-庭]": "P004",  # two separators
        "[ADV-P 因(家-庭)]": "P004",  # separator inside head group
        "[SUB-W (王)(某)]": "P005",  # two head groups in one segment
        "[SUB-W ((王))]": "P006",  # nested parens
        "[SUB-W 王)某]": "P006",  # stray close paren
        "[SUB-W (王某]": "P006",  # unclosed paren
        "王某]": "P007",  # stray close bracket
        "[SUB-W 王\\某]": "P008",  # invalid escape
        "王某\\": "P008",  # dangling escape
        "[SUB-W ]": "P009",  # empty content
        "[ADV-P -王某]": "P009",  # empty trigger
        "[ADV-P 因-]": "P009",  # empty body
        "[SUB-W ()]": "P009",  # empty head group
        "[SUB-W (王某)]": "P009",  # head covers whole segment
        "[ 王某]": "P010",  # empty tag
        "[]": "P010",
    }
    for line, expected in cases.items():
        unit, diags = parse_unit(line)
        assert unit is None, line
        assert expected in codes(diags), (line, diags)


def test_trigger_head_covering_whole_trigger_is_rejected():
    unit, diags = parse_unit("[ADV-P (因)-王某]")
    assert unit is None
    assert "P009" in codes(diags)


def test_escapes_resolve_to_literals():
    unit, diags = parse_unit("\\[x\\]\\(y\\)\\-z\\\\[SUB-W a\\-b]")
    assert not diags
    assert unit.text == "[x](y)-z\\a-b"
    (el,) = unit.elements
    assert unit.text[el.span.start : el.span.end] == "a-b"


def test_gap_text_is_lenient_about_unescaped_parens_and_dash():
    # Outside elements only brackets and backslash are structural.
    unit, diags = parse_unit("a-b(c)[PRE-S 走]")
    assert not diags
    assert unit.text == "a-b(c)走"
    # Canonicalization escapes them on the way out.
    assert emit_unit(unit) == "a\\-b\\(c\\)[PRE-S 走]"
    reparsed, diags2 = parse_unit(emit_unit(unit))
    assert not diags2
    assert reparsed == unit


def test_multiple_diagnostics_reported_on_one_line():
    unit, diags = parse_unit("[XYZ a][PRE-W b]")
    assert unit is None
    assert codes(diags) == ["P002", "P002"]


def test_parse_unit_rejects_embedded_newline():
    with pytest.raises(ValueError):
        parse_unit("a\nb")


# --- parse_document / emit_document --------------------------------------


def test_parse_document_empty():
    result = parse_document("")
    assert result.ok
    assert result.document == Document()


def test_parse_document_metadata_and_id():
    result = parse_document("# note\n#id: doc7\n#id: second\n\n[PRE-S 走]\n")
    assert result.ok
    doc = result.document
    assert doc.id == "doc7"
    assert doc.metadata == ("# note", "#id: second")
    assert len(doc.units) == 1
    assert result.unit_lines == [5]


def test_parse_document_partial_on_errors():
    result = parse_document("[SUB-W 王某\n[PRE-S 走]\n")
    assert len(result.document.units) == 1
    assert codes(result.diagnostics) == ["P001"]
    assert result.diagnostics[0].line == 1


def test_unbalanced_line_reports_p001_at_line_1():
    result = parse_document("[SUB-W 王某")
    assert len(result.document.units) == 0
    assert codes(result.diagnostics) == ["P001"]
    assert result.diagnostics[0].line == 1


def test_parse_bytes_rejects_invalid_utf8():
    result = parse_bytes(b"[PRE-S \xff]")
    assert codes(result.diagnostics) == ["P010"]
    assert result.document == Document()


def test_parse_bytes_strips_bom():
    result = parse_bytes("﻿[PRE-S 走]\n".encode("utf-8"))
    assert result.ok
    assert len(result.document.units) == 1


def test_emit_document_minimal_forms():
    assert emit_document(Document()) == ""
    assert emit_document(Document("d1")) == "#id: d1\n"


def test_emit_canonical_line_is_fixed_point():
    line = "[PRE-S 致][COM-C 其死亡]。"
    unit, diags = parse_unit(line)
    assert not diags
    assert emit_unit(unit) == line


def test_emit_plain_text_unit():
    assert emit_unit(LabelingUnit("请开门")) == "请开门"


def test_gap_dash_round_trip():
    unit = LabelingUnit("a-b")
    emitted = emit_unit(unit)
    assert emitted == "a\\-b"
    reparsed, diags = parse_unit(emitted)
    assert not diags
    assert reparsed == unit


# --- properties -----------------------------------------------------------


@given(documents())
def test_document_round_trip(doc):
    result = parse_document(emit_document(doc))
    assert result.ok, result.diagnostics
    assert result.document == doc


@given(labeling_units())
def test_unit_round_trip(unit):
    line = emit_unit(unit)
    if not line or line.startswith("#"):
        return  # not representable as a document line; covered by Document rules
    reparsed, diags = parse_unit(line)
    assert not diags, diags
    assert reparsed == unit


@given(st.text(alphabet=TEXT_ALPHABET + " 　", max_size=30))
def test_idempotent_canonicalization_on_arbitrary_parseable_lines(line):
    unit, diags = parse_unit(line)
    if diags:
        return
    once = emit_unit(unit)
    unit2, diags2 = parse_unit(once)
    assert not diags2
    assert emit_unit(unit2) == once


@given(labeling_units())
def test_no_silent_character_drop(unit):
    line = emit_unit(unit)
    assert strip_markup_oracle(line) == unit.text


@given(st.text(alphabet=TEXT_ALPHABET, max_size=25))
@settings(max_examples=300)
def test_diagnostic_positions_point_inside_the_line(line):
    _, diags = parse_unit(line, line_no=7)
    for d in diags:
        assert d.line == 7
        assert 1 <= d.column <= max(len(line), 1)


# --- the regex parser against the scanner it replaced --------------------

_REFERENCE_ESCAPABLE = frozenset("[]()-\\")
_REFERENCE_GAP_SPECIAL = re.compile(r"[][\\]")
_REFERENCE_CONTENT_SPECIAL = re.compile(r"[][()\\-]")


def _reference_skip_element(line: str, i: int) -> int:
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


def reference_parse_unit(
    line: str, line_no: int = 1
) -> tuple[LabelingUnit | None, list[ParseDiagnostic]]:
    """The character scanner that built units before the element regex;
    the reference for ``parse_unit``'s units and diagnostics."""
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
        if nxt not in _REFERENCE_ESCAPABLE:
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
            return _reference_skip_element(line, j), tlen
        entry = TAGS.get(tag)
        if entry is None:
            report("P002", i + 1, _tag_message(tag))
            return _reference_skip_element(line, j), tlen
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
                    return _reference_skip_element(line, i), tlen
                if head is not None:
                    report("P005", i + 1, "more than one head group in one segment")
                    return _reference_skip_element(line, i), tlen
                head_open = tlen
                i += 1
            elif ch == ")":
                if head_open is None:
                    report("P006", i + 1, "')' without a matching '('")
                    return _reference_skip_element(line, i), tlen
                if tlen == head_open:
                    report("P009", i + 1, "empty head group")
                    return _reference_skip_element(line, i), tlen
                head = (head_open, tlen)
                head_open = None
                i += 1
            elif ch == "-":
                if head_open is not None:
                    report("P004", i + 1, "separator inside a head group")
                    return _reference_skip_element(line, i), tlen
                if trigger is not None:
                    report("P004", i + 1, "more than one separator in an element")
                    return _reference_skip_element(line, i), tlen
                if tlen == seg_start:
                    report("P009", i + 1, "empty trigger segment before separator")
                    return _reference_skip_element(line, i), tlen
                if head == (seg_start, tlen):
                    report("P009", i + 1, "head group must not cover its whole segment")
                    return _reference_skip_element(line, i), tlen
                trigger = Segment(
                    Span(seg_start, tlen), Span(*head) if head else None
                )
                seg_start = tlen
                head = None
                i += 1
            elif ch == "[":
                report("P001", i + 1, "'[' inside an element: elements cannot nest")
                return _reference_skip_element(line, i), tlen
            else:
                m = _REFERENCE_CONTENT_SPECIAL.search(line, i)
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
            m = _REFERENCE_GAP_SPECIAL.search(line, i)
            j = m.start() if m else n
            parts.append(line[i:j])
            tlen += j - i
            i = j

    if diags:
        return None, diags
    return LabelingUnit("".join(parts), tuple(elements)), []


_LINE_TOKENS = [
    "[", "]", "(", ")", "-", "\\", " ", "\t", "\r", "#",
    "\\[", "\\]", "\\(", "\\)", "\\-", "\\\\", "\\x",
    "[PRE-S ", "[ADV-P ", "[UNC ", "[COM-C ", "[PRE ", "[XYZ ", "[PRE-W ", "[ ",
    "来", "被告人", "。", "，", "a", "Z",
]
_PLAIN = ["来", "被告", "a", " ", "。", ""]
_PIECES = [
    st.lists(st.sampled_from(chars), min_size=1, max_size=3).map("".join)
    for chars in (_PLAIN, _PLAIN + ["\\-", "\\(", "\\\\", "\\]"])
]


@st.composite
def _near_lines(draw):
    """Lines of gap text and elements that are well-formed or nearly so:
    segments with zero to two head groups, one to three segments, real and
    unknown tags, escapes everywhere, and now and then a stray token."""
    pieces = draw(st.sampled_from(_PIECES))
    out = []
    for _ in range(draw(st.integers(0, 3))):
        gap = st.sampled_from(["x", "-", "(", ")", "被", " "])
        out.append(draw(st.lists(gap, max_size=3).map("".join)))
        segments = []
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 2, 3]))):
            seg = draw(pieces)
            for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2]))):
                seg += "(" + draw(pieces) + ")" + draw(pieces)
            segments.append(seg)
        tag = draw(st.sampled_from([*TAGS, "PRE", "XYZ", ""]))
        out.append("[" + tag + " " + "-".join(segments) + "]")
        if draw(st.integers(0, 9)) == 0:
            out.append(draw(st.sampled_from(_LINE_TOKENS)))
    out.append(draw(st.sampled_from(["", "x", "。", "-", "\\)"])))
    return "".join(out)


_token_lines = st.lists(st.sampled_from(_LINE_TOKENS), max_size=14).map("".join)


@given(st.one_of(_token_lines, _near_lines(), _near_lines()))
@settings(max_examples=800, deadline=None)
@example("\\[a\\-[ADV-P 因\\(-家\\\\(庭)\\)]\\]")  # escapes in gap, trigger and head
@example("a-b(c)-)[PRE-S 走]()-")  # -() in gap text
@example("[SUB-W 王()某]")  # empty head
@example("[SUB-W (王某)]")  # head covering its segment
@example("[ADV-P (因)-王某]")
@example("[ADV-P 因-(王某)]")
@example("[ADV-P 因-家-庭]")  # two separators
@example("[XYZ 王某][PRE-S 走]")  # unknown tag
@example("[SUB-W 王(某)人(们)]")  # two head groups
@example("[")  # open bracket at the end of the line
@example("[]")  # empty tag before ']'
@example("[ 王]")  # empty tag before the space
@example("[PRE-S]")  # known tag without its space
@example("[XYZ]")  # unknown tag before ']'
@example("]")  # stray ']'
@example("a\\")  # dangling backslash in gap text
@example("\\x[PRE-S 走]")  # invalid escape in gap text
@example("[SUB-W 王\\")  # dangling backslash in an open element
@example("[SUB-W \\x]")  # invalid escape in content
@example("[SUB-W 王(某]")  # head group closed by ']'
@example("[SUB-W 王(某")  # head group open at the end of the line
@example("[SUB-W 王((某)]")  # nested '('
@example("[SUB-W 王)某]")  # ')' without '('
@example("[ADV-P 因(家-庭)]")  # separator in a head group
@example("[ADV-P -王]")  # empty trigger
@example("[ADV-P 因-]")  # empty body
@example("[SUB-W ]")  # empty content
@example("[SUB-W 王[某]]")  # nested element, then a stray ']'
@example("[SUB-W 王]]")  # stray ']' after an element
@example("[ADV-P 因-家(庭)(院)]")  # two head groups after the separator
@example("")
def test_parse_unit_equals_reference_scanner(line):
    assert parse_unit(line, 3) == reference_parse_unit(line, 3)


def test_golden_corpus_parse_and_reemit(golden_text):
    result = parse_document(golden_text)
    assert result.ok
    assert emit_document(result.document) == golden_text
    again = parse_document(emit_document(result.document))
    assert again.document == result.document


# --- sources parsed through one map of known lines --------------------------

_source_lines = st.one_of(
    _near_lines(),
    st.sampled_from(["", "#id: x", "# meta", "#id:", "[SUB-W 王]\r", "王\t[SUB-W 某]"]),
)


@given(st.lists(_source_lines, max_size=8), st.lists(_source_lines, max_size=8))
@settings(max_examples=300, deadline=None)
def test_parse_with_known_lines_equals_a_plain_parse(first, second):
    # The second source repeats the first's lines at other line numbers.
    known = {}
    for source in ("\n".join(first), "\n".join(second + first)):
        assert parse_document(source, known) == parse_document(source)
    for line, unit in known.items():
        assert parse_unit(line) == (unit, [])


def test_a_broken_known_line_is_reported_at_each_sources_own_line():
    known = {}
    first = parse_document("[SUB-W 王]\n[SUB-W ]", known)
    second = parse_document("#id: b\n\n[SUB-W 王]\n[SUB-W ]", known)
    assert [(d.code, d.line) for d in first.diagnostics] == [("P009", 2)]
    assert [(d.code, d.line) for d in second.diagnostics] == [("P009", 4)]
    assert list(known) == ["[SUB-W 王]"]


def _kept(*args) -> int:
    """Bytes still allocated while the result of ``parse_document(*args)`` is held."""
    tracemalloc.start()
    try:
        result = parse_document(*args)
        assert result.ok
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _one_line_changed(source: str) -> str:
    lines = source.split("\n")
    lines[1] = lines[1].replace("[RAI-W", "[COM-W")
    return "\n".join(lines)


def test_known_lines_share_their_units(golden_text):
    edited = _one_line_changed(golden_text)
    known = {}
    a = parse_document(golden_text, known).document
    b = parse_document(edited, known).document
    assert b == parse_document(edited).document
    assert b.units[0] != a.units[0]
    assert all(ub is ua for ua, ub in zip(a.units[1:], b.units[1:]))


def test_known_lines_are_not_kept_twice(golden_lines):
    # Golden's unit lines 20 times over, each copy's lines made distinct by a
    # leading gap character, so that one changed line is a small share.
    source = "#id: g\n" + "".join(f"{k}{line}\n" for k in range(20) for line in golden_lines)
    known = {}
    parse_document(source, known)
    shared, independent = _kept(_one_line_changed(source), known), _kept(source)
    assert shared <= 0.25 * independent, (shared, independent)


# --- the unit lines at which an inline pair is cut -------------------------

# "\x85" and "\x0c" end a line for ``str.splitlines``, not for the parser.
_SOURCE_TOKENS = ["\n", "\r", "#", "#id:", "\t", "[", "]", "\\", "\ufeff", "\x85", "\x0c",
                " ", "王", "[SUB-W 王]"]


@given(st.lists(st.sampled_from(_SOURCE_TOKENS), max_size=30).map("".join))
@example("\r\n\r\r\n#x\n\r#\n\ufeff#\n\x85\n\x0c#\n\r")
@settings(max_examples=1000, deadline=None)
def test_the_unit_line_starts_are_the_lines_the_parser_reads_as_units(text):
    lines = text.split("\n")
    result = parse_document(text)
    read = set(result.unit_lines) | {
        d.line for d in result.diagnostics if not lines[d.line - 1].startswith("#")
    }
    starts = unit_line_starts(text)
    assert all(at == 0 or text[at - 1] == "\n" for at in starts)
    assert [text.count("\n", 0, at) + 1 for at in starts] == sorted(read)
