"""The element decoders against the earlier ones, and the element cache
that the inline, standoff and column readers share (``model.read_element``)."""

import ast
import json
import random
from pathlib import Path
from typing import Any

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phkit
from phkit import inline, model, readers
from phkit.convert import ConvertError, to_columns, to_standoff
from phkit.inline import ParseDiagnostic, emit_document, parse_document
from phkit.model import TAGS, Document, Element, LabelingUnit, ModelError, Segment, Span
from phkit.readers import _ELEMENT_ROLES, _ROLE_CODES, _offset_type_error, from_standoff
from phkit.readers import from_columns, read_columns, read_standoff

from .strategies import documents, labeling_units
from .test_inline import _near_lines, _token_lines

# --- the element decoders against the earlier ones ----------------------------
#
# The references below are the earlier element decoders, copied verbatim but
# for the diagnoser's import: they built each element's values themselves.
# Their names resolve to the names above, and to these: the earlier
# ``STANDOFF_TAGS`` mapped (kind, sub) to a tag's (kind, pattern, form), not
# to its spelling, and the inline regex with escapes was compiled at import.

STANDOFF_TAGS = {key: TAGS[tag] for key, tag in model.STANDOFF_TAGS.items()}
_PLAIN_ELEMENT = inline._PLAIN_ELEMENT
_ESCAPED_ELEMENT = inline._escaped_element()
_unescape = inline._unescape


def _span_keys(rec: dict[str, Any], start_key: str, end_key: str) -> Span | None:
    """The span under a pair of offset keys, or None when both are absent.
    Only the keys' types and pairing are checked here."""
    s = rec.get(start_key)
    e = rec.get(end_key)
    if s is None and e is None:
        return None
    if type(s) is not int or type(e) is not int:
        raise _offset_type_error(rec, start_key, end_key) or ConvertError(
            "C001", f"{start_key}/{end_key} must be given together"
        )
    return Span(s, e)


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
    entry = STANDOFF_TAGS.get((kind, sub)) if sub is None or type(sub) is str else None
    if entry is None:
        raise ConvertError("C003", f"illegal kind/subtag combination {kind!r}/{sub!r}")

    start = rec.get("start")
    end = rec.get("end")
    if type(start) is not int or type(end) is not int:
        raise _offset_type_error(rec, "start", "end") or ConvertError(
            "C004", "element record needs 'start' and 'end'"
        )
    trig = _span_keys(rec, "trig_start", "trig_end")
    if trig is None:
        if "trig_head_start" in rec or "trig_head_end" in rec:
            raise ConvertError("C001", "trigger head offsets without a trigger span")
        trigger = None
    elif trig.start != start:
        raise ConvertError("C001", "trigger must start at the element start")
    else:
        trigger = Segment(trig, _span_keys(rec, "trig_head_start", "trig_head_end"))
    body_start = start if trig is None else trig.end
    body = Segment(Span(body_start, end), _span_keys(rec, "head_start", "head_end"))
    kind, pattern, form = entry
    return start, end, Element(kind, body, trigger, pattern, form)


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
            entry = TAGS.get("UNC" if btag == "B-UNC-" else btag[2:])
            if entry is None:
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
            trigger = None
            if body_start > start:
                hs, he = match.span(2)
                trigger = Segment(Span(start, body_start), Span(hs, he) if hs < he else None)
            hs, he = match.span(3)
            body = Segment(Span(body_start, i), Span(hs, he) if hs < he else None)
            kind, pattern, form = entry
            elements.append(Element(kind, body, trigger, pattern, form))
        return LabelingUnit("".join(fields[0::3]), tuple(elements))
    except ModelError as exc:
        # Span geometry (an empty body, a head run as long as its whole
        # segment), or text the model forbids.
        raise ConvertError("C011", str(exc)) from None


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
    from phkit.validation import _diagnose  # imported for a broken line only
    return None, _diagnose(line, line_no)


def _outcome(decode, value) -> tuple:
    """What ``decode(value)`` gives: ("ok", the result) or the error's type and text."""
    try:
        return "ok", decode(value)
    except (ConvertError, ModelError) as exc:
        return type(exc).__name__, str(exc)


OFFSET_KEYS = [
    "start", "end", "trig_start", "trig_end",
    "trig_head_start", "trig_head_end", "head_start", "head_end",
]
WRONG_TYPES = [True, False, 1.5, "1", [1], {}, None]


@st.composite
def element_records(draw) -> dict[str, Any]:
    """A writer's element record with at most one fault: a key with a value
    of another type, a key taken out, another kind or subtag, or an offset
    moved anywhere, which makes bad spans, unpaired offsets, heads outside
    or covering their segment and a trigger that starts elsewhere than the
    element."""
    unit = draw(labeling_units().filter(lambda u: u.elements))
    records = json.loads(to_standoff(Document(units=(unit,))))["units"][0]["elements"]
    rec = draw(st.sampled_from(records))
    fault = draw(st.sampled_from(["none", "type", "delete", "offset", "offset", "tag"]))
    if fault == "type":
        key = draw(st.sampled_from(["kind", "sub", *OFFSET_KEYS]))
        rec[key] = draw(st.sampled_from(WRONG_TYPES))
    elif fault == "delete":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif fault == "offset":
        rec[draw(st.sampled_from(OFFSET_KEYS))] = draw(st.integers(-2, len(unit.text) + 2))
    elif fault == "tag":
        rec["kind"] = draw(st.sampled_from(["PRE", "ADV", "UNC", "XYZ"]))
        rec["sub"] = draw(st.sampled_from([None, "S", "P", "W", "X", ""]))
    return rec


def _two_faults(rec: dict[str, Any]) -> bool:
    """A trigger start moved off the element start and out of its span: a
    key fault, reported first, and a geometry fault, which the earlier
    decoder reported first."""
    start, end = rec.get("trig_start"), rec.get("trig_end")
    return (
        type(start) is int and type(end) is int and start != rec.get("start")
        and not 0 <= start < end
    )


@given(element_records())
@settings(max_examples=1500, deadline=None)
def test_an_element_record_decodes_as_the_earlier_decoder_decodes_it(rec):
    assume(not _two_faults(rec))
    assert _outcome(readers._element_from_record, rec) == _outcome(_element_from_record, rec)


@pytest.mark.parametrize(
    "rec, earlier, now",
    [
        # The trigger starts elsewhere than the element, and its span is empty.
        (
            {"kind": "ADV", "sub": "P", "start": 0, "end": 4, "trig_start": 3, "trig_end": 2},
            "invalid span [3, 2)",
            "C001: trigger must start at the element start",
        ),
        # A head offset is not an integer, and the body is empty.
        (
            {"kind": "SUB", "sub": "W", "start": 2, "end": 2, "head_start": "0", "head_end": 1},
            "invalid span [2, 2)",
            "C004: field 'head_start' must be an integer",
        ),
    ],
)
def test_an_element_record_s_keys_are_checked_before_its_geometry(rec, earlier, now):
    assert _outcome(_element_from_record, rec) == ("ModelError", earlier)
    assert _outcome(readers._element_from_record, rec) == ("ConvertError", now)
    unit = {"text": "甲乙丙丁", "elements": [rec]}
    with pytest.raises(ConvertError) as exc:
        from_standoff(json.dumps({"id": "", "units": [unit]}))
    assert str(exc.value) == now


BTAGS = ["O", "B-PRE-S", "I-PRE-S", "B-ADV-P", "I-ADV-P", "B-UNC", "B-UNC-", "I-UNC", "B-XYZ", "x"]
ROLES = ["O", "T", "TH", "B", "H", "Q"]


@st.composite
def row_blocks(draw) -> str:
    """A writer's unit rows with up to two boundary tags or role flags
    replaced. Any number of faults reads alike: both decoders check a unit's
    elements in order, each through to its geometry before the next."""
    unit = draw(labeling_units())
    rows = [
        line.split("\t")
        for line in to_columns(Document(units=(unit,))).splitlines()
        if line.count("\t") == 2 and not line.startswith("# meta")
    ]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        field = draw(st.sampled_from([1, 2]))
        row[field] = draw(st.sampled_from(BTAGS if field == 1 else ROLES))
    return "".join("\t".join(row) + "\n" for row in rows)


@given(row_blocks())
@settings(max_examples=1000, deadline=None)
def test_a_row_block_decodes_as_the_earlier_decoder_decodes_it(block):
    assert _outcome(readers._unit_from_rows, block) == _outcome(_unit_from_rows, block)


@given(st.one_of(_token_lines, _near_lines(), _near_lines()))
@settings(max_examples=1000, deadline=None)
def test_an_inline_line_parses_as_the_earlier_parser_parses_it(line):
    assert inline.parse_unit(line) == parse_unit(line)


def test_no_reader_builds_an_element_s_values_itself():
    for name in ("inline.py", "readers.py"):
        source = (Path(phkit.__file__).parent / name).read_text(encoding="utf-8")
        called = {
            node.func.id
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert not called & {"Span", "Segment", "Element"}, name


# --- the element cache ---------------------------------------------------------


@pytest.fixture
def cache_on(monkeypatch):
    """The element cache empty and in use, as in a new process."""
    _cache_on(monkeypatch)


def _cache_on(monkeypatch) -> None:
    monkeypatch.setattr(model, "read_element", model._cached_element)
    monkeypatch.setattr(model, "_built", 0)
    model._cached_element.cache_clear()


def _key(i: int) -> tuple:
    """The ``read_element`` arguments of a distinct element for each ``i``."""
    return ("SUB-W", 2 * i, None, 2 * i + 1, None, None, None, None)


def test_the_element_cache_stays_within_its_bound_while_it_pays(cache_on):
    # Each element is read twice: half the reads hit, so the cache stays on.
    for i in range(3 * model._ELEMENTS):
        assert model.read_element(*_key(i)) is model.read_element(*_key(i))
        assert model._cached_element.cache_info().currsize <= model._ELEMENTS
    assert model.read_element is model._cached_element


def test_the_element_cache_is_skipped_for_8_rounds_after_one_where_reads_rarely_hit(cache_on):
    rounds = model._ELEMENTS
    for i in range(rounds):
        model.read_element(*_key(i))
    kind, pattern, form = TAGS["SUB-W"]
    for i in range(8 * rounds):
        assert model.read_element is model._build_element
        element = Element(kind, Segment(Span(2 * i, 2 * i + 1)), None, pattern, form)
        assert model.read_element(*_key(i)) == element
    assert model.read_element is model._cached_element
    assert model.read_element(*_key(0)) is model.read_element(*_key(0))


def distinct_document(elements: int, seed: int = 26) -> Document:
    """A document whose elements nearly all differ, unlike the bench
    corpora's: units of 700 characters, each element 2 to 8 of them and 0 to
    3 after the last, of a random tag, with a trigger in 3 of 10 elements of
    4 or more characters and a body head in 7 of 10. The all-distinct corpus
    of BENCH_26.json is ``distinct_document(42_000)``."""
    rng = random.Random(seed)
    entries = list(TAGS.values())
    units: list[LabelingUnit] = []
    while elements > 0:
        text = "".join(chr(0x4E00 + rng.randrange(2000)) for _ in range(700))
        els, pos = [], rng.randrange(3)
        while elements > 0 and (size := rng.randrange(2, 9)) <= 700 - pos:
            start, end = pos, pos + size
            kind, pattern, form = rng.choice(entries)
            trigger = None
            if size >= 4 and rng.random() < 0.3:
                pos = start + rng.randrange(1, size - 1)
                head = Span(start, start + 1) if pos - start > 1 and rng.random() < 0.5 else None
                trigger = Segment(Span(start, pos), head)
            head = None
            if end - pos > 1 and rng.random() < 0.7:
                head_start = rng.randrange(pos, end - 1)
                head = Span(head_start, rng.randrange(head_start + 1, end))
            els.append(Element(kind, Segment(Span(pos, end), head), trigger, pattern, form))
            pos, elements = end + rng.randrange(4), elements - 1
        units.append(LabelingUnit(text, tuple(els)))
    return Document("distinct", (), tuple(units))


@pytest.mark.parametrize("fmt", ["inline", "standoff", "columns"])
def test_a_corpus_whose_elements_rarely_repeat_is_read_without_the_cache(fmt, cache_on):
    doc = distinct_document(model._ELEMENTS + 100)
    text, read = _readings(doc)[fmt]
    assert read(text) == doc
    assert model.read_element is model._build_element


BAD_ELEMENTS = {
    "inline": ("[ADV-P -王]", lambda text: parse_document(text).diagnostics),
    "standoff": (
        '{"units":[{"text":"王某","elements":[{"kind":"SUB","sub":"W","start":1,"end":1}]}]}',
        read_standoff,
    ),
    "columns": ("# doc\n王\tB-ADV-P\tTH\n某\tI-ADV-P\tB\n", read_columns),
}


@pytest.mark.parametrize("fmt", sorted(BAD_ELEMENTS))
def test_a_bad_element_read_twice_fails_alike(fmt, cache_on):
    text, read = BAD_ELEMENTS[fmt]
    outcomes = []
    for _ in range(2):
        size = model._cached_element.cache_info().currsize
        outcomes.append(_outcome(read, text))
        assert model._cached_element.cache_info().currsize == size
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] != "ok" or outcomes[0][1]  # an error, or inline's diagnostics


def _readings(doc: Document) -> dict[str, tuple]:
    """Each format's text of ``doc`` and the reader that reads it back."""
    return {
        "inline": (emit_document(doc), lambda text: parse_document(text).document),
        "standoff": (to_standoff(doc), from_standoff),
        "columns": (to_columns(doc), from_columns),
    }


def _cold(decode):
    """``decode`` of one unit, with the element cache cleared first."""
    def call(*args):
        model._cached_element.cache_clear()
        return decode(*args)
    return call


@given(doc=documents())
@settings(max_examples=60, deadline=None)
def test_a_document_read_cold_before_each_unit_equals_one_read_warm(doc):
    for fmt, (text, read) in _readings(doc).items():
        read(text)
        warm = read(text)
        with pytest.MonkeyPatch.context() as mp:
            _cache_on(mp)
            # Each reader decodes each unit through one of these.
            mp.setattr(inline, "parse_unit", _cold(inline.parse_unit))
            mp.setattr(readers, "_unit_from_record", _cold(readers._unit_from_record))
            mp.setattr(readers, "_unit_from_rows", _cold(readers._unit_from_rows))
            assert read(text) == warm == doc, fmt


def test_equal_elements_in_different_units_are_one_object(golden_doc, cache_on):
    # An element holds its tag and offsets, not its text, so the first two
    # are equal; values are immutable, so one object can serve both.
    lines = "[PRE-S 走]了\n[PRE-S 跑]吧\n他[PRE-S 走]\n[PRE-M 走]了\n"
    first, *others = [unit.elements[0] for unit in parse_document(lines).document.units]
    assert first is others[0]
    assert first != others[1] and first != others[2]  # other offsets, another tag
    for fmt, (text, read) in _readings(golden_doc).items():
        first, again = read(text), read(text)
        assert first == again == golden_doc
        assert all(
            x is y for a, b in zip(first.units, again.units) for x, y in zip(a.elements, b.elements)
        ), fmt
