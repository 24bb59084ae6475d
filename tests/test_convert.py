import json
import re
import tracemalloc
from typing import Any

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phkit.readers
from phkit.convert import (
    ConvertError,
    columns_pieces,
    from_columns,
    from_standoff,
    read_columns,
    read_standoff,
    standoff_pieces,
    to_columns,
    to_standoff,
)
from phkit.inline import emit_document, parse_document
from phkit.model import Document, ElementType, LabelingUnit, ModelError
from phkit.readers import (
    _COLON,
    _COLUMN_TOKEN,
    _LONE_SURROGATE,
    _NEXT_KEY,
    _NEXT_UNIT,
    _OPEN,
    _RECORD_LINE,
    _UNITS,
    _at_line,
    _decode,
    _lone_surrogate,
    _step,
    _unit_from_record,
    _unit_from_rows,
    range_bounds,
    read_range,
)

from .strategies import JSON_ESCAPE_ALPHABET, documents, json_escape_ids


def test_standoff_golden_record_fields(golden_doc):
    record = json.loads(to_standoff(golden_doc))
    assert record["id"] == "golden"
    assert "meta" not in record
    assert len(record["units"]) == 10
    unit3 = record["units"][2]
    loc = next(e for e in unit3["elements"] if e["kind"] == "LOC")
    text = unit3["text"]
    assert text[loc["head_start"] : loc["head_end"]] == "桥上"
    adv = next(e for e in unit3["elements"] if e["kind"] == "ADV")
    assert text[adv["trig_start"] : adv["trig_end"]] == "将"
    assert adv["trig_end"] == adv["start"] + 1


def test_standoff_round_trip_golden(golden_doc):
    assert from_standoff(to_standoff(golden_doc)) == golden_doc


def test_standoff_empty_document():
    record = json.loads(to_standoff(Document()))
    assert record == {"id": "", "units": []}
    assert from_standoff(to_standoff(Document())) == Document()


def test_standoff_rejects_empty_span():
    rec = {"id": "", "units": [{"text": "abcd", "elements": [
        {"kind": "PRE", "sub": "S", "start": 0, "end": 0}]}]}
    with pytest.raises(ConvertError) as err:
        from_standoff(json.dumps(rec))
    assert err.value.code == "C001"


_SUB = {"kind": "SUB", "sub": "W"}
_ADV = {"kind": "ADV", "sub": "P"}


def _rows(*specs: tuple[str, str]) -> str:
    return "".join(f"{c}\t{tag}\t{role}\n" for c, (tag, role) in zip("abcd", specs))


# One span-geometry fault per case over the text "abcd": a standoff element
# record, the same fault in column rows, and an inline line with the code
# the parser gives it (None where that format cannot express the fault).
GEOMETRY_FAULTS = {
    "empty span": ({**_SUB, "start": 1, "end": 1}, None, ("[SUB-W ]abcd", "P009")),
    "negative start": ({**_SUB, "start": -1, "end": 2}, None, None),
    "empty trigger": (
        {**_ADV, "start": 0, "end": 3, "trig_start": 0, "trig_end": 0},
        None,
        ("[ADV-P -abc]d", "P009"),
    ),
    "empty body": (
        {**_ADV, "start": 0, "end": 3, "trig_start": 0, "trig_end": 3},
        _rows(("B-ADV-P", "T"), ("I-ADV-P", "T"), ("I-ADV-P", "T"), ("O", "O")),
        ("[ADV-P abc-]d", "P009"),
    ),
    "trigger not at the element start": (
        {**_ADV, "start": 0, "end": 3, "trig_start": 1, "trig_end": 2},
        None,
        None,
    ),
    "head equal to its segment": (
        {**_SUB, "start": 0, "end": 2, "head_start": 0, "head_end": 2},
        _rows(("B-SUB-W", "H"), ("I-SUB-W", "H"), ("O", "O"), ("O", "O")),
        ("[SUB-W (ab)]cd", "P009"),
    ),
    "trigger head equal to its trigger": (
        {**_ADV, "start": 0, "end": 3, "trig_start": 0, "trig_end": 1,
         "trig_head_start": 0, "trig_head_end": 1},
        _rows(("B-ADV-P", "TH"), ("I-ADV-P", "B"), ("I-ADV-P", "B"), ("O", "O")),
        ("[ADV-P (a)-bc]d", "P009"),
    ),
    "head outside its segment": (
        {**_SUB, "start": 0, "end": 2, "head_start": 2, "head_end": 3},
        _rows(("B-SUB-W", "B"), ("I-SUB-W", "B"), ("O", "H"), ("O", "O")),
        None,
    ),
    "trigger head without a trigger": (
        {**_ADV, "start": 0, "end": 3, "trig_head_start": 0, "trig_head_end": 1},
        _rows(("B-ADV-P", "B"), ("I-ADV-P", "TH"), ("I-ADV-P", "B"), ("O", "O")),
        None,
    ),
    "end past the text": ({**_SUB, "start": 2, "end": 5}, None, None),
}


@pytest.mark.parametrize(
    "record, rows, inline", GEOMETRY_FAULTS.values(), ids=list(GEOMETRY_FAULTS)
)
def test_single_geometry_fault_codes(record, rows, inline):
    from phkit.inline import parse_unit

    rec = {"id": "d", "units": [{"text": "abcd", "elements": [record]}]}
    with pytest.raises(ConvertError) as err:
        from_standoff(json.dumps(rec))
    assert err.value.code == "C001"
    if rows is not None:
        with pytest.raises(ConvertError) as err:
            from_columns("# doc d\n" + rows)
        assert err.value.code == "C011"
    if inline is not None:
        line, code = inline
        unit, diags = parse_unit(line)
        assert unit is None
        assert [d.code for d in diags] == [code]


def test_standoff_rejects_overlap():
    rec = {"id": "", "units": [{"text": "abcdef", "elements": [
        {"kind": "PRE", "sub": "S", "start": 0, "end": 4},
        {"kind": "COM", "sub": "W", "start": 2, "end": 6}]}]}
    with pytest.raises(ConvertError) as err:
        from_standoff(json.dumps(rec))
    assert err.value.code == "C002"


def test_standoff_rejects_illegal_tag_combination():
    rec = {"id": "", "units": [{"text": "abcd", "elements": [
        {"kind": "PRE", "sub": "W", "start": 0, "end": 2}]}]}
    with pytest.raises(ConvertError) as err:
        from_standoff(json.dumps(rec))
    assert err.value.code == "C003"
    rec["units"][0]["elements"][0] = {"kind": "UNC", "sub": "W", "start": 0, "end": 2}
    with pytest.raises(ConvertError) as err:
        from_standoff(json.dumps(rec))
    assert err.value.code == "C003"


def test_standoff_rejects_non_string_kind_and_subtag():
    def code_for(**fields):
        element = {"kind": "PRE", "sub": "S", "start": 0, "end": 2, **fields}
        rec = {"id": "", "units": [{"text": "abcd", "elements": [element]}]}
        with pytest.raises(ConvertError) as err:
            from_standoff(json.dumps(rec))
        return err.value.code

    assert code_for(kind=["PRE"]) == "C004"
    assert code_for(kind={"PRE": "S"}) == "C004"
    assert code_for(sub=["S"]) == "C003"
    assert code_for(sub={"S": 1}) == "C003"
    assert code_for(sub=1) == "C003"
    assert code_for(kind="UNC", sub="") == "C003"
    assert code_for(kind="PRE-S", sub=None) == "C003"


def test_standoff_rejects_malformed_json():
    with pytest.raises(ConvertError) as err:
        from_standoff("{not json")
    assert err.value.code == "C004"


@pytest.mark.parametrize("escape", ["\\ud800", "\\udcff", "\\ude00\\ud83d"])
@pytest.mark.parametrize("field", ["text", "id", "meta"])
def test_standoff_lone_surrogate_escape_is_c004(field, escape):
    # No UTF-8 text holds a lone surrogate, so no writer could write it out.
    record = {
        "text": '{"id":"x","units":[{"text":"走%s","elements":[]}]}',
        "id": '{"id":"%s","units":[]}',
        "meta": '{"id":"x","meta":["# %s"],"units":[]}',
    }[field] % escape
    with pytest.raises(ConvertError) as err:
        from_standoff(record)
    assert (err.value.code, err.value.message) == (
        "C004", f"'{field}' holds a lone surrogate escape"
    )


def test_standoff_paired_surrogate_escapes_are_one_character():
    char = "\U0001f600"
    record = json.dumps({"id": char, "meta": ["# " + char], "units": [{"text": char + "走"}]})
    assert record.count("\\ud83d\\ude00") == 3  # json.dumps escapes it as a pair
    doc = from_standoff(record)
    assert (doc.id, doc.metadata, doc.units[0].text) == (char, ("# " + char,), char + "走")


def test_standoff_accepts_unordered_disjoint_elements():
    rec = {"id": "", "units": [{"text": "abcdef", "elements": [
        {"kind": "COM", "sub": "W", "start": 3, "end": 6},
        {"kind": "PRE", "sub": "S", "start": 0, "end": 2}]}]}
    doc = from_standoff(json.dumps(rec))
    starts = [e.span.start for u in doc.units for e in u.elements]
    assert starts == [0, 3]


def test_columns_golden_unit9_rows(golden_doc):
    block = to_columns(Document(units=(golden_doc.units[8],)))
    rows = [line for line in block.split("\n") if line and not line.startswith("#")]
    assert rows == [
        "致\tB-PRE-S\tB",
        "其\tB-COM-C\tB",
        "死\tI-COM-C\tB",
        "亡\tI-COM-C\tB",
        "。\tO\tO",
    ]


def test_columns_trigger_and_head_roles():
    from phkit.inline import parse_unit

    unit, _ = parse_unit("[ADV-P 多次(向)-被告人]")
    block = to_columns(Document(units=(unit,)))
    rows = [r for r in block.split("\n") if r and not r.startswith("#")]
    assert rows == [
        "多\tB-ADV-P\tT",
        "次\tI-ADV-P\tT",
        "向\tI-ADV-P\tTH",
        "被\tI-ADV-P\tB",
        "告\tI-ADV-P\tB",
        "人\tI-ADV-P\tB",
    ]


def test_columns_plain_unit_all_outside():
    block = to_columns(Document(units=(LabelingUnit("请开门"),)))
    rows = [r for r in block.split("\n") if r and not r.startswith("#")]
    assert rows == ["请\tO\tO", "开\tO\tO", "门\tO\tO"]


def test_columns_round_trip_golden(golden_doc):
    assert from_columns(to_columns(golden_doc)) == golden_doc


def test_columns_rejects_orphan_i_tag():
    text = "# doc\n致\tI-PRE-S\tB\n"
    with pytest.raises(ConvertError) as err:
        from_columns(text)
    assert err.value.code == "C010"


def test_columns_rejects_inconsistent_role():
    text = "# doc\n其\tB-COM-C\tB\n亡\tI-COM-C\tO\n"
    with pytest.raises(ConvertError) as err:
        from_columns(text)
    assert err.value.code == "C011"


def test_columns_rejects_role_on_outside_char():
    text = "# doc\n其\tO\tB\n"
    with pytest.raises(ConvertError) as err:
        from_columns(text)
    assert err.value.code == "C011"


def test_columns_rejects_trigger_after_body():
    for roles in (["B", "T"], ["H", "B", "TH"], ["T", "B", "T", "B"]):
        rows = [f"{c}\t{'B' if i == 0 else 'I'}-ADV-P\t{r}" for i, (c, r) in
                enumerate(zip("甲乙丙丁", roles))]
        with pytest.raises(ConvertError) as err:
            from_columns("# doc\n" + "\n".join(rows) + "\n")
        assert err.value.code == "C011", roles


def test_columns_reads_empty_unc_subtag_as_unc():
    doc = from_columns("# doc\n甲\tB-UNC-\tB\n乙\tI-UNC-\tB\n")
    assert [e.kind for e in doc.units[0].elements] == [ElementType.UNC]


def test_columns_rejects_malformed_row():
    with pytest.raises(ConvertError) as err:
        from_columns("# doc\nonly-one-field\n")
    assert err.value.code == "C013"


def test_columns_malformed_row_names_its_line():
    cases = [
        ("# doc\n甲\tO\tO\n\n乙\tO\n", "line 4: expected 3 tab-separated fields"),
        ("# doc\n甲\tO\tO\nab\tO\tO\n", "line 3: first field must be a single character"),
        ("# doc x\n# docs\n", "line 2: expected 3 tab-separated fields"),
    ]
    for text, message in cases:
        with pytest.raises(ConvertError) as err:
            read_columns(text)
        assert (err.value.code, err.value.message) == ("C013", message)


def test_columns_line_ends_and_meta_inside_a_unit():
    plain = from_columns("# doc d\n# meta\t# m\n甲\tB-PRE-S\tB\n乙\tI-PRE-S\tH\n#\tO\tO\n")
    assert plain.units[0].text == "甲乙#"
    # CRLF line ends are read as LF, and a "# meta" line between two rows
    # leaves them in one unit.
    mixed = from_columns("# doc d\r\n甲\tB-PRE-S\tB\r\n# meta\t# m\n乙\tI-PRE-S\tH\n#\tO\tO\r")
    assert mixed == plain


def test_columns_multiple_documents():
    doc_a = Document("a", (), (LabelingUnit("甲"),))
    doc_b = Document("b", (), (LabelingUnit("乙"),))
    stream = "".join(to_columns(d) for d in (doc_a, doc_b))
    assert read_columns(stream) == [doc_a, doc_b]
    with pytest.raises(ConvertError) as err:
        from_columns(stream)
    assert err.value.code == "C012"


def test_standoff_stream_multiple_documents():
    doc_a = Document("a", (), (LabelingUnit("甲"),))
    doc_b = Document("b", ("# x",), (LabelingUnit("乙"),))
    stream = "".join(to_standoff(d) + "\n" for d in (doc_a, doc_b))
    assert stream.count("\n") == 2
    assert read_standoff(stream) == [doc_a, doc_b]


def test_metadata_survives_both_formats():
    doc = Document("d", ("# k\tv", "# note"), (LabelingUnit("甲"),))
    assert from_standoff(to_standoff(doc)) == doc
    assert from_columns(to_columns(doc)) == doc


@given(documents())
def test_standoff_round_trip(doc):
    assert from_standoff(to_standoff(doc)) == doc


@given(documents())
def test_columns_round_trip(doc):
    assert from_columns(to_columns(doc)) == doc


def _reference_standoff(doc):
    """The standoff writer as it was before it wrote one unit at a time."""

    def element_record(el):
        rec = {"kind": el.kind.value}
        if el.pattern is not None:
            rec["sub"] = el.pattern.value
        elif el.form is not None:
            rec["sub"] = el.form.value
        rec["start"] = el.span.start
        rec["end"] = el.span.end
        if el.trigger is not None:
            rec["trig_start"] = el.trigger.span.start
            rec["trig_end"] = el.trigger.span.end
            if el.trigger.head is not None:
                rec["trig_head_start"] = el.trigger.head.start
                rec["trig_head_end"] = el.trigger.head.end
        if el.body.head is not None:
            rec["head_start"] = el.body.head.start
            rec["head_end"] = el.body.head.end
        return rec

    rec = {"id": doc.id}
    if doc.metadata:
        rec["meta"] = list(doc.metadata)
    rec["units"] = [
        {"text": u.text, "elements": [element_record(e) for e in u.elements]}
        for u in doc.units
    ]
    return json.dumps(rec, ensure_ascii=False, separators=(",", ":"))


def _reference_columns(doc):
    """The column writer as it was before it wrote one unit at a time."""

    def unit_rows(unit):
        n = len(unit.text)
        btags = ["O"] * n
        roles = ["O"] * n
        for el in unit.elements:
            tag = el.kind.value
            sub = el.pattern or el.form
            if sub is not None:
                tag += "-" + sub.value
            btags[el.span.start] = "B-" + tag
            for i in range(el.span.start + 1, el.span.end):
                btags[i] = "I-" + tag
            if el.trigger is not None:
                for i in range(el.trigger.span.start, el.trigger.span.end):
                    roles[i] = "T"
                if el.trigger.head is not None:
                    for i in range(el.trigger.head.start, el.trigger.head.end):
                        roles[i] = "TH"
            for i in range(el.body.span.start, el.body.span.end):
                roles[i] = "B"
            if el.body.head is not None:
                for i in range(el.body.head.start, el.body.head.end):
                    roles[i] = "H"
        return [f"{unit.text[i]}\t{btags[i]}\t{roles[i]}" for i in range(n)]

    lines = ["# doc " + doc.id if doc.id else "# doc"]
    for meta in doc.metadata:
        lines.append("# meta\t" + meta)
    for index, unit in enumerate(doc.units):
        if index:
            lines.append("")
        lines.extend(unit_rows(unit))
    return "\n".join(lines) + "\n"


@given(documents())
def test_piecewise_writers_equal_whole_document_writers(doc):
    assert to_standoff(doc) == _reference_standoff(doc)
    assert to_columns(doc) == _reference_columns(doc)


@given(documents(JSON_ESCAPE_ALPHABET, json_escape_ids()))
def test_standoff_writer_escapes_text_as_json_dumps_does(doc):
    # Texts, ids and metadata full of characters JSON must escape (quote,
    # backslash, control characters) or may pass through raw (U+2028/U+2029,
    # characters outside the BMP).
    line = to_standoff(doc)
    assert line == _reference_standoff(doc)
    assert from_standoff(line) == doc


@given(documents())
def test_column_row_count_equals_codepoint_count(doc):
    block = to_columns(doc)
    rows = [
        r
        for r in block.split("\n")
        if r and not (r == "# doc" or r.startswith(("# doc ", "# meta\t")))
    ]
    assert len(rows) == sum(len(u.text) for u in doc.units)


@given(st.text(max_size=120))
@settings(max_examples=400)
def test_from_columns_never_crashes(text):
    try:
        docs = read_columns(text)
    except ConvertError:
        return
    for doc in docs:
        Document(doc.id, doc.metadata, doc.units)  # still satisfies invariants


@given(st.text(max_size=120))
@settings(max_examples=400)
def test_from_standoff_never_crashes(text):
    try:
        from_standoff(text)
    except ConvertError:
        pass


@given(documents())
def test_inline_columns_standoff_inline_round_trip(doc):
    inline = emit_document(doc)
    parsed = parse_document(inline)
    assert parsed.ok
    via_columns = from_columns(to_columns(parsed.document))
    via_standoff = from_standoff(to_standoff(via_columns))
    assert emit_document(via_standoff) == inline


def _fields(value):
    """Every (container, key) pair below ``value``, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _fields(child)


json_corruptions = st.one_of(
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "start", "x"]), st.integers(0, 3), max_size=2),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(alphabet="PRESWUNC-ab", max_size=4),
    st.none(),
    st.integers(max_value=-1),
    st.integers(min_value=10**6),
)


@given(documents(), st.data())
def test_standoff_corrupted_field_raises_only_convert_error(doc, data):
    rec = json.loads(to_standoff(doc))
    container, key = data.draw(st.sampled_from(list(_fields(rec))))
    container[key] = data.draw(json_corruptions)
    try:
        from_standoff(json.dumps(rec))
    except ConvertError:
        pass


@given(documents(), st.data())
def test_columns_corrupted_row_raises_only_convert_error(doc, data):
    lines = to_columns(doc).split("\n")
    rows = [i for i, line in enumerate(lines) if line.count("\t") == 2]
    if not rows:
        return
    index = data.draw(st.sampled_from(rows))
    fields = lines[index].split("\t")
    j = data.draw(st.integers(0, 2))
    action = data.draw(st.sampled_from(["swap", "drop", "dup", "drop_tab", "dup_tab", "role"]))
    if action == "swap":
        k = (j + 1) % 3
        fields[j], fields[k] = fields[k], fields[j]
    elif action == "drop":
        del fields[j]
    elif action == "dup":
        fields.insert(j, fields[j])
    elif action == "drop_tab":
        fields[j : j + 2] = ["".join(fields[j : j + 2])]
    elif action == "dup_tab":
        fields.insert(j, "")
    else:
        fields[2] = data.draw(st.sampled_from(["O", "T", "TH", "B", "H"]))
    lines[index] = "\t".join(fields)
    try:
        read_columns("\n".join(lines))
    except ConvertError:
        pass


# --- the unit-at-a-time standoff reader against the whole-record one --------
#
# The reference below is the earlier standoff reader, copied verbatim but
# for ``lines``: one json.loads of each whole line, after splitting the
# stream into lines.


def whole_record_from_standoff(line: str) -> Document:
    """Reconstruct a document from one standoff JSON line."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConvertError("C004", f"record is not valid JSON: {exc}") from None
    if type(rec) is not dict:
        raise ConvertError("C004", "record must be a JSON object")
    doc_id = rec.get("id", "")
    if type(doc_id) is not str:
        raise ConvertError("C004", "'id' must be a string")
    meta = rec.get("meta", [])
    if type(meta) is not list or not all(type(m) is str for m in meta):
        raise ConvertError("C004", "'meta' must be a list of strings")
    units_rec = rec.get("units", [])
    if type(units_rec) is not list:
        raise ConvertError("C004", "'units' must be a list")
    units = tuple([_unit_from_record(urec) for urec in units_rec])
    try:
        return Document(doc_id, tuple(meta), units)
    except ModelError as exc:
        raise ConvertError("C004", str(exc)) from None


def whole_record_read_standoff(text: str, lines: list[int] | None = None) -> list[Document]:
    """Parse a standoff stream: one JSON record per nonempty line, whose
    number is appended to ``lines``, if given, before it is read."""
    docs = []
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            if lines is not None:
                lines.append(number)
            docs.append(whole_record_from_standoff(line))
    return docs


# JSON whitespace between tokens; "\n" ends a standoff line, so it is rarer.
_json_space = st.sampled_from(["", "", "", " ", "\t", "\r", "  ", "\n"])


@st.composite
def json_text(draw, value) -> str:
    """``value`` as JSON text: object keys shuffled, now and then a key
    repeated with a decoy value (which wins when it comes last), and JSON
    whitespace around every token."""
    if isinstance(value, dict):
        items = draw(st.permutations(list(value.items())))
        if items and draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from([k for k, _ in items]))
            items.insert(draw(st.integers(0, len(items))), (key, draw(json_corruptions)))
        inner = [
            f"{draw(_json_space)}{json.dumps(k)}{draw(_json_space)}:"
            f"{draw(_json_space)}{draw(json_text(v))}{draw(_json_space)}"
            for k, v in items
        ]
        return "{" + (",".join(inner) or draw(_json_space)) + "}"
    if isinstance(value, list):
        inner = [f"{draw(_json_space)}{draw(json_text(v))}{draw(_json_space)}" for v in value]
        return "[" + (",".join(inner) or draw(_json_space)) + "]"
    return json.dumps(value, ensure_ascii=draw(st.booleans()))


# Characters that matter to JSON or to line splitting, for random edits.
_EDIT_CHARS = '{}[],:"\\ \t\r\n\x0b\u3000\ufeff0-1.eEtrufnalsx甲'


@st.composite
def standoff_streams(draw) -> str:
    """One to three standoff records of random documents, each written by
    ``json.dumps`` or by ``json_text``, joined by line ends and blank lines,
    then given up to three random character edits."""
    records = []
    for doc in draw(st.lists(documents(), min_size=1, max_size=3)):
        rec = json.loads(to_standoff(doc))
        records.append(json.dumps(rec) if draw(st.booleans()) else draw(json_text(rec)))
    joins = st.sampled_from(["\n", "\n\n", "\r\n", "\n \t\u3000\x0b\n"])
    text = records[0] + "".join(draw(joins) + rec for rec in records[1:])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if edit == "delete" else draw(st.sampled_from(_EDIT_CHARS))
        text = text[:at] + char + text[at + (edit != "insert") :]
    return text


def _outcome(read, text):
    """What ``read(text)`` returns, or the code and message it raises."""
    try:
        return read(text)
    except ConvertError as exc:
        return exc.code, exc.message


_C001_UNIT = '{"text":"ab","elements":[{"kind":"PRE","sub":"S","start":1,"end":1}]}'
_C001_MESSAGE = "invalid span [1, 1)"


def _repeats_a_key(record: str) -> bool:
    keys = [key for key, _ in json.loads(record, object_pairs_hook=list)]
    return len(set(keys)) < len(keys)


def _is_broken(outcome) -> bool:
    """Whether ``outcome`` is the C004 of a record that is not a JSON object."""
    return isinstance(outcome, tuple) and outcome[1].startswith(
        ("record is not valid JSON", "record must be a JSON object")
    )


# Streams that each hold one fault, which both readers find.
_ONE_FAULT_STREAMS = [
    '{"units":[{"text":"a"}],"units":{}}',  # a good first units, a bad second one
    '{"id":"x"} {"id":"y"}',  # trailing data
    '{"id":"a","units":[\n{"text":"b"}]}\n{"id":"c"}',  # units run onto the next line
    '{"id":"a","units":[]}\n \u3000\n{}\n[]',
    '{"id":"a"}\n{"id":"b","units":[{"text":"c","elements":[{"kind":"X"}]}]}',
    '{"id":"a"}\n\n{"meta":["x"]}',
    '{"units":[' + _C001_UNIT + "]}",
]


@given(standoff_streams())
@settings(max_examples=150)
@example('{"units":[5],"units":[{"text":"a"}]}')  # a bad first units, a good second one
@example('\ufeff{"id":"x"}')  # a BOM-prefixed line
@example('{"id":"a","units":[{"text":"b"},\n{"text":"c"}]}')
@example('{"units":[' + _C001_UNIT + '],"id":5}')  # a bad unit, then a bad id
@example('{"id":"x","units":[' + _C001_UNIT + "],}")  # a bad unit, then a syntax error
@example(_ONE_FAULT_STREAMS[0])
@example(_ONE_FAULT_STREAMS[1])
@example(_ONE_FAULT_STREAMS[2])
@example(_ONE_FAULT_STREAMS[3])
def test_standoff_reader_agrees_with_the_whole_record_reader(text):
    # The readers differ only where the reader finds an error first: on a
    # record that holds two faults, it names the first in the text, which
    # json.loads order may not, and it fails on a bad value that a repeated
    # key replaces (see test_a_file_fails_at_its_first_error_in_text_order).
    lines: list[int] = []
    expected_lines: list[int] = []
    got = _outcome(lambda t: read_standoff(t, lines), text)
    expected = _outcome(lambda t: whole_record_read_standoff(t, expected_lines), text)
    if not isinstance(got, tuple):
        assert got == expected
    elif isinstance(expected, tuple) and expected_lines[-1] == lines[-1]:
        if _is_broken(got):  # no value failed before the break: json.loads words it
            assert got == expected
    else:  # a record that the whole-record reader accepts, before any it rejects
        assert not isinstance(expected, tuple) or lines[-1] < expected_lines[-1]
        assert _repeats_a_key(text.split("\n")[lines[-1] - 1])
    got, expected = _outcome(from_standoff, text), _outcome(whole_record_from_standoff, text)
    if _is_broken(got) or not isinstance(got, tuple):
        assert got == expected
    elif not isinstance(expected, tuple):
        assert _repeats_a_key(text)


@pytest.mark.parametrize("text", _ONE_FAULT_STREAMS)
def test_one_fault_in_a_stream_reads_as_the_whole_record_reader_reads_it(text):
    lines: list[int] = []
    expected_lines: list[int] = []
    expected = _outcome(lambda t: whole_record_read_standoff(t, expected_lines), text)
    assert isinstance(expected, tuple)
    assert _outcome(lambda t: read_standoff(t, lines), text) == expected
    assert lines == expected_lines


@pytest.mark.parametrize(
    "read, text, error",
    [
        (read_standoff, '{"id":"x","units":[' + _C001_UNIT + "],}", ("C001", _C001_MESSAGE)),
        (read_standoff, '{"units":[' + _C001_UNIT + '],"meta":[1]}', ("C001", _C001_MESSAGE)),
        (read_standoff, '{"id":5,"id":"x","units":[]}', ("C004", "'id' must be a string")),
        (read_standoff, '{"units":[5],"units":[{"text":"a"}]}',
         ("C004", "unit record must be an object")),
        (read_columns, "# doc a\n#\tO\tO\n\n甲\tO\tB\n",
         ("C012", "line 1: unit text may not start with '#' outside an element")),
    ],
    ids=[
        "bad unit, then a syntax error", "bad unit, then a key after units",
        "id repeated, the first bad", "units repeated, the first bad",
        "# unit first, bad role later",
    ],
)
def test_a_file_fails_at_its_first_error_in_text_order(read, text, error):
    # Each value is checked as it is decoded, also one that a repeated key
    # replaces, and so are the document's rules for each unit.
    assert _outcome(read, text) == error


def test_standoff_reader_never_decodes_a_whole_record(monkeypatch, golden_doc):
    docs = [golden_doc, Document("b", ("# x",), (LabelingUnit("乙"),)), Document()]
    stream = "".join(to_standoff(d) + "\n" for d in docs)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a valid record")

    monkeypatch.setattr(phkit.readers.json, "loads", refuse)
    assert read_standoff(stream) == docs
    assert from_standoff(" " + to_standoff(golden_doc) + "\r") == golden_doc


def test_read_standoff_peak_memory_is_about_the_document(golden_doc):
    doc = Document(golden_doc.id, golden_doc.metadata, golden_doc.units * 2000)
    text = to_standoff(doc) + "\n"
    tracemalloc.start()
    try:
        docs = read_standoff(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert docs == [doc]
    # The whole-record reader peaked at about 2.7 times what it kept: a
    # copy of the text in lines, and the record's dicts beside the model.
    assert peak <= 1.1 * kept


def test_deeply_nested_standoff_record_is_c004():
    deep = "[" * 200_000 + "]" * 200_000
    for line in ('{"id":"x","units":' + deep + "}", deep):
        with pytest.raises(ConvertError) as err:
            from_standoff(line)
        assert err.value.code == "C004"
        assert err.value.message.startswith("record is not valid JSON: maximum recursion depth")
    # A value that runs past its line into deep nesting is worded for the line.
    with pytest.raises(ConvertError) as err:
        read_standoff('{"units":[[\n' + deep)
    assert err.value.message.startswith("record is not valid JSON: Expecting value")


@given(doc=documents(), count=st.integers(2, 8))
@settings(max_examples=150)
def test_the_ranges_of_a_document_join_to_it(doc, count):
    assume(doc.units)  # a range holds a unit
    for fmt, write, pieces in (
        ("standoff", to_standoff, standoff_pieces),
        ("columns", to_columns, columns_pieces),
    ):
        text = write(doc)
        bounds = range_bounds(text, fmt, count)
        assert bounds[0] == 0 and bounds[-1] == len(text)
        assert len(bounds) - 1 <= max(1, min(count, len(doc.units)))
        last = len(bounds) - 2
        parts = [read_range(text, fmt, bounds, k) for k in range(last + 1)]
        assert (parts[0].id, parts[0].metadata) == (doc.id, doc.metadata)
        assert all(not part.id and not part.metadata for part in parts[1:])
        assert tuple(u for part in parts for u in part.units) == doc.units
        joined = "".join(
            piece for k, part in enumerate(parts) for piece in pieces(part, k == 0, k == last)
        )
        assert joined == text


def test_a_range_that_does_not_end_at_a_unit_is_a_value_error(golden_doc):
    # An element record that lists "text" first makes a false cut.
    text = to_standoff(golden_doc).replace('{"kind":', '{"text":"y","kind":')
    assert from_standoff(text) == golden_doc
    true_cut = text.index(',{"text":"', text.index("]}") + 1)
    false_cut = text.index(',{"text":"y"')
    assert false_cut < true_cut
    for cut in (false_cut, true_cut):
        bounds = [0, cut, len(text)]
        if cut == true_cut:
            parts = [read_range(text, "standoff", bounds, k) for k in (0, 1)]
            assert parts[0].units + parts[1].units == golden_doc.units
        else:
            with pytest.raises(ValueError):
                read_range(text, "standoff", bounds, 0)
    # A middle range that runs into a false cut at its end.
    later_false = text.index(',{"text":"y"', true_cut)
    with pytest.raises(ValueError):
        read_range(text, "standoff", [0, true_cut, later_false, len(text)], 1)


@pytest.mark.parametrize("k", [0, 1])
def test_a_range_stops_at_its_first_error(golden_doc, monkeypatch, k):
    # A range that fails sends its file to the one-process read, which words
    # the error; the range raises its first error as it finds it, as that
    # read does, so it decodes no unit after the bad one.
    text = to_standoff(Document("x", (), golden_doc.units * 4))
    bounds = range_bounds(text, "standoff", 2)
    at = text.index('"kind":"', bounds[k]) + len('"kind":"')
    text = text[:at] + "X" + text[at:]
    bounds = [b + (b > at) for b in bounds]
    decoded = []

    def counted(rec):
        decoded.append(rec)
        return _unit_from_record(rec)

    monkeypatch.setattr(phkit.readers, "_unit_from_record", counted)
    with pytest.raises(ConvertError) as err:
        read_range(text, "standoff", bounds, k)
    assert err.value.code == "C003"
    assert len(decoded) == text.count('{"text":', bounds[k], at)


def test_a_column_range_without_a_unit_is_a_value_error():
    text = "# doc a\n\n甲\tO\tO\n\n乙\tO\tO\n\n"
    for cut in (text.index("\n\n") + 1, len(text) - 1):  # after the header, before the end
        bounds = [0, cut, len(text)]
        with pytest.raises(ValueError):
            for k in (0, 1):
                read_range(text, "columns", bounds, k)


_SIX_UNITS = '"units":[' + ",".join(['{"text":"a"}'] * 6) + "]"


@pytest.mark.parametrize(
    "record, seen, decodes",
    [
        ("{" + _SIX_UNITS + ',"id":"x"}', True, False),
        ('{"meta":["# m"],"id":"x",' + _SIX_UNITS + "}", False, True),
        ('{"id":"x",' + _SIX_UNITS + ',"units":[{"text":"c"}]}', False, False),
        ('{"id":"x",' + _SIX_UNITS + ',"x":1}', True, False),
    ],
    ids=["units first", "meta first", "units repeated", "key after units"],
)
def test_a_record_not_in_the_writer_form_is_not_read_in_ranges(record, seen, decodes):
    # range_bounds declines what its line shows. In ranges, the rest either
    # fails, or reads as one process reads it: keys before the units may
    # come in any order.
    assert (range_bounds(record, "standoff", 2) == []) == seen
    bounds = [0, record.index(',{"text":', len(record) // 2), len(record)]
    try:
        parts = [read_range(record, "standoff", bounds, k) for k in (0, 1)]
    except ValueError:
        parts = None
    assert (parts is not None) == decodes
    if parts:
        doc = from_standoff(record)
        assert (parts[0].id, parts[0].metadata) == (doc.id, doc.metadata)
        assert parts[0].units + parts[1].units == doc.units


@pytest.mark.parametrize(
    "text",
    ["# doc a\n甲\tO\tO\n\n乙\tO\tO\n# doc b\n丙\tO\tO\n", "# doc a\r\n甲\tO\tO\r\n\r\n乙\tO\tO\r\n"],
    ids=["two documents", "crlf"],
)
def test_columns_that_are_not_one_lf_document_are_not_cut(text):
    assert range_bounds(text, "columns", 2) == []


def test_a_column_range_with_metadata_after_the_first_is_a_value_error():
    text = "# doc a\n甲\tO\tO\n\n乙\tO\tO\n# meta\t# late\n丁\tO\tO\n"
    bounds = [0, text.index("\n\n") + 1, len(text)]
    assert read_columns(text)[0].metadata == ("# late",)
    assert read_range(text, "columns", bounds, 0).units == read_columns(text)[0].units[:1]
    with pytest.raises(ValueError):
        read_range(text, "columns", bounds, 1)


# --- the first error in text order against the earlier readers -------------
#
# The references below are the earlier readers, copied verbatim: they held
# a unit's conversion error until the whole record had parsed, and checked
# a record's values and a column document's header, metadata and units'
# document rules when it closed. On one fault the readers must read as
# they did; on two, as they did on the one that comes first in the text.


def reference_units(
    text: str, pos: int, end: int, hi: int | None, opener: re.Pattern[str]
) -> tuple[list[LabelingUnit], ConvertError | None, int, int | None]:
    """Decode unit records from ``pos``, where ``opener`` matches the
    "units" array's "[" or the "," before a unit, through the array's "]",
    or up to ``hi`` if a unit ends there: the units, the first unit's
    conversion error, the position after the last, and 1 if "]" closed.
    With ``hi``, a range's end, that error is raised at once instead."""
    units: list[LabelingUnit] = []
    unit_error = None
    pos, closed = _step(opener, text, pos, end)
    while not closed:
        unit, pos = _decode(text, pos)
        try:
            units.append(_unit_from_record(unit))
        except ConvertError as exc:
            if hi is not None:  # the file is read again in one process
                raise
            unit_error = unit_error or exc
        if pos == hi:
            break
        pos, closed = _step(_NEXT_UNIT, text, pos, end)
    return units, unit_error, pos, closed


def reference_record(text: str, start: int, end: int, hi: int | None = None) -> Document:
    """Decode the standoff record ``text[start:end]`` one unit at a time, so
    that one unit's dicts are alive at a time. Keys may come in any order and
    the last of a repeated key wins. Errors come in ``json.loads`` order, so a
    unit's conversion error is held until the whole record has parsed.

    With ``hi``, only the units before ``hi`` are read: the record's first
    range (see ``workers.read_range``). A unit must then end at ``hi``,
    before the record closes, and an error is raised as it is found: a
    ValueError."""
    fields: dict[str, Any] = {"id": "", "meta": [], "units": []}
    unit_error = None
    try:
        pos, closed = _step(_OPEN, text, start, end)
        while not closed:
            key, pos = _decode(text, pos)  # a string: it starts with a quote
            pos, _ = _step(_COLON, text, pos, end)
            if key == "units" and text.startswith("[", pos, end):
                # An error of an earlier "units" goes with it.
                fields[key], unit_error, pos, closed = reference_units(text, pos, end, hi, _UNITS)
                if not closed:  # it stopped at hi
                    break
            else:
                fields[key], pos = _decode(text, pos)
            pos, closed = _step(_NEXT_KEY, text, pos, end)
    except (ValueError, RecursionError):
        if hi is not None:  # a range: the file is read again in one process
            raise
        # A broken record, worded as json.loads words it for the line alone.
        try:
            json.loads(text[start:end])
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConvertError("C004", f"record is not valid JSON: {exc}") from None
        raise ConvertError("C004", "record must be a JSON object") from None
    if hi is not None and closed:
        raise ValueError("the record's first range does not end at a unit")
    doc_id, meta, units = fields["id"], fields["meta"], fields["units"]
    if type(doc_id) is not str:
        raise ConvertError("C004", "'id' must be a string")
    if type(meta) is not list or not all(type(m) is str for m in meta):
        raise ConvertError("C004", "'meta' must be a list of strings")
    if _LONE_SURROGATE.search(doc_id):
        raise _lone_surrogate("id")
    if any(map(_LONE_SURROGATE.search, meta)):
        raise _lone_surrogate("meta")
    if type(units) is not list:
        raise ConvertError("C004", "'units' must be a list")
    if unit_error is not None:
        raise unit_error
    try:
        return Document(doc_id, tuple(meta), tuple(units))
    except ModelError as exc:
        raise ConvertError("C004", str(exc)) from None


def reference_read_standoff(text: str, lines: list[int] | None = None) -> list[Document]:
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
        docs.append(reference_record(text, pos, line.end()))
    return docs


def reference_column_docs(text: str, lo: int, hi: int) -> list[Document]:
    """The documents of the column rows in ``text[lo:hi]``, where ``lo`` is
    a line start and ``text`` holds no "\\r". An error names a line: a
    unit's first row, a document's first line (its ``# doc`` header if it
    has one), or the malformed row."""
    docs: list[Document] = []
    doc_id = ""
    meta: list[str] = []
    units: list[LabelingUnit] = []
    blocks: list[str] = []  # row runs of the open unit, split by "# meta" lines
    started = False
    doc_at = unit_at = lo  # where the open document and the open unit start

    def close_unit() -> None:
        if blocks:
            try:
                units.append(_unit_from_rows("".join(blocks)))
            except ConvertError as exc:
                raise _at_line(text, unit_at, exc) from None
            blocks.clear()

    def close_doc() -> None:
        nonlocal doc_id, meta, units
        close_unit()
        if started:
            try:
                docs.append(Document(doc_id, tuple(meta), tuple(units)))
            except ModelError as exc:
                raise _at_line(text, doc_at, ConvertError("C012", str(exc))) from None
        doc_id = ""
        meta = []
        units = []

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
        elif kind == "meta":
            started = True
            meta.append(token.group(kind))
        else:
            line = token.group()
            if line.count("\t") != 2:
                error = ConvertError("C013", "expected 3 tab-separated fields")
            else:
                error = ConvertError("C013", "first field must be a single character")
            raise _at_line(text, token.start(), error)
    close_doc()
    return docs


def reference_read_columns(text: str) -> list[Document]:
    """Parse a column-format stream into documents. A read error names its
    line, as ``C011 line N: …``."""
    if "\r" in text:  # one "\r" before each line end is dropped
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    return reference_column_docs(text, 0, len(text))


# Faults to plant, by place: a standoff record's "id" or "meta" value or a
# unit record, or a column document's header, one of its "# meta" lines
# or a unit's rows. Those of ``_CLOSE_FAULTS`` break a model rule on a
# standoff record's id or metadata, checked when the record closes.
_STANDOFF_FAULTS = {
    "id": ["5", '"\\udc00"', "[1,]"],
    "meta": ["[1]", '"# x"', '["\\ud800"]', "[,]"],
    "unit": [
        "5",
        "{}",
        '{"text":""}',
        '{"text":"#a"}',
        '{"text":"\\ud800"}',
        '{"text":"ab","elements":[{"kind":"X","start":0,"end":1}]}',
        '{"text":"ab","elements":5}',
        _C001_UNIT,
        '{"text":"ab","elements":[{"kind":"UNC","start":0,"end":2},'
        '{"kind":"UNC","start":1,"end":2}]}',
        '{"text":"ab",}',
    ],
}
_CLOSE_FAULTS = {"id": ['" x"'], "meta": ['["x"]']}
_COLUMN_FAULTS = {
    "header": ["# doc  x"],
    "meta": ["# meta\tx"],
    "unit": ["#\tO\tO", "甲\tO\tB", "甲\tI-PRE-S\tB", "甲\tB-XX\tB", "甲\tO", "甲甲\tO\tO"],
}


def _standoff_places(doc: Document, order: list[str]) -> list[tuple[str, str]]:
    """The record of ``doc`` as (place, JSON text) pairs in text order: its
    "id" and "meta" values and its unit records, the keys in ``order``. The
    place "units" opens the units, with no text of its own."""
    units = json.loads(to_standoff(doc))["units"]
    values = {"id": doc.id, "meta": list(doc.metadata)}
    places = []
    for key in order:
        if key == "units":
            places.append(("units", ""))
            places += [("unit", json.dumps(unit, ensure_ascii=False)) for unit in units]
        else:
            places.append((key, json.dumps(values[key], ensure_ascii=False)))
    return places


def _standoff_text(places: list[tuple[str, str]], faults: dict[int, str]) -> str:
    members: list = []
    for i, (place, value) in enumerate(places):
        value = faults.get(i, value)
        if place == "units":
            units: list[str] = []
            members.append(units)
        elif place == "unit":
            units.append(value)
        else:
            members.append(f'"{place}":{value}')
    return "{" + ",".join(
        m if isinstance(m, str) else '"units":[' + ",".join(m) + "]" for m in members
    ) + "}"


def _column_places(docs: list[Document]) -> list[tuple[str, str]]:
    """The column text of ``docs`` as (place, text) pairs in text order: each
    header, "# meta" line and unit's rows, and the blank lines between units,
    each without its last newline."""
    places = []
    for doc in docs:
        places.append(("header", f"# doc {doc.id}" if doc.id else "# doc"))
        places += [("meta", f"# meta\t{line}") for line in doc.metadata]
        for i, unit in enumerate(doc.units):
            if i:
                places.append(("blank", ""))
            rows = to_columns(Document("", (), (unit,))).split("\n", 1)[1]
            places.append(("unit", rows.rstrip("\n")))
    return places


def _column_text(places: list[tuple[str, str]], faults: dict[int, str]) -> str:
    return "".join(faults.get(i, part) + "\n" for i, (_, part) in enumerate(places))


@st.composite
def planted(draw, faults: int):
    """(reader, reference, text with ``faults`` faults, text with the first
    of them only): a standoff record or a column stream."""
    if draw(st.booleans()):
        doc = draw(documents())
        order = draw(st.permutations(["id", "meta", "units"]))
        places = _standoff_places(doc, order)
        table = _STANDOFF_FAULTS
        if faults == 1:
            table = {key: kinds + _CLOSE_FAULTS.get(key, []) for key, kinds in table.items()}
        texts, readers = _standoff_text, (read_standoff, reference_read_standoff)
    else:
        places = _column_places(draw(st.lists(documents(), min_size=1, max_size=2)))
        table, texts = _COLUMN_FAULTS, _column_text
        readers = (read_columns, reference_read_columns)
    spots = [i for i, (place, _) in enumerate(places) if place in table]
    assume(len(spots) >= faults)
    chosen = draw(st.lists(st.sampled_from(spots), min_size=faults, max_size=faults, unique=True))
    plants = {i: draw(st.sampled_from(table[places[i][0]])) for i in sorted(chosen)}
    first = min(plants)
    return (*readers, texts(places, plants), texts(places, {first: plants[first]}))


@given(planted(1))
@settings(max_examples=300)
def test_one_fault_reads_as_the_earlier_readers_read_it(case):
    read, reference, text, _ = case
    assert _outcome(read, text) == _outcome(reference, text)


@given(planted(2))
@settings(max_examples=300)
def test_two_faults_read_as_the_first_alone(case):
    read, reference, text, first = case
    expected = _outcome(reference, first)
    assert not isinstance(expected, list)
    assert _outcome(read, text) == expected
