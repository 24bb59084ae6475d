import copy
import pickle

import pytest
from hypothesis import given

from phkit.cli import CliError
from phkit.convert import ConvertError
from phkit.inline import ParseDiagnostic, ParseResult
from phkit.metrics import (
    AgreementCounts,
    AgreementError,
    AgreementReport,
    KindAgreement,
    MatchCriterion,
    SpanAgreement,
    StatsReport,
)
from phkit.model import (
    Document,
    Element,
    ElementForm,
    ElementType,
    LabelingUnit,
    ModelError,
    TAGS,
    PredicatePattern,
    Segment,
    Span,
    Value,
    element_surface,
)
from phkit.inline import parse_unit
from phkit.segmentation import BoundaryCause, BoundaryKind, SegmentBoundary, SegmenterConfig
from phkit.validation import Diagnostic, Severity

from .strategies import labeling_units


def test_span_rejects_empty_and_negative():
    with pytest.raises(ModelError):
        Span(0, 0)
    with pytest.raises(ModelError):
        Span(3, 2)
    with pytest.raises(ModelError):
        Span(-1, 2)


def test_segment_head_must_be_proper_subspan():
    Segment(Span(0, 3), Span(1, 3))
    Segment(Span(0, 2), Span(0, 1))
    with pytest.raises(ModelError):
        Segment(Span(0, 3), Span(0, 3))
    with pytest.raises(ModelError):
        Segment(Span(0, 3), Span(2, 4))


def test_element_tag_compatibility():
    body = Segment(Span(0, 2))
    Element(ElementType.PRE, body, pattern=PredicatePattern.SINGLETON)
    Element(ElementType.SUB, body, form=ElementForm.WORD)
    Element(ElementType.UNC, body)
    with pytest.raises(ModelError):
        Element(ElementType.PRE, body, form=ElementForm.WORD)
    with pytest.raises(ModelError):
        Element(ElementType.SUB, body, pattern=PredicatePattern.SINGLETON)
    with pytest.raises(ModelError):
        Element(ElementType.UNC, body, form=ElementForm.WORD)
    with pytest.raises(ModelError):
        Element(ElementType.SUB, body)


def test_element_tag_spells_its_tags_entry():
    body = Segment(Span(0, 2))
    for tag, (kind, pattern, form) in TAGS.items():
        assert Element(kind, body, pattern=pattern, form=form).tag == tag


def test_tags_are_every_pattern_and_form_in_scheme_order():
    assert list(TAGS) == [
        "UNC",
        *(f"PRE-{p}" for p in "SRLMV"),
        *(f"{k}-{f}" for k in ("SUB", "TEM", "LOC", "ADV", "COM", "RAI") for f in "WPC"),
    ]


def test_trigger_must_abut_body():
    trigger = Segment(Span(0, 2))
    with pytest.raises(ModelError):
        Element(
            ElementType.ADV,
            Segment(Span(3, 5)),
            trigger,
            form=ElementForm.PHRASE,
        )
    el = Element(ElementType.ADV, Segment(Span(2, 5)), trigger, form=ElementForm.PHRASE)
    assert el.span == Span(0, 5)
    assert el.separator_offset == 2


def test_unit_rejects_overlapping_and_out_of_bounds_elements():
    a = Element(ElementType.PRE, Segment(Span(0, 4)), pattern=PredicatePattern.SINGLETON)
    b = Element(ElementType.COM, Segment(Span(2, 6)), form=ElementForm.WORD)
    with pytest.raises(ModelError):
        LabelingUnit("abcdef", (a, b))
    with pytest.raises(ModelError):
        LabelingUnit("ab", (a,))
    with pytest.raises(ModelError):
        LabelingUnit("abcdef", (b, a))


def test_unit_rejects_control_characters():
    for bad in ("a\tb", "a\nb", "a\rb"):
        with pytest.raises(ModelError):
            LabelingUnit(bad)


def test_element_surface_examples():
    unit, _ = parse_unit("[SUB-W 被告人(陈某某)][ADV-P 因-家庭(矛盾)][PRE-S 迁怒]")
    sub, adv, pre = unit.elements
    assert element_surface(unit, pre) == "迁怒"
    assert element_surface(unit, adv) == "因家庭矛盾"
    assert unit.text[adv.trigger.span.start : adv.trigger.span.end] == "因"
    assert unit.text[adv.body.head.start : adv.body.head.end] == "矛盾"
    whole = LabelingUnit(
        "跑",
        (
            Element(
                ElementType.PRE,
                Segment(Span(0, 1)),
                pattern=PredicatePattern.SINGLETON,
            ),
        ),
    )
    assert element_surface(whole, whole.elements[0]) == "跑"


def test_element_surface_rejects_foreign_span():
    unit = LabelingUnit("ab")
    rogue = Element(
        ElementType.PRE, Segment(Span(0, 9)), pattern=PredicatePattern.SINGLETON
    )
    with pytest.raises(ModelError):
        element_surface(unit, rogue)


def test_document_invariants():
    with pytest.raises(ModelError):
        Document(" padded ")
    with pytest.raises(ModelError):
        Document("", ("not a comment",))
    with pytest.raises(ModelError):
        Document("", ("#id: sneaky",))
    Document("x", ("#id: fine-when-id-set",))
    with pytest.raises(ModelError):
        Document("", (), (LabelingUnit(""),))
    with pytest.raises(ModelError):
        Document("", (), (LabelingUnit("#no"),))


def _adv_element():
    return Element(
        ElementType.ADV,
        Segment(Span(1, 4), Span(2, 3)),
        Segment(Span(0, 1)),
        form=ElementForm.PHRASE,
    )


def test_model_values_are_immutable():
    span = Span(0, 1)
    with pytest.raises(AttributeError):
        span.start = 5
    unit = LabelingUnit("ab")
    with pytest.raises(AttributeError):
        unit.text = "cd"

    element = _adv_element()
    assert element == _adv_element()
    assert hash(element) == hash(_adv_element())
    assert repr(element) == (
        f"Element(kind={element.kind!r}, body={element.body!r}, "
        f"trigger={element.trigger!r}, pattern=None, form={element.form!r})"
    )
    unit = LabelingUnit("甲乙丙丁", [element])
    assert unit.elements == (element,)
    for value in (span, element.body, element, unit):
        for name in type(value).__slots__:  # Element's derived span too
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value
            assert hash(twin) == hash(value)
    for twin in (copy.deepcopy(element), pickle.loads(pickle.dumps(element))):
        assert twin.span == Span(0, 4)
    moved = Element(element.kind, element.body, trigger=None, form=ElementForm.WORD)
    assert moved.span == Span(1, 4)
    assert Segment(element.body.span, head=None).head is None
    with pytest.raises(ModelError):
        LabelingUnit("甲", unit.elements)


def _one_value_of_each_class() -> list:
    element = _adv_element()
    finding = ParseDiagnostic("P001", 2, 3, "m")
    kind = KindAgreement(1, 0, 1, 1.0, 0.5, 0.75)
    spans = SpanAgreement(MatchCriterion.EXACT, 1, 0, 1, 1.0, 0.5, 0.75, {"ADV": kind})
    adv = {ElementType.ADV: 1}
    return [
        Span(0, 1),
        element.body,
        element,
        LabelingUnit("甲乙丙丁", (element,)),
        Document("d", ("# m",), (LabelingUnit("乙"),)),
        finding,
        ParseResult(Document(), [finding], [2]),
        Diagnostic("W010", Severity.WARNING, 0, Span(1, 4), "m"),
        StatsReport(1, 0, {"ADV": 1}, {}, {"P": 1}, {"ADV-P": 1}, {4: 1}, {1: 1}),
        kind,
        spans,
        AgreementReport(spans, None),
        AgreementCounts(adv, adv, adv, {ElementType.ADV: 4}, {}, 4, 1),
        SegmentBoundary(2, BoundaryKind.HARD, BoundaryCause.END_MARK),
        SegmenterConfig(("并", "和", "并"), "hard"),
    ]


# The reprs of ``_one_value_of_each_class()`` as the dataclass-generated
# reprs wrote them, before the classes moved onto ``Value``.
_ELEMENT = (
    "Element(kind=<ElementType.ADV: 'ADV'>, body=Segment(span=Span(start=1, end=4), "
    "head=Span(start=2, end=3)), trigger=Segment(span=Span(start=0, end=1), head=None), "
    "pattern=None, form=<ElementForm.PHRASE: 'P'>)"
)
_KIND = "KindAgreement(matched=1, only_a=0, only_b=1, precision=1.0, recall=0.5, f1=0.75)"
_SPANS = (
    "SpanAgreement(criterion=<MatchCriterion.EXACT: 'exact'>, matched=1, only_a=0, only_b=1, "
    f"precision=1.0, recall=0.5, f1=0.75, per_kind={{'ADV': {_KIND}}})"
)
_ADV = "{<ElementType.ADV: 'ADV'>: 1}"
PARENT_REPRS = [
    "Span(start=0, end=1)",
    "Segment(span=Span(start=1, end=4), head=Span(start=2, end=3))",
    _ELEMENT,
    f"LabelingUnit(text='甲乙丙丁', elements=({_ELEMENT},))",
    "Document(id='d', metadata=('# m',), units=(LabelingUnit(text='乙', elements=()),))",
    "ParseDiagnostic(code='P001', line=2, column=3, message='m')",
    "ParseResult(document=Document(id='', metadata=(), units=()), diagnostics="
    "[ParseDiagnostic(code='P001', line=2, column=3, message='m')], unit_lines=[2])",
    "Diagnostic(code='W010', severity=<Severity.WARNING: 'warning'>, unit_index=0, "
    "span=Span(start=1, end=4), message='m')",
    "StatsReport(unit_count=1, unc_unit_count=0, by_kind={'ADV': 1}, by_pattern={}, "
    "by_form={'P': 1}, by_tag={'ADV-P': 1}, unit_length_hist={4: 1}, "
    "elements_per_unit_hist={1: 1})",
    _KIND,
    _SPANS,
    f"AgreementReport(spans={_SPANS}, kappa=None)",
    f"AgreementCounts(matched={_ADV}, total_a={_ADV}, total_b={_ADV}, "
    "chars_a={<ElementType.ADV: 'ADV'>: 4}, chars_b={}, n=4, po_num=1)",
    "SegmentBoundary(position=2, kind=<BoundaryKind.HARD: 'hard'>, "
    "cause=<BoundaryCause.END_MARK: 'end_mark'>)",
    "SegmenterConfig(conjunctions=('并', '和'), comma_policy=<CommaPolicy.HARD: 'hard'>)",
]


def test_every_value_class_keeps_the_value_contract():
    values = _one_value_of_each_class()
    assert {type(v) for v in values} == set(Value.__subclasses__())
    assert len(values) == 15
    for value, expected in zip(values, PARENT_REPRS, strict=True):
        cls = type(value)
        assert repr(value) == expected
        # The positional pattern names the fields in repr order.
        names = [f"{name}=" for name in cls.__match_args__]
        assert sorted(names, key=expected.index) == names
        assert expected.startswith(f"{cls.__name__}({names[0]}")
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")
        assert value == cls(*(getattr(value, name) for name in cls.__match_args__))
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls
            assert twin == value
            assert repr(twin) == expected
            try:
                assert hash(twin) == hash(value)
            except TypeError:  # a field holds a dict or a list
                assert cls in (ParseResult, StatsReport, SpanAgreement, AgreementReport,
                               AgreementCounts)
    match values[0]:
        case Span(start, end):
            assert (start, end) == (0, 1)
    assert StatsReport() == StatsReport(0, 0, {}, {}, {}, {}, {}, {})
    assert StatsReport().by_kind is not StatsReport().by_kind
    assert AgreementCounts(n=3).po_num == 0
    assert ParseResult(Document()).diagnostics == []
    with pytest.raises(TypeError):
        Diagnostic("W010", Severity.WARNING, 0, None)
    with pytest.raises(TypeError):
        ParseDiagnostic("P001", 2, 3, "m", code="P002")


@pytest.mark.parametrize(
    "error, fields",
    [
        (ConvertError("C004", "bad record"), ("code", "message")),
        (AgreementError("AGR001", "unit 2 text differs"), ("code", "message")),
        (CliError(2, "cannot read x: No such file"), ("status",)),
    ],
    ids=("ConvertError", "AgreementError", "CliError"),
)
def test_a_coded_error_survives_pickling_and_copying(error, fields):
    for twin in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
        assert type(twin) is type(error)
        assert str(twin) == str(error)
        assert [getattr(twin, name) for name in fields] == [getattr(error, name) for name in fields]


@given(labeling_units())
def test_trigger_separator_body_tile_the_element(unit):
    for el in unit.elements:
        if el.trigger is not None:
            assert el.trigger.span.start == el.span.start
            assert el.trigger.span.end == el.body.span.start
            assert el.separator_offset == el.body.span.start
        else:
            assert el.body.span.start == el.span.start
            assert el.separator_offset is None
        assert el.body.span.end == el.span.end
        assert el.span == Span((el.trigger or el.body).span.start, el.body.span.end)
        for seg in (el.trigger, el.body):
            if seg is not None and seg.head is not None:
                assert seg.span.contains(seg.head)
                assert len(seg.head) < len(seg.span)


@given(labeling_units())
def test_gap_and_element_surfaces_reconstruct_text(unit):
    pos = 0
    rebuilt = []
    for el in unit.elements:
        rebuilt.append(unit.text[pos : el.span.start])
        rebuilt.append(element_surface(unit, el))
        pos = el.span.end
    rebuilt.append(unit.text[pos:])
    assert "".join(rebuilt) == unit.text
