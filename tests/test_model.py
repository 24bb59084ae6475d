import copy
import dataclasses
import pickle

import pytest
from hypothesis import given

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
    element_surface,
)
from phkit.inline import parse_unit

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
        for f in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, f.name, getattr(value, f.name))
        assert dataclasses.replace(value) == value
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value
            assert hash(twin) == hash(value)
    for twin in (copy.deepcopy(element), pickle.loads(pickle.dumps(element))):
        assert twin.span == Span(0, 4)
    moved = dataclasses.replace(element, trigger=None, form=ElementForm.WORD)
    assert moved.span == Span(1, 4)
    assert dataclasses.replace(element.body, head=None).head is None
    with pytest.raises(ModelError):
        dataclasses.replace(unit, text="甲")


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
