"""Hypothesis strategies that build random valid model objects.

Documents are generated model-first (texts and spans assembled together)
so every produced object satisfies the model invariants by construction.
The default text alphabet deliberately mixes CJK with markup-reserved
characters to exercise escaping in the inline format; every strategy that
draws text takes another alphabet as its argument.
"""

from hypothesis import strategies as st

from phkit.model import (
    Document,
    Element,
    ElementForm,
    ElementType,
    LabelingUnit,
    PredicatePattern,
    Segment,
    Span,
)

TEXT_ALPHABET = "的一是不了人我他把被并和且水火木口上下走吃打开门苹果 abXY019[]()-\\#。，、；！？”"

# Characters a JSON writer has to escape, or could escape wrongly: the
# quote, the backslash, every C0 control the model allows in unit text (all
# but LF, CR and tab), DEL, U+2028/U+2029 and characters outside the BMP;
# with a CJK and an ASCII letter between them.
JSON_ESCAPE_ALPHABET = (
    '"\\/'
    + "".join(chr(c) for c in range(0x20) if chr(c) not in "\t\n\r")
    + "\x7f\u2028\u2029\U00020000\U0001f600甲a"
)


def text_chunks(alphabet: str = TEXT_ALPHABET):
    return st.text(alphabet=alphabet, min_size=1, max_size=5)


def maybe_text(alphabet: str = TEXT_ALPHABET):
    return st.text(alphabet=alphabet, max_size=4)


FORM_KINDS = [
    ElementType.SUB,
    ElementType.TEM,
    ElementType.LOC,
    ElementType.ADV,
    ElementType.COM,
    ElementType.RAI,
]


@st.composite
def segment_specs(draw, alphabet: str = TEXT_ALPHABET):
    """(chars, head) where head is a proper sub-range of chars or None."""
    chars = draw(text_chunks(alphabet))
    head = None
    if len(chars) >= 2 and draw(st.booleans()):
        head_len = draw(st.integers(1, len(chars) - 1))
        head_start = draw(st.integers(0, len(chars) - head_len))
        head = (head_start, head_start + head_len)
    return chars, head


@st.composite
def element_specs(draw, alphabet: str = TEXT_ALPHABET):
    kind = draw(st.sampled_from(list(ElementType)))
    pattern = form = None
    if kind is ElementType.PRE:
        pattern = draw(st.sampled_from(list(PredicatePattern)))
    elif kind is not ElementType.UNC:
        form = draw(st.sampled_from(list(ElementForm)))
    body = draw(segment_specs(alphabet))
    trigger = None
    if kind is not ElementType.UNC:
        trigger = draw(st.one_of(st.none(), segment_specs(alphabet)))
    return kind, pattern, form, trigger, body


def _build_segment(spec, offset: int) -> tuple[Segment, int]:
    chars, head = spec
    end = offset + len(chars)
    head_span = Span(offset + head[0], offset + head[1]) if head else None
    return Segment(Span(offset, end), head_span), end


@st.composite
def labeling_units(draw, alphabet: str = TEXT_ALPHABET):
    specs = draw(st.lists(element_specs(alphabet), max_size=4))
    gaps = [draw(maybe_text(alphabet)) for _ in range(len(specs) + 1)]
    if not specs and not gaps[0]:
        gaps[0] = draw(text_chunks(alphabet))
    if gaps[0].startswith("#"):
        # A leading "#" in gap text is unrepresentable in the inline format.
        gaps[0] = "x" + gaps[0][1:]
    parts: list[str] = []
    elements: list[Element] = []
    pos = 0
    for spec, gap in zip(specs, gaps):
        parts.append(gap)
        pos += len(gap)
        kind, pattern, form, trig_spec, body_spec = spec
        trigger = None
        if trig_spec is not None:
            trigger, pos = _build_segment(trig_spec, pos)
            parts.append(trig_spec[0])
        body, pos = _build_segment(body_spec, pos)
        parts.append(body_spec[0])
        elements.append(Element(kind, body, trigger, pattern, form))
    parts.append(gaps[-1])
    return LabelingUnit("".join(parts), tuple(elements))


doc_ids = st.one_of(st.just(""), st.text(alphabet="abcdxyz0189_", min_size=1, max_size=8))


def json_escape_ids():
    """Document ids drawn from ``JSON_ESCAPE_ALPHABET`` that the model
    accepts: without surrounding whitespace (the alphabet has no line break)."""
    return st.one_of(
        st.just(""),
        st.text(alphabet=JSON_ESCAPE_ALPHABET, min_size=1, max_size=8).filter(
            lambda s: s == s.strip()
        ),
    )


@st.composite
def documents(draw, alphabet: str = TEXT_ALPHABET, ids=doc_ids):
    meta_lines = st.text(alphabet=alphabet, max_size=8).map(lambda s: "# " + s)
    return Document(
        draw(ids),
        tuple(draw(st.lists(meta_lines, max_size=2))),
        tuple(draw(st.lists(labeling_units(alphabet), max_size=4))),
    )
