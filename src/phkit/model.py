"""Core data model for predicate-head annotation.

A document is an ordered list of labeling units: manually segmented
sentences or clauses. Each unit stores its plain text plus a flat,
non-overlapping sequence of typed elements. All offsets are Unicode
codepoint offsets into the unit text; the markup characters of the inline
serialization (brackets, tags, parentheses, separators) never appear in
the text itself.

Every type here is an immutable value: safe to share between threads and
usable as a dict key where hashable fields allow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ModelError(ValueError):
    """A constructed object violates a model invariant."""


class ElementType(str, enum.Enum):
    PRE = "PRE"  # predicate head
    SUB = "SUB"  # subject element
    TEM = "TEM"  # temporal element
    LOC = "LOC"  # locational element
    ADV = "ADV"  # adverbial element
    COM = "COM"  # complemental element
    UNC = "UNC"  # unclear unit; annotation covers the whole sentence
    RAI = "RAI"  # legacy tag accepted on input; validation suggests COM


class PredicatePattern(str, enum.Enum):
    """Structural pattern of a predicate head (PRE elements only)."""

    SINGLETON = "S"
    REDUPLICATED = "R"
    COORDINATED = "L"
    MODIFIED = "M"
    SPECIFIC = "V"


class ElementForm(str, enum.Enum):
    """Composition of a non-predicate element: word, phrase, or clause."""

    WORD = "W"
    PHRASE = "P"
    CLAUSE = "C"


#: Element kinds that carry a form postfix (everything except PRE and UNC).
FORM_KINDS = frozenset(
    {
        ElementType.SUB,
        ElementType.TEM,
        ElementType.LOC,
        ElementType.ADV,
        ElementType.COM,
        ElementType.RAI,
    }
)

TagEntry = tuple[ElementType, PredicatePattern | None, ElementForm | None]

#: Every legal tag as the inline and column formats spell it ("PRE-S",
#: "ADV-P", bare "UNC"), mapped to its (kind, pattern, form).
TAGS: dict[str, TagEntry] = {
    "UNC": (ElementType.UNC, None, None),
    **{f"PRE-{p.value}": (ElementType.PRE, p, None) for p in PredicatePattern},
    **{
        f"{k.value}-{f.value}": (k, None, f)
        for k in ElementType
        if k in FORM_KINDS
        for f in ElementForm
    },
}

#: ``TAGS`` keyed as standoff records spell a tag: (kind, subtag or None).
STANDOFF_TAGS: dict[tuple[str, str | None], TagEntry] = {
    (tag.partition("-")[0], tag.partition("-")[2] or None): entry
    for tag, entry in TAGS.items()
}

#: ``TAGS`` reversed: (kind, pattern, form) to the tag's spelling.
TAG_NAMES: dict[TagEntry, str] = {entry: tag for tag, entry in TAGS.items()}

# Characters that cannot occur in unit text: the model is line-based and
# exported to tab-separated columns, so line breaks and tabs are reserved.
_FORBIDDEN_TEXT_CHARS = ("\n", "\r", "\t")


# Span, Segment, Element and LabelingUnit are built once per element on
# every read path, so each has one hand-written __init__ (init=False): the
# generated frozen __init__ pays one object.__setattr__ per field plus a
# separate __post_init__ call. Fields are stored through the slot
# descriptors' setters, bound once below each class; they bypass the frozen
# __setattr__ without weakening it for anyone else.


@dataclass(frozen=True, slots=True, init=False)
class Span:
    """Half-open codepoint interval [start, end); always non-empty."""

    start: int
    end: int

    def __init__(self, start: int, end: int) -> None:
        if not (0 <= start < end):
            raise ModelError(f"invalid span [{start}, {end})")
        _set_span_start(self, start)
        _set_span_end(self, end)

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


_set_span_start = Span.start.__set__
_set_span_end = Span.end.__set__


@dataclass(frozen=True, slots=True, init=False)
class Segment:
    """A contiguous stretch of element content with an optional head.

    The head marks the core word of the segment. It must be a proper
    sub-span: inside the segment and strictly smaller than it.
    """

    span: Span
    head: Span | None = None

    def __init__(self, span: Span, head: Span | None = None) -> None:
        if head is not None and not (
            span.start <= head.start
            and head.end <= span.end
            and head.end - head.start < span.end - span.start
        ):
            raise ModelError(f"head {head} is not strictly inside segment {span}")
        _set_segment_span(self, span)
        _set_segment_head(self, head)


_set_segment_span = Segment.span.__set__
_set_segment_head = Segment.head.__set__


@dataclass(frozen=True, slots=True, init=False)
class Element:
    """One annotated element of a labeling unit.

    An element is a body segment, optionally preceded by a trigger segment
    (the preposition or verb introducing it). When a trigger is present the
    two segments are adjacent; the boundary between them is where the "-"
    separator sits in the inline serialization. The separator is markup,
    not text, so it occupies no codepoints.

    Tag compatibility: PRE carries a pattern and no form; UNC carries
    neither; every other kind carries a form and no pattern. ``TAGS``
    lists exactly these combinations, and the constructor checks against it.

    ``span`` is the whole element extent, trigger (if any) plus body. It is
    derived from the segments, so it takes no part in eq, hash or repr.
    """

    kind: ElementType
    body: Segment
    trigger: Segment | None = None
    pattern: PredicatePattern | None = None
    form: ElementForm | None = None
    span: Span = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        kind: ElementType,
        body: Segment,
        trigger: Segment | None = None,
        pattern: PredicatePattern | None = None,
        form: ElementForm | None = None,
    ) -> None:
        if (kind, pattern, form) not in TAG_NAMES:
            raise ModelError(f"no tag for {kind!r} with pattern {pattern!r}, form {form!r}")
        body_span = body.span
        if trigger is None:
            span = body_span
        elif trigger.span.end == body_span.start:
            span = Span(trigger.span.start, body_span.end)
        else:
            raise ModelError("trigger segment must end exactly where the body begins")
        _set_element_kind(self, kind)
        _set_element_body(self, body)
        _set_element_trigger(self, trigger)
        _set_element_pattern(self, pattern)
        _set_element_form(self, form)
        _set_element_span(self, span)

    @property
    def separator_offset(self) -> int | None:
        """Text offset of the trigger/body boundary, or None without a trigger."""
        return self.body.span.start if self.trigger is not None else None

    @property
    def tag(self) -> str:
        """Serialized tag, e.g. "PRE-S", "ADV-P", or bare "UNC"."""
        # The constructor admits only combinations that TAGS lists.
        return TAG_NAMES[(self.kind, self.pattern, self.form)]


_set_element_kind = Element.kind.__set__
_set_element_body = Element.body.__set__
_set_element_trigger = Element.trigger.__set__
_set_element_pattern = Element.pattern.__set__
_set_element_form = Element.form.__set__
_set_element_span = Element.span.__set__


@dataclass(frozen=True, slots=True, init=False)
class LabelingUnit:
    """One segmented sentence or clause with its annotated elements.

    Element spans are pairwise disjoint and sorted by start offset.
    Characters not covered by any element are gap text (conjunctions,
    punctuation) and are preserved verbatim.
    """

    text: str
    elements: tuple[Element, ...] = ()

    def __init__(self, text: str, elements: tuple[Element, ...] = ()) -> None:
        if not isinstance(elements, tuple):
            elements = tuple(elements)
        for ch in _FORBIDDEN_TEXT_CHARS:
            if ch in text:
                raise ModelError(f"unit text may not contain {ch!r}")
        prev_end = 0
        text_len = len(text)
        for el in elements:
            span = el.span
            start, end = span.start, span.end
            if start < prev_end:
                raise ModelError(
                    f"element spans overlap or are out of order at [{start}, {end})"
                )
            if end > text_len:
                raise ModelError(
                    f"element span [{start}, {end}) exceeds text length {text_len}"
                )
            prev_end = end
        _set_unit_text(self, text)
        _set_unit_elements(self, elements)


_set_unit_text = LabelingUnit.text.__set__
_set_unit_elements = LabelingUnit.elements.__set__


@dataclass(frozen=True, slots=True)
class Document:
    """An ordered collection of labeling units with optional metadata.

    ``metadata`` holds raw comment lines (each starting with "#"). The
    document id is kept separately; when the id is empty, no metadata line
    may start with "#id:" or the id could not survive a round trip through
    the inline format.
    """

    id: str = ""
    metadata: tuple[str, ...] = ()
    units: tuple[LabelingUnit, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.metadata, tuple):
            object.__setattr__(self, "metadata", tuple(self.metadata))
        if not isinstance(self.units, tuple):
            object.__setattr__(self, "units", tuple(self.units))
        if self.id != self.id.strip() or "\n" in self.id or "\r" in self.id:
            raise ModelError(f"invalid document id {self.id!r}")
        for line in self.metadata:
            if not line.startswith("#") or "\n" in line or "\r" in line:
                raise ModelError(f"metadata line must be a single '#' comment: {line!r}")
            if not self.id and line.startswith("#id:"):
                raise ModelError("metadata '#id:' line conflicts with an empty document id")
        for unit in self.units:
            if not unit.text:
                raise ModelError("documents cannot contain units with empty text")
            if unit.text.startswith("#") and (
                not unit.elements or unit.elements[0].span.start > 0
            ):
                # Such a unit would serialize to a line starting with "#",
                # which the inline format reserves for metadata.
                raise ModelError("unit text may not start with '#' outside an element")


def span_surface(unit: LabelingUnit, span: Span) -> str:
    """Return the codepoints of ``unit.text`` covered by ``span``."""
    if span.end > len(unit.text):
        raise ModelError(f"span {span} out of bounds for unit of length {len(unit.text)}")
    return unit.text[span.start : span.end]


def element_surface(unit: LabelingUnit, element: Element) -> str:
    """Return the codepoints of ``unit.text`` covered by ``element``."""
    return span_surface(unit, element.span)
