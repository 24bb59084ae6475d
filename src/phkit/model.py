"""Core data model for predicate-head annotation.

A document is an ordered list of labeling units: manually segmented
sentences or clauses. Each unit stores its plain text plus a flat,
non-overlapping sequence of typed elements. All offsets are Unicode
codepoint offsets into the unit text; the markup characters of the inline
serialization (brackets, tags, parentheses, separators) never appear in
the text itself.

Every type here is an immutable value: safe to share between threads and
usable as a dict key where hashable fields allow. Each phkit value class
derives from ``Value``: ``dataclasses.fields`` and ``replace`` do not apply.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from json import JSONEncoder
from operator import attrgetter


#: The one JSON encoder of every phkit writer: compact separators, non-ASCII
#: characters written as themselves. Built once, because ``json.dumps`` with
#: options builds a new encoder on every call. For a ``str`` it is exactly
#: ``json.encoder.encode_basestring``.
compact_json = JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


class ModelError(ValueError):
    """A constructed object violates a model invariant."""


class CodedError(ValueError):
    """An error with a ``code`` (C004, AGR001, …) and a ``message``; its
    ``str()`` is ``"code: message"``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def __reduce__(self):  # pickled and copied through the constructor
        return type(self), (self.code, self.message)


class Value:
    """An immutable value with slots. A subclass annotates its fields, then
    sets ``__slots__ = _fields = tuple(__annotations__)``, from which come eq
    and hash (through one ``attrgetter``), repr, ``__match_args__``, and
    copies and pickles through the constructor. That takes the fields in
    order or by keyword; ``_defaults`` are factories for the last fields."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields
        cls._values = attrgetter(*cls._fields)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, defaults = self._fields, self._defaults
        for name in names[len(args) :]:
            if name not in kwargs and len(names) - len(args) > len(defaults):
                raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
            args += (kwargs.pop(name) if name in kwargs else defaults[len(args) - len(names)](),)
        if kwargs or len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {names}")
        for set_slot, value in zip(self._setters, args):
            set_slot(self, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)


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
FORM_KINDS = frozenset(ElementType) - {ElementType.PRE, ElementType.UNC}

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

#: Each ``TAGS`` key by its spelling in a standoff record: (kind, subtag or None).
STANDOFF_TAGS: dict[tuple[str, str | None], str] = {
    (tag.partition("-")[0], tag.partition("-")[2] or None): tag for tag in TAGS
}

#: ``TAGS`` reversed: (kind, pattern, form) to the tag's spelling.
TAG_NAMES: dict[TagEntry, str] = {entry: tag for tag, entry in TAGS.items()}

# Characters that cannot occur in unit text: the model is line-based and
# exported to tab-separated columns, so line breaks and tabs are reserved.
_FORBIDDEN_TEXT_CHARS = ("\n", "\r", "\t")


# Span, Segment, Element and LabelingUnit are built once per element on
# every read path (and segmentation.SegmentBoundary and validation.Diagnostic
# once per boundary and finding), so each has its own __init__, which stores
# the fields through its slots' setters (``_setters``), bound to names below
# the class: they bypass Value.__setattr__ without weakening it for anyone else.


class Span(Value):
    """Half-open codepoint interval [start, end); always non-empty."""

    start: int
    end: int
    __slots__ = _fields = tuple(__annotations__)

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


_set_span_start, _set_span_end = Span._setters


class Segment(Value):
    """A contiguous stretch of element content with an optional head.

    The head marks the core word of the segment. It must be a proper
    sub-span: inside the segment and strictly smaller than it.
    """

    span: Span
    head: Span | None
    __slots__ = _fields = tuple(__annotations__)

    def __init__(self, span: Span, head: Span | None = None) -> None:
        if head is not None and not (
            span.start <= head.start
            and head.end <= span.end
            and head.end - head.start < span.end - span.start
        ):
            raise ModelError(f"head {head} is not strictly inside segment {span}")
        _set_segment_span(self, span)
        _set_segment_head(self, head)


_set_segment_span, _set_segment_head = Segment._setters


class Element(Value):
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
    trigger: Segment | None
    pattern: PredicatePattern | None
    form: ElementForm | None
    _fields = tuple(__annotations__)  # all but span
    span: Span
    __slots__ = tuple(__annotations__)

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


_set_element_kind, _set_element_body, _set_element_trigger = Element._setters[:3]
_set_element_pattern, _set_element_form, _set_element_span = Element._setters[3:]


class LabelingUnit(Value):
    """One segmented sentence or clause with its annotated elements.

    Element spans are pairwise disjoint and sorted by start offset.
    Characters not covered by any element are gap text (conjunctions,
    punctuation) and are preserved verbatim.
    """

    text: str
    elements: tuple[Element, ...]
    __slots__ = _fields = tuple(__annotations__)

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


_set_unit_text, _set_unit_elements = LabelingUnit._setters


class Document(Value):
    """An ordered collection of labeling units with optional metadata.

    ``metadata`` holds raw comment lines (each starting with "#"). The
    document id is kept separately; when the id is empty, no metadata line
    may start with "#id:" or the id could not survive a round trip through
    the inline format.
    """

    id: str
    metadata: tuple[str, ...]
    units: tuple[LabelingUnit, ...]
    __slots__ = _fields = tuple(__annotations__)

    def __init__(self, id: str = "", metadata: tuple = (), units: tuple = ()) -> None:
        metadata = tuple(metadata)
        if id != id.strip() or "\n" in id or "\r" in id:
            raise ModelError(f"invalid document id {id!r}")
        for line in metadata:
            if not line.startswith("#") or "\n" in line or "\r" in line:
                raise ModelError(f"metadata line must be a single '#' comment: {line!r}")
            if not id and line.startswith("#id:"):
                raise ModelError("metadata '#id:' line conflicts with an empty document id")
        super().__init__(id, metadata, tuple(map(document_unit, units)))


def document_unit(unit: LabelingUnit) -> LabelingUnit:
    """``unit``, or a ModelError if its text is empty or starts with "#" outside an element."""
    if not unit.text:
        raise ModelError("documents cannot contain units with empty text")
    if unit.text.startswith("#") and (not unit.elements or unit.elements[0].span.start > 0):
        # Such a unit would serialize to a line starting with "#", which
        # the inline format reserves for metadata.
        raise ModelError("unit text may not start with '#' outside an element")
    return unit


def read_document(id: str, metadata: tuple, units: tuple) -> Document:
    """``Document(id, metadata, units)`` of units that have each passed
    ``document_unit``, as a reader checks a unit when it decodes it."""
    doc = Document(id, metadata)
    Document._setters[2](doc, units)  # the units slot
    return doc


# The readers call ``read_element``: the cache below while it pays, else the
# builder itself. An entry takes about 510 bytes, so 4,096 take about 2.1 MB.
_ELEMENTS = 4096
_built = 0  # builds since the cache was last emptied; below 0 while it is skipped


def _build_element(
    tag: str, start: int, body_start: int | None, end: int, head_start: int | None,
    head_end: int | None, trig_head_start: int | None, trig_head_end: int | None,
) -> Element:
    """The element ``tag`` (a ``TAGS`` key) at a reader's offsets, checked by the
    constructors, trigger first; ``body_start`` or a head's start is None if absent."""
    global _built, read_element
    kind, pattern, form = TAGS[tag]
    trigger = None
    if body_start is not None:
        span = Span(start, body_start)
        head = None if trig_head_start is None else Span(trig_head_start, trig_head_end)
        trigger, start = Segment(span, head), body_start
    body = Segment(Span(start, end), None if head_start is None else Span(head_start, head_end))
    element = Element(kind, body, trigger, pattern, form)
    _built += 1
    if _built >= _ELEMENTS:  # empty the cache, and skip it for 8 rounds if under 1
        # read in 5 hit: a hit saves about 4 times what a miss costs
        hits, misses = _cached_element.cache_info()[:2]
        _cached_element.cache_clear()
        skip = read_element is _cached_element and hits * 4 < misses
        read_element, _built = (_build_element, -7 * _ELEMENTS) if skip else (_cached_element, 0)
    return element


_cached_element = read_element = lru_cache(maxsize=None)(_build_element)


def span_surface(unit: LabelingUnit, span: Span) -> str:
    """Return the codepoints of ``unit.text`` covered by ``span``."""
    if span.end > len(unit.text):
        raise ModelError(f"span {span} out of bounds for unit of length {len(unit.text)}")
    return unit.text[span.start : span.end]


def element_surface(unit: LabelingUnit, element: Element) -> str:
    """Return the codepoints of ``unit.text`` covered by ``element``."""
    return span_surface(unit, element.span)
