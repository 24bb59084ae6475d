"""Propose labeling-unit boundaries in raw text.

Sentences ending in a full stop, semicolon, exclamation or question mark
are complete units, so those punctuation marks yield hard boundaries (a
closing quote directly after the mark stays attached to it). Whether a
comma-separated clause or a conjunction opens a new unit depends on
whether the clause has its own predicate head, which cannot be decided
before annotation; those cuts are therefore emitted as candidate
boundaries for a human to confirm or reject.

One decidable special case is applied to commas: a clause consisting
entirely of date/time characters (e.g. ``2015年6月29日凌晨``) cannot
contain a predicate head, so rule-wise it never stands alone and its
trailing comma is not proposed as a boundary.

Conjunctions are matched by plain substring, longest entry first; no word
segmentation is attempted.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Iterable

from .model import ModelError

END_MARKS = "。；！？"  # 。 ； ！ ？
CLOSING_QUOTES = "”』」"  # ” 』 」
COMMAS = "，、"  # ， 、

DEFAULT_CONJUNCTIONS: tuple[str, ...] = ("并", "并且", "且", "和", "而且", "但是", "然后")

# Characters that make up pure date/time lead-ins. A clause drawn entirely
# from this set cannot contain a verbal expression.
TEMPORAL_CHARS = frozenset(
    "0123456789"
    "０１２３４５６７８９"
    "年月日时分秒点凌晨早中午晚夜上下前后许间"
    "，、：:"
)


class BoundaryKind(str, enum.Enum):
    HARD = "hard"
    CANDIDATE = "candidate"


class BoundaryCause(str, enum.Enum):
    END_MARK = "end_mark"
    COMMA = "comma"
    CONJUNCTION = "conjunction"


class CommaPolicy(str, enum.Enum):
    CANDIDATE = "candidate"
    HARD = "hard"
    IGNORE = "ignore"


@dataclass(frozen=True, slots=True)
class SegmentBoundary:
    """A proposed cut falling after the character at ``position``."""

    position: int
    kind: BoundaryKind
    cause: BoundaryCause


@dataclass(frozen=True, slots=True)
class SegmenterConfig:
    conjunctions: tuple[str, ...] = DEFAULT_CONJUNCTIONS
    comma_policy: CommaPolicy = CommaPolicy.CANDIDATE

    def __post_init__(self) -> None:
        seen: dict[str, None] = {}
        for entry in self.conjunctions:
            if not entry:
                raise ModelError("conjunction lexicon entries must be nonempty")
            seen.setdefault(entry)
        object.__setattr__(self, "conjunctions", tuple(seen))
        object.__setattr__(self, "comma_policy", CommaPolicy(self.comma_policy))


def propose_boundaries(
    text: str, config: SegmenterConfig | None = None
) -> list[SegmentBoundary]:
    """Return proposed boundaries in strictly increasing position order.

    Pure function of (text, config). No boundary is ever placed at the
    end of the text.
    """
    if config is None:
        config = SegmenterConfig()
    n = len(text)
    # End marks, closing quotes and commas are different characters, so a
    # position holds at most one punctuation boundary (and may also precede
    # a conjunction, which the punctuation boundary then stands for).
    marks: dict[int, tuple[BoundaryKind, BoundaryCause]] = {}
    comma_kind = (
        BoundaryKind.HARD
        if config.comma_policy is CommaPolicy.HARD
        else BoundaryKind.CANDIDATE
    )
    i = 0
    while i < n:
        ch = text[i]
        if ch in END_MARKS:
            p = i
            while p + 1 < n and text[p + 1] in CLOSING_QUOTES:
                p += 1
            if p < n - 1:
                marks[p] = (BoundaryKind.HARD, BoundaryCause.END_MARK)
            i = p + 1
            continue
        if ch in COMMAS and config.comma_policy is not CommaPolicy.IGNORE and i < n - 1:
            marks[i] = (comma_kind, BoundaryCause.COMMA)
        i += 1

    finditer = _conjunction_pattern(config.conjunctions).finditer
    conjunctions = {m.start() - 1 for m in finditer(text) if m.start()}

    out: list[SegmentBoundary] = []
    piece_start = 0
    for pos in sorted(marks.keys() | conjunctions):
        mark = marks.get(pos)
        if mark and mark[1] is BoundaryCause.COMMA:
            if _is_temporal_leadin(text[piece_start:pos]):
                mark = None
        if mark is None and pos in conjunctions:
            mark = (BoundaryKind.CANDIDATE, BoundaryCause.CONJUNCTION)
        if mark is not None:
            out.append(SegmentBoundary(pos, *mark))
            piece_start = pos + 1
    return out


@functools.lru_cache(maxsize=32)
def _conjunction_pattern(lexicon: tuple[str, ...]) -> re.Pattern[str]:
    """One alternation over the lexicon, longest entry first.

    Alternatives are tried in order at each position, so the longest entry
    starting there wins and matching resumes after it. An empty lexicon
    gets a pattern that matches nowhere: an empty alternation would match
    everywhere.
    """
    if not lexicon:
        return re.compile("(?!)")
    return re.compile("|".join(map(re.escape, sorted(lexicon, key=len, reverse=True))))


def _is_temporal_leadin(piece: str) -> bool:
    return bool(piece) and all(c in TEMPORAL_CHARS for c in piece)


def split(
    text: str, config: SegmenterConfig | None = None, policy: str = "all"
) -> list[str]:
    """Cut ``text`` into proposed units.

    Policy "hard_only" cuts at hard boundaries, "all" at every boundary.
    Boundary punctuation stays with the preceding piece; conjunctions open
    the following piece. The concatenation of the returned pieces always
    equals the input.
    """
    return split_at(text, propose_boundaries(text, config), policy)


def split_at(text: str, boundaries: Iterable[SegmentBoundary], policy: str) -> list[str]:
    """Cut ``text`` at ``boundaries`` as ``propose_boundaries`` returned them.

    ``policy`` is as for ``split``.
    """
    if policy not in ("all", "hard_only"):
        raise ValueError(f"unknown split policy {policy!r}")
    cuts = [
        b.position
        for b in boundaries
        if policy == "all" or b.kind is BoundaryKind.HARD
    ]
    pieces: list[str] = []
    prev = 0
    for cut in cuts:
        pieces.append(text[prev : cut + 1])
        prev = cut + 1
    if prev < len(text):
        pieces.append(text[prev:])
    return [p for p in pieces if p]
