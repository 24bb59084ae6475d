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


_CAUSE_PRIORITY = {
    BoundaryCause.END_MARK: 0,
    BoundaryCause.COMMA: 1,
    BoundaryCause.CONJUNCTION: 2,
}


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
    raw: list[tuple[int, BoundaryKind, BoundaryCause]] = []

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
                raw.append((p, BoundaryKind.HARD, BoundaryCause.END_MARK))
            i = p + 1
            continue
        if ch in COMMAS and config.comma_policy is not CommaPolicy.IGNORE and i < n - 1:
            raw.append((i, comma_kind, BoundaryCause.COMMA))
        i += 1

    conjunctions = _conjunction_pattern(config.conjunctions)
    if conjunctions is not None:
        for match in conjunctions.finditer(text):
            i = match.start()
            if i > 0:
                raw.append((i - 1, BoundaryKind.CANDIDATE, BoundaryCause.CONJUNCTION))

    by_pos: dict[int, list[tuple[BoundaryKind, BoundaryCause]]] = {}
    for pos, kind, cause in raw:
        by_pos.setdefault(pos, []).append((kind, cause))

    out: list[SegmentBoundary] = []
    piece_start = 0
    for pos in sorted(by_pos):
        entries = by_pos[pos]
        if any(cause is BoundaryCause.COMMA for _, cause in entries):
            if _is_temporal_leadin(text[piece_start:pos]):
                entries = [e for e in entries if e[1] is not BoundaryCause.COMMA]
        if not entries:
            continue
        kind = (
            BoundaryKind.HARD
            if any(k is BoundaryKind.HARD for k, _ in entries)
            else BoundaryKind.CANDIDATE
        )
        cause = min((c for _, c in entries), key=_CAUSE_PRIORITY.get)
        out.append(SegmentBoundary(pos, kind, cause))
        piece_start = pos + 1
    return out


@functools.lru_cache(maxsize=32)
def _conjunction_pattern(lexicon: tuple[str, ...]) -> re.Pattern[str] | None:
    """One alternation over the lexicon, longest entry first.

    Alternatives are tried in order at each position, so the longest entry
    starting there wins and matching resumes after it. An empty lexicon
    gets no pattern: an empty alternation would match everywhere.
    """
    if not lexicon:
        return None
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
