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

The punctuation cuts come from one pattern scan: an end mark with the
closing quotes after it, or a comma (end marks only when commas are
ignored). Conjunctions are a second scan, matched by plain substring,
longest entry first; no word segmentation is attempted. ``phk segment``
is here too (``cmd_segment``), with the loading of its lexicon.
"""

from __future__ import annotations

import enum
import functools
import os
import re
import sys
from itertools import pairwise
from typing import Iterable

from .model import ModelError, Value

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


# An end mark with the closing quotes after it; with a comma as the other
# alternative (group 1) unless commas are ignored.
_END_MARK = re.compile(f"[{re.escape(END_MARKS)}][{re.escape(CLOSING_QUOTES)}]*")
_END_MARK_OR_COMMA = re.compile(f"{_END_MARK.pattern}|([{re.escape(COMMAS)}])")
# A nonempty piece drawn entirely from TEMPORAL_CHARS.
_TEMPORAL_LEADIN = re.compile(f"[{re.escape(''.join(sorted(TEMPORAL_CHARS)))}]+")


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


class SegmentBoundary(Value):
    """A proposed cut falling after the character at ``position``."""

    position: int
    kind: BoundaryKind
    cause: BoundaryCause
    __slots__ = _fields = tuple(__annotations__)

    def __init__(self, position: int, kind: BoundaryKind, cause: BoundaryCause) -> None:
        _set_position(self, position)
        _set_kind(self, kind)
        _set_cause(self, cause)


_set_position, _set_kind, _set_cause = SegmentBoundary._setters


class SegmenterConfig(Value):
    conjunctions: tuple[str, ...]
    comma_policy: CommaPolicy
    __slots__ = _fields = tuple(__annotations__)

    def __init__(
        self,
        conjunctions: tuple[str, ...] = DEFAULT_CONJUNCTIONS,
        comma_policy: CommaPolicy = CommaPolicy.CANDIDATE,
    ) -> None:
        conjunctions = tuple(dict.fromkeys(conjunctions))
        if not all(conjunctions):
            raise ModelError("conjunction lexicon entries must be nonempty")
        super().__init__(conjunctions, CommaPolicy(comma_policy))


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
    end_mark = (BoundaryKind.HARD, BoundaryCause.END_MARK)
    hard_commas = config.comma_policy is CommaPolicy.HARD
    comma = (BoundaryKind.HARD if hard_commas else BoundaryKind.CANDIDATE, BoundaryCause.COMMA)
    pattern = _END_MARK if config.comma_policy is CommaPolicy.IGNORE else _END_MARK_OR_COMMA
    # End marks, closing quotes and commas are different characters, so a
    # position holds at most one punctuation boundary (and may also precede
    # a conjunction, which the punctuation boundary then stands for). A
    # match of group 1 is a comma.
    found = pattern.finditer(text)
    marks = {m.end() - 1: comma if m.lastindex else end_mark for m in found if m.end() < n}

    finditer = _conjunction_pattern(config.conjunctions).finditer
    conjunctions = {m.start() - 1 for m in finditer(text) if m.start()}

    out: list[SegmentBoundary] = []
    piece_start = 0
    for pos in sorted(marks.keys() | conjunctions):
        mark = marks.get(pos)
        if mark is comma and _TEMPORAL_LEADIN.fullmatch(text, piece_start, pos):
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
        b.position + 1
        for b in boundaries
        if policy == "all" or b.kind is BoundaryKind.HARD
    ]
    # Positions increase and stop short of the text's end, so no piece is empty.
    return [text[i:j] for i, j in pairwise([0, *cuts, len(text)])] if text else []


def _conjunctions(args) -> tuple[str, ...]:
    # Precedence: --conj flag, PHK_CONJ_LEXICON, config file, built-in default.
    from . import cli

    if args.conj:
        return _load_lexicon(args.conj)
    env_path = os.environ.get(cli.ENV_CONJ_LEXICON)
    if env_path:
        return _load_lexicon(env_path)
    from_config = cli._config_value(args, "segment", "conjunctions", list, "a list of strings")
    if from_config is None:
        return DEFAULT_CONJUNCTIONS
    if not all(isinstance(c, str) for c in from_config):
        raise cli.CliError(cli.EXIT_USAGE, "segment.conjunctions entries must be strings")
    if not from_config:
        raise cli.CliError(cli.EXIT_USAGE, "segment.conjunctions has no entries")
    return tuple(from_config)


def _load_lexicon(path: str) -> tuple[str, ...]:
    from . import cli

    entries = []
    for line in cli._read_text(path).split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    if not entries:
        raise cli.CliError(cli.EXIT_USAGE, f"conjunction lexicon {path} has no entries")
    return tuple(entries)


def cmd_segment(args) -> int:
    from . import cli

    comma_policy = args.commas or cli._config_choice(
        args, "segment", "commas", [p.value for p in CommaPolicy], "comma policy"
    )
    policy = args.policy or cli._config_choice(
        args, "segment", "policy", ("all", "hard_only"), "segment policy"
    )
    try:
        config = SegmenterConfig(_conjunctions(args), CommaPolicy(comma_policy))
    except ValueError as exc:
        raise cli.CliError(cli.EXIT_USAGE, str(exc)) from None
    text = cli._read_text(args.rawfile)
    path = args.boundaries
    # Opened before the first line, so an unwritable path fails before any output.
    sidecar = cli._write_to(path, open, path, "wb") if path else None
    write = sys.stdout.write
    try:
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.removesuffix("\r")  # a CRLF line end is an LF one
            if not line:
                continue
            boundaries = propose_boundaries(line, config)
            # A nonempty line is cut into nonempty pieces, one per output line.
            write("\n".join(split_at(line, boundaries, policy)) + "\n")
            if sidecar:
                # The kind and cause members are str, so they concatenate as
                # their values, which are ASCII words: no JSON escaping.
                records = "".join(
                    f'{{"line":{line_no},"position":{b.position},"kind":"'
                    + b.kind + '","cause":"' + b.cause + '"}\n'
                    for b in boundaries
                )
                cli._write_to(path, sidecar.write, records.encode())
    finally:
        if sidecar:
            cli._write_to(path, sidecar.close)
    return cli.EXIT_OK
