from hypothesis import example, given
from hypothesis import strategies as st

from phkit.model import ModelError
from phkit.segmentation import (
    CLOSING_QUOTES,
    COMMAS,
    DEFAULT_CONJUNCTIONS,
    END_MARKS,
    TEMPORAL_CHARS,
    BoundaryCause,
    BoundaryKind,
    CommaPolicy,
    SegmentBoundary,
    SegmenterConfig,
    propose_boundaries,
    split,
)

import pytest

RAW_ALPHABET = "的一是人我他去吃打并且和但是然后上下2015年6月29日凌晨。，、；！？”「」a b"

raw_texts = st.text(alphabet=RAW_ALPHABET, max_size=40)


def test_conjunction_candidate_before_conjunction():
    bounds = propose_boundaries("两人发生争执并互相厮打。")
    assert bounds == [
        type(bounds[0])(5, BoundaryKind.CANDIDATE, BoundaryCause.CONJUNCTION)
    ]


def test_no_punctuation_no_boundaries():
    assert propose_boundaries("请开门") == []


def test_commas_of_running_example_sentences():
    text = "陈某某持刀捅刺滕某某，用砖头多次击打其头部，并将其头部撞向地面，致其死亡。"
    bounds = propose_boundaries(text)
    comma_positions = [i for i, c in enumerate(text) if c == "，"]
    assert [b.position for b in bounds] == comma_positions
    assert all(b.cause is BoundaryCause.COMMA for b in bounds)
    assert all(b.kind is BoundaryKind.CANDIDATE for b in bounds)


def test_end_mark_is_hard_and_suppressed_at_text_end():
    bounds = propose_boundaries("开门。关门。")
    assert [(b.position, b.kind) for b in bounds] == [(2, BoundaryKind.HARD)]


def test_closing_quote_stays_attached():
    bounds = propose_boundaries("他说「开门。」然后走了")
    hard = [b for b in bounds if b.kind is BoundaryKind.HARD]
    assert len(hard) == 1
    assert hard[0].position == 6  # after the closing quote


def test_temporal_leadin_comma_is_not_proposed():
    text = "2015年6月29日凌晨，陈某某谎称购买房屋，将其骗至桥上"
    positions = [b.position for b in propose_boundaries(text)]
    first_comma = text.index("，")
    second_comma = text.index("，", first_comma + 1)
    assert first_comma not in positions
    assert second_comma in positions


def test_comma_policy_variants():
    text = "甲，乙。丙"
    candidate = propose_boundaries(text, SegmenterConfig(comma_policy=CommaPolicy.CANDIDATE))
    hard = propose_boundaries(text, SegmenterConfig(comma_policy=CommaPolicy.HARD))
    ignore = propose_boundaries(text, SegmenterConfig(comma_policy=CommaPolicy.IGNORE))
    assert [(b.position, b.kind.value) for b in candidate] == [
        (1, "candidate"),
        (3, "hard"),
    ]
    assert [(b.position, b.kind.value) for b in hard] == [(1, "hard"), (3, "hard")]
    assert [(b.position, b.kind.value) for b in ignore] == [(3, "hard")]


def test_ignore_policy_and_empty_lexicon_leaves_only_end_marks():
    config = SegmenterConfig(conjunctions=(), comma_policy=CommaPolicy.IGNORE)
    text = "甲，乙。丙和丁！戊"
    bounds = propose_boundaries(text, config)
    assert all(b.cause is BoundaryCause.END_MARK for b in bounds)
    assert [b.position for b in bounds] == [3, 7]


def test_conjunction_at_text_start_opens_no_boundary():
    assert propose_boundaries("并且走了") == []


def test_longest_conjunction_wins():
    bounds = propose_boundaries("甲并且乙")
    assert [b.position for b in bounds] == [0]
    # Only one boundary: the entry 并且 consumes both characters.
    assert len(bounds) == 1


def test_merged_comma_and_conjunction_boundary():
    text = "甲，并乙"
    bounds = propose_boundaries(text)
    assert len(bounds) == 1
    assert bounds[0].position == 1
    assert bounds[0].cause is BoundaryCause.COMMA


def test_config_rejects_empty_entries_and_dedupes():
    with pytest.raises(ModelError):
        SegmenterConfig(conjunctions=("和", ""))
    config = SegmenterConfig(conjunctions=("和", "和", "并"))
    assert config.conjunctions == ("和", "并")


def test_split_running_example_reproduces_golden_units(golden_doc):
    paragraph = "".join(u.text for u in golden_doc.units)
    pieces = split(paragraph, policy="all")
    assert pieces == [u.text for u in golden_doc.units]


def test_split_policies():
    text = "甲，乙。丙并丁"
    assert split(text, policy="hard_only") == ["甲，乙。", "丙并丁"]
    assert split(text, policy="all") == ["甲，", "乙。", "丙", "并丁"]
    with pytest.raises(ValueError):
        split(text, policy="both")


def test_split_empty_text():
    assert split("") == []


@given(raw_texts, st.sampled_from(["all", "hard_only"]))
def test_lossless_partition(text, policy):
    pieces = split(text, policy=policy)
    assert "".join(pieces) == text
    assert all(pieces)


@given(raw_texts)
def test_piece_count_matches_boundary_count(text):
    bounds = propose_boundaries(text)
    pieces = split(text, policy="all")
    if text:
        assert len(pieces) == len(bounds) + 1
    else:
        assert pieces == []


@given(raw_texts)
def test_every_end_mark_coincides_with_hard_boundary(text):
    hard = {b.position for b in propose_boundaries(text) if b.kind is BoundaryKind.HARD}
    for i, ch in enumerate(text):
        if ch in END_MARKS:
            j = i
            while j + 1 < len(text) and text[j + 1] in CLOSING_QUOTES:
                j += 1
            assert j == len(text) - 1 or j in hard


def _reference_conjunction_cuts(text, lexicon):
    """The per-character lexicon scan the alternation regex replaced."""
    entries = sorted(lexicon, key=len, reverse=True)
    cuts = []
    i = 0
    while i < len(text):
        for entry in entries:
            if text.startswith(entry, i):
                if i > 0:
                    cuts.append(i - 1)
                i += len(entry)
                break
        else:
            i += 1
    return cuts


@given(
    st.text(alphabet="并且和甲", max_size=30),
    st.one_of(
        st.lists(st.text(alphabet="并且和", min_size=1, max_size=3), max_size=5),
        st.sampled_from([("并", "并且", "且"), ("且", "并且", "并"), ("并且", "且和", "和")]),
    ),
)
@example("甲并且和乙", ("并", "并且", "且和"))
def test_conjunction_matches_equal_per_character_scan(text, lexicon):
    config = SegmenterConfig(conjunctions=tuple(lexicon), comma_policy=CommaPolicy.IGNORE)
    bounds = propose_boundaries(text, config)
    assert all(b.cause is BoundaryCause.CONJUNCTION for b in bounds)
    assert [b.position for b in bounds] == _reference_conjunction_cuts(
        text, config.conjunctions
    )


@given(raw_texts)
def test_propose_is_pure_and_positions_increase(text):
    first = propose_boundaries(text)
    second = propose_boundaries(text)
    assert first == second
    positions = [b.position for b in first]
    assert positions == sorted(set(positions))
    assert all(0 <= p < len(text) for p in positions)


_CAUSE_PRIORITY = {
    BoundaryCause.END_MARK: 0,
    BoundaryCause.COMMA: 1,
    BoundaryCause.CONJUNCTION: 2,
}


def _reference_propose_boundaries(text, config):
    """The per-position merge of every cut's (kind, cause) list that
    ``propose_boundaries`` replaced with one punctuation mark per position."""
    n = len(text)
    raw = []
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
    for i in _reference_conjunction_cuts(text, config.conjunctions):
        raw.append((i, BoundaryKind.CANDIDATE, BoundaryCause.CONJUNCTION))

    by_pos = {}
    for pos, kind, cause in raw:
        by_pos.setdefault(pos, []).append((kind, cause))
    out = []
    piece_start = 0
    for pos in sorted(by_pos):
        entries = by_pos[pos]
        if any(cause is BoundaryCause.COMMA for _, cause in entries):
            piece = text[piece_start:pos]
            if piece and all(c in TEMPORAL_CHARS for c in piece):
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


@given(
    st.text(alphabet="。；！？”』」，、并且和而但是然后年月日时0１2点晨甲乙丙 ", max_size=40),
    st.sampled_from(list(CommaPolicy)),
    st.one_of(
        st.just(DEFAULT_CONJUNCTIONS),
        st.lists(st.text(alphabet="并且和，。年甲", min_size=1, max_size=3), max_size=4),
    ),
)
@example("甲，并乙。”并丙", CommaPolicy.HARD, DEFAULT_CONJUNCTIONS)
@example("2015年，并且甲", CommaPolicy.CANDIDATE, DEFAULT_CONJUNCTIONS)
@example("甲，乙", CommaPolicy.CANDIDATE, ["，乙"])
def test_propose_boundaries_equals_reference_merge(text, comma_policy, lexicon):
    config = SegmenterConfig(conjunctions=tuple(lexicon), comma_policy=comma_policy)
    assert propose_boundaries(text, config) == _reference_propose_boundaries(text, config)
