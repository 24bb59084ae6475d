import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phkit
import phkit.metrics
from phkit.inline import emit_unit, parse_unit
from phkit.metrics import (
    KIND_ORDER,
    SCORE_FIELDS,
    STATS_FIELDS,
    AgreementCounts,
    AgreementError,
    KindAgreement,
    MatchCriterion,
    SpanAgreement,
    StatsReport,
    _scores,
    agree,
    agreement_counts,
    agreement_records,
    agreement_table,
    char_kappa,
    corpus_stats,
    span_agreement,
    stats_records,
    stats_table,
)
from phkit.model import TAGS, Document, Element, ElementType, LabelingUnit, Segment, Span

from .conftest import GOLDEN_PATH
from .strategies import documents, labeling_units


def doc_of(*lines: str) -> Document:
    units = []
    for line in lines:
        unit, diags = parse_unit(line)
        assert not diags, diags
        units.append(unit)
    return Document(units=tuple(units))


# --- corpus statistics ----------------------------------------------------


def test_golden_stats_counts(golden_doc):
    stats = corpus_stats([golden_doc])
    assert stats.unit_count == 10
    assert stats.unc_unit_count == 0
    assert stats.by_pattern == {"S": 5, "M": 5}
    assert stats.by_tag == {
        "PRE-S": 5,
        "PRE-M": 5,
        "SUB-W": 5,
        "TEM-W": 1,
        "ADV-P": 6,
        "LOC-W": 1,
        "RAI-W": 1,
        "COM-W": 5,
        "COM-P": 2,
        "COM-C": 1,
    }
    assert stats.by_kind["COM"] == 8
    assert stats.element_count == 32
    assert sum(stats.by_pattern.values()) == stats.by_kind["PRE"]
    assert sum(stats.elements_per_unit_hist.values()) == stats.unit_count


def test_empty_corpus_stats():
    stats = corpus_stats([])
    assert stats.unit_count == 0
    assert stats.element_count == 0
    assert stats.by_kind == {}


@given(st.lists(documents(), max_size=6), st.integers(0, 6))
def test_stats_additivity(docs, cut):
    cut = min(cut, len(docs))
    a, b = docs[:cut], docs[cut:]
    assert corpus_stats(a) + corpus_stats(b) == corpus_stats(docs)
    # One report per document, summed at once, as ``phk stats`` sums its files.
    assert StatsReport.total(corpus_stats([d]) for d in docs) == corpus_stats(docs)


def test_stats_renderings(golden_doc):
    import json

    stats = corpus_stats([golden_doc])
    table = stats_table(stats)
    assert "units: 10" in table
    assert "pattern S: 5" in table
    assert "tag ADV-P: 6" in table
    record = json.loads(stats_records(stats))
    assert record["by_tag"]["SUB-W"] == 5


GOLDEN_STATS_TABLE = [
    "units: 10",
    "unc_units: 0",
    "elements: 32",
    "kind PRE: 10",
    "kind SUB: 5",
    "kind TEM: 1",
    "kind LOC: 1",
    "kind ADV: 6",
    "kind COM: 8",
    "kind RAI: 1",
    "pattern S: 5",
    "pattern M: 5",
    "form W: 13",
    "form P: 8",
    "form C: 1",
    "tag ADV-P: 6",
    "tag COM-C: 1",
    "tag COM-P: 2",
    "tag COM-W: 5",
    "tag LOC-W: 1",
    "tag PRE-M: 5",
    "tag PRE-S: 5",
    "tag RAI-W: 1",
    "tag SUB-W: 5",
    "tag TEM-W: 1",
    "unit_length 5: 1",
    "unit_length 6: 2",
    "unit_length 10: 1",
    "unit_length 11: 2",
    "unit_length 12: 1",
    "unit_length 19: 1",
    "unit_length 20: 1",
    "unit_length 23: 1",
    "elements_per_unit 1: 1",
    "elements_per_unit 2: 1",
    "elements_per_unit 3: 4",
    "elements_per_unit 4: 3",
    "elements_per_unit 5: 1",
]
GOLDEN_STATS_RECORD = (
    '{"units":10,"unc_units":0,"elements":32,'
    '"by_kind":{"ADV":6,"COM":8,"LOC":1,"PRE":10,"RAI":1,"SUB":5,"TEM":1},'
    '"by_pattern":{"M":5,"S":5},"by_form":{"C":1,"P":8,"W":13},'
    '"by_tag":{"ADV-P":6,"COM-C":1,"COM-P":2,"COM-W":5,"LOC-W":1,"PRE-M":5,'
    '"PRE-S":5,"RAI-W":1,"SUB-W":5,"TEM-W":1},'
    '"unit_length_hist":{"5":1,"6":2,"10":1,"11":2,"12":1,"19":1,"20":1,"23":1},'
    '"elements_per_unit_hist":{"1":1,"2":1,"3":4,"4":3,"5":1}}'
)


def test_golden_stats_renderings_are_pinned(golden_doc):
    stats = corpus_stats([golden_doc])
    assert stats_table(stats) == GOLDEN_STATS_TABLE
    assert stats_records(stats) == GOLDEN_STATS_RECORD


def _table_counts(rows: list[str]) -> dict[tuple[str, str | None], int]:
    """``label: n`` and ``label key: n`` rows as {(label, key or None): n}."""
    counts = {}
    for row in rows:
        name, value = row.rsplit(": ", 1)
        label, _, key = name.partition(" ")
        counts[(label, key or None)] = int(value)
    return counts


def _record_counts(record: dict) -> dict[tuple[str, str | None], int]:
    counts = {}
    for name, value in record.items():
        label = name.removeprefix("by_").removesuffix("_hist")
        if isinstance(value, dict):
            counts.update({(label, key): n for key, n in value.items()})
        else:
            counts[(label, None)] = value
    return counts


@given(st.lists(documents(), max_size=4))
def test_every_stats_table_count_is_the_same_record_count(docs):
    stats = corpus_stats(docs)
    record = json.loads(stats_records(stats))
    assert _table_counts(stats_table(stats)) == _record_counts(record)


# --- span agreement -------------------------------------------------------


def test_self_agreement_is_perfect(golden_doc):
    report = agree(golden_doc, golden_doc)
    s = report.spans
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    assert report.kappa == 1.0
    for kind_report in s.per_kind.values():
        assert kind_report.precision == 1.0
        assert kind_report.recall == 1.0
        assert kind_report.f1 == 1.0


def test_precision_recall_of_partial_match():
    a = doc_of("[PRE-S 发生争][COM-W 执吧了]")
    b = doc_of("[PRE-S 发生争]执吧了")
    report = span_agreement(a, b)
    assert report.matched == 1
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert math.isclose(report.f1, 2 / 3, rel_tol=0, abs_tol=1e-15)


def test_criterion_distinguishes_subtags():
    a = doc_of("[PRE-S 发生]")
    b = doc_of("[PRE-M (发)生]")
    assert span_agreement(a, b, MatchCriterion.EXACT).matched == 0
    assert span_agreement(a, b, MatchCriterion.TYPE_ONLY).matched == 1


def test_head_overlap_criterion():
    a = doc_of("[PRE-M 多次(击打)]")
    b = doc_of("[PRE-M 多次击(打)]")  # heads overlap at 打
    assert span_agreement(a, b, MatchCriterion.HEAD_OVERLAP).matched == 1
    c = doc_of("[PRE-M (多)次击打]")
    assert span_agreement(a, c, MatchCriterion.HEAD_OVERLAP).matched == 0


def test_rai_normalization_flag():
    a = doc_of("[RAI-W 岳父]")
    b = doc_of("[COM-W 岳父]")
    assert span_agreement(a, b).matched == 0
    assert span_agreement(a, b, normalize_rai=True).matched == 1
    assert char_kappa(a, b) != 1.0
    assert char_kappa(a, b, normalize_rai=True) is None  # identical single label


def test_greedy_matching_is_injective():
    a = doc_of("[COM-W 甲][COM-W 乙]")
    b = doc_of("[COM-W 甲]乙")
    report = span_agreement(a, b)
    assert report.matched == 1
    assert report.only_a == 1
    assert report.only_b == 0


def test_alignment_errors():
    a = doc_of("[PRE-S 走]")
    b = doc_of("[PRE-S 走]", "[PRE-S 来]")
    with pytest.raises(AgreementError) as err:
        span_agreement(a, b)
    assert err.value.code == "AGR002"
    c = doc_of("[PRE-S 来]")
    with pytest.raises(AgreementError) as err:
        span_agreement(a, c)
    assert err.value.code == "AGR001"
    with pytest.raises(AgreementError):
        char_kappa(a, c)


def test_agreement_renderings(golden_doc):
    import json

    report = agree(golden_doc, golden_doc)
    table = agreement_table(report)
    assert "precision: 1.0000" in table
    assert "kappa: 1.0000" in table
    record = json.loads(agreement_records(report))
    assert record["criterion"] == "exact"
    assert record["per_kind"]["PRE"]["matched"] == 10
    undefined = agree(doc_of("请开门"), doc_of("请开门"))
    assert "kappa: undefined" in agreement_table(undefined)
    assert json.loads(agreement_records(undefined))["kappa"] is None


PERFECT_ROW = "matched {} only_a 0 only_b 0 precision 1.0000 recall 1.0000 f1 1.0000"
PERFECT_RECORD = '{{"matched":{},"only_a":0,"only_b":0,"precision":1.0,"recall":1.0,"f1":1.0}}'
GOLDEN_KIND_COUNTS = {"PRE": 10, "SUB": 5, "TEM": 1, "LOC": 1, "ADV": 6, "COM": 8, "RAI": 1}


@pytest.mark.parametrize("criterion", list(MatchCriterion))
def test_golden_self_agreement_renderings_are_pinned(golden_doc, criterion):
    report = agree(golden_doc, golden_doc, criterion)
    assert agreement_table(report) == [
        f"criterion: {criterion.value}",
        "matched: 32",
        "only_a: 0",
        "only_b: 0",
        "precision: 1.0000",
        "recall: 1.0000",
        "f1: 1.0000",
        "kappa: 1.0000",
        *(f"kind {kind}: " + PERFECT_ROW.format(n) for kind, n in GOLDEN_KIND_COUNTS.items()),
    ]
    per_kind = ",".join(
        f'"{kind}":' + PERFECT_RECORD.format(n) for kind, n in sorted(GOLDEN_KIND_COUNTS.items())
    )
    assert agreement_records(report) == (
        f'{{"criterion":"{criterion.value}","matched":32,"only_a":0,"only_b":0,'
        f'"precision":1.0,"recall":1.0,"f1":1.0,"kappa":1.0,"per_kind":{{{per_kind}}}}}'
    )


def test_partial_and_undefined_agreement_renderings_are_pinned():
    a = doc_of("[SUB-W 王某][PRE-S 发生争][COM-W 执吧了]")
    b = doc_of("[SUB-W 王某][PRE-S 发生]争执吧了")
    report = agree(a, b)
    assert agreement_table(report) == [
        "criterion: exact",
        "matched: 1",
        "only_a: 2",
        "only_b: 1",
        "precision: 0.5000",
        "recall: 0.3333",
        "f1: 0.4000",
        "kappa: 0.4074",
        "kind PRE: matched 0 only_a 1 only_b 1 precision 0.0000 recall 0.0000 f1 0.0000",
        "kind SUB: matched 1 only_a 0 only_b 0 precision 1.0000 recall 1.0000 f1 1.0000",
        "kind COM: matched 0 only_a 1 only_b 0 precision 1.0000 recall 0.0000 f1 0.0000",
    ]
    assert agreement_records(report) == (
        '{"criterion":"exact","matched":1,"only_a":2,"only_b":1,'
        '"precision":0.5,"recall":0.3333333333333333,"f1":0.4,"kappa":0.4074074074074074,'
        '"per_kind":{'
        '"COM":{"matched":0,"only_a":1,"only_b":0,"precision":1.0,"recall":0.0,"f1":0.0},'
        '"PRE":{"matched":0,"only_a":1,"only_b":1,"precision":0.0,"recall":0.0,"f1":0.0},'
        '"SUB":{"matched":1,"only_a":0,"only_b":0,"precision":1.0,"recall":1.0,"f1":1.0}}}'
    )
    undefined = agree(doc_of("请开门"), doc_of("请开门"), MatchCriterion.TYPE_ONLY)
    assert agreement_table(undefined) == [
        "criterion: type_only",
        "matched: 0",
        "only_a: 0",
        "only_b: 0",
        "precision: 1.0000",
        "recall: 1.0000",
        "f1: 1.0000",
        "kappa: undefined",
    ]
    assert agreement_records(undefined) == (
        '{"criterion":"type_only","matched":0,"only_a":0,"only_b":0,'
        '"precision":1.0,"recall":1.0,"f1":1.0,"kappa":null,"per_kind":{}}'
    )


def test_each_report_key_is_stated_on_one_line_of_metrics(golden_doc):
    # One line: a field-list row may name an attribute of the same name.
    stats = json.loads(stats_records(corpus_stats([golden_doc])))
    agreement = json.loads(agreement_records(agree(golden_doc, golden_doc)))
    keys = {*stats, *agreement, *agreement["per_kind"]["PRE"]}
    lines = Path(phkit.metrics.__file__).read_text(encoding="utf-8").splitlines()
    stating = {key: sum(f'"{key}"' in line for line in lines) for key in sorted(keys)}
    assert stating == dict.fromkeys(sorted(keys), 1)


def test_report_fields_in_readme_and_docstring_match_field_lists():
    # A stats table label is its record key without ``by_`` or ``_hist``.
    stats = [(key.removeprefix("by_").removesuffix("_hist"), key) for key, _, _ in STATS_FIELDS]
    overall = [(name, name) for name in ("criterion", *SCORE_FIELDS, "kappa")]
    expected = {"stats": stats, "agree": [*overall, ("kind", "per_kind")]}
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("## Reports", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (stats|agree) \| `(\w+)` \| `(\w+)` \|$", section, re.MULTILINE)
    in_readme = {
        report: [(label, key) for r, label, key in rows if r == report] for report in expected
    }
    docstring = phkit.metrics.__doc__.split("\nstats: ", 1)[1]
    stats_part, agree_part = docstring.split("\nagree: ")
    in_docstring = {
        report: [tuple(word.split("=")) if "=" in word else (word, word) for word in part.split()]
        for report, part in (("stats", stats_part), ("agree", agree_part))
    }
    assert in_readme == expected
    assert in_docstring == expected


# --- per-character kappa --------------------------------------------------


def brute_force_kappa(a: Document, b: Document):
    """Confusion-matrix kappa computed independently of the library path."""
    labels_a = []
    labels_b = []
    for ua, ub in zip(a.units, b.units):
        for i in range(len(ua.text)):
            labels_a.append(_label_at(ua, i))
            labels_b.append(_label_at(ub, i))
    n = len(labels_a)
    if n == 0:
        return None
    confusion: Counter = Counter(zip(labels_a, labels_b))
    p_o = sum(confusion[(x, x)] for x in set(labels_a)) / n
    ca = Counter(labels_a)
    cb = Counter(labels_b)
    p_e = sum(ca[k] * cb[k] for k in set(ca) | set(cb)) / (n * n)
    if p_e == 1.0:
        return None
    return (p_o - p_e) / (1 - p_e)


def _label_at(unit: LabelingUnit, i: int) -> str:
    for el in unit.elements:
        if el.span.start <= i < el.span.end:
            return el.kind.value
    return "O"


def test_kappa_worked_example():
    # 6 characters; annotator a labels the first three PRE, b the first two.
    a = doc_of("[PRE-S 发生争]执吧了")
    b = doc_of("[PRE-S 发生]争执吧了")
    kappa = char_kappa(a, b)
    assert kappa is not None
    assert math.isclose(kappa, 2 / 3, rel_tol=0, abs_tol=1e-12)
    oracle = brute_force_kappa(a, b)
    assert math.isclose(kappa, oracle, rel_tol=0, abs_tol=1e-12)


def test_kappa_identical_sequences_is_exactly_one(golden_doc):
    assert char_kappa(golden_doc, golden_doc) == 1.0


def test_kappa_degenerate_marginals_is_undefined():
    a = doc_of("请开门")
    b = doc_of("请开门")
    assert char_kappa(a, b) is None
    assert char_kappa(Document(), Document()) is None


@given(documents(), documents())
@settings(max_examples=200)
def test_kappa_matches_brute_force(doc_a, doc_b):
    a, b = _align(doc_a, doc_b)
    kappa = char_kappa(a, b)
    oracle = brute_force_kappa(a, b)
    if oracle is None:
        assert kappa is None
    else:
        assert kappa is not None
        assert math.isclose(kappa, oracle, rel_tol=0, abs_tol=1e-12)
        assert -1.0 - 1e-12 <= kappa <= 1.0


def _align(doc_a: Document, doc_b: Document) -> tuple[Document, Document]:
    """Force the alignment precondition: same unit count, same texts.

    Annotations of b are re-laid over a's texts by keeping only elements
    that fit inside the text of the paired unit.
    """
    units_a = []
    units_b = []
    for ua, ub in zip(doc_a.units, doc_b.units):
        kept = tuple(e for e in ub.elements if e.span.end <= len(ua.text))
        if ua.text.startswith("#") and (not kept or kept[0].span.start > 0):
            continue  # would be unrepresentable inside a Document
        units_a.append(ua)
        units_b.append(LabelingUnit(ua.text, kept))
    return (
        Document(units=tuple(units_a)),
        Document(units=tuple(units_b)),
    )


@given(documents(), documents())
@settings(max_examples=100)
def test_swap_symmetry(doc_a, doc_b):
    a, b = _align(doc_a, doc_b)
    fwd = agree(a, b)
    rev = agree(b, a)
    assert fwd.spans.precision == rev.spans.recall
    assert fwd.spans.recall == rev.spans.precision
    assert fwd.spans.f1 == rev.spans.f1
    assert fwd.kappa == rev.kappa
    assert fwd.spans.matched == rev.spans.matched


# --- agreement over shared units against the whole-document scan -----------
#
# The reference below is the earlier agreement code, copied verbatim: every
# unit pair goes through the greedy matcher, and kappa compares one label
# list per document. Documents that share unit objects (as two inline files
# read through one map of known lines do) must score exactly as it scores.


def reference_check_alignment(a: Document, b: Document) -> None:
    if len(a.units) != len(b.units):
        raise AgreementError(
            "AGR002",
            f"unit count mismatch: {len(a.units)} vs {len(b.units)}",
        )
    for i, (ua, ub) in enumerate(zip(a.units, b.units)):
        if ua.text != ub.text:
            raise AgreementError("AGR001", f"unit text mismatch at index {i}")


def reference_kind_of(el: Element, normalize_rai: bool) -> ElementType:
    if normalize_rai and el.kind is ElementType.RAI:
        return ElementType.COM
    return el.kind


def reference_matches(
    x: Element, y: Element, criterion: MatchCriterion, normalize_rai: bool
) -> bool:
    if reference_kind_of(x, normalize_rai) is not reference_kind_of(y, normalize_rai):
        return False
    if criterion is MatchCriterion.HEAD_OVERLAP:
        kx = x.body.head if x.body.head is not None else x.span
        ky = y.body.head if y.body.head is not None else y.span
        return kx.overlaps(ky)
    if x.span != y.span:
        return False
    if criterion is MatchCriterion.TYPE_ONLY:
        return True
    return x.pattern is y.pattern and x.form is y.form


def reference_span_agreement(
    a: Document,
    b: Document,
    criterion: MatchCriterion | str = MatchCriterion.EXACT,
    normalize_rai: bool = False,
) -> SpanAgreement:
    """Greedy span matching between two aligned annotations."""
    criterion = MatchCriterion(criterion)
    reference_check_alignment(a, b)
    matched: Counter[str] = Counter()
    total_a: Counter[str] = Counter()
    total_b: Counter[str] = Counter()
    for ua, ub in zip(a.units, b.units):
        for el in ua.elements:
            total_a[reference_kind_of(el, normalize_rai).value] += 1
        for el in ub.elements:
            total_b[reference_kind_of(el, normalize_rai).value] += 1
        used = [False] * len(ub.elements)
        for x in ua.elements:
            for j, y in enumerate(ub.elements):
                if used[j]:
                    continue
                if reference_matches(x, y, criterion, normalize_rai):
                    used[j] = True
                    matched[reference_kind_of(x, normalize_rai).value] += 1
                    break
    per_kind = {
        kind: KindAgreement(*_scores(matched[kind], total_a[kind], total_b[kind]))
        for kind in KIND_ORDER
        if total_a[kind] or total_b[kind]
    }
    overall = _scores(sum(matched.values()), total_a.total(), total_b.total())
    return SpanAgreement(criterion, *overall, per_kind)


def reference_char_labels(doc: Document, normalize_rai: bool) -> list[str]:
    labels: list[str] = []
    for unit in doc.units:
        unit_labels = ["O"] * len(unit.text)
        for el in unit.elements:
            kind = reference_kind_of(el, normalize_rai).value
            for i in range(el.span.start, el.span.end):
                unit_labels[i] = kind
        labels.extend(unit_labels)
    return labels


def reference_char_kappa(
    a: Document, b: Document, normalize_rai: bool = False
) -> float | None:
    """Cohen's kappa over pooled per-character kind labels.

    Returns exactly 1.0 for identical label sequences and None when the
    expected agreement is 1 (kappa undefined).
    """
    reference_check_alignment(a, b)
    la = reference_char_labels(a, normalize_rai)
    lb = reference_char_labels(b, normalize_rai)
    n = len(la)
    if n == 0:
        return None
    ca = Counter(la)
    cb = Counter(lb)
    pe_num = sum(ca[k] * cb[k] for k in ca)
    if pe_num == n * n:
        return None
    if la == lb:
        return 1.0
    po_num = sum(1 for x, y in zip(la, lb) if x == y)
    # kappa = (p_o - p_e) / (1 - p_e), computed over a common denominator.
    return (po_num * n - pe_num) / (n * n - pe_num)


def _representable(text: str, elements: tuple[Element, ...]) -> bool:
    """Whether a document may hold a unit of ``text`` with ``elements``."""
    return not text.startswith("#") or bool(elements) and elements[0].span.start == 0


@st.composite
def shared_pairs(draw):
    """Two annotations of the same texts, the second holding many of the
    first's unit objects. Each other unit of the second is the first's
    unit rebuilt as an equal but distinct object, relabeled with another
    unit's elements that fit its text, missing one element, or with one
    element retagged."""
    a = draw(documents())
    units_b = []
    for ua in a.units:
        action = draw(st.sampled_from(["share", "share", "copy", "relabel", "drop", "retag"]))
        elements = ua.elements
        if action == "relabel":
            other = draw(labeling_units())
            elements = tuple(e for e in other.elements if e.span.end <= len(ua.text))
        elif action == "drop" and elements:
            i = draw(st.integers(0, len(elements) - 1))
            elements = elements[:i] + elements[i + 1 :]
        elif action == "retag" and elements:
            i = draw(st.integers(0, len(elements) - 1))
            kind, pattern, form = TAGS[draw(st.sampled_from(sorted(TAGS)))]
            el = elements[i]
            retagged = Element(kind, el.body, el.trigger, pattern, form)
            elements = elements[:i] + (retagged,) + elements[i + 1 :]
        if action == "share" or not _representable(ua.text, elements):
            units_b.append(ua)
        else:
            units_b.append(LabelingUnit(ua.text, elements))
    return a, Document(units=tuple(units_b))


@given(shared_pairs())
@settings(max_examples=300)
def test_agreement_over_shared_units_equals_the_reference(pair):
    a, b = pair
    for x, y in (pair, (b, a)):
        for normalize in (False, True):
            for criterion in MatchCriterion:
                got = span_agreement(x, y, criterion, normalize)
                expected = reference_span_agreement(x, y, criterion, normalize)
                assert got == expected
                assert list(got.per_kind) == list(expected.per_kind)
            # Equal floats, not close ones: the same integers in the same formula.
            assert char_kappa(x, y, normalize) == reference_char_kappa(x, y, normalize)


# --- agreement in ranges of unit pairs ---------------------------------------

GOLDEN = phkit.parse_document(GOLDEN_PATH.read_text(encoding="utf-8")).document
ALL_O = Document(units=(LabelingUnit("请开门"), LabelingUnit("走")))


@given(
    shared_pairs(),
    st.lists(st.integers(0, 40), max_size=4),
    st.sampled_from(list(MatchCriterion)),
    st.booleans(),
)
@example((Document(), Document()), [0], MatchCriterion.EXACT, False)  # no text: kappa None
@example((ALL_O, ALL_O), [1], MatchCriterion.EXACT, False)  # all "O": kappa None
@example((GOLDEN, GOLDEN), [3, 7], MatchCriterion.HEAD_OVERLAP, True)  # kappa 1.0
@example((GOLDEN, doc_of(*map(emit_unit, GOLDEN.units))), [5], MatchCriterion.TYPE_ONLY, True)
@settings(max_examples=200)
def test_the_counts_of_any_ranges_add_up_to_the_agreement(pair, cuts, criterion, normalize):
    # Equal reports, floats included: the same integers in the same formulas.
    a, b = pair
    units = len(a.units)
    bounds = [0, *sorted(min(cut, units) for cut in cuts), units]
    for x, y in (pair, (b, a)):
        parts = [
            agreement_counts(x.units[lo:hi], y.units[lo:hi], criterion, normalize)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        got = AgreementCounts.total(parts).report(criterion)
        expected = agree(x, y, criterion, normalize)
        assert got == expected
        assert list(got.spans.per_kind) == list(expected.spans.per_kind)


# --- the linear matcher against the greedy loop it replaced -----------------
#
# The reference below is the matcher of ``agreement_counts`` before it took
# linear time, copied verbatim: for each element of A, every element of B in
# order until an unused one of the same counted kind matches.

REFERENCE_KINDS = {k: k for k in ElementType}
REFERENCE_KINDS_NORMALIZED = {**REFERENCE_KINDS, ElementType.RAI: ElementType.COM}


def _matches(x: Element, y: Element, criterion: MatchCriterion) -> bool:
    """Whether ``x`` and ``y``, of the same counted kind, match."""
    if criterion is MatchCriterion.HEAD_OVERLAP:
        kx = x.body.head if x.body.head is not None else x.span
        ky = y.body.head if y.body.head is not None else y.span
        return kx.overlaps(ky)
    if x.span != y.span:
        return False
    if criterion is MatchCriterion.TYPE_ONLY:
        return True
    return x.pattern is y.pattern and x.form is y.form


def reference_greedy_matched(xs, ys, criterion, kind_of) -> Counter:
    matched: Counter[ElementType] = Counter()
    kinds_a = [kind_of[el.kind] for el in xs]
    kinds_b = [kind_of[el.kind] for el in ys]
    used = [False] * len(ys)
    for x, kind in zip(xs, kinds_a):
        for j, y in enumerate(ys):
            if not used[j] and kinds_b[j] is kind and _matches(x, y, criterion):
                used[j] = True
                matched[kind] += 1
                break
    return matched


# Few tags, so that kinds meet often; RAI and COM for ``normalize_rai``,
# two tags of one kind for ``exact`` against ``type_only``.
MATCH_TAGS = ["PRE-S", "PRE-M", "SUB-W", "COM-P", "COM-W", "RAI-P", "UNC"]


@st.composite
def _elements(draw, length: int) -> tuple[Element, ...]:
    """Disjoint sorted elements in a text of ``length``: the pieces between
    random cut points are elements or gaps; an element may have a trigger,
    and a body of two or more characters a head of any proper part of it."""
    cuts = sorted(draw(st.sets(st.integers(1, length), max_size=length)) | {0, length})
    elements = []
    for start, end in zip(cuts, cuts[1:]):
        if not draw(st.booleans()):
            continue
        kind, pattern, form = TAGS[draw(st.sampled_from(MATCH_TAGS))]
        trigger = None
        body_start = draw(st.integers(start, end - 1)) if kind is not ElementType.UNC else start
        if body_start > start:
            trigger = Segment(Span(start, body_start))
        head = None
        if end - body_start >= 2 and draw(st.booleans()):
            head_start = draw(st.integers(body_start, end - 1))
            head_end = draw(st.integers(head_start + 1, end))
            if head_end - head_start < end - body_start:
                head = Span(head_start, head_end)
        elements.append(Element(kind, Segment(Span(body_start, end), head), trigger, pattern, form))
    return tuple(elements)


@st.composite
def aligned_unit_pairs(draw):
    """Two distinct units of one text. B's elements are drawn on their own
    (so a long head of A may overlap several of them), or are A's, some
    dropped and some retagged."""
    length = draw(st.integers(1, 16))
    text = "甲" * length
    xs = draw(_elements(length))
    if draw(st.booleans()):
        ys = draw(_elements(length))
    else:
        ys = []
        for el in xs:
            action = draw(st.sampled_from(["keep", "drop", "retag"]))
            if action == "retag":
                kind, pattern, form = TAGS[draw(st.sampled_from(MATCH_TAGS))]
                if el.trigger is None or kind is not ElementType.UNC:
                    el = Element(kind, el.body, el.trigger, pattern, form)
            if action != "drop":
                ys.append(el)
    return LabelingUnit(text, xs), LabelingUnit(text, tuple(ys))


def _unit(text: str, *elements: Element) -> LabelingUnit:
    return LabelingUnit(text, elements)


def _el(tag: str, start: int, end: int, head: tuple[int, int] | None = None) -> Element:
    kind, pattern, form = TAGS[tag]
    return Element(kind, Segment(Span(start, end), head and Span(*head)), None, pattern, form)


@given(aligned_unit_pairs())
# One head of A over three B elements of its kind; the first unused one is taken.
@example((
    _unit("甲" * 6, _el("SUB-W", 0, 5, (1, 4)), _el("COM-W", 5, 6)),
    _unit("甲" * 6, *(_el("SUB-W", i, i + 1) for i in range(6))),
))
@example((  # two heads of A over one B element
    _unit("甲" * 4, _el("SUB-W", 0, 2, (1, 2)), _el("SUB-W", 2, 4, (2, 3))),
    _unit("甲" * 4, _el("SUB-W", 0, 4, (1, 3))),
))
@settings(max_examples=400)
def test_linear_matching_counts_equal_the_greedy_reference(pair):
    for ua, ub in (pair, pair[::-1]):
        for normalize, kind_of in ((False, REFERENCE_KINDS), (True, REFERENCE_KINDS_NORMALIZED)):
            for criterion in MatchCriterion:
                got = agreement_counts([ua], [ub], criterion, normalize, kappa=False)
                expected = reference_greedy_matched(ua.elements, ub.elements, criterion, kind_of)
                assert got.matched == dict(expected)


def _lines_run_in_metrics(call) -> int:
    """How many lines of ``phkit.metrics`` run during ``call()``: a count
    that bounds the comparisons its matcher makes, and no timing."""
    path = phkit.metrics.__file__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("criterion", list(MatchCriterion))
def test_matching_runs_a_bounded_number_of_lines_per_element(criterion):
    # The greedy loop ran about n * n / 2 comparisons on each of these pairs
    # of n elements: all matching, none of one kind, and every head of A
    # over three elements of B.
    n = 600
    text = "甲" * (4 * n)
    a = [_el("SUB-W", 4 * i, 4 * i + 4, (4 * i, 4 * i + 3)) for i in range(n)]
    pairs = {
        "all match": (a, [_el("SUB-W", 4 * i, 4 * i + 4, (4 * i, 4 * i + 3)) for i in range(n)]),
        "no kind in common": (a, [_el("COM-W", 4 * i, 4 * i + 4) for i in range(n)]),
        "heads over several": (a, [_el("SUB-W", i, i + 1) for i in range(4 * n)]),
    }
    for xs, ys in pairs.values():
        ua, ub = LabelingUnit(text, xs), LabelingUnit(text, ys)
        lines = _lines_run_in_metrics(
            lambda: agreement_counts([ua], [ub], criterion, kappa=False)
        )
        assert lines <= 20 * (len(xs) + len(ys))
