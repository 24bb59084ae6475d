"""Corpus statistics and inter-annotator agreement.

Agreement compares two parallel annotations of the same segmented source:
the documents must have the same number of units with identical texts,
aligned by index. Element matching is greedy left-to-right over the
span-sorted element lists, so every element matches at most one
counterpart and reports are deterministic. Precision treats the second
document as the prediction, recall treats the first as the reference.

Per-character agreement uses Cohen's kappa over pooled label sequences:
each codepoint is labeled with its covering element kind or "O". When the
expected agreement is exactly 1 (degenerate marginals, e.g. two all-O
annotations) kappa is undefined and reported as None.

Each report renders from one field list as a table (a ``label: value`` row
per field, a ``label key: value`` row per key of a map; an agree ``kind``
row holds the six scores as ``name value`` cells) or as one JSON record.
A table label is its record key unless written ``label=key``:

stats: units unc_units elements kind=by_kind pattern=by_pattern form=by_form
    tag=by_tag unit_length=unit_length_hist elements_per_unit=elements_per_unit_hist
agree: criterion matched only_a only_b precision recall f1 kappa kind=per_kind
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

from .model import (
    Document,
    Element,
    ElementForm,
    ElementType,
    PredicatePattern,
    compact_json,
)

KIND_ORDER = [k.value for k in ElementType]


class MatchCriterion(str, enum.Enum):
    EXACT = "exact"  # same span, kind, and subtag
    TYPE_ONLY = "type_only"  # same span and kind
    HEAD_OVERLAP = "head_overlap"  # same kind, overlapping body-head (or full) spans


class AgreementError(ValueError):
    """The two documents are not comparable (AGR001/AGR002)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True, slots=True)
class StatsReport:
    unit_count: int = 0
    unc_unit_count: int = 0
    by_kind: Mapping[str, int] = field(default_factory=dict)
    by_pattern: Mapping[str, int] = field(default_factory=dict)
    by_form: Mapping[str, int] = field(default_factory=dict)
    by_tag: Mapping[str, int] = field(default_factory=dict)
    unit_length_hist: Mapping[int, int] = field(default_factory=dict)
    elements_per_unit_hist: Mapping[int, int] = field(default_factory=dict)

    @property
    def element_count(self) -> int:
        return sum(self.by_kind.values())

    def __add__(self, other: "StatsReport") -> "StatsReport":
        # Counts add; maps merge key by key.
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return StatsReport(
            *(a + b if isinstance(a, int) else dict(Counter(a) + Counter(b)) for a, b in pairs)
        )


# The fields of a stats rendering, in order: (record key, report attribute,
# table key order). The table label is the record key without ``by_`` or
# ``_hist``; a map with no order lists its keys sorted, as the record does.
STATS_FIELDS = (
    ("units", "unit_count", None),
    ("unc_units", "unc_unit_count", None),
    ("elements", "element_count", None),
    ("by_kind", "by_kind", KIND_ORDER),
    ("by_pattern", "by_pattern", [p.value for p in PredicatePattern]),
    ("by_form", "by_form", [f.value for f in ElementForm]),
    ("by_tag", "by_tag", None),
    ("unit_length_hist", "unit_length_hist", None),
    ("elements_per_unit_hist", "elements_per_unit_hist", None),
)


def corpus_stats(docs: Iterable[Document]) -> StatsReport:
    """Count units, elements, tags, and length histograms over documents."""
    unit_count = 0
    unc_units = 0
    by_kind: Counter[str] = Counter()
    by_pattern: Counter[str] = Counter()
    by_form: Counter[str] = Counter()
    by_tag: Counter[str] = Counter()
    length_hist: Counter[int] = Counter()
    per_unit_hist: Counter[int] = Counter()
    for doc in docs:
        for unit in doc.units:
            unit_count += 1
            length_hist[len(unit.text)] += 1
            per_unit_hist[len(unit.elements)] += 1
            if any(e.kind is ElementType.UNC for e in unit.elements):
                unc_units += 1
            for el in unit.elements:
                by_kind[el.kind.value] += 1
                by_tag[el.tag] += 1
                if el.pattern is not None:
                    by_pattern[el.pattern.value] += 1
                if el.form is not None:
                    by_form[el.form.value] += 1
        # Not kept alive while ``docs`` produces the next one, so a lazy
        # ``docs`` keeps memory at one document.
        del doc
    counts = (by_kind, by_pattern, by_form, by_tag, length_hist, per_unit_hist)
    return StatsReport(unit_count, unc_units, *map(dict, counts))


# The scores of a span agreement, overall and per kind, in rendering order.
SCORE_FIELDS = ("matched", "only_a", "only_b", "precision", "recall", "f1")


@dataclass(frozen=True, slots=True)
class KindAgreement:
    matched: int
    only_a: int
    only_b: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, slots=True)
class SpanAgreement:
    criterion: MatchCriterion
    matched: int
    only_a: int
    only_b: int
    precision: float
    recall: float
    f1: float
    per_kind: Mapping[str, KindAgreement]


@dataclass(frozen=True, slots=True)
class AgreementReport:
    spans: SpanAgreement
    kappa: float | None


def _check_alignment(a: Document, b: Document) -> None:
    if len(a.units) != len(b.units):
        raise AgreementError(
            "AGR002",
            f"unit count mismatch: {len(a.units)} vs {len(b.units)}",
        )
    for i, (ua, ub) in enumerate(zip(a.units, b.units)):
        if ua.text != ub.text:
            raise AgreementError("AGR001", f"unit text mismatch at index {i}")


def _kind_of(el: Element, normalize_rai: bool) -> ElementType:
    if normalize_rai and el.kind is ElementType.RAI:
        return ElementType.COM
    return el.kind


def _matches(
    x: Element, y: Element, criterion: MatchCriterion, normalize_rai: bool
) -> bool:
    if _kind_of(x, normalize_rai) is not _kind_of(y, normalize_rai):
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


def _scores(m: int, na: int, nb: int) -> tuple:
    """The SCORE_FIELDS values of ``m`` matches between ``na`` and ``nb`` elements."""
    # Vacuous agreement: nothing to predict or recall counts as perfect.
    p = m / nb if nb else 1.0
    r = m / na if na else 1.0
    return m, na - m, nb - m, p, r, (2 * p * r / (p + r) if p + r else 0.0)


def span_agreement(
    a: Document,
    b: Document,
    criterion: MatchCriterion | str = MatchCriterion.EXACT,
    normalize_rai: bool = False,
) -> SpanAgreement:
    """Greedy span matching between two aligned annotations."""
    criterion = MatchCriterion(criterion)
    _check_alignment(a, b)
    matched: Counter[str] = Counter()
    total_a: Counter[str] = Counter()
    total_b: Counter[str] = Counter()
    for ua, ub in zip(a.units, b.units):
        for el in ua.elements:
            total_a[_kind_of(el, normalize_rai).value] += 1
        for el in ub.elements:
            total_b[_kind_of(el, normalize_rai).value] += 1
        used = [False] * len(ub.elements)
        for x in ua.elements:
            for j, y in enumerate(ub.elements):
                if used[j]:
                    continue
                if _matches(x, y, criterion, normalize_rai):
                    used[j] = True
                    matched[_kind_of(x, normalize_rai).value] += 1
                    break
    per_kind = {
        kind: KindAgreement(*_scores(matched[kind], total_a[kind], total_b[kind]))
        for kind in KIND_ORDER
        if total_a[kind] or total_b[kind]
    }
    overall = _scores(sum(matched.values()), total_a.total(), total_b.total())
    return SpanAgreement(criterion, *overall, per_kind)


def _char_labels(doc: Document, normalize_rai: bool) -> list[str]:
    labels: list[str] = []
    for unit in doc.units:
        unit_labels = ["O"] * len(unit.text)
        for el in unit.elements:
            kind = _kind_of(el, normalize_rai).value
            for i in range(el.span.start, el.span.end):
                unit_labels[i] = kind
        labels.extend(unit_labels)
    return labels


def char_kappa(
    a: Document, b: Document, normalize_rai: bool = False
) -> float | None:
    """Cohen's kappa over pooled per-character kind labels.

    Returns exactly 1.0 for identical label sequences and None when the
    expected agreement is 1 (kappa undefined).
    """
    _check_alignment(a, b)
    la = _char_labels(a, normalize_rai)
    lb = _char_labels(b, normalize_rai)
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


def agree(
    a: Document,
    b: Document,
    criterion: MatchCriterion | str = MatchCriterion.EXACT,
    normalize_rai: bool = False,
) -> AgreementReport:
    """Combined span agreement and per-character kappa."""
    spans = span_agreement(a, b, criterion, normalize_rai)
    kappa = char_kappa(a, b, normalize_rai)
    return AgreementReport(spans, kappa)


def stats_table(report: StatsReport) -> list[str]:
    """Human-readable statistics, one ``name: value`` row per line."""
    rows: list[str] = []
    for key, attr, order in STATS_FIELDS:
        label = key.removeprefix("by_").removesuffix("_hist")
        value = getattr(report, attr)
        if isinstance(value, int):
            rows.append(f"{label}: {value}")
        else:
            keys = order or sorted(value)
            rows.extend(f"{label} {k}: {value[k]}" for k in keys if k in value)
    return rows


def stats_records(report: StatsReport) -> str:
    """Statistics as a single JSON record."""
    rec = {}
    for key, attr, _ in STATS_FIELDS:
        value = getattr(report, attr)
        if not isinstance(value, int):
            value = {str(k): n for k, n in sorted(value.items())}
        rec[key] = value
    return compact_json(rec)


def _cell(x: object) -> str:
    if x is None:
        return "undefined"
    return f"{x:.4f}" if isinstance(x, float) else str(x)


def _score_values(scores: KindAgreement | SpanAgreement) -> dict[str, object]:
    return {name: getattr(scores, name) for name in SCORE_FIELDS}


def _overall(report: AgreementReport) -> dict[str, object]:
    s = report.spans
    return {"criterion": s.criterion.value, **_score_values(s), "kappa": report.kappa}


def agreement_table(report: AgreementReport) -> list[str]:
    """Human-readable agreement report."""
    rows = [f"{name}: {_cell(x)}" for name, x in _overall(report).items()]
    per_kind = report.spans.per_kind
    for kind in KIND_ORDER:
        if kind in per_kind:
            cells = (f"{name} {_cell(x)}" for name, x in _score_values(per_kind[kind]).items())
            rows.append(f"kind {kind}: " + " ".join(cells))
    return rows


def agreement_records(report: AgreementReport) -> str:
    """Agreement report as a single JSON record."""
    per_kind = {kind: _score_values(k) for kind, k in sorted(report.spans.per_kind.items())}
    return compact_json({**_overall(report), "per_kind": per_kind})
