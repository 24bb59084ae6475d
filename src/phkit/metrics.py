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
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
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
        def merge(a: Mapping, b: Mapping) -> dict:
            return dict(Counter(a) + Counter(b))

        return StatsReport(
            self.unit_count + other.unit_count,
            self.unc_unit_count + other.unc_unit_count,
            merge(self.by_kind, other.by_kind),
            merge(self.by_pattern, other.by_pattern),
            merge(self.by_form, other.by_form),
            merge(self.by_tag, other.by_tag),
            merge(self.unit_length_hist, other.unit_length_hist),
            merge(self.elements_per_unit_hist, other.elements_per_unit_hist),
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
    # No name here holds a document while ``docs`` produces the next one,
    # so a lazy ``docs`` keeps memory at one document.
    for unit in chain.from_iterable(map(attrgetter("units"), docs)):
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
    return StatsReport(
        unit_count,
        unc_units,
        dict(by_kind),
        dict(by_pattern),
        dict(by_form),
        dict(by_tag),
        dict(length_hist),
        dict(per_unit_hist),
    )


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


def _ratio(num: int, den: int) -> float:
    # Vacuous agreement: nothing to predict or recall counts as perfect.
    return num / den if den else 1.0


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r else 0.0


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
    per_kind: dict[str, KindAgreement] = {}
    for kind in KIND_ORDER:
        na, nb, m = total_a[kind], total_b[kind], matched[kind]
        if na == 0 and nb == 0:
            continue
        p, r = _ratio(m, nb), _ratio(m, na)
        per_kind[kind] = KindAgreement(m, na - m, nb - m, p, r, _f1(p, r))
    m = sum(matched.values())
    na = sum(total_a.values())
    nb = sum(total_b.values())
    p, r = _ratio(m, nb), _ratio(m, na)
    return SpanAgreement(criterion, m, na - m, nb - m, p, r, _f1(p, r), per_kind)


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
    rows = [
        f"units: {report.unit_count}",
        f"unc_units: {report.unc_unit_count}",
        f"elements: {report.element_count}",
    ]
    for kind in KIND_ORDER:
        if kind in report.by_kind:
            rows.append(f"kind {kind}: {report.by_kind[kind]}")
    for p in PredicatePattern:
        if p.value in report.by_pattern:
            rows.append(f"pattern {p.value}: {report.by_pattern[p.value]}")
    for f in ElementForm:
        if f.value in report.by_form:
            rows.append(f"form {f.value}: {report.by_form[f.value]}")
    for tag in sorted(report.by_tag):
        rows.append(f"tag {tag}: {report.by_tag[tag]}")
    for length in sorted(report.unit_length_hist):
        rows.append(f"unit_length {length}: {report.unit_length_hist[length]}")
    for count in sorted(report.elements_per_unit_hist):
        rows.append(f"elements_per_unit {count}: {report.elements_per_unit_hist[count]}")
    return rows


def stats_records(report: StatsReport) -> str:
    """Statistics as a single JSON record."""
    rec = {
        "units": report.unit_count,
        "unc_units": report.unc_unit_count,
        "elements": report.element_count,
        "by_kind": dict(sorted(report.by_kind.items())),
        "by_pattern": dict(sorted(report.by_pattern.items())),
        "by_form": dict(sorted(report.by_form.items())),
        "by_tag": dict(sorted(report.by_tag.items())),
        "unit_length_hist": {str(k): v for k, v in sorted(report.unit_length_hist.items())},
        "elements_per_unit_hist": {
            str(k): v for k, v in sorted(report.elements_per_unit_hist.items())
        },
    }
    return compact_json(rec)


def _fmt(x: float | None) -> str:
    return "undefined" if x is None else f"{x:.4f}"


def agreement_table(report: AgreementReport) -> list[str]:
    """Human-readable agreement report."""
    s = report.spans
    rows = [
        f"criterion: {s.criterion.value}",
        f"matched: {s.matched}",
        f"only_a: {s.only_a}",
        f"only_b: {s.only_b}",
        f"precision: {_fmt(s.precision)}",
        f"recall: {_fmt(s.recall)}",
        f"f1: {_fmt(s.f1)}",
        f"kappa: {_fmt(report.kappa)}",
    ]
    for kind in KIND_ORDER:
        if kind not in s.per_kind:
            continue
        k = s.per_kind[kind]
        rows.append(
            f"kind {kind}: matched {k.matched} only_a {k.only_a} only_b {k.only_b} "
            f"precision {_fmt(k.precision)} recall {_fmt(k.recall)} f1 {_fmt(k.f1)}"
        )
    return rows


def agreement_records(report: AgreementReport) -> str:
    """Agreement report as a single JSON record."""
    s = report.spans
    rec = {
        "criterion": s.criterion.value,
        "matched": s.matched,
        "only_a": s.only_a,
        "only_b": s.only_b,
        "precision": s.precision,
        "recall": s.recall,
        "f1": s.f1,
        "kappa": report.kappa,
        "per_kind": {
            kind: {
                "matched": k.matched,
                "only_a": k.only_a,
                "only_b": k.only_b,
                "precision": k.precision,
                "recall": k.recall,
                "f1": k.f1,
            }
            for kind, k in sorted(s.per_kind.items())
        },
    }
    return compact_json(rec)
