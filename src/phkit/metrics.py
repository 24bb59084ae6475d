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

Both scores are sums over unit pairs: ``agreement_counts`` takes the counts
of a run of pairs in one pass, and the counts of consecutive runs add up
(``AgreementCounts.total``) to exactly those of the whole pair of
documents, so a pair can be scored in ranges of its units. ``phk stats``
and ``phk agree`` are here too (``cmd_stats``, ``cmd_agree``).

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
from itertools import chain
from operator import attrgetter, is_
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .model import (
    TAG_NAMES,
    CodedError,
    Document,
    Element,
    ElementForm,
    ElementType,
    LabelingUnit,
    PredicatePattern,
    Span,
    TagEntry,
    Value,
    compact_json,
)

KIND_ORDER = [k.value for k in ElementType]
_KIND = attrgetter("kind")
_ENTRY = attrgetter("kind", "pattern", "form")
R = TypeVar("R")


class MatchCriterion(str, enum.Enum):
    EXACT = "exact"  # same span, kind, and subtag
    TYPE_ONLY = "type_only"  # same span and kind
    HEAD_OVERLAP = "head_overlap"  # same kind, overlapping body-head (or full) spans


class AgreementError(CodedError):
    """The two documents are not comparable (AGR001/AGR002)."""


class StatsReport(Value):
    unit_count: int
    unc_unit_count: int
    by_kind: Mapping[str, int]
    by_pattern: Mapping[str, int]
    by_form: Mapping[str, int]
    by_tag: Mapping[str, int]
    unit_length_hist: Mapping[int, int]
    elements_per_unit_hist: Mapping[int, int]
    __slots__ = _fields = tuple(__annotations__)
    _defaults = (int,) * 2 + (dict,) * 6

    @property
    def element_count(self) -> int:
        return sum(self.by_kind.values())

    def __add__(self, other: "StatsReport") -> "StatsReport":
        return StatsReport.total((self, other))

    @classmethod
    def total(cls, reports: Iterable["StatsReport"]) -> "StatsReport":
        """The sum of ``reports`` (see ``_total``)."""
        return _total(cls, reports)


def _total(cls: type[R], parts: Iterable[R]) -> R:
    """The sum of ``parts``, instances of ``cls`` whose fields are counts
    and maps of counts (``_defaults``): counts add; maps merge key by key
    (keeping positive counts), each part's keys visited once."""
    sums = {n: 0 if make is int else Counter() for n, make in zip(cls._fields, cls._defaults)}
    for part in parts:
        for name, total in sums.items():
            if isinstance(total, Counter):
                total.update(getattr(part, name))
            else:
                sums[name] = total + getattr(part, name)
    return cls(**{n: dict(+s) if isinstance(s, Counter) else s for n, s in sums.items()})


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
    unc_units = 0
    entries: Counter[TagEntry] = Counter()  # (kind, pattern, form) of each element
    length_hist: Counter[int] = Counter()
    per_unit_hist: Counter[int] = Counter()
    for doc in docs:
        units = doc.units
        length_hist.update(len(u.text) for u in units)
        per_unit_hist.update(len(u.elements) for u in units)
        unc_units += sum(ElementType.UNC in map(_KIND, u.elements) for u in units)
        entries.update(map(_ENTRY, chain.from_iterable(u.elements for u in units)))
        # Not kept alive while ``docs`` produces the next one, so a lazy
        # ``docs`` keeps memory at one document.
        del doc, units
    by_kind: Counter[str] = Counter()
    by_pattern: Counter[str] = Counter()
    by_form: Counter[str] = Counter()
    for (kind, pattern, form), n in entries.items():
        by_kind[kind.value] += n
        if pattern is not None:
            by_pattern[pattern.value] += n
        if form is not None:
            by_form[form.value] += n
    by_tag = {TAG_NAMES[entry]: n for entry, n in entries.items()}
    counts = (by_kind, by_pattern, by_form, by_tag, length_hist, per_unit_hist)
    return StatsReport(length_hist.total(), unc_units, *map(dict, counts))


# The scores of a span agreement, overall and per kind, in rendering order.
SCORE_FIELDS = ("matched", "only_a", "only_b", "precision", "recall", "f1")


class KindAgreement(Value):
    matched: int
    only_a: int
    only_b: int
    precision: float
    recall: float
    f1: float
    __slots__ = _fields = tuple(__annotations__)


class SpanAgreement(Value):
    criterion: MatchCriterion
    matched: int
    only_a: int
    only_b: int
    precision: float
    recall: float
    f1: float
    per_kind: Mapping[str, KindAgreement]
    __slots__ = _fields = tuple(__annotations__)


class AgreementReport(Value):
    spans: SpanAgreement
    kappa: float | None
    __slots__ = _fields = tuple(__annotations__)


# Each kind as agreement counts it, without and with ``normalize_rai``.
_KINDS = {k: k for k in ElementType}
_KINDS_NORMALIZED = {**_KINDS, ElementType.RAI: ElementType.COM}


def _key(el: Element, head: bool) -> Span:
    """The head of ``el``'s body if ``head`` and it has one, else its span."""
    return el.body.head if head and el.body.head is not None else el.span


def _matches(x: Element, y: Element, criterion: MatchCriterion) -> bool:
    """Whether ``x`` and ``y``, of one counted kind and overlapping keys, match."""
    return criterion is MatchCriterion.HEAD_OVERLAP or x.span == y.span and (
        criterion is MatchCriterion.TYPE_ONLY or x.pattern is y.pattern and x.form is y.form
    )


def _scores(m: int, na: int, nb: int) -> tuple:
    """The SCORE_FIELDS values of ``m`` matches between ``na`` and ``nb`` elements."""
    # Vacuous agreement: nothing to predict or recall counts as perfect.
    p = m / nb if nb else 1.0
    r = m / na if na else 1.0
    return m, na - m, nb - m, p, r, (2 * p * r / (p + r) if p + r else 0.0)


class AgreementCounts(Value):
    """What agreement counts over a run of aligned unit pairs. Every field
    is a sum over the pairs, so the counts of consecutive runs add up to
    those of all of them (``total``), and both scores follow from the sum.

    By counted kind: ``matched`` elements, each side's elements
    (``total_a``, ``total_b``) and the characters they cover (``chars_a``,
    ``chars_b``); ``n`` characters in all, on ``po_num`` of which the two
    sides' labels agree.
    """

    matched: Mapping[ElementType, int]
    total_a: Mapping[ElementType, int]
    total_b: Mapping[ElementType, int]
    chars_a: Mapping[ElementType, int]
    chars_b: Mapping[ElementType, int]
    n: int
    po_num: int
    __slots__ = _fields = tuple(__annotations__)
    _defaults = (dict,) * 5 + (int,) * 2

    @classmethod
    def total(cls, parts: Iterable["AgreementCounts"]) -> "AgreementCounts":
        """The sum of ``parts`` (see ``_total``)."""
        return _total(cls, parts)

    def spans(self, criterion: MatchCriterion) -> SpanAgreement:
        """The span agreement of these counts, matched under ``criterion``."""
        matched, total_a, total_b = self.matched, self.total_a, self.total_b
        per_kind = {
            kind.value: KindAgreement(
                *_scores(matched.get(kind, 0), total_a.get(kind, 0), total_b.get(kind, 0))
            )
            for kind in ElementType
            if kind in total_a or kind in total_b
        }
        overall = _scores(*(sum(c.values()) for c in (matched, total_a, total_b)))
        return SpanAgreement(criterion, *overall, per_kind)

    def kappa(self) -> float | None:
        """Cohen's kappa of these counts (see ``char_kappa``)."""
        n, po_num = self.n, self.po_num
        # Characters per label, None for "O": what no element covers.
        ca, cb = Counter(self.chars_a), Counter(self.chars_b)
        for counts in (ca, cb):
            counts[None] = n - counts.total()
        pe_num = sum(ca[k] * cb[k] for k in ca)
        if pe_num == n * n:  # also when there is no text (n == 0)
            return None
        if po_num == n:  # the two label sequences are equal
            return 1.0
        # kappa = (p_o - p_e) / (1 - p_e), computed over a common denominator.
        return (po_num * n - pe_num) / (n * n - pe_num)

    def report(self, criterion: MatchCriterion) -> AgreementReport:
        return AgreementReport(self.spans(criterion), self.kappa())


def _add_lengths(counts: Counter, elements: Iterable[Element], kind_of: dict) -> None:
    """Add each element's length to ``counts`` under its kind."""
    for el in elements:
        span = el.span
        counts[kind_of[el.kind]] += span.end - span.start


def _char_labels(unit: LabelingUnit, kind_of: dict) -> list[ElementType | None]:
    """The kind of each character of ``unit``, None outside its elements."""
    labels: list[ElementType | None] = [None] * len(unit.text)
    for el in unit.elements:
        span = el.span
        labels[span.start : span.end] = [kind_of[el.kind]] * (span.end - span.start)
    return labels


def agreement_counts(
    units_a: Sequence[LabelingUnit],
    units_b: Sequence[LabelingUnit],
    criterion: MatchCriterion | str | None = MatchCriterion.EXACT,
    normalize_rai: bool = False,
    kappa: bool = True,
) -> AgreementCounts:
    """The counts of the pairs of ``units_a`` and ``units_b``, by index, in
    one pass that also checks that they align: as many units on each side
    (else AGR002), and each pair of the same text (else AGR001 at the first
    that is not). Spans are matched under ``criterion`` unless it is None,
    and characters are labeled if ``kappa``; counts not taken are empty.

    A pair of distinct unit objects is matched greedily, element by element
    in span order, in time linear in its elements, and labeled character by
    character to count where its labels agree. A unit object that both
    sides hold (see ``parse_document``) is neither: every element of it
    matches itself under every criterion, as greedy matching of a list
    against itself pairs, and all of its characters agree.
    """
    if len(units_a) != len(units_b):
        raise AgreementError(
            "AGR002",
            f"unit count mismatch: {len(units_a)} vs {len(units_b)}",
        )
    if criterion is not None:
        criterion = MatchCriterion(criterion)
    head = criterion is MatchCriterion.HEAD_OVERLAP
    kind_of = _KINDS_NORMALIZED if normalize_rai else _KINDS
    matched: Counter[ElementType] = Counter()
    total_a: Counter[ElementType] = Counter()
    total_b: Counter[ElementType] = Counter()
    chars_a: Counter[ElementType] = Counter()
    chars_b: Counter[ElementType] = Counter()
    shared = []  # the units both sides hold
    n = po_num = 0
    for i, (ua, ub) in enumerate(zip(units_a, units_b)):
        n += len(ua.text)
        if ua is ub:
            shared.append(ua)
            continue
        if ua.text != ub.text:
            raise AgreementError("AGR001", f"unit text mismatch at index {i}")
        xs, ys = ua.elements, ub.elements
        if criterion is not None:
            kinds_a = [kind_of[el.kind] for el in xs]
            kinds_b = [kind_of[el.kind] for el in ys]
            total_a.update(kinds_a)
            total_b.update(kinds_b)
            # A side's keys (``_key``) are sorted and disjoint, so the ys whose
            # keys overlap x's, its candidates, are a window moving forward.
            keys_b = [_key(y, head) for y in ys]
            used = [False] * len(ys)
            lo = 0
            for x, kind in zip(xs, kinds_a):
                key = _key(x, head)
                while lo < len(ys) and keys_b[lo].end <= key.start:
                    lo += 1
                for j in range(lo, len(ys)):
                    if keys_b[j].start >= key.end:
                        break
                    if not used[j] and kinds_b[j] is kind and _matches(x, ys[j], criterion):
                        used[j] = True
                        matched[kind] += 1
                        break
        if kappa:
            _add_lengths(chars_a, xs, kind_of)
            _add_lengths(chars_b, ys, kind_of)
            po_num += sum(map(is_, _char_labels(ua, kind_of), _char_labels(ub, kind_of)))
    elements = list(chain.from_iterable(u.elements for u in shared))
    if criterion is not None:
        both = Counter(kind_of[el.kind] for el in elements)
        for counts in (matched, total_a, total_b):
            counts.update(both)
    if kappa:
        both = Counter()
        _add_lengths(both, elements, kind_of)
        for counts in (chars_a, chars_b):
            counts.update(both)
        po_num += sum(len(u.text) for u in shared)
    counts = (matched, total_a, total_b, chars_a, chars_b)
    return AgreementCounts(*map(dict, counts), n, po_num)


def span_agreement(
    a: Document,
    b: Document,
    criterion: MatchCriterion | str = MatchCriterion.EXACT,
    normalize_rai: bool = False,
) -> SpanAgreement:
    """Greedy span matching between two aligned annotations (see
    ``agreement_counts``)."""
    criterion = MatchCriterion(criterion)
    counts = agreement_counts(a.units, b.units, criterion, normalize_rai, kappa=False)
    return counts.spans(criterion)


def char_kappa(
    a: Document, b: Document, normalize_rai: bool = False
) -> float | None:
    """Cohen's kappa over pooled per-character kind labels.

    Returns exactly 1.0 for identical label sequences and None when the
    expected agreement is 1 (kappa undefined). The label counts are sums
    of element lengths (see ``agreement_counts``).
    """
    return agreement_counts(a.units, b.units, None, normalize_rai).kappa()


def agree(
    a: Document,
    b: Document,
    criterion: MatchCriterion | str = MatchCriterion.EXACT,
    normalize_rai: bool = False,
) -> AgreementReport:
    """Combined span agreement and per-character kappa: the report of
    ``agreement_counts`` of both, taken here in a pass for each through
    ``span_agreement`` and ``char_kappa``, which the bench tracer times as
    layers by those names."""
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


def cmd_stats(args) -> int:
    from . import cli

    def count(path: str, status: int, docs: list, ends=cli._WHOLE) -> tuple[StatsReport, int]:
        return corpus_stats(doc for doc, _ in docs), status

    status = cli.EXIT_OK

    def reports() -> Iterator[StatsReport]:
        nonlocal status
        for report, file_status in cli._each_file(args.files, args.from_format, count, split=True):
            status = max(status, file_status)
            yield report

    report = StatsReport.total(reports())
    if args.format == "records":
        print(stats_records(report))
    else:
        for row in stats_table(report):
            print(row)
    return status


# ``--match`` values to ``MatchCriterion`` values.
_MATCH_BY_FLAG = {"exact": "exact", "type": "type_only", "head": "head_overlap"}


def cmd_agree(args) -> int:
    from . import cli

    match = args.match or cli._config_choice(
        args, "agree", "match", list(_MATCH_BY_FLAG), "match criterion"
    )
    normalize = args.normalize_rai
    if normalize is None:
        normalize = bool(cli._config_value(args, "agree", "normalize_rai", bool, "true or false"))
    criterion = MatchCriterion(_MATCH_BY_FLAG[match])
    paths = [args.file_a, args.file_b]

    def show(report: AgreementReport) -> int:
        if args.format == "records":
            print(agreement_records(report))
        else:
            for row in agreement_table(report):
                print(row)
        return cli.EXIT_OK

    def whole(texts: list) -> int:
        """The pair in this process, read from ``texts`` where given."""
        docs = []
        known: dict = {}  # unit lines of both files; see parse_document
        status = cli.EXIT_OK  # both files are read, and their broken lines reported, first
        for path, text in zip(paths, texts):
            file_status, loaded = cli._read(path, args.from_format, known, text)
            status = max(status, file_status)
            if len(loaded) != 1:
                raise cli.CliError(cli.EXIT_USAGE, f"{path}: expected exactly one document")
            docs.append(loaded.pop()[0])  # its unit lines go before the next file is read
        if status != cli.EXIT_OK:
            return status
        try:
            report = agree(docs[0], docs[1], criterion, normalize)
        except AgreementError as exc:
            raise cli.CliError(cli.EXIT_USAGE, f"{exc.code} {exc.message}") from None
        return show(report)

    def score(parts: list[Document], ends: tuple[bool, bool]) -> AgreementCounts:
        return agreement_counts(parts[0].units, parts[1].units, criterion, normalize)

    counts = list(cli._in_ranges(paths, args.from_format, score, whole))
    if isinstance(counts[0], int):  # the status of whole(), which wrote any report
        return counts[0]
    return show(AgreementCounts.total(counts).report(criterion))
