"""In-process runs of a workload through ``phkit.cli.main``, traced or not.

The traced run wraps the public functions that ``cli`` calls, through the
module attributes it looks them up by, so phkit itself stays untouched.
Each span records name, start, end, parent span and run id; spans stay in
memory until the run ends. A layer's self time is its spans' durations
minus the time covered by their child spans. Counts are taken at the same
boundaries.

End-to-end metrics never come from here: the traced run only explains
where the time of the untraced subprocess runs goes.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import corpus

# (module, attribute, span name, counter name, count of the result).
# ``agree`` and ``split`` call ``span_agreement``, ``char_kappa`` and
# ``propose_boundaries`` through their module globals, so wrapping the
# module attribute also catches those inner calls.
LAYER_CALLS = [
    ("phkit.cli", "parse_bytes", "inline.parse", "inline.units_parsed",
     lambda r: len(r.document.units)),
    ("phkit.cli", "emit_document", "inline.emit", None, None),
    ("phkit.validation", "validate_document", "validation.validate", "validation.findings", len),
    ("phkit.validation", "render_records", "validation.render", None, None),
    ("phkit.validation", "render_text", "validation.render", None, None),
    ("phkit.convert", "to_standoff", "convert.to_standoff", None, None),
    ("phkit.convert", "to_columns", "convert.to_columns", None, None),
    ("phkit.convert", "read_standoff", "convert.read_standoff", None, None),
    ("phkit.convert", "read_columns", "convert.read_columns", None, None),
    ("phkit.metrics", "corpus_stats", "metrics.stats", None, None),
    ("phkit.metrics", "stats_records", "metrics.stats", None, None),
    ("phkit.metrics", "stats_table", "metrics.stats", None, None),
    ("phkit.metrics", "span_agreement", "metrics.span_agreement", None, None),
    ("phkit.metrics", "char_kappa", "metrics.char_kappa", None, None),
    ("phkit.segmentation", "split", "segmentation.split", None, None),
    ("phkit.segmentation", "propose_boundaries", "segmentation.propose",
     "segmentation.boundaries", len),
]
SPAN_NAMES = sorted({entry[2] for entry in LAYER_CALLS})
COUNT_NAMES = sorted({entry[3] for entry in LAYER_CALLS if entry[3]})
ROOT = "cli.main"


class Sink:
    """Stands in for stdout/stderr and keeps what is written."""

    def __init__(self) -> None:
        self.chunks: list[str] = []

    def write(self, s: str) -> int:
        self.chunks.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    def data(self) -> bytes:
        return "".join(self.chunks).encode("utf-8")


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self) -> list[str]:
        """Wrap every layer call that exists; return the ones that do not."""
        missing = []
        for module_name, attr, name, counter, count in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, counter, count))
            self._patched.append((module, attr, original))
        return missing

    def _wrap(self, original, name, counter, count):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if counter:
                self.counts[counter] += count(result)
            return result

        return traced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out[name] += end - start - inner
        return out

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]


def import_cli(src: Path):
    """Import phkit from ``src`` and make sure it is that copy."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("phkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"phkit imported from {cli.__file__}, not from {src}")
    return cli


def run_commands(cli, commands, workdir: Path, tracer: Tracer | None, run_id: str):
    """Run each command through ``cli.main`` with stdout captured.

    Returns, per command, (wall seconds, exit status, stdout bytes).
    """
    results = []
    saved = sys.stdout, sys.stderr, os.getcwd()
    os.chdir(workdir)
    try:
        for k, command in enumerate(commands):
            out, err = Sink(), Sink()
            sys.stdout, sys.stderr = out, err
            if tracer is not None:
                tracer.run_id = f"{run_id}:{k}:{command.argv[0]}"
                index = tracer.open(ROOT)
            start = time.perf_counter()
            try:
                status = cli.main(list(command.argv))
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                status = f"raised {exc!r}"
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.close(index)
                sys.stdout, sys.stderr = saved[0], saved[1]
            results.append((wall, status, out.data()))
    finally:
        os.chdir(saved[2])
    return results


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_probe(docs: list[corpus.Doc]) -> tuple[float, float]:
    """Rebuild every unit and element through phkit's public constructors,
    then read ``.span`` and ``.tag`` once per element.

    Returns (build seconds, access seconds).
    """
    from phkit.model import (
        Document, Element, ElementForm, ElementType, LabelingUnit, PredicatePattern,
        Segment, Span,
    )

    plans = []
    for doc in docs:
        units = []
        for unit in doc.units:
            elements = []
            for el, start in corpus.unit_elements(unit):
                body_start = start + len(el.trig or "")
                trig = None
                if el.trig is not None:
                    th = el.trig_head and (start + el.trig_head[0], start + el.trig_head[1])
                    trig = (start, body_start, th)
                head = el.head and (body_start + el.head[0], body_start + el.head[1])
                pattern = PredicatePattern(el.sub) if el.kind == "PRE" else None
                form = ElementForm(el.sub) if el.sub and el.kind != "PRE" else None
                elements.append((ElementType(el.kind), body_start, start + len(el.text),
                                 head, trig, pattern, form))
            units.append((corpus.unit_text(unit), elements))
        plans.append((doc.id, tuple(doc.meta), units))

    start = time.perf_counter()
    built = []
    for doc_id, meta, units in plans:
        lunits = []
        for text, elements in units:
            els = []
            for kind, bs, be, head, trig, pattern, form in elements:
                trigger = None
                if trig is not None:
                    ts, te, th = trig
                    trigger = Segment(Span(ts, te), Span(*th) if th else None)
                body = Segment(Span(bs, be), Span(*head) if head else None)
                els.append(Element(kind, body, trigger, pattern, form))
            lunits.append(LabelingUnit(text, tuple(els)))
        built.append(Document(doc_id, meta, tuple(lunits)))
    build_s = time.perf_counter() - start

    start = time.perf_counter()
    total = 0
    for doc in built:
        for unit in doc.units:
            for el in unit.elements:
                total += el.span.end + len(el.tag)
    access_s = time.perf_counter() - start
    if total <= 0:
        raise RuntimeError("model probe read no elements")
    return build_s, access_s
