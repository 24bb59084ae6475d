"""The benchmark's three workloads: inputs, `phk` command sequences, checks.

Each workload stresses different layers, so that a change to one layer
moves one workload and leaves another alone:

* ``inline-batch``: the annotator/QA path. Several inline files, all unit
  lines distinct; validate, stats and both writers run over them. The
  inline parser does most of the work; the standoff and column readers
  never run.
* ``format-exchange``: the ML-pipeline path. One corpus stored as standoff
  and as columns; the readers, model construction and the writers run,
  the inline parser never does.
* ``annotation-round``: two annotators' versions of one document that
  share about 90% of their lines, plus the next batch's raw text. The only
  workload where agreement and segmentation do real work, and the only
  one where work shared across inputs could pay off.

Every check compares `phk` output with the generator's own reference and
returns None when it holds, or a message saying what differs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus

# Units per workload. Sized so that one pass of a workload's command
# sequence takes a few seconds on a 2-core machine: long enough that parsing
# and conversion outweigh interpreter start-up, short enough that a run
# holds several passes.
SIZES = {
    "inline-batch": {"files": 4, "units": 3000},
    "format-exchange": {"units": 10000},
    "annotation-round": {"units": 6000, "raw_lines": 1500},
}
PLANT_SHARE = 0.12
PERTURB_SHARE = 0.10

Check = Callable[[bytes, Path], "str | None"]


@dataclass
class Command:
    metric: str  # per-command metric this invocation counts toward
    argv: list[str]  # `phk` arguments, paths relative to the work directory
    inputs: list[str]  # files the command reads
    status: int  # expected exit status
    check: Check


@dataclass
class Workload:
    name: str
    files: dict[str, bytes]
    commands: list[Command]
    corpus_bytes: int  # canonical inline bytes (plus raw text) of the inputs
    docs: list[corpus.Doc]  # documents for the model probe
    info: dict = field(default_factory=dict)


def _lines_share(docs: list[corpus.Doc]) -> float:
    lines = [corpus.inline_line(u) for d in docs for u in d.units]
    return len(set(lines)) / len(lines)


# --- checks --------------------------------------------------------------------


def _json_lines(out: bytes) -> list[dict]:
    return [json.loads(line) for line in out.decode("utf-8").splitlines() if line]


def _per_code(findings: Counter) -> dict[str, int]:
    return dict(sorted(Counter(code for _, _, code in findings.elements()).items()))


def check_findings(expected: Counter) -> Check:
    def check(out: bytes, workdir: Path) -> str | None:
        try:
            got = Counter((r["file"], r["line"], r["code"]) for r in _json_lines(out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"validate records unreadable: {exc!r}"
        if got == expected:
            return None
        return f"findings per code {_per_code(got)} != expected {_per_code(expected)}"

    return check


def check_stats(truth: dict) -> Check:
    def check(out: bytes, workdir: Path) -> str | None:
        try:
            rec = json.loads(out)
            got = {key: rec[key] for key in truth}
        except (ValueError, KeyError, TypeError) as exc:
            return f"stats record unreadable: {exc!r}"
        return None if got == truth else f"stats {got} != expected {truth}"

    return check


def check_bytes(expected: bytes, what: str) -> Check:
    def check(out: bytes, workdir: Path) -> str | None:
        if out == expected:
            return None
        n = min(len(out), len(expected))
        first = next((i for i in range(n) if out[i] != expected[i]), n)
        return f"{what}: {len(out)} bytes, expected {len(expected)}; first difference at {first}"

    return check


def _kappa_ok(got, ref: float | None, digits: int | None) -> bool:
    if ref is None:
        return got in (None, "undefined")
    if digits is not None:
        return got == f"{ref:.{digits}f}"
    return isinstance(got, float) and abs(got - ref) <= 1e-9


def check_agree_records(counts: dict, kappa_ref: float | None) -> Check:
    def check(out: bytes, workdir: Path) -> str | None:
        try:
            rec = json.loads(out)
            got = {key: rec[key] for key in counts}
            kappa = rec["kappa"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"agree record unreadable: {exc!r}"
        if got != counts:
            return f"agree exact {got} != expected {counts}"
        if not _kappa_ok(kappa, kappa_ref, None):
            return f"kappa {kappa} != recomputed {kappa_ref}"
        return None

    return check


def check_agree_table(counts: dict, kappa_ref: float | None) -> Check:
    def check(out: bytes, workdir: Path) -> str | None:
        rows = dict(
            line.split(": ", 1)
            for line in out.decode("utf-8", "replace").splitlines()
            if ": " in line
        )
        try:
            got = {key: int(rows[key]) for key in counts}
            kappa = rows["kappa"]
        except (KeyError, ValueError) as exc:
            return f"agree table unreadable: {exc!r}"
        if got != counts:
            return f"agree head {got} != expected {counts}"
        if not _kappa_ok(kappa, kappa_ref, 4):
            return f"kappa {kappa} != recomputed {kappa_ref}"
        return None

    return check


def check_segment(raw_lines: list[str], hard: set, sidecar: str) -> Check:
    def check(out: bytes, workdir: Path) -> str | None:
        pieces = out.decode("utf-8", "replace").split("\n")
        if pieces[-1] != "":
            return "segment output does not end with a newline"
        pieces.pop()
        k = 0
        for number, line in enumerate(raw_lines, start=1):
            built = ""
            while len(built) < len(line) and k < len(pieces):
                built += pieces[k]
                k += 1
            if built != line:
                return f"segment pieces of line {number} do not concatenate to it"
        if k != len(pieces):
            return f"segment printed {len(pieces) - k} pieces beyond the input"
        try:
            records = _json_lines((workdir / sidecar).read_bytes())
            got = {(r["line"], r["position"]) for r in records if r["kind"] == "hard"}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"boundary sidecar unreadable: {exc!r}"
        if got != hard:
            return f"{len(got)} hard boundaries, expected {len(hard)}"
        return None

    return check


# --- workload builders ---------------------------------------------------------


def inline_batch(seed: int, sizes: dict) -> Workload:
    gen = corpus.Generator(f"inline-batch:{seed}")
    docs = [
        gen.doc(f"batch-{seed}-{i}", sizes["units"], PLANT_SHARE) for i in range(sizes["files"])
    ]
    names = [f"b{i}.ann" for i in range(len(docs))]
    files = {name: doc.inline().encode("utf-8") for name, doc in zip(names, docs)}
    findings = corpus.findings_truth(docs, names)
    errors = any(code in corpus.ERROR_CODES for _, _, code in findings)
    standoff = "".join(d.standoff() for d in docs).encode("utf-8")
    columns = "".join(d.columns() for d in docs).encode("utf-8")
    commands = [
        Command("validate_s", ["validate", "--format", "records", *names], names,
                1 if errors else 0, check_findings(findings)),
        Command("stats_s", ["stats", "--format", "records", *names], names, 0,
                check_stats(corpus.stats_truth(docs))),
        Command("convert_standoff_s", ["convert", "--to", "standoff", *names], names, 0,
                check_bytes(standoff, "standoff stream")),
        Command("convert_columns_s", ["convert", "--to", "columns", *names], names, 0,
                check_bytes(columns, "column stream")),
    ]
    info = {
        "distinct_line_share": _lines_share(docs),
        "findings_planted": _per_code(findings),
    }
    return Workload("inline-batch", files, commands, sum(map(len, files.values())), docs, info)


def format_exchange(seed: int, sizes: dict) -> Workload:
    gen = corpus.Generator(f"format-exchange:{seed}")
    doc = gen.doc(f"fx-{seed}", sizes["units"], PLANT_SHARE)
    inline = doc.inline().encode("utf-8")
    columns = doc.columns().encode("utf-8")
    files = {"fx.jsonl": doc.standoff().encode("utf-8"), "fx.cols": columns}
    commands = [
        Command("convert_columns_s", ["convert", "--to", "columns", "fx.jsonl"], ["fx.jsonl"],
                0, check_bytes(columns, "column stream")),
        Command("convert_inline_s", ["convert", "--to", "inline", "fx.cols"], ["fx.cols"],
                0, check_bytes(inline, "inline document")),
        Command("stats_s", ["stats", "--format", "records", "fx.jsonl"], ["fx.jsonl"], 0,
                check_stats(corpus.stats_truth([doc]))),
    ]
    info = {"distinct_line_share": _lines_share([doc])}
    return Workload("format-exchange", files, commands, len(inline), [doc], info)


def annotation_round(seed: int, sizes: dict) -> Workload:
    gen = corpus.Generator(f"annotation-round:{seed}")
    a = gen.doc(f"round-{seed}", sizes["units"], 0.0)
    b, log = corpus.perturb(random.Random(f"annotation-round:{seed}:b"), a, PERTURB_SHARE)
    raw_lines, hard = [], set()
    for number in range(1, sizes["raw_lines"] + 1):
        line, positions = gen.raw_line()
        raw_lines.append(line)
        hard.update((number, p) for p in positions)
    raw = "".join(line + "\n" for line in raw_lines).encode("utf-8")
    files = {"a.ann": a.inline().encode("utf-8"), "b.ann": b.inline().encode("utf-8"),
             "raw.txt": raw}
    labels_a = [x for u in a.units for x in corpus.char_labels(u)]
    labels_b = [x for u in b.units for x in corpus.char_labels(u)]
    kappa_ref = corpus.kappa(labels_a, labels_b)
    truth = corpus.agreement_truth(a, log)
    pair = ["a.ann", "b.ann"]
    commands = [
        Command("agree_s", ["agree", *pair, "--format", "records"], pair, 0,
                check_agree_records(truth["exact"], kappa_ref)),
        Command("agree_s", ["agree", *pair, "--match", "head"], pair, 0,
                check_agree_table(truth["head"], kappa_ref)),
        Command("segment_s", ["segment", "raw.txt", "--boundaries", "bounds.jsonl"],
                ["raw.txt"], 0, check_segment(raw_lines, hard, "bounds.jsonl")),
    ]
    lines_a = [corpus.inline_line(u) for u in a.units]
    lines_b = [corpus.inline_line(u) for u in b.units]
    info = {
        "distinct_line_share": _lines_share([a, b]),
        "ab_common_line_share": sum(x == y for x, y in zip(lines_a, lines_b)) / len(lines_a),
        "perturbations": dict(sorted(Counter(p.kind for p in log).items())),
        "hard_boundaries": len(hard),
    }
    return Workload("annotation-round", files, commands, sum(map(len, files.values())),
                    [a, b], info)


BUILDERS = {
    "inline-batch": inline_batch,
    "format-exchange": format_exchange,
    "annotation-round": annotation_round,
}


def build(name: str, seed: int, sizes: dict | None = None) -> Workload:
    return BUILDERS[name](seed, sizes or SIZES[name])
