#!/usr/bin/env python3
"""phkit benchmark: real `phk` subcommands over seeded synthetic corpora.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the working tree's ``src`` is what runs.

``--trace 0`` measures the end-to-end metrics. Load is a closed loop with
one client: the harness runs one ``python -m phkit`` command at a time,
reaps it with ``os.wait4`` (wall time, CPU time and peak RSS of that one
child), checks its exit status and output against the generator's own
reference, and repeats the workload's command sequence, pass after pass,
for S seconds. After every command it times one ``phk`` set-up call and
one run of a fixed reference program; reported timings are medians of
each sample relative to the reference run next to it (see REFERENCE_CODE).

``--trace 1`` reports per-layer metrics: one untraced subprocess pass for
per-command wall time and RSS, then the same commands in-process through
``phkit.cli.main``, once untraced and once with spans around each layer's
public functions, then a probe of the model constructors. Spans are
written to ``.bench_traces/`` when the run ends.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people. Exit status is 0 when the run completed, whether or not every
check held, and non-zero when it could not run (2 without phkit sources).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_traces"

MB = 1e6
SETUP_CALLS = 5  # `phk parse` on an empty file before the passes; one more after each command
IMPORT_CALLS = 5

COMMAND_METRICS = ["validate_s", "stats_s", "convert_standoff_s", "convert_columns_s",
                   "convert_inline_s", "agree_s", "segment_s"]

END_TO_END = {
    "setup_s": "s",
    "corpus_mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.read_mb": "MB",
    "cli.write_mb": "MB",
    **{f"cli.rss_mb.{m[:-2]}": "MB" for m in COMMAND_METRICS},
    **{m: "s" for m in COMMAND_METRICS},
    "inline.parse_s": "s",
    "inline.units_parsed": "count",
    "inline.emit_s": "s",
    "validation.validate_s": "s",
    "validation.render_s": "s",
    "validation.findings": "count",
    "convert.to_standoff_s": "s",
    "convert.to_columns_s": "s",
    "convert.read_standoff_s": "s",
    "convert.read_columns_s": "s",
    "metrics.stats_s": "s",
    "metrics.span_agreement_s": "s",
    "metrics.char_kappa_s": "s",
    "segmentation.split_s": "s",
    "segmentation.propose_s": "s",
    "segmentation.boundaries": "count",
    "model.build_s": "s",
    "model.span_access_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass
class Sample:
    metric: str
    wall: float
    cpu: float
    rss_mb: float
    out: bytes
    problem: str | None


class Harness:
    """Runs `phk` commands as child processes, one at a time, through the
    spawner, and counts the operations attempted and failed."""

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PHK_")}
        env["PYTHONPATH"] = str(SRC)
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        self.workdir = Path.cwd()
        self.attempted = 0
        self.problems: list[str] = []

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait(timeout=60)

    def spawn(self, args: list[str]) -> tuple[float, object, float, float, bytes]:
        """Run one child to completion: (wall, status, cpu, rss MB, stdout)."""
        out_path = self.workdir / "stdout"
        request = {"argv": [sys.executable, *args], "cwd": str(self.workdir),
                   "stdout": str(out_path), "stderr": str(self.workdir / "stderr")}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        r = json.loads(line)
        return r["wall"], r["status"], r["cpu"], r["maxrss_kb"] * 1024 / MB, out_path.read_bytes()

    def phk(self, command: workloads.Command) -> Sample:
        self.attempted += 1
        wall, status, cpu, rss, out = self.spawn(["-m", "phkit", *command.argv])
        if status != command.status:
            problem = f"exit {status}, expected {command.status}"
        else:
            problem = command.check(out, self.workdir)
        if problem:
            self.problems.append(f"{' '.join(command.argv[:3])}: {problem}")
        return Sample(command.metric, wall, cpu, rss, out, problem)

    def check_source(self) -> None:
        code = "import phkit, sys; sys.stdout.write(phkit.__file__)"
        _, status, _, _, out = self.spawn(["-c", code])
        where = Path(out.decode()).resolve()
        if status != 0 or not where.is_relative_to(SRC.resolve()):
            raise RuntimeError(f"child imports phkit from {out.decode()!r}, not from {SRC}")

    def reference(self) -> float:
        """Wall time of one run of the fixed reference program."""
        wall, status, _, _, out = self.spawn(["-I", "-S", "-c", REFERENCE_CODE])
        if status != 0 or out != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference program failed: exit {status}, output {out[:80]!r}")
        return wall

    def import_times(self) -> list[float]:
        code = ("import time, sys; t = time.perf_counter(); import phkit.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t))")
        return [float(self.spawn(["-c", code])[4]) for _ in range(IMPORT_CALLS)]


@contextlib.contextmanager
def harness():
    h = Harness()
    try:
        yield h
    finally:
        h.close()


@contextlib.contextmanager
def workspace(w: workloads.Workload, h: Harness):
    """Point ``h`` at a fresh work directory holding the workload's files;
    remove it afterwards."""
    workdir = WORK_ROOT / f"{w.name}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        for name, data in w.files.items():
            (workdir / name).write_bytes(data)
        h.workdir = workdir
        yield h
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_command(samples: list[Sample]) -> dict[str, float]:
    """Mean wall time of each command kind within one pass."""
    walls: dict[str, list[float]] = {}
    for s in samples:
        walls.setdefault(s.metric, []).append(s.wall)
    return {m: statistics.fmean(w) for m, w in walls.items()}


SETUP = workloads.Command("setup_s", ["parse", "empty.ann"], [], 0,
                          workloads.check_bytes(b"", "parse of an empty file"))

# A fixed pure-Python program that never touches phkit, run as a child after
# every command. A shared host's speed drifts by a third within minutes, the
# same for every CPU-bound child; dividing each timing by the reference run
# next to it cancels that drift, and REFERENCE_S turns the ratio back into
# seconds at a nominal speed. A change to phkit moves the ratio exactly as
# it moves the wall time.
REFERENCE_CODE = (
    "import json\n"
    "rows = [{'text': 'unit%d' % i * 3, 'n': i, 'parts': ('unit%d' % i).split('t')}\n"
    "        for i in range(25000)]\n"
    "print(len(json.dumps(rows)), sum(len(r['parts']) for r in rows))\n"
)
REFERENCE_OUTPUT = b"1944450 50000\n"
REFERENCE_S = 0.1


def timed_run(w: workloads.Workload, h: Harness, seconds: float) -> tuple[dict, dict]:
    (h.workdir / "empty.ann").write_bytes(b"")
    h.phk(SETUP)  # warm-up: the first call may compile bytecode
    h.reference()
    setup: list[tuple[float, float]] = []  # (setup wall, reference wall next to it)

    def setup_and_reference() -> float:
        wall = h.phk(SETUP).wall
        ref = h.reference()
        setup.append((wall, ref))
        return ref

    for _ in range(SETUP_CALLS):
        setup_and_reference()
    passes: list[list[tuple[Sample, float]]] = []  # (command, reference wall next to it)
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append([(h.phk(c), setup_and_reference()) for c in w.commands])
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    # Medians of samples spread over the whole window, each relative to its
    # reference run; see REFERENCE_CODE.
    ratios = [[p[k][0].wall / p[k][1] for p in passes] for k in range(len(w.commands))]
    pass_s = REFERENCE_S * sum(statistics.median(r) for r in ratios)
    metrics = {
        "setup_s": REFERENCE_S * statistics.median(s / r for s, r in setup),
        "corpus_mb_per_s": w.corpus_bytes / MB / pass_s,
        "peak_rss_mb": statistics.median(max(s.rss_mb for s, _ in p) for p in passes),
    }
    walls = [[p[k][0].wall for p in passes] for k in range(len(w.commands))]
    by_pass = [per_command([s for s, _ in p]) for p in passes]
    detail = {
        "passes": len(passes),
        "corpus_mb": w.corpus_bytes / MB,
        "reference_s": statistics.median(r for _, r in setup),
        "wall_setup_s": statistics.median(s for s, _ in setup),
        "wall_corpus_mb_per_s": w.corpus_bytes / MB / sum(statistics.median(x) for x in walls),
        **{m: statistics.median(d[m] for d in by_pass) for m in by_pass[0]},
        "cpu_over_wall": sum(s.cpu for p in passes for s, _ in p)
        / sum(s.wall for p in passes for s, _ in p),
        "command_walls": walls,
        "setup_walls": [s for s, _ in setup],
        "reference_walls": [r for _, r in setup],
    }
    return metrics, detail


def traced_cycle(w: workloads.Workload, h: Harness, cli, run_id: str,
                 traced_first: bool) -> tuple[dict, list[dict], list[str]]:
    """One subprocess pass, one untraced and one traced in-process pass."""
    subs = [h.phk(c) for c in w.commands]
    tracer = spans.Tracer()

    def plain():
        return spans.run_commands(cli, w.commands, h.workdir, None, run_id)

    def traced():
        missing = tracer.install()
        try:
            return spans.run_commands(cli, w.commands, h.workdir, tracer, run_id), missing
        finally:
            tracer.uninstall()

    if traced_first:
        (traced_res, missing), plain_res = traced(), plain()
    else:
        plain_res = plain()
        traced_res, missing = traced()

    for command, sub, p, t in zip(w.commands, subs, plain_res, traced_res):
        h.attempted += 2
        for label, (_, status, out) in (("in-process", p), ("traced", t)):
            problem = (f"exit {status}, expected {command.status}" if status != command.status
                       else command.check(out, h.workdir))
            if problem is None and spans.digest(out) != spans.digest(sub.out):
                problem = "stdout digest differs from the subprocess run"
            if problem:
                h.problems.append(f"{label} {' '.join(command.argv[:3])}: {problem}")

    metrics = {name: 0.0 for name in PER_LAYER}
    self_times = tracer.self_times()
    for name in spans.SPAN_NAMES:
        metrics[name + "_s"] = self_times.get(name, 0.0)
    metrics["cli.self_s"] = self_times.get(spans.ROOT, 0.0)
    for name in spans.COUNT_NAMES:
        metrics[name] = float(tracer.counts[name])
    for metric, wall in per_command(subs).items():
        metrics[metric] = wall
    for s in subs:
        key = f"cli.rss_mb.{s.metric[:-2]}"
        metrics[key] = max(metrics[key], s.rss_mb)
    metrics["cli.read_mb"] = sum(len(w.files[f]) for c in w.commands for f in c.inputs) / MB
    written = sum(len(out) for _, _, out in traced_res)
    if (h.workdir / "bounds.jsonl").exists():
        written += (h.workdir / "bounds.jsonl").stat().st_size
    metrics["cli.write_mb"] = written / MB
    untraced = sum(wall for wall, _, _ in plain_res)
    metrics["trace.overhead_pct"] = (sum(wall for wall, _, _ in traced_res) - untraced) \
        / untraced * 100
    metrics["model.build_s"], metrics["model.span_access_s"] = spans.model_probe(w.docs)
    return metrics, tracer.records(), missing


def trace_run(w: workloads.Workload, h: Harness, seconds: float, seed: int) -> tuple[dict, dict]:
    cli = spans.import_cli(SRC)
    import_s = statistics.median(h.import_times())
    # Untimed warm-up: the first in-process pass pays for allocator growth.
    spans.run_commands(cli, w.commands, h.workdir, None, "warm-up")
    cycles, records, missing = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        run_id = f"{w.name}:{seed}:{len(cycles)}"
        metrics, recs, missing = traced_cycle(w, h, cli, run_id, len(cycles) % 2 == 1)
        cycles.append(metrics)
        records.extend(recs)
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / f"{w.name}-seed{seed}.jsonl", "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    metrics = {name: statistics.median(c[name] for c in cycles) for name in PER_LAYER}
    metrics["cli.import_s"] = import_s
    return metrics, {"cycles": len(cycles), "unwrapped_calls": missing}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phkit" / "cli.py").is_file():
        print(f"bench: no phkit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    with harness() as h:
        w = workloads.build(args.workload, args.seed)
        with workspace(w, h):
            h.check_source()
            if args.trace:
                values, detail = trace_run(w, h, args.seconds, args.seed)
                units = PER_LAYER
            else:
                values, detail = timed_run(w, h, args.seconds)
                units = END_TO_END
            # The fixed reference program's time, so that a slow host shows.
            calibration = statistics.median(h.reference() for _ in range(3))

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "reference_s": calibration}
    print("# env " + json.dumps(env))
    print("# workload " + json.dumps({"name": w.name, "seed": args.seed, **w.info, **detail},
                                     ensure_ascii=False))
    failed = len(h.problems)
    for problem in h.problems[:20]:
        print("# FAILED " + problem)
    print(f"# ops_failed {failed / h.attempted:.4f} ({failed} of {h.attempted} commands)")
    for name, value in values.items():
        print(f"# {name:28} {value:14.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": h.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
