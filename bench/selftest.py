#!/usr/bin/env python3
"""Self-tests of the benchmark itself, on small corpora.

    python3 bench/selftest.py

They check that the generator is deterministic per seed, that every kind
of output check catches a wrong output and the harness counts it as a
failed operation, that the reference program runs, that traced and
untraced in-process runs print the same bytes, that the metric names match
BENCHMARK.json, and that the benchmark refuses to run without the phkit
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import corpus
import run
import spans
import workloads

SMALL = {
    "inline-batch": {"files": 2, "units": 80},
    "format-exchange": {"units": 120},
    "annotation-round": {"units": 150, "raw_lines": 30},
}


def small(name: str, seed: int = 3) -> workloads.Workload:
    return workloads.build(name, seed, SMALL[name])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in workloads.BUILDERS:
            with self.subTest(name):
                self.assertEqual(small(name, 3).files, small(name, 3).files)
                self.assertNotEqual(small(name, 3).files, small(name, 4).files)

    def test_every_planted_code_occurs(self):
        w = workloads.build("inline-batch", 5, {"files": 1, "units": 400})
        self.assertEqual(set(w.info["findings_planted"]), set(corpus.PLANTED_CODES))
        self.assertEqual(w.info["distinct_line_share"], 1.0)

    def test_annotators_share_most_lines(self):
        info = small("annotation-round").info
        self.assertGreater(info["ab_common_line_share"], 0.8)
        self.assertLess(info["ab_common_line_share"], 1.0)

    def test_kappa_reference(self):
        self.assertEqual(corpus.kappa(list("aabb"), list("aabb")), 1.0)
        self.assertAlmostEqual(corpus.kappa(list("aabb"), list("abab")), 0.0)
        self.assertIsNone(corpus.kappa(list("OO"), list("OO")))


def _drop_first_line(out: bytes) -> bytes:
    return out.split(b"\n", 1)[1]


def _first_json_int_plus_one(out: bytes) -> bytes:
    rec = json.loads(out)
    key = next(k for k, v in rec.items() if isinstance(v, int))
    rec[key] += 1
    return json.dumps(rec, ensure_ascii=False).encode("utf-8") + b"\n"


# A corruption per command kind, each the kind of slip a defect would cause.
CORRUPT = {
    "validate": _drop_first_line,  # one finding dropped
    "stats": _first_json_int_plus_one,
    "convert": lambda out: out[:-1],  # final newline lost
    "agree": lambda out: (_first_json_int_plus_one(out) if out.startswith(b"{")
                          else out.replace(b"matched: ", b"matched: 1", 1)),
    "segment": _drop_first_line,
}


class ChecksTest(unittest.TestCase):
    def test_wrong_output_counts_as_failed_operation(self):
        for name in workloads.BUILDERS:
            w = small(name)
            with run.harness() as h, run.workspace(w, h):
                for command in w.commands:
                    with self.subTest(name=name, argv=command.argv):
                        sample = h.phk(command)
                        self.assertIsNone(sample.problem)
                        wrong = CORRUPT[command.argv[0]](sample.out)
                        self.assertNotEqual(wrong, sample.out)
                        self.assertIsNotNone(command.check(wrong, h.workdir))
                        broken = workloads.Command(
                            command.metric, command.argv, command.inputs, command.status,
                            lambda out, wd, c=command.check: c(CORRUPT[command.argv[0]](out), wd))
                        self.assertIsNotNone(h.phk(broken).problem)
                self.assertEqual(len(h.problems), len(w.commands))
                self.assertEqual(h.attempted, 2 * len(w.commands))

    def test_reference_program_runs_and_prints_its_fixed_output(self):
        with run.harness() as h, run.workspace(small("format-exchange"), h):
            self.assertGreater(h.reference(), 0)

    def test_wrong_exit_status_counts_as_failed_operation(self):
        w = small("inline-batch")
        command = w.commands[0]
        wrong = workloads.Command(command.metric, command.argv, command.inputs,
                                  1 - command.status, command.check)
        with run.harness() as h, run.workspace(w, h):
            self.assertIsNotNone(h.phk(wrong).problem)


class TraceTest(unittest.TestCase):
    def test_traced_and_untraced_runs_print_the_same_bytes(self):
        cli = spans.import_cli(run.SRC)
        for name in workloads.BUILDERS:
            w = small(name)
            with run.harness() as h, run.workspace(w, h):
                plain = spans.run_commands(cli, w.commands, h.workdir, None, "plain")
                tracer = spans.Tracer()
                self.assertEqual(tracer.install(), [])
                try:
                    traced = spans.run_commands(cli, w.commands, h.workdir, tracer, "traced")
                finally:
                    tracer.uninstall()
                for command, p, t in zip(w.commands, plain, traced):
                    with self.subTest(name=name, argv=command.argv):
                        self.assertEqual(p[1], command.status)
                        self.assertIsNone(command.check(p[2], h.workdir))
                        self.assertEqual(spans.digest(p[2]), spans.digest(t[2]))
                self.assertTrue(tracer.spans)
                self.assertLessEqual(sum(tracer.self_times().values()),
                                     sum(e - s for n, s, e, _, _ in tracer.spans
                                         if n == spans.ROOT) + 1e-9)

    def test_traced_cycle_reports_every_layer_metric(self):
        cli = spans.import_cli(run.SRC)
        w = small("annotation-round")
        with run.harness() as h, run.workspace(w, h):
            metrics, records, missing = run.traced_cycle(w, h, cli, "t", False)
        self.assertEqual(h.problems, [])
        self.assertEqual(missing, [])
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertGreater(metrics["metrics.span_agreement_s"], 0)
        self.assertEqual(metrics["inline.emit_s"], 0)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.BUILDERS))

    def test_refuses_to_run_without_sources(self):
        lone = run.WORK_ROOT / f"lone-{os.getpid()}"
        try:
            shutil.copytree(run.BENCH_DIR, lone / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", lone)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "inline-batch", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=lone, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
