"""The per-file commands run their files on forked workers: the output,
the exit status and the processes left behind must be those of one worker."""

import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr
from itertools import islice
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phkit import cli, convert, readers, workers
from phkit.cli import main
from phkit.convert import to_columns, to_standoff
from phkit.inline import emit_document, emit_unit, unit_line_starts
from phkit.model import Document, Element, ElementType, LabelingUnit, PredicatePattern, Segment, Span

from .conftest import GOLDEN_PATH, child_env
from .strategies import documents
from .test_cli import _fuzz_inputs, run_encoded

COMMANDS = [
    ["parse"],
    ["parse", "--check"],
    ["validate"],
    ["validate", "--format", "records"],
    ["validate", "--strict"],
    ["stats"],
    ["stats", "--format", "records"],
    ["convert", "--to", "standoff"],
    ["convert", "--to", "columns"],
    ["convert", "--to", "inline"],
]

# Lists of the files made by ``_files``; each is a case the fan-out must
# end exactly where one worker ends.
CASES = {
    "all readable": ["golden", "records", "columns", "big"],
    "diagnostics in several files": ["broken", "golden", "broken2", "records", "big"],
    "missing file in the middle": ["golden", "broken", "missing", "records", "golden"],
    "P010 file": ["big", "golden", "bad", "golden"],
    "broken standoff record": ["golden", "bad record", "golden", "big"],
}

WORKERS = [1, 2, 8]  # 8: more than any case has files


def _files(tmp_path: Path, golden_doc) -> dict[str, str]:
    other = Document("other", ("# note",), (LabelingUnit("甲乙"), LabelingUnit("走来")))
    big = Document("big", golden_doc.metadata, golden_doc.units * 60)
    texts = {
        "golden": GOLDEN_PATH.read_text(encoding="utf-8"),
        "big": emit_document(big),
        "records": to_standoff(golden_doc) + "\n\n" + to_standoff(other) + "\n",
        "columns": to_columns(golden_doc),
        "broken": "#id: b\n[PRE-S 走]\n[SUB-W 王某\n[PRE-S 来]\n",
        "broken2": "[PRE-S 走]\n[PRE-S a\tb]\nx\ry[PRE-S a]\n",
        "bad record": to_standoff(golden_doc) + '\n{"id": 1}\n',
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name.replace(' ', '_')}.in"
        paths[name].write_text(text, encoding="utf-8")
    paths["bad"] = tmp_path / "bad.ann"
    paths["bad"].write_bytes(b"[PRE-S \xe8\xb5\xb0]\n[SUB-W \xff]\n")
    paths["missing"] = tmp_path / "missing.ann"
    return {name: str(path) for name, path in paths.items()}


@contextmanager
def _workers(count: int):
    """Runs the block as if this process could use ``count`` CPUs, and
    yields the pids of the workers forked meanwhile."""
    forked: list[int] = []
    real_fork = os.fork

    def fork() -> int:
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_usable_cpus", lambda: count)
        mp.setattr(os, "fork", fork)
        yield forked


def _run(argv: list[str]) -> tuple[int, str, str]:
    status, out, err = run_encoded(argv)
    return status, out.decode("utf-8", "surrogateescape"), err.decode("utf-8", "surrogateescape")


class _Digest:
    """A stdout that keeps only a hash of what it is given."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()

    def write(self, s: str) -> int:
        self.hash.update(s.encode())
        return len(s)

    def flush(self) -> None:
        pass


def _open_fds() -> list[str] | None:
    """The descriptors this process has open, None where they cannot be listed."""
    fds = Path("/proc/self/fd")
    return sorted(os.listdir(fds)) if fds.is_dir() else None


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _runs(argv: list[str], counts: list[int]) -> dict[int, tuple[tuple[int, str, str], int]]:
    """By worker count: the run of ``argv`` and the number of workers it
    forked. Each run leaves no descriptor open and no worker unreaped."""
    runs = {}
    for count in counts:
        fds = _open_fds()
        with _workers(count) as forked:
            runs[count] = _run(argv), len(forked)
        assert all(map(_reaped, forked))
        assert _open_fds() == fds  # no pipe end is left open
    return runs


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_any_worker_count_gives_the_one_worker_run(tmp_path, golden_doc, command, case):
    files = _files(tmp_path, golden_doc)
    runs = _runs(command + [files[name] for name in CASES[case]], WORKERS)
    for count, (run, forked) in runs.items():
        assert forked == (0 if count == 1 else min(count, len(CASES[case])))
        assert run == runs[1][0]
    assert "Traceback" not in runs[1][0][2]


def test_the_files_are_dealt_round_robin(tmp_path, golden_doc, monkeypatch):
    files = _files(tmp_path, golden_doc)
    paths = [files[name] for name in ("golden", "big", "records", "columns", "broken")]
    log = tmp_path / "reads.log"
    read_text = cli._read_text

    def logged(path: str) -> str:
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {paths.index(path)}\n")
        return read_text(path)

    monkeypatch.setattr(cli, "_read_text", logged)
    with _workers(2) as forked:
        _run(["validate", *paths])
    reads = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    by_worker = {pid: sorted(int(i) for p, i in reads if p == str(pid)) for pid in forked}
    assert list(by_worker.values()) == [[0, 2, 4], [1, 3]]


def test_a_file_named_dash_keeps_the_run_in_one_process(tmp_path, golden_doc, monkeypatch):
    files = _files(tmp_path, golden_doc)
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 0)  # an agree pair of any size
    inputs = {
        "[PRE-S 走][PRE-S 来]\n": ["validate", "--format", "records", files["golden"], "-",
                                  files["records"]],
        GOLDEN_PATH.read_text(encoding="utf-8"): ["agree", files["golden"], "-"],
    }
    outputs = []
    for stdin, argv in inputs.items():
        runs = []
        for count in (1, 2):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
            with _workers(count) as forked:
                runs.append(_run(argv))
            assert forked == []
        assert runs[0] == runs[1]
        outputs.append(runs[0][1])
    assert '"file":"-"' in outputs[0]
    assert "kappa: 1.0000" in outputs[1]  # agree read the golden text from stdin


def test_a_caller_running_other_threads_keeps_the_run_in_one_process(
    tmp_path, golden_doc, range_files, monkeypatch
):
    files = _files(tmp_path, golden_doc)
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 0)  # an agree pair of any size
    for argv in (
        ["convert", "--to", "standoff", files["golden"], files["big"], files["records"]],
        ["agree", *range_files["pair"]],
    ):
        with _workers(1):
            expected = _run(argv)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            with _workers(2) as forked:
                assert _run(argv) == expected
        finally:
            release.set()
            waiter.join(timeout=10)
        assert forked == []
        assert not waiter.is_alive()


def test_a_worker_that_dies_is_one_line_and_exit_2(tmp_path, golden_doc, monkeypatch):
    files = _files(tmp_path, golden_doc)
    parent = os.getpid()
    read_text = cli._read_text

    def read_or_die(path: str) -> str:
        if path == files["records"] and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read_text(path)

    monkeypatch.setattr(cli, "_read_text", read_or_die)
    with _workers(1):
        _, before, _ = _run(["convert", "--to", "columns", files["golden"], files["big"]])
    paths = [files["golden"], files["big"], files["records"], files["columns"]]
    with _workers(2) as forked:
        status, out, err = _run(["convert", "--to", "columns", *paths])
    assert (status, out) == (2, before)
    assert err == f"phk: {files['records']}: worker ended without a result\n"
    assert all(map(_reaped, forked))


def test_a_worker_that_dies_mid_file_leaves_the_frames_it_sent(tmp_path, golden_doc, monkeypatch):
    # Worker 0 dies in the middle of the third file, after it has sent some of it.
    files = _files(tmp_path, golden_doc)
    doc = Document("third", (), golden_doc.units * 60)
    third = tmp_path / "third.in"
    third.write_text(emit_document(doc), encoding="utf-8")
    paths = [files["golden"], files["big"], str(third)]
    with _workers(1):
        _, before, _ = _run(["convert", "--to", "columns", *paths[:2]])
    dying = 300  # the piece of the third file at which its worker is killed
    written = "".join(islice(convert.columns_pieces(doc), dying))
    parent = os.getpid()
    columns_pieces = convert.columns_pieces

    def pieces_or_die(doc: Document, *ends: bool) -> Iterator[str]:
        for n, piece in enumerate(columns_pieces(doc, *ends)):
            if n == dying and doc.id == "third" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            yield piece

    monkeypatch.setattr(convert, "columns_pieces", pieces_or_die)
    with _workers(2) as forked:
        status, out, err = _run(["convert", "--to", "columns", *paths])
    assert (status, err) == (2, f"phk: {third}: worker ended without a result\n")
    assert out.startswith(before)
    sent = out[len(before) :]
    # A prefix of what it wrote, short of it by less than the frame it held.
    assert written.startswith(sent)
    assert len(written) - workers._FRAME_CHARS < len(sent) < len(written)
    assert all(map(_reaped, forked))


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
@pytest.mark.parametrize("stdout", ["closed pipe", "full device"])
def test_no_worker_outlives_a_failed_stdout(tmp_path, golden_doc, monkeypatch, stdout):
    files = _files(tmp_path, golden_doc)
    if stdout == "closed pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        sink = open(write_end, "w", encoding="utf-8")
    else:
        sink = open("/dev/full", "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", sink)
    err = io.StringIO()
    try:
        with _workers(2) as forked, redirect_stderr(err):
            status = main(["convert", "--to", "columns", *[files["big"]] * 4])
    finally:
        sink.close()
    if stdout == "closed pipe":
        assert (status, err.getvalue()) == (0, "")
    else:
        assert (status, err.getvalue()) == (2, "phk: cannot write stdout: No space left on device\n")
    assert len(forked) == 2
    assert all(map(_reaped, forked))


def test_a_worker_far_ahead_waits_on_its_pipe(tmp_path, golden_doc, monkeypatch):
    # Worker 0 sleeps on its first file, so worker 1 runs through its six
    # big files meanwhile; what the parent holds of them is capped.
    files = _files(tmp_path, golden_doc)
    paths = [files["golden"], files["big"]] * 6
    parent = os.getpid()
    read_text = cli._read_text

    def slow_first(path: str) -> str:
        if os.getpid() != parent:
            tracemalloc.stop()  # traced only in the parent, where the test measures
            if path == files["golden"] and not slowed:
                slowed.append(path)
                time.sleep(1)
        return read_text(path)

    monkeypatch.setattr(cli, "_read_text", slow_first)
    runs = []
    for cap in (1 << 30, 1 << 14):
        slowed: list[str] = []
        monkeypatch.setattr(workers, "_HELD_BYTES", cap)
        digest = _Digest()
        monkeypatch.setattr(sys, "stdout", digest)
        with _workers(2):
            tracemalloc.start()
            try:
                status = main(["convert", "--to", "columns", *paths])
                runs.append((status, digest.hash.hexdigest(), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
    (*uncapped, uncapped_peak), (*capped, capped_peak) = runs
    assert capped == uncapped
    assert capped_peak < uncapped_peak / 2, (capped_peak, uncapped_peak)


def test_a_caller_that_ignores_sigchld_gets_the_one_worker_run(tmp_path, golden_doc):
    # Then the kernel reaps each worker itself, before the parent can.
    files = _files(tmp_path, golden_doc)
    argv = ["convert", "--to", "columns", files["golden"], files["big"], files["records"]]
    with _workers(1):
        expected = _run(argv)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with _workers(2) as forked:
            assert _run(argv) == expected
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forked) == 2


def test_no_more_workers_than_usable_cpus(tmp_path, golden_doc):
    assert cli._usable_cpus() == len(os.sched_getaffinity(0))
    files = _files(tmp_path, golden_doc)
    with _workers(3) as forked:
        _run(["stats", *[files["golden"]] * 5])
    assert len(forked) == 3


def test_the_readme_states_the_sizes_of_the_code():
    # README "Command line" is the one prose statement of both sizes.
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = " ".join(readme.split("## Command line", 1)[1].split("\n## ", 1)[0].split())
    split = re.findall(r"hold (\d+) KB or more together", section)
    held = re.findall(r"once they reach (\d+) MB", section)
    assert [int(kb) << 10 for kb in split] == [cli._SPLIT_BYTES]
    assert [int(mb) << 20 for mb in held] == [workers._HELD_BYTES]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_each_worker_starts_on_its_own_cpu_and_may_move(tmp_path, golden_doc, monkeypatch):
    files = _files(tmp_path, golden_doc)
    argv = ["stats", "--format", "records", *[files["golden"], files["big"]] * 2]
    with _workers(1):
        expected = _run(argv)
    cpus, parent, log = sorted(os.sched_getaffinity(0)), os.getpid(), tmp_path / "moves.log"
    set_affinity = os.sched_setaffinity

    def logged(pid: int, mask) -> None:
        if os.getpid() != parent:
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {sorted(mask)}\n")
        set_affinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", logged)
    with _workers(4) as forked:
        assert _run(argv) == expected
    moves = [line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]
    by_worker = [[mask for pid, mask in moves if pid == str(worker)] for worker in forked]
    assert by_worker == [[str([cpus[w % len(cpus)]]), str(cpus)] for w in range(4)]

    def refused(pid: int, mask) -> None:
        raise OSError(errno.EINVAL, "no such CPU")

    monkeypatch.setattr(os, "sched_setaffinity", refused)
    with _workers(4):
        assert _run(argv) == expected


@given(first=_fuzz_inputs, second=_fuzz_inputs, command=st.sampled_from(COMMANDS))
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_bytes_in_several_files_give_the_one_worker_run(tmp_path, first, second, command):
    paths = [tmp_path / os.fsdecode(b"first\xff.in"), tmp_path / "second.in"]  # one not UTF-8
    paths[0].write_bytes(first)
    paths[1].write_bytes(second)
    argv = command + [str(paths[0]), str(GOLDEN_PATH), str(paths[1])]
    runs = []
    for count in (1, 2):
        with _workers(count):
            runs.append(_run(argv))
    assert runs[0][0] in (0, 1, 2, 3)
    assert runs[1] == runs[0]


# The commands that read one standoff or column file in ranges.
RANGE_COMMANDS = [
    ["stats"],
    ["stats", "--format", "records"],
    ["convert", "--to", "standoff"],
    ["convert", "--to", "columns"],
    ["convert", "--to", "inline"],
]
# ``agree``, which reads an inline pair in ranges: each match criterion,
# ``--normalize-rai`` and both formats.
AGREE_COMMANDS = [
    ["agree"],
    ["agree", "--format", "records"],
    ["agree", "--match", "type"],
    ["agree", "--match", "head", "--format", "records"],
    ["agree", "--match", "exact", "--normalize-rai"],
]


def _units_json(doc: Document) -> str:
    """The ``"units":[…]`` member of the standoff record of ``doc``."""
    record = to_standoff(doc)
    return record[record.index('"units":') : -1]


def _range_inputs(golden_doc) -> dict[str, str]:
    """One-file inputs for the range run, by case: one document of 30 units,
    and the forms on which a range must fail, so that one process runs."""
    doc = Document("ranges", ("# note",), golden_doc.units * 3)
    record, columns = to_standoff(doc), to_columns(doc)
    units, one_unit = _units_json(doc), _units_json(Document("", (), doc.units[:1]))
    header = '"id":"ranges","meta":["# note"]'
    assert record == "{" + header + "," + units + "}"
    last_kind = record.rindex('"kind":"') + len('"kind":"')
    middle = record.index('"end":', len(record) // 2) + len('"end":')
    bad_middle = record[:middle] + "99" + record[middle:]
    bad_last = record[:last_kind] + "X" + record[last_kind:]
    last_start = bad_middle.rindex('"start":')
    first_row = columns.index("\n", columns.index("# meta")) + 1
    last_unit = columns.rindex("\n\n") + 2
    second_row = columns.index("\n", last_unit) + 1
    last_row = columns.rindex("\n", 0, -1) + 1
    return {
        "standoff": record + "\n",
        "columns": columns,
        # Each element record after the first of its unit makes a false cut.
        "element text first": record.replace('{"kind":', '{"text":"y","kind":') + "\n",
        "keys units first": "{" + units + "," + header + "}\n",
        "keys meta first": '{"meta":["# note"],"id":"ranges",' + units + "}\n",
        "units repeated, the last short": "{" + header + "," + units + "," + one_unit + "}\n",
        "units repeated, the last long": "{" + header + "," + one_unit + "," + units + "}\n",
        "key after units": "{" + header + "," + units + ',"x":1}\n',
        "broken record end": record[:-1] + "\n",
        "bad unit in the last range": bad_last + "\n",
        "bad unit in the middle": bad_middle + "\n",
        "bad row in the last range": columns[:last_row] + "甲\tO\tB\n",
        # Each error comes first in the text, and would not in json.loads order.
        "bad unit, then a syntax error": bad_middle[:last_start] + '"start" '
        + bad_middle[last_start + len('"start":') :] + "\n",
        "bad unit, then a key after units": bad_middle[:-1] + ',"meta":[1]}\n',
        "id repeated, the first bad": '{"id":5,' + record[1:] + "\n",
        "units repeated, the first bad": '{"units":[{"text":""}],' + record[1:] + "\n",
        "# unit first, bad row later": columns[:first_row] + "#\tO\tO\n"
        + columns[first_row:last_row] + "甲\tO\tB\n",
        # The id and metadata rules are checked when the record closes, so the
        # bad unit's error is the file's, though range 0 fails on the rule.
        "#id: without an id, bad unit later": '{"meta":["#id: x"],'
        + bad_last[bad_last.index('"units":') :] + "\n",
        # Each element record after the first of its unit makes a false cut,
        # and a range from one fails with C004: its "text" is not a string.
        "element text a number": record.replace('{"kind":', '{"text":5,"kind":') + "\n",
        "meta in a late unit": columns[:second_row] + "# meta\t# late\n" + columns[second_row:],
        # The first range is the header and blank lines, with no unit.
        "blank lines after the header": columns.replace("\n", "\n" * len(columns), 1),
        "crlf columns": columns.replace("\n", "\r\n"),
        "bom standoff": "\ufeff" + record + "\n",
        "bom columns": "\ufeff" + columns,
        "two records": record + "\n\n" + record + "\n",
        "two column documents": columns + columns,
        "crlf standoff": record + "\r\n",
    }


def _unmarked(element: re.Match) -> str:
    return re.sub(r"[-()]", "", element[1]) + element[2]


def _pair_inputs(golden_doc) -> dict[str, tuple[str, str]]:
    """Inline pairs for ``agree`` in ranges, by case: annotators A and B on
    40 units, B with other subtags, kinds, elements and heads in 4 units of
    5, and the forms on which a range or the cut must fail."""
    lines_a = [emit_unit(unit) for unit in golden_doc.units * 4]
    changes = [
        lambda line: line,
        lambda line: line.replace("[PRE-M ", "[PRE-S ", 1),
        lambda line: line.replace("[COM-W ", "[RAI-W "),
        # The last element's markup dropped, and a head moved off its place.
        lambda line: re.sub(r"\[[-A-Z]+ ([^]]*)\]([^[]*)$", _unmarked, line),
        lambda line: re.sub(r"([^-[( ]+)\(([^)]+)\)", r"(\1)\2", line, count=1),
    ]
    lines_b = [changes[i % 5](line) for i, line in enumerate(lines_a)]
    other = emit_unit(LabelingUnit("另一行"))
    middle = len(lines_a) // 2

    def text(lines: list[str], header: str = "#id: pair\n# note\n") -> str:
        return header + "".join(line + "\n" for line in lines)

    def at(lines: list[str], i: int, line: str, drop: int = 1) -> list[str]:
        return lines[:i] + [line] + lines[i + drop :]

    a, b = text(lines_a), text(lines_b)
    return {
        "pair": (a, b),
        "pair, blank lines": (
            "\n\n" + a.replace("]\n", "]\n\n"),
            text(lines_b[:7] + ["", "\r"] + lines_b[7:] + ["", ""]),
        ),
        "pair, crlf": (a.replace("\n", "\r\n"), b),
        "pair, bom": ("\ufeff" + a, "\ufeff" + b),
        "broken line in a": (text(at(lines_a, middle + 5, "[PRE-S 走")), b),
        "broken line in b": (a, text(at(lines_b, 3, "[PRE-S 走]]"))),
        # At the same unit line, so that the ranges hold as many units.
        "broken lines in both": (
            text(at(lines_a, 30, "[PRE-S 走")), text(at(lines_b, 30, "x\ty")),
        ),
        "agr001 in a middle range": (a, text(at(lines_b, middle, other))),
        "b one unit shorter": (a, text(lines_b[:-1])),
        "b one unit longer": (a, text(lines_b + [other])),
        "metadata after units": (text(at(lines_a, middle, "# late", 0)), b),
        "id line after an empty id": (
            a, text(at(lines_b, middle, "#id: late", 0), "#id:\n# note\n"),
        ),
    }


RANGE_CASES = [
    "standoff", "columns", "element text first", "keys units first", "keys meta first",
    "units repeated, the last short", "units repeated, the last long", "key after units",
    "broken record end", "bad unit in the last range", "bad unit in the middle",
    "bad row in the last range", "bad unit, then a syntax error",
    "bad unit, then a key after units", "id repeated, the first bad",
    "units repeated, the first bad", "# unit first, bad row later",
    "#id: without an id, bad unit later", "element text a number",
    "meta in a late unit", "blank lines after the header", "crlf columns", "bom standoff",
    "bom columns", "two records", "two column documents", "crlf standoff",
]
PAIR_CASES = [
    "pair", "pair, blank lines", "pair, crlf", "pair, bom", "broken line in a",
    "broken line in b", "broken lines in both", "agr001 in a middle range",
    "b one unit shorter", "b one unit longer", "metadata after units",
    "id line after an empty id",
]


def _range_runs(commands: list[list[str]], cases: list[str]) -> list:
    """Each of ``commands`` on each of ``cases``, with ids as a stacked
    parametrization would give them."""
    return [
        pytest.param(command, case, id=f"{' '.join(command)}-{case}")
        for case in cases
        for command in commands
    ]


RANGE_RUNS = _range_runs(RANGE_COMMANDS, RANGE_CASES) + _range_runs(AGREE_COMMANDS, PAIR_CASES)


@pytest.fixture(scope="module")
def range_files(tmp_path_factory) -> dict[str, list[str]]:
    """The files of each one-file case and each pair case, by case."""
    from phkit import parse_document

    golden_doc = parse_document(GOLDEN_PATH.read_text(encoding="utf-8")).document
    folder = tmp_path_factory.mktemp("ranges")
    inputs = {case: (text,) for case, text in _range_inputs(golden_doc).items()}
    pairs = _pair_inputs(golden_doc)
    assert list(inputs) == RANGE_CASES and list(pairs) == PAIR_CASES
    paths = {}
    for case, texts in {**inputs, **pairs}.items():
        paths[case] = []
        for side, text in zip("ab", texts):
            name = case.replace(" ", "_").replace(",", "")
            path = folder / (f"{name}.in" if len(texts) == 1 else f"{name}.{side}.ann")
            path.write_text(text, encoding="utf-8", newline="")
            paths[case].append(str(path))
    return paths


# The cases whose ranges all decode; the parent reads every other file itself.
DECODED = {
    "standoff", "columns", "keys meta first", "units repeated, the last long", "bom standoff",
    "bom columns", "pair", "pair, blank lines", "pair, crlf", "pair, bom", "crlf standoff",
}


@pytest.mark.parametrize("command, case", RANGE_RUNS)
def test_any_worker_count_reads_one_file_as_one_process(range_files, monkeypatch, command, case):
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 0)
    parent, read, reads = os.getpid(), cli._read, []

    def logged(*args, **kwargs):
        if os.getpid() == parent:
            reads.append(args[0])
        return read(*args, **kwargs)

    monkeypatch.setattr(cli, "_read", logged)
    files = range_files[case]
    runs = _runs(command + files, WORKERS)
    for count, (run, forked) in runs.items():
        assert run == runs[1][0], count
        if case in DECODED:  # a worker per range, one range per CPU
            assert forked == (0 if count == 1 else count)
    if case in ("element text first", "element text a number"):
        assert reads == files * 2  # 2 ranges decode; of 8, one is cut at an element
    else:
        assert reads == files * (1 if case in DECODED else len(WORKERS))
    assert "Traceback" not in runs[1][0][2]


@given(
    run=st.sampled_from([
        (command, case)
        for command, case in (param.values for param in RANGE_RUNS)
        if case in {
            "standoff", "columns", "element text first", "element text a number",
            "bad unit in the middle", "bad unit, then a syntax error",
            # The key orders that range_bounds does not decline.
            "keys units first", "keys meta first", "units repeated, the last short",
            "units repeated, the last long", "crlf standoff",
            # The pairs that pair_bounds cuts.
            "pair", "pair, blank lines", "pair, crlf", "pair, bom", "broken line in a",
            "broken lines in both", "agr001 in a middle range",
        }
    ]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_any_cuts_give_the_one_process_run(range_files, run, data):
    # Ranges cut at any candidates, false ones among them, up to 8 ranges;
    # a pair at any unit lines, the same ones in A and B or, as often, not.
    command, case = run
    real = readers.range_bounds

    def any_bounds(text: str, fmt: str, count: int) -> list[int]:
        bounds = real(text, fmt, 2)
        cut, offset = readers._CUTS[fmt]
        found = (m.start() + offset for m in re.finditer(re.escape(cut), text))
        candidates = [at for at in found if bounds[0] < at < bounds[-1]]
        cuts = st.lists(st.sampled_from(candidates), min_size=1, max_size=7, unique=True)
        cuts = data.draw(cuts)
        return [bounds[0], *sorted(cuts), bounds[-1]]

    def any_pair_bounds(texts: list[str], count: int) -> list[list[int]]:
        starts = [unit_line_starts(text) for text in texts]
        units = min(map(len, starts))
        size = data.draw(st.integers(1, 7))
        indexes = st.lists(st.integers(1, units - 1), min_size=size, max_size=size, unique=True)
        cuts = [sorted(data.draw(indexes))] * 2
        if data.draw(st.booleans()):
            cuts[1] = sorted(data.draw(indexes))
        return [[0, *(at[u] for u in c), len(t)] for t, at, c in zip(texts, starts, cuts)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SPLIT_BYTES", 0)
        mp.setattr(readers, "range_bounds", any_bounds)
        mp.setattr(workers, "pair_bounds", any_pair_bounds)
        runs = _runs(command + range_files[case], [1, 2, 8])
    assert runs[2][0] == runs[8][0] == runs[1][0]
    assert runs[2][1] > 1


def test_the_pair_is_cut_at_the_same_unit_lines(range_files):
    for case in ("pair", "pair, blank lines", "pair, crlf", "pair, bom", "broken line in a"):
        texts = [cli._read_text(path) for path in range_files[case]]
        for count in (2, 3, 8):
            bounds = workers.pair_bounds(texts, count)
            assert [len(at) for at in bounds] == [count + 1] * 2
            for text, at in zip(texts, bounds):
                starts = unit_line_starts(text)
                assert at[0] == 0 and at[-1] == len(text)
                assert [starts.index(cut) for cut in at[1:-1]] == [
                    len(starts) * k // count for k in range(1, count)
                ]
    for case in ("b one unit shorter", "b one unit longer", "metadata after units",
                 "id line after an empty id"):
        texts = [cli._read_text(path) for path in range_files[case]]
        assert workers.pair_bounds(texts, 2) == []
    assert workers.pair_bounds(["x\n", "x\n"], 2) == []  # one unit: no second range


def test_the_first_range_that_fails_stops_the_others(range_files, monkeypatch, tmp_path):
    # Range 1 would take 30 s to decode; range 0 fails once range 1 has started.
    real, started = workers.read_range, tmp_path / "started"

    def stalled(text: str, fmt: str, bounds: list[int], k: int, *known):
        if k == 1:
            (tmp_path / "pid").write_text(str(os.getpid()))
            (tmp_path / "pid").rename(started)
            time.sleep(30)
            return real(text, fmt, bounds, k, *known)
        for _ in range(2000):
            if started.exists():
                break
            time.sleep(0.01)
        raise ValueError("range 0 does not decode")

    parent, read, alive = os.getpid(), cli._read, []

    def checked(*args, **kwargs):
        if os.getpid() == parent and started.exists():  # the file read in one process
            try:
                os.kill(int(started.read_text()), 0)
                alive.append(True)
            except ProcessLookupError:  # killed and reaped
                alive.append(False)
        return read(*args, **kwargs)

    monkeypatch.setattr(cli, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(workers, "read_range", stalled)
    monkeypatch.setattr(cli, "_read", checked)
    begun = time.monotonic()
    runs = _runs(["stats", *range_files["standoff"]], [1, 2])
    assert time.monotonic() - begun < 10
    assert runs[2] == (runs[1][0], 2)
    assert runs[1][0][0] == 0
    assert alive == [False]


@pytest.mark.parametrize(
    "command, case",
    _range_runs(RANGE_COMMANDS, ["standoff", "columns"]) + _range_runs(AGREE_COMMANDS, ["pair"]),
)
def test_a_range_worker_that_dies_before_its_verdict_gives_the_one_process_run(
    range_files, monkeypatch, command, case
):
    parent, real = os.getpid(), workers.read_range

    def dying(text: str, fmt: str, bounds: list[int], k: int, *known):
        if k == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(text, fmt, bounds, k, *known)

    monkeypatch.setattr(cli, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(workers, "read_range", dying)
    runs = _runs(command + range_files[case], [1, 2])
    assert runs[2] == (runs[1][0], 2)
    assert runs[1][0][0] == 0


@pytest.mark.parametrize("command", RANGE_COMMANDS, ids=" ".join)
def test_one_file_below_the_range_size_or_inline_forks_nothing(tmp_path, golden_doc, command):
    files = _files(tmp_path, golden_doc)
    assert os.path.getsize(files["records"]) < cli._SPLIT_BYTES
    for name in ("records", "columns"):
        assert _runs(command + [files[name]], [2])[2][1] == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SPLIT_BYTES", 0)
        for name in ("big", "golden"):  # inline, read in one process at any size
            assert _runs(command + [files[name]], [2])[2][1] == 0


@pytest.mark.parametrize(
    "argv, split",
    [
        (["parse", "{path}"], None),
        (["stats", "{path}.jsonl"], None),
        (["convert", "--to", "inline", "{path}.jsonl"], None),
        (["agree", "{path}", "{path}"], None),
        # Pairs of any size that the range gate reads, sniffs and keeps here.
        (["agree", "{path}.jsonl", "{path}.jsonl"], 0),
        (["agree", "--from", "standoff", "{path}.jsonl", "{path}.jsonl"], 0),
        (["agree", "{path}.cols", "{path}.cols"], 0),
        (["agree", "--from", "columns", "{path}.cols", "{path}.cols"], 0),
    ],
)
def test_a_one_file_run_below_the_range_size_does_not_load_the_workers(tmp_path, argv, split):
    path = tmp_path / "empty.ann"
    path.write_bytes(b"")
    (tmp_path / "empty.ann.jsonl").write_text('{"id":"x","units":[{"text":"a"}]}\n')
    (tmp_path / "empty.ann.cols").write_text("# doc x\na\tO\tO\n")
    # On two usable CPUs, with a fork that ends the run with status 8.
    code = (
        "import os, sys; from phkit import cli; cli._SPLIT_BYTES = int(sys.argv[1]); "
        "cli._usable_cpus = lambda: 2; os.fork = lambda: os._exit(8); "
        "status = cli.main(sys.argv[2:]); sys.stdout.flush(); "
        "sys.exit(status if 'phkit.workers' not in sys.modules else 9)"
    )
    argv = [str(cli._SPLIT_BYTES if split is None else split)] + [
        arg.format(path=path) for arg in argv
    ]
    child = subprocess.run(
        [sys.executable, "-c", code, *argv], env=child_env(), capture_output=True, timeout=60
    )
    assert (child.returncode, child.stderr) == (0, b"")


@pytest.mark.parametrize("files, cpus", [(2, 8), (3, 2), (4, 3)])
def test_several_files_fork_a_worker_per_file_up_to_the_cpus(
    range_files, monkeypatch, files, cpus
):
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 0)  # the file fan-out, never ranges
    paths = [*range_files["standoff"], *range_files["columns"]] * 2
    for command in RANGE_COMMANDS:
        runs = _runs(command + paths[:files], [1, cpus])
        assert runs[cpus] == (runs[1][0], min(files, cpus))


def test_inline_output_of_a_file_of_many_documents_emits_at_most_two(
    tmp_path, golden_doc, monkeypatch
):
    path = tmp_path / "many.jsonl"
    path.write_text(
        "".join(to_standoff(Document(f"d{i}", (), golden_doc.units[:1])) + "\n" for i in range(50)),
        encoding="utf-8",
    )
    emitted = []

    def counted(doc: Document) -> str:
        emitted.append(doc.id)
        return emit_document(doc)

    monkeypatch.setattr(cli, "emit_document", counted)
    with _workers(1) as forked:
        status, out, err = _run(["convert", "--to", "inline", str(path)])
    assert (status, out, forked) == (2, "", [])
    assert err == "phk: inline output holds a single document per stream\n"
    assert len(emitted) <= 2


FORMATS = ("inline", "standoff", "columns")


def _halved(doc: Document) -> Document:
    """``doc`` as a second annotator might give it: each unit keeps its
    text and the first half of its elements, and at least the first when
    its text starts with "#", which only an element may cover there."""
    units = (
        LabelingUnit(u.text, u.elements[: max(len(u.elements) // 2, u.text.startswith("#"))])
        for u in doc.units
    )
    return Document(doc.id, doc.metadata, tuple(units))


def _stored(folder: Path, name: str, doc: Document) -> dict[str, str]:
    """``doc`` stored in each format, by format: the path of its file."""
    texts = {
        "inline": emit_document(doc),
        "standoff": to_standoff(doc) + "\n",
        "columns": to_columns(doc),
    }
    paths = {}
    for fmt, text in texts.items():
        paths[fmt] = str(folder / f"{name}.{fmt}")
        Path(paths[fmt]).write_text(text, encoding="utf-8", newline="")
    return paths


def _records(out: str) -> list[tuple]:
    """The (unit, code, start, end) of each ``validate --format records`` line."""
    rows = [json.loads(line) for line in out.splitlines()]
    return [(r["unit"], r["code"], r.get("start"), r.get("end")) for r in rows]


def _assert_one_answer_per_format(
    a: dict[str, str], b: dict[str, str], splits: tuple[int, ...]
) -> set[tuple]:
    """``stats``, ``agree`` and ``validate --format records`` answer alike
    whichever format each file is stored in, at 1, 2 and 8 workers, with
    ``cli._SPLIT_BYTES`` at each of ``splits``. Returns the runs, as
    (command, format, …), that forked workers."""
    commands = {
        ("stats", fmt): (["stats", a[fmt]], lambda run: run[:2]) for fmt in FORMATS
    }
    commands.update({
        ("validate", fmt): (
            ["validate", "--format", "records", a[fmt]], lambda run: (run[0], _records(run[1]))
        )
        for fmt in FORMATS
    })
    commands.update({
        ("agree", fa, fb): (["agree", "--format", "records", a[fa], b[fb]], lambda run: run[:2])
        for fa in FORMATS
        for fb in FORMATS
    })
    answers: dict[str, set] = {"stats": set(), "validate": set(), "agree": set()}
    forking = set()
    for key, (argv, answer) in commands.items():
        for split in splits:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_SPLIT_BYTES", split)
                for run, forked in _runs(argv, WORKERS).values():
                    assert "Traceback" not in run[2]
                    answers[key[0]].add(repr(answer(run)))
                    if forked:
                        forking.add(key)
    assert {command: len(seen) for command, seen in answers.items()} == dict.fromkeys(answers, 1)
    return forking


# One unit of one element that covers its leading "#": halving must keep it.
HASH_FIRST = Document(units=(LabelingUnit("#0", (Element(
    ElementType.PRE, Segment(Span(1, 2)), Segment(Span(0, 1)), PredicatePattern.SINGLETON
),)),))


@given(doc=documents())
@example(doc=HASH_FIRST)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_corpus_reads_alike_in_every_format(tmp_path, doc):
    a, b = _stored(tmp_path, "a", doc), _stored(tmp_path, "b", _halved(doc))
    _assert_one_answer_per_format(a, b, (cli._SPLIT_BYTES, 0))


def test_a_corpus_large_enough_to_cut_reads_alike_in_every_format(tmp_path, golden_doc):
    # 4,800 units: A's smallest file (columns) is 790 KB and the inline pair
    # 540 KB, so every file and pair is cut at the unpatched value, and
    # patched to 0 it would take the same path.
    doc = Document("big", golden_doc.metadata, golden_doc.units * 480)
    a, b = _stored(tmp_path, "a", doc), _stored(tmp_path, "b", _halved(doc))
    assert os.path.getsize(a["columns"]) >= cli._SPLIT_BYTES
    assert os.path.getsize(a["inline"]) + os.path.getsize(b["inline"]) >= cli._SPLIT_BYTES
    assert _assert_one_answer_per_format(a, b, (cli._SPLIT_BYTES,)) == {
        ("stats", "standoff"), ("stats", "columns"), ("agree", "inline", "inline")
    }
