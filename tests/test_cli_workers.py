"""The per-file commands run their files on forked workers: the output,
the exit status and the processes left behind must be those of one worker."""

import hashlib
import io
import os
import signal
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr
from itertools import islice
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phkit import cli, convert, workers
from phkit.cli import main
from phkit.convert import to_columns, to_standoff
from phkit.inline import emit_document
from phkit.model import Document, LabelingUnit

from .conftest import GOLDEN_PATH
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


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_any_worker_count_gives_the_one_worker_run(tmp_path, golden_doc, command, case):
    files = _files(tmp_path, golden_doc)
    argv = command + [files[name] for name in CASES[case]]
    runs = {}
    for count in WORKERS:
        fds = _open_fds()
        with _workers(count) as forked:
            runs[count] = _run(argv)
        assert len(forked) == (0 if count == 1 else min(count, len(CASES[case])))
        assert all(map(_reaped, forked))
        assert _open_fds() == fds  # no pipe end is left open
    assert runs[2] == runs[1]
    assert runs[8] == runs[1]
    assert "Traceback" not in runs[1][2]


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
    argv = ["validate", "--format", "records", files["golden"], "-", files["records"]]
    runs = []
    for count in (1, 2):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO("[PRE-S 走][PRE-S 来]\n".encode())))
        with _workers(count) as forked:
            runs.append(_run(argv))
        assert forked == []
    assert runs[0] == runs[1]
    assert '"file":"-"' in runs[0][1]


def test_a_caller_running_other_threads_keeps_the_run_in_one_process(tmp_path, golden_doc):
    files = _files(tmp_path, golden_doc)
    argv = ["convert", "--to", "standoff", files["golden"], files["big"], files["records"]]
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

    def pieces_or_die(doc: Document) -> Iterator[str]:
        for n, piece in enumerate(columns_pieces(doc)):
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
