"""The forked workers of ``phk``'s per-file commands, and where and how
the text of one file, or of ``agree``'s pair, is cut into ranges of units.

``cli`` imports this module only for a run that fans out or may read in
ranges (see the ``cli`` docstring), so that a one-file command below the
range size, or an ``agree`` pair below it, does not compile it. A job is
a name, for messages, and a call: a file, or a range of one file or pair.
Worker ``w`` of ``count`` runs jobs ``w``, ``w + count``, … with its
``sys.stdout`` and ``sys.stderr`` replaced by frames sent over a pipe.
The parent walks the jobs in order: it writes job ``i``'s frames, taken
from worker ``i % count``'s queue, through its own ``sys.stdout`` and
stderr, and stops at the first job that fails. The ranges of one file are
all or nothing: at the first range that does not decode, the parent stops
the workers and reads the file itself.
"""

from __future__ import annotations

import os
import pickle
import re
import select
import signal
import sys
from collections import deque
from functools import partial
from itertools import groupby
from typing import Callable, Iterator, NoReturn, TypeVar

from .cli import _NON_BLANK, EXIT_PARSE, EXIT_USAGE, CliError, _to_stderr
from .inline import parse_document
from .model import Document

T = TypeVar("T")

# A worker sends its output on once it holds this many characters, so a
# frame is a few dozen KB (three bytes per character of Chinese text).
_FRAME_CHARS = 1 << 14
_STDOUT, _STDERR, _END = b"o", b"e", b"x"  # frame kinds
# The most the parent holds of frames it has not written, give or take a read.
_HELD_BYTES = 1 << 22


class _Frames:
    """A worker's stdout and stderr text, sent to the parent over one pipe.

    A frame is a kind byte, a 4-byte big-endian length and the payload: the
    UTF-8 text of one run of stdout or stderr writes, or the pickled
    ``(result, error)`` that ends a file. A file's last frames go in one
    write with its end frame, so a small file costs one write.
    """

    def __init__(self, fd: int):
        self.fd = fd
        self.writes: list[tuple[bytes, str]] = []  # (kind, text), not sent yet
        self.size = 0  # their characters

    def write(self, kind: bytes, text: str) -> None:
        self.writes.append((kind, text))
        self.size += len(text)
        if self.size >= _FRAME_CHARS:
            self.send()

    def send(self, end: bytes | None = None) -> None:
        """Send the writes held, a frame per run of one kind, and then the
        end frame ``end`` of the file, if given."""
        frames = [
            # surrogatepass: a path from argv may hold surrogate escapes
            (kind, "".join(text for _, text in run).encode("utf-8", "surrogatepass"))
            for kind, run in groupby(self.writes, lambda write: write[0])
        ]
        if end is not None:
            frames.append((_END, end))
        data = memoryview(b"".join(k + len(p).to_bytes(4, "big") + p for k, p in frames))
        self.writes.clear()
        self.size = 0
        while data:
            data = data[os.write(self.fd, data):]


class _Stream:
    """One of a worker's ``sys.stdout`` and ``sys.stderr``."""

    def __init__(self, frames: _Frames, kind: bytes):
        self.frames = frames
        self.kind = kind

    def write(self, text: str) -> int:
        self.frames.write(self.kind, text)
        return len(text)

    def flush(self) -> None:
        pass


def _start_on(cpu: int) -> None:
    """Move this process to the ``cpu``-th usable CPU, then let it run on
    any of them again. Left to the kernel, a forked worker may stay on its
    parent's CPU, beside the other workers, while another CPU idles; moved,
    it still goes wherever the kernel sends it later."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[cpu % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no CPU affinity here: where the kernel puts it
        pass


def _work(jobs: list[tuple[str, Callable[[], object]]], fd: int, cpu: int) -> NoReturn:
    """The life of a worker, started on the ``cpu``-th usable CPU: each of
    ``jobs`` with its stdout and stderr sent over ``fd``, each job ended by
    its result or its CliError. It stops after a CliError, as the parent
    does, and never returns."""
    code = 1
    try:
        _start_on(cpu)
        frames = _Frames(fd)
        sys.stdout, sys.stderr = _Stream(frames, _STDOUT), _Stream(frames, _STDERR)
        for _, job in jobs:
            try:
                end = (job(), None)
            except CliError as exc:
                end = (None, (exc.status, str(exc)))
            frames.send(pickle.dumps(end, pickle.HIGHEST_PROTOCOL))
            if end[1] is not None:
                break
        code = 0
    finally:
        # Whatever happened, a worker never runs its parent's code again; a
        # job it leaves without an end frame is reported by the parent.
        os._exit(code)


def _read_frames(fds: list[int], queues: dict[int, deque], starts: dict[int, bytearray]) -> int:
    """Wait until some of ``fds`` can be read, read them, and move each whole
    frame read into its pipe's queue; a pipe found closed leaves ``starts``.
    Returns the bytes of the payloads queued."""
    queued = 0
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    for fd, _ in poller.poll():
        data = os.read(fd, 1 << 16)
        if not data:
            del starts[fd]
            continue
        buf, at = starts[fd], 0
        buf += data
        while len(buf) >= at + 5 and len(buf) >= (
            end := at + 5 + int.from_bytes(buf[at + 1 : at + 5], "big")
        ):
            queues[fd].append((bytes(buf[at : at + 1]), bytes(buf[at + 5 : end])))
            queued += end - at - 5
            at = end
        del buf[:at]
    return queued


def _stop(read_ends: list[int], pids: list[int]) -> None:
    """Close the pipes, kill and reap the workers, and forget both, so that
    a second call does nothing."""
    for fd in read_ends:
        os.close(fd)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # the caller ignores SIGCHLD
            pass
    read_ends.clear()
    pids.clear()


def fan_out(
    jobs: list[tuple[str, Callable[[], T]]], count: int, whole: Callable[[], T] | None = None
) -> Iterator[T]:
    """``cli._each_file`` on ``count`` forked workers; worker ``w`` runs jobs
    ``w``, ``w + count``, … The parent walks the jobs in order: it writes
    each frame of job ``i`` from worker ``i % count``'s queue, and yields
    the job's result at its end frame. It splits the frames out of every
    worker's pipe as they arrive; once it holds ``_HELD_BYTES`` or more of
    them, it reads only the due job's worker, so that a worker far ahead
    waits on its pipe.

    ``whole`` is given for the ranges of one file, a job per worker, each
    of which writes nothing before it has decoded its range, and is that
    file read in this process. A worker's first frame is then its verdict:
    output or a result says the range decoded, a CliError or a pipe closed
    first says it did not. The parent writes nothing until every worker has
    given its verdict; a worker that has decoded meanwhile waits on its
    pipe. At the first verdict that a range did not decode, the parent
    stops waiting, kills and reaps the workers, and yields ``whole()``.
    """
    pids: list[int] = []
    read_ends: list[int] = []  # by worker
    try:
        for w in range(count):
            try:
                read_end, write_end = os.pipe()
                read_ends.append(read_end)
                try:
                    pid = os.fork()
                except OSError:
                    os.close(write_end)
                    raise
            except OSError as exc:
                raise CliError(EXIT_USAGE, f"cannot start a worker: {exc.strerror or exc}") from None
            if pid == 0:
                for fd in read_ends:  # its own included
                    os.close(fd)
                _work(jobs[w::count], write_end, w)
            pids.append(pid)
            os.close(write_end)
        queues = {fd: deque() for fd in read_ends}  # (kind, payload) frames not written yet
        starts = {fd: bytearray() for fd in read_ends}  # of the open pipes: a frame's start
        held, out = 0, sys.stdout.write  # held: the bytes of the queued payloads
        while whole is not None and (waiting := [fd for fd in starts if not queues[fd]]):
            held += _read_frames(waiting, queues, starts)
            if any(  # a verdict that the range did not decode
                queue[0][0] == _END and pickle.loads(queue[0][1])[1] is not None
                if queue else fd not in starts
                for fd, queue in queues.items()
            ):
                _stop(read_ends, pids)
                yield whole()
                return
        for i, (name, _) in enumerate(jobs):
            due = read_ends[i % count]
            while True:
                while not queues[due]:
                    if due not in starts:
                        raise CliError(EXIT_USAGE, f"{name}: worker ended without a result")
                    fds = list(starts) if held < _HELD_BYTES else [due]
                    held += _read_frames(fds, queues, starts)
                kind, payload = queues[due].popleft()
                held -= len(payload)
                if kind == _END:
                    break
                if kind == _STDOUT:
                    out(payload.decode("utf-8", "surrogatepass"))
                else:
                    _to_stderr(payload.decode("utf-8", "surrogatepass"))
            result, error = pickle.loads(payload)
            if error is not None:
                raise CliError(*error)
            yield result
    finally:
        _stop(read_ends, pids)


# Where a range of a one-document file may start: the "," before a unit
# record, which can also open an element record, and a blank line.
_CUTS = {"standoff": (',{"text":', 0), "columns": ("\n\n", 1)}  # (text, offset)
# A line end and the next line, if it is an inline unit line: neither blank
# nor "#" (a "\r" at a line end is dropped, so a lone one makes a blank line).
_UNIT_LINE = re.compile(r"\n(?:[^#\r\n]|\r.)")


def range_bounds(text: str, fmt: str, count: int) -> list[int]:
    """Where to cut ``text``, one standoff record or one column document,
    into at most ``count`` ranges of its units, each range after the first
    starting at a cut candidate: ``[start, cut, …, end]``. Empty when the
    text is not one such document, holds "\\r" (columns), or is a record
    whose line does not end with ``]}`` (standoff): such a record cannot
    end with its units, as ``read_range`` requires.

    A standoff candidate is not checked here: ``read_range`` finds out
    whether a unit ends at it."""
    # Imported here, before the workers fork, which all read with it.
    from . import readers  # noqa: F401

    if fmt == "columns":
        if "\r" in text or "\n# doc" in text:
            return []
        start, end = 0, len(text)
    else:  # the one record's line, found without a regex scan of it
        line = _NON_BLANK.search(text)
        if line is None:
            return []
        start = text.rfind("\n", 0, line.start()) + 1
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        if _NON_BLANK.search(text, end) or not text.endswith(("]}", "]}\r"), start, end):
            return []
    cut, offset = _CUTS[fmt]
    bounds = [start]
    for k in range(1, count):
        at = text.find(cut, max(start + (end - start) * k // count, bounds[-1] + 1), end)
        if at < 0:
            break
        bounds.append(at + offset)
    return bounds + [end]


def pair_bounds(texts: list[str], count: int) -> list[list[int]]:
    """Where to cut each of ``texts``, inline, into the same at most
    ``count`` ranges of unit indexes: for each text ``[0, cut, …, end]``,
    each cut at the start of the same unit line of each (a line neither
    blank nor ``#``). Empty when the texts do not hold as many unit lines
    each, or fewer than two, or when one has a ``#`` line after its first
    unit line: a metadata line belongs to the header, which only the first
    range reads, whatever the cuts."""
    # Found after a line end, so the first line is found after a "\n" put first.
    starts = [[line.start() for line in _UNIT_LINE.finditer("\n" + text)] for text in texts]
    units = len(starts[0])
    count = min(count, units)
    if count < 2 or any(len(at) != units or text.find("\n#", at[0]) >= 0
                        for text, at in zip(texts, starts)):
        return []
    cuts = [units * k // count for k in range(1, count)]
    return [[0, *(at[u] for u in cuts), len(text)] for text, at in zip(texts, starts)]


def score_pair(
    texts: list[str],
    count: int,
    score: Callable[..., object],
    done: Callable[[list], T],
    whole: Callable[[], T],
) -> T:
    """``done`` of the list, in range order, of ``score(units_a, units_b)``
    of each range of ``pair_bounds(texts, count)``: the units of the two
    inline texts in that range, scored on a worker per range. ``whole()``
    instead when the texts cannot be cut, or at the first range that does
    not decode: a line that does not parse, or ``score`` raising a
    ValueError."""
    bounds = pair_bounds(texts, count)
    if not bounds:
        return whole()

    def run(k: int) -> object:
        known: dict = {}  # unit lines of both ranges
        try:
            a, b = (read_range(text, "inline", at, k, known) for text, at in zip(texts, bounds))
            return score(a.units, b.units)
        except ValueError as exc:  # the parent runs the pair itself
            raise CliError(EXIT_PARSE, str(exc)) from None

    count = len(bounds[0]) - 1
    parts = list(fan_out([(f"range {k}", partial(run, k)) for k in range(count)], count, whole))
    return parts[0] if len(parts) < count else done(parts)  # fewer: whole() alone


def read_range(
    text: str, fmt: str, bounds: list[int], k: int, known: dict | None = None
) -> Document:
    """Decode range ``k`` of ``range_bounds(text, fmt, …)`` or, inline, of
    ``pair_bounds``: a document of the units from ``bounds[k]`` to
    ``bounds[k + 1]``, with every check of the reader of ``fmt``. A
    ConvertError, a ModelError or an inline line that does not parse is a
    ValueError, and so is a range that is empty, holds a second document or
    metadata (columns), or does not end where a unit does, the last at the
    record's closing "]}" (standoff). ``known`` goes to ``parse_document``.

    Only the first range holds the id and metadata. In standoff, every later
    range must end at the next cut and the last must close the record, so
    no key follows the ``units`` array in which the first range stops: the
    keys it reads, in any order, are all the record's keys."""
    lo, hi, end = bounds[k], bounds[k + 1], bounds[-1]
    if fmt == "inline":
        result = parse_document(text[lo:hi], known)
        if result.diagnostics:
            raise ValueError("an inline range has a line that does not parse")
        return result.document
    from . import readers

    if fmt == "columns":
        docs = readers._column_docs(text, lo, hi)
        if len(docs) != 1 or not docs[0].units or k and (docs[0].id or docs[0].metadata):
            raise ValueError("a column range holds no unit, or more than units")
        return docs[0]
    last = hi == end
    if k == 0:
        doc, closed = readers._record(text, lo, end, None if last else hi)
    else:
        units, pos, closed = readers._units(text, lo, end, hi, readers._NEXT_UNIT)
        if last:
            _, closed = readers._step(readers._NEXT_KEY, text, pos, end)  # "}" and the line end
        doc = readers.read_document("", (), tuple(units))
    if bool(closed) != last:  # stopped at hi, or closed the record
        raise ValueError("a standoff range does not end where a unit does")
    return doc
