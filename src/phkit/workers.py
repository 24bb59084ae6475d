"""The forked workers of ``phk``'s per-file commands; README "Command
line" states when a run forks and what its output is:

- ``fan_out`` runs jobs on forked workers and writes their output in job order;
- ``in_ranges`` runs the ranges of one standoff or column text, or of an inline pair;
- ``pair_bounds`` cuts an inline pair at the same units;
- ``read_range`` decodes one range.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
from collections import deque
from functools import partial
from itertools import groupby
from typing import Callable, Iterable, Iterator, NoReturn, TypeVar

from .cli import EXIT_PARSE, EXIT_USAGE, CliError, _to_stderr
from .inline import parse_document, unit_line_starts

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
    """Run ``jobs``, each a name (for messages) and a call, on ``count``
    forked workers: write each job's stdout and stderr in job order, and
    yield its result. Raises the first job's CliError, or one for a worker
    that cannot start or ends without a result. ``whole`` is given for
    jobs, one per worker, that write nothing before they have decoded their
    range: at the first that does not (a CliError, or its worker ended), no
    output is written and ``whole()`` alone is yielded.
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


def pair_bounds(texts: list[str], count: int) -> list[list[int]]:
    """Where to cut each of the inline ``texts`` into the same at most
    ``count`` ranges of units: ``[0, cut, …, len(text)]`` for each. Empty
    when they hold unequal numbers of unit lines, or fewer than two, or one
    has a ``#`` line after its first unit line."""
    starts = [unit_line_starts(text) for text in texts]
    units = len(starts[0])
    count = min(count, units)
    if count < 2 or any(len(at) != units or text.find("\n#", at[0]) >= 0
                        for text, at in zip(texts, starts)):
        return []
    cuts = [units * k // count for k in range(1, count)]
    return [[0, *(at[u] for u in cuts), len(text)] for text, at in zip(texts, starts)]


def in_ranges(
    name: str, texts: list[str], fmt: str, count: int,
    use: Callable[..., T], whole: Callable[[list[str]], T],
) -> Iterable[T]:
    """``use(parts, (opens, closes))`` for each range of ``texts`` in
    ``fmt``, one standoff or column text or an inline pair, in at most
    ``count`` ranges on a worker each: ``parts`` holds each text's document
    of the range's units, and ``opens, closes`` whether they hold the start
    and the end of the whole documents. Yields the results in range order,
    or ``whole(texts)`` alone when the texts are not cut or a range does not
    decode (``read_range`` or ``use`` raises a ValueError or
    RecursionError). ``name`` names the jobs in messages."""
    if fmt == "inline":
        bounds = pair_bounds(texts, count)
    else:  # imported here, before the workers fork, which all read with it
        from . import readers
        bounds = [readers.range_bounds(texts[0], fmt, count)]
    count = len(bounds[0]) - 1 if bounds else 0
    if count < 2:
        return [whole(texts)]

    def run(k: int) -> T:
        known: dict = {}  # unit lines of both inline ranges
        try:
            parts = [read_range(text, fmt, at, k, known) for text, at in zip(texts, bounds)]
            return use(parts, (k == 0, k == count - 1))
        except (ValueError, RecursionError) as exc:  # the parent reads the texts itself
            raise CliError(EXIT_PARSE, str(exc)) from None

    jobs = [(name, partial(run, k)) for k in range(count)]
    return fan_out(jobs, count, partial(whole, texts))


def read_range(text: str, fmt: str, bounds: list[int], k: int, known: dict | None = None):
    """Range ``k`` of ``text`` in ``fmt`` cut at ``bounds``, decoded, an
    inline range through ``known`` (see ``parse_document``). Raises a
    ValueError when it does not decode."""
    if fmt != "inline":
        from . import readers
        return readers.read_range(text, fmt, bounds, k)
    result = parse_document(text[bounds[k] : bounds[k + 1]], known)
    if result.diagnostics:
        raise ValueError("an inline range has a line that does not parse")
    return result.document
