"""The forked workers of ``phk``'s per-file commands.

``cli`` imports this module only for a run that fans out (see the ``cli``
docstring), so that a one-file command below the range size does not
compile it. A job is a name, for messages, and a call: a file, or a range
of one file. Worker ``w`` of ``count`` runs jobs ``w``, ``w + count``, …
with its ``sys.stdout`` and ``sys.stderr`` replaced by frames sent over a
pipe. The parent walks the jobs in order: it writes job ``i``'s frames,
taken from worker ``i % count``'s queue, through its own ``sys.stdout``
and stderr, and stops at the first job that fails. The ranges of one file
are all or nothing: at the first range that does not decode, the parent
stops the workers and reads the file itself.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
from collections import deque
from itertools import groupby
from typing import Callable, Iterator, NoReturn, TypeVar

from .cli import EXIT_USAGE, CliError, _to_stderr

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


def _work(jobs: list[tuple[str, Callable[[], object]]], fd: int) -> NoReturn:
    """The life of a worker: each of ``jobs`` with its stdout and stderr sent
    over ``fd``, each job ended by its result or its CliError. It stops
    after a CliError, as the parent does, and never returns."""
    code = 1
    try:
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
                _work(jobs[w::count], write_end)
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
