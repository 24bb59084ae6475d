"""The forked workers of ``phk``'s per-file commands.

``cli`` imports this module only for a run that fans its files out (see
the ``cli`` docstring), so that a one-file command does not compile it.
Worker ``w`` of ``count`` runs a job on files ``w``, ``w + count``, … with
its ``sys.stdout`` and ``sys.stderr`` replaced by frames sent over a pipe.
The parent walks the files in order: it writes file ``i``'s frames, taken
from worker ``i % count``'s queue, through its own ``sys.stdout`` and
stderr, and stops at the first file that fails.
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


def _work(paths: list[str], job: Callable[[str], object], fd: int) -> NoReturn:
    """The life of a worker: ``job`` on each of ``paths`` with its stdout and
    stderr sent over ``fd``, each file ended by its result or its CliError.
    It stops after a CliError, as the parent does, and never returns."""
    code = 1
    try:
        frames = _Frames(fd)
        sys.stdout, sys.stderr = _Stream(frames, _STDOUT), _Stream(frames, _STDERR)
        for path in paths:
            try:
                end = (job(path), None)
            except CliError as exc:
                end = (None, (exc.status, str(exc)))
            frames.send(pickle.dumps(end, pickle.HIGHEST_PROTOCOL))
            if end[1] is not None:
                break
        code = 0
    finally:
        # Whatever happened, a worker never runs its parent's code again; a
        # file it leaves without an end frame is reported by the parent.
        os._exit(code)


def fan_out(paths: list[str], job: Callable[[str], T], count: int) -> Iterator[T]:
    """``cli._each_file`` on ``count`` forked workers; worker ``w`` runs files
    ``w``, ``w + count``, … The parent walks the files in order: it writes
    each frame of file ``i`` from worker ``i % count``'s queue, and yields
    the file's result at its end frame. It splits the frames out of every
    worker's pipe as they arrive; once it holds ``_HELD_BYTES`` or more of
    them, it reads only the due file's worker, so that a worker far ahead
    waits on its pipe."""
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
                _work(paths[w::count], job, write_end)
            pids.append(pid)
            os.close(write_end)
        queues = {fd: deque() for fd in read_ends}  # (kind, payload) frames not written yet
        starts = {fd: bytearray() for fd in read_ends}  # of the open pipes: a frame's start
        held, out = 0, sys.stdout.write  # held: the bytes of the queued payloads
        for i, path in enumerate(paths):
            due = read_ends[i % count]
            while True:
                while not queues[due]:
                    if due not in starts:
                        raise CliError(EXIT_USAGE, f"{path}: worker ended without a result")
                    poller = select.poll()
                    for fd in starts if held < _HELD_BYTES else [due]:
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
                            held += end - at - 5
                            at = end
                        del buf[:at]
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
        for fd in read_ends:
            os.close(fd)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # the caller ignores SIGCHLD
                pass
