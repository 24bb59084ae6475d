"""The forked workers of ``phk``'s per-file commands.

``cli`` imports this module only for a run that fans its files out (see
the ``cli`` docstring), so that a one-file command does not compile it.
Worker ``w`` of ``count`` runs a job on files ``w``, ``w + count``, … with
its ``sys.stdout`` and ``sys.stderr`` replaced by frames sent over a pipe;
the parent writes each file's frames in file order, through its own
``sys.stdout`` and stderr, and stops at the first file that fails.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
from collections import deque
from typing import Callable, Iterator, NoReturn, TypeVar

from .cli import EXIT_USAGE, CliError, _to_stderr

T = TypeVar("T")

# A worker sends its output on once it holds this many characters, so a
# frame is a few dozen KB (three bytes per character of Chinese text).
_FRAME_CHARS = 1 << 14
_STDOUT, _STDERR, _END = b"o", b"e", b"x"  # frame kinds
# The most the parent holds of files that are not due yet, give or take a read.
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
        self.kind = _STDOUT
        self.held: list[str] = []  # text of the open frame, all of ``kind``
        self.size = 0
        self.closed = bytearray()  # frames not sent yet

    def write(self, kind: bytes, text: str) -> None:
        if kind != self.kind:
            self.close()
            self.kind = kind
        self.held.append(text)
        self.size += len(text)
        if self.size >= _FRAME_CHARS:
            self.close()
            self.send()

    def close(self) -> None:
        if self.held:
            # surrogatepass: a path from argv may hold surrogate escapes
            self.add(self.kind, "".join(self.held).encode("utf-8", "surrogatepass"))
            self.held.clear()
            self.size = 0

    def add(self, kind: bytes, payload: bytes) -> None:
        self.closed += kind + len(payload).to_bytes(4, "big") + payload

    def end(self, payload: bytes) -> None:
        """Send what is held and the end frame ``payload`` of the file."""
        self.close()
        self.add(_END, payload)
        self.send()

    def send(self) -> None:
        data = memoryview(bytes(self.closed))
        self.closed.clear()
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
            frames.end(pickle.dumps(end, pickle.HIGHEST_PROTOCOL))
            if end[1] is not None:
                break
        code = 0
    finally:
        # Whatever happened, a worker never runs its parent's code again; a
        # file it leaves without an end frame is reported by the parent.
        os._exit(code)


def fan_out(paths: list[str], job: Callable[[str], T], count: int) -> Iterator[T]:
    """``cli._each_file`` on ``count`` forked workers; worker ``w`` runs files
    ``w``, ``w + count``, … The parent writes the frames of the file that is
    due (the first one not yet ended) as they arrive, holds those of later
    files until they are due, and yields each file's result once it is.
    While it holds ``_HELD_BYTES`` or more, it reads only the due file's
    worker, so that a worker far ahead waits on its pipe."""
    pids: list[int] = []
    read_ends: list[int] = []  # by worker
    files_of: dict[int, deque[int]] = {}  # read end -> its worker's files not yet ended
    held: dict[int, list[tuple[bytes, bytes]]] = {}  # frames of files not due yet
    held_bytes = 0
    results: list[T] = []  # of the files that came due since the last yield
    out, due = sys.stdout.write, 0

    def take(i: int, kind: bytes, payload: bytes) -> None:
        # A frame of file ``i``: held, or shown, with every file it lets end.
        nonlocal due, held_bytes
        if i != due:
            held.setdefault(i, []).append((kind, payload))
            held_bytes += len(payload)
            return
        frames = deque([(kind, payload)])
        while frames:
            kind, payload = frames.popleft()
            if kind == _END:
                result, error = pickle.loads(payload)
                if error is not None:
                    raise CliError(*error)
                results.append(result)
                due += 1
                later = held.pop(due, [])
                held_bytes -= sum(len(frame) for _, frame in later)
                frames.extend(later)
            elif kind == _STDOUT:
                out(payload.decode("utf-8", "surrogatepass"))
            else:
                _to_stderr(payload.decode("utf-8", "surrogatepass"))

    try:
        for w in range(count):
            try:
                read_end, write_end = os.pipe()
                read_ends.append(read_end)
                files_of[read_end] = deque(range(w, len(paths), count))
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
        buffers = {fd: bytearray() for fd in read_ends}  # of the workers not ended
        while due < len(paths):
            poller = select.poll()
            for fd in buffers if held_bytes < _HELD_BYTES else [read_ends[due % count]]:
                poller.register(fd, select.POLLIN)
            for fd, _ in poller.poll():
                data = os.read(fd, 1 << 16)
                mine = files_of[fd]
                if not data:
                    del buffers[fd]
                    if mine:  # the worker died before it ended this file
                        i = mine.popleft()
                        error = (EXIT_USAGE, f"{paths[i]}: worker ended without a result")
                        take(i, _END, pickle.dumps((None, error)))
                    continue
                buf = buffers[fd]
                buf += data
                while len(buf) >= 5 and len(buf) >= 5 + (size := int.from_bytes(buf[1:5], "big")):
                    kind, payload = bytes(buf[:1]), bytes(buf[5 : 5 + size])
                    del buf[: 5 + size]
                    take(mine.popleft() if kind == _END else mine[0], kind, payload)
            yield from results
            results.clear()
    finally:
        for fd in read_ends:
            os.close(fd)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # the caller ignores SIGCHLD
                pass
