"""The ``phk`` command line. README "Command line" states its contract:
output, exit status, the config file, input sniffing, the file-by-file
runs on forked workers, the range runs and why the collector is paused.

``main`` builds the parser of the running subcommand alone, pauses the
cyclic collector while it runs, and imports the module of its
``cmd_<name>``: this one for ``parse`` and ``convert``, ``validation`` for
``validate``, ``segmentation`` for ``segment`` and ``metrics`` for
``stats`` and ``agree``. Every command loads ``inline`` and ``model``;
output in standoff or columns loads the writers (``convert``), input in
them the readers (``readers``), a run that forks ``workers``, and an
inline line that does not parse the diagnoser (in ``validation``).
Library functions are looked up through their module at call time.

``_read`` is the one reader of an annotation file. ``_each_file`` runs
every per-file command (``parse``, ``validate``, ``stats``, ``convert``)
over its files, on ``workers.fan_out`` when several files may fork.
``_in_ranges`` is the range gate of ``stats`` and ``convert`` on one file
and of ``agree``'s pair: texts that may be cut go to ``workers.in_ranges``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import sys
from functools import cache, partial
from importlib import import_module
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, TypeVar

# parse_bytes is unused here; the bench tracer wraps it as phkit.cli.parse_bytes.
from .inline import decode_utf8, emit_document, parse_bytes, parse_document
from .model import Document

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

ENV_CONJ_LEXICON = "PHK_CONJ_LEXICON"


class CliError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status

    def __reduce__(self):  # pickled and copied through the constructor
        return type(self), (self.status, str(self))


def _to_stderr(text: str) -> None:
    """Write ``text`` to stderr. A stderr that cannot be written (closed or
    full) must not change the exit status, so its failure is dropped."""
    if sys.stderr is None:  # started without a usable descriptor 2
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except UnicodeEncodeError:  # a JSON escape of a surrogate that no byte stands for
        _to_stderr(text.encode("utf-8", "backslashreplace").decode())
    except OSError:
        pass


def _read_text(path: str) -> str:
    """The text of ``path`` (``-`` is stdin) without a leading BOM."""
    try:
        if path != "-":
            data = Path(path).read_bytes()
        elif sys.stdin is None:  # started with descriptor 0 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            data = sys.stdin.buffer.read()
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return decode_utf8(data)
    except UnicodeDecodeError as exc:
        raise CliError(
            EXIT_PARSE, f"{path}: P010 input is not valid UTF-8 at byte {exc.start}"
        ) from None


# The patterns of sniff_format, compiled on its first call: a character that
# is not whitespace; from one to the end of its line; a line that opens a JSON
# object ("{", then a key or the closing brace); a "# doc" header from its "#"
# (the line right-stripped is "# doc" or starts "# doc ").
_SNIFFS = (r"\S", r"\S[^\n]*", r'\{[^\S\n]*["}]', r"# doc(?: |[^\S\n]*(?:\n|\Z))")
_sniff_patterns = cache(lambda: [re.compile(pattern) for pattern in _SNIFFS])


def sniff_format(text: str) -> str:
    """Guess the storage format of ``text`` (inline, standoff, or columns)
    from its first non-blank lines.

    Standoff when the first line opens a JSON object. Columns when it is a
    ``# doc`` header followed only by further headers, or when the first
    other line holds a tab (a row or a ``# meta`` line; inline text cannot
    hold one). Anything else is inline, where a line may start with ``{``
    and ``# doc …`` is a metadata line. The first line is never parsed: in
    standoff input it can be a whole document, so it is read to its end
    only when it is a ``# doc`` header.
    """
    non_blank, next_line, json_object, doc_header = _sniff_patterns()
    first = non_blank.search(text)
    if first is None:
        return "inline"
    if json_object.match(text, first.start()):
        return "standoff"
    if not doc_header.match(text, first.start()):
        return "inline"
    for line in next_line.finditer(text, first.start()):
        if not doc_header.match(text, line.start()):
            return "columns" if "\t" in line.group() else "inline"
    return "columns"


def _read(
    path: str, forced_format: str | None, known: dict | None = None, text: str | None = None
) -> tuple[int, list]:
    """The load status of the file ``path`` and its documents, each paired
    with its units' source lines. The status is EXIT_PARSE once inline lines
    failed to parse and were left out, each reported on stderr; a coded read
    error is a CliError. ``known``, if given, goes to the inline parse (see
    ``parse_document``); ``text``, if given, is the file's text, already
    read. A standoff document's units all have its record's line, and a
    standoff read error names it too; column input has no unit lines
    (None), so a finding there names its unit's index + 1.
    """
    if text is None:
        text = _read_text(path)
    fmt = forced_format or sniff_format(text)
    if fmt == "inline":
        result = parse_document(text, known)
        if result.diagnostics:
            _to_stderr("".join(
                f"{path}:{d.line}:{d.column}: {d.code} {d.message}\n" for d in result.diagnostics
            ))
        status = EXIT_PARSE if result.diagnostics else EXIT_OK
        return status, [(result.document, result.unit_lines)]
    from . import convert as conv

    lines: list[int] = []
    try:
        if fmt == "columns":
            return EXIT_OK, [(doc, None) for doc in conv.read_columns(text)]
        docs = conv.read_standoff(text, lines)
    except conv.ConvertError as exc:
        where = f"line {lines[-1]}: " if lines else ""  # the failing standoff record's
        raise CliError(EXIT_PARSE, f"{path}: {exc.code} {where}{exc.message}") from None
    return EXIT_OK, [(doc, [line] * len(doc.units)) for doc, line in zip(docs, lines)]


def _is_empty(doc: Document) -> bool:
    return not doc.id and not doc.metadata and not doc.units


T = TypeVar("T")


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# The ends of its document that a job's documents hold: (opens, closes).
_WHOLE = (True, True)

# A standoff or column file of this many bytes or more is read in ranges
# when it is the one file of a command that allows it, and so is an inline
# pair of this many bytes together by `agree`. The break-even, measured on 2
# shared vCPUs (CPython 3.11): forking and the workers module cost 15-25 ms,
# and two workers save about that much on 500 KB of standoff or columns for
# `convert --to inline`, and on 220-370 KB of an inline pair for `agree`
# (about 10% faster at 450 KB, 20% at 900 KB).
_SPLIT_BYTES = 1 << 19


def _each_file(
    paths: list[str], forced_format: str | None, use: Callable[..., T], split: bool = False
) -> Iterable[T]:
    """Yields ``use(path, *_read(path, forced_format))`` for each of
    ``paths``, in file order, each once its file's output is written. With
    ``split``, one file may be read in ranges instead (``_in_ranges``):
    then ``use(path, EXIT_OK, [(part, None)], (opens, closes))`` runs once
    per range, on a document of the range's units, and is told which ends
    of the whole document it holds. The first CliError raised ends the run,
    after the output of the earlier files only.
    """

    def job(path: str, text: str | None = None) -> T:
        return use(path, *_read(path, forced_format, text=text))

    if split and len(paths) == 1:
        def ranged(parts: list[Document], ends: tuple[bool, bool]) -> T:
            return use(paths[0], EXIT_OK, [(parts[0], None)], ends)

        return _in_ranges(paths, forced_format, ranged, lambda texts: job(paths[0], texts[0]))
    cpus = min(len(paths), _workers_for(paths)) if len(paths) > 1 else 1
    if cpus < 2:
        return map(job, paths)
    from . import workers

    return workers.fan_out([(path, partial(job, path)) for path in paths], cpus)


def _in_ranges(
    paths: list[str], forced_format: str | None, use: Callable[..., T], whole: Callable[[list], T]
) -> Iterable[T]:
    """The results of ``workers.in_ranges`` of ``use`` and ``whole`` on the
    texts of ``paths``, or ``[whole(texts)]`` in this process, ``texts``
    holding None for each file not read. Raises the CliError of a file that
    cannot be read."""
    texts: list = [None] * len(paths)
    if sum(map(_size, paths)) >= _SPLIT_BYTES and (cpus := _workers_for(paths)) > 1:
        try:
            texts = [_read_text(path) for path in paths]
        except CliError:  # a pair is read again by whole(), which reports A's broken lines first
            if len(paths) == 1:
                raise
        else:
            fmts = [forced_format or sniff_format(text) for text in texts]
            if fmts == ["inline", "inline"] or fmts in (["standoff"], ["columns"]):
                from . import workers

                return workers.in_ranges(", ".join(paths), texts, fmts[0], cpus, use, whole)
    return [whole(texts)]


def _workers_for(paths: list[str]) -> int:
    """How many workers a run over ``paths`` may fork: the usable CPUs, or
    1 with ``-`` among them, without ``fork`` or while other threads run."""
    if "-" in paths or not hasattr(os, "fork"):
        return 1
    import threading

    if threading.active_count() > 1:  # a forked copy may find another thread's lock held
        return 1
    return _usable_cpus()


def _size(path: str) -> int:
    """The size of the file ``path``, 0 when it cannot be told."""
    try:
        return os.stat(path).st_size
    except OSError:  # reading the file reports it
        return 0


def _write_files(paths: list[str], forced_format: str | None, to: str) -> int:
    """Write each nonempty document as standoff or columns once it is read."""
    from . import convert as conv

    pieces = conv.standoff_pieces if to == "standoff" else conv.columns_pieces

    def write_file(path: str, status: int, docs: list, ends=_WHOLE) -> int:
        write = sys.stdout.write  # a worker's stdout is its pipe
        for doc, _ in docs:
            if not _is_empty(doc):
                # One write per piece: the output of a document is never built whole.
                for piece in pieces(doc, *ends):
                    write(piece)
                if to == "standoff" and ends[1]:
                    write("\n")
        return status

    return max(_each_file(paths, forced_format, write_file, split=True))


def _write_to(path: str, call, *args):
    """``call(*args)`` on the output file ``path``, with an OSError as exit 2."""
    try:
        return call(*args)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}") from None


# The sections of a config file and the keys of each.
_CONFIG_KEYS = {"segment": ("commas", "policy", "conjunctions"), "agree": ("match", "normalize_rai")}


def _load_config(path: str) -> dict:
    """The config file at ``path``, checked to hold known sections and keys
    only. A name in a message shows a lone surrogate escape as its text
    (``\\udcff``), not as the byte that the stderr would write for it."""
    try:
        config = json.loads(decode_utf8(Path(path).read_bytes()))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError as "cannot read" words it
        raise CliError(EXIT_USAGE, f"cannot load config {path}: {reason}") from None
    if not isinstance(config, dict):
        raise CliError(EXIT_USAGE, f"config {path} must be a JSON object")
    for section, sub in config.items():
        name = section.encode("utf-8", "backslashreplace").decode()
        if section not in _CONFIG_KEYS:
            raise CliError(EXIT_USAGE, f"unknown config section {name}")
        if sub is not None and not isinstance(sub, dict):
            raise CliError(EXIT_USAGE, f"config section {name} must be an object or null")
        for key in sub or ():
            if key not in _CONFIG_KEYS[section]:
                key = key.encode("utf-8", "backslashreplace").decode()
                raise CliError(EXIT_USAGE, f"unknown config key {name}.{key}")
    return config


def _config_value(
    args: argparse.Namespace, section: str, key: str, kind: type = object, expected: str = ""
):
    """The config file's ``section.key``, None when unset or null; a value
    that is not a ``kind`` is a usage error."""
    value = (args._config.get(section) or {}).get(key)
    if value is not None and not isinstance(value, kind):
        raise CliError(EXIT_USAGE, f"{section}.{key} must be {expected}")
    return value


def _config_choice(args: argparse.Namespace, section: str, key: str, choices, what: str) -> str:
    """The config file's ``section.key`` out of ``choices``, the first when unset or null."""
    value = _config_value(args, section, key)
    if value is not None and value not in choices:
        raise CliError(EXIT_USAGE, f"unknown {what} {value!r}")
    return choices[0] if value is None else value


def cmd_parse(args: argparse.Namespace) -> int:
    if not args.check:
        return _write_files(args.files, "inline", "standoff")

    def check(path: str, status: int, docs: list) -> int:
        return status  # the file is read for its diagnostics only

    return max(_each_file(args.files, "inline", check))


def cmd_convert(args: argparse.Namespace) -> int:
    if args.to != "inline":
        return _write_files(args.files, args.from_format, args.to)

    def emit(path: str, status: int, docs: list, ends=_WHOLE) -> tuple[int, list[str]]:
        """A range is written at once; a whole file gives its status and the
        text of at most its first two nonempty documents."""
        if ends != _WHOLE:
            sys.stdout.write(emit_document(docs[0][0]))
            return status, []
        kept = islice((doc for doc, _ in docs if not _is_empty(doc)), 2)
        return status, [emit_document(doc) for doc in kept]

    # Every file is read, and its diagnostics reported, before a second
    # document is refused, so nothing reaches stdout then.
    status, texts = EXIT_OK, []
    for file_status, file_texts in _each_file(args.files, args.from_format, emit, split=True):
        status, texts = max(status, file_status), (texts + file_texts)[:2]
    if len(texts) > 1:
        raise CliError(EXIT_USAGE, "inline output holds a single document per stream")
    if texts:
        sys.stdout.write(texts[0])
    return status


# The module of each ``cmd_<name>`` that is not in this one.
_MODULES = dict(validate="validation", segment="segmentation", stats="metrics", agree="metrics")


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, made and given its arguments (in the order
    added) only when it parses: ``argparse`` stores the others untouched,
    so a run builds the parser of the one subcommand it runs."""

    def __init__(self, **options):
        self.pending = options, []

    def add_argument(self, *names, **settings):
        if self.pending is None:
            return super().add_argument(*names, **settings)
        self.pending[1].append((names, settings))

    def parse_known_args(self, args=None, namespace=None):
        if self.pending is not None:
            options, arguments = self.pending
            self.pending = None
            super().__init__(**options)
            for names, settings in arguments:
                self.add_argument(*names, **settings)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phk",
        description="Tools for predicate-head annotated corpora: parse, "
        "validate, segment, convert, and compare annotation files.",
    )
    parser.add_argument(
        "--config", metavar="FILE", help="JSON config file with flag defaults"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = sub.add_parser("parse", help="parse inline files to a standoff stream")
    p.add_argument("files", nargs="+")
    p.add_argument("--check", action="store_true", help="suppress output, only report")

    p = sub.add_parser("validate", help="check files against the annotation rules")
    p.add_argument("files", nargs="+")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))

    p = sub.add_parser("segment", help="propose labeling-unit boundaries in raw text")
    p.add_argument("rawfile")
    p.add_argument("--commas", choices=("candidate", "hard", "ignore"))
    p.add_argument("--conj", metavar="FILE", help="conjunction lexicon, one entry per line")
    p.add_argument("--policy", choices=("all", "hard_only"))
    p.add_argument(
        "--boundaries", metavar="FILE", help="write boundary records to a sidecar file"
    )

    p = sub.add_parser("convert", help="convert between storage formats")
    p.add_argument("--to", required=True, choices=("inline", "standoff", "columns"))
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))
    p.add_argument("files", nargs="+")

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))

    p = sub.add_parser("agree", help="inter-annotator agreement between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--match", choices=("exact", "type", "head"))
    p.add_argument("--normalize-rai", action="store_true", default=None)
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))

    return parser


def _drop_stdout() -> None:
    """Flush what stdout holds after a failed write into the null device, so
    that the flush at interpreter exit cannot fail again."""
    with open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):  # None when started with the descriptor closed
            # surrogateescape: a path from argv is written as the bytes given
            stream.reconfigure(encoding="utf-8", errors="surrogateescape", newline="\n")
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:  # started with descriptor 1 closed
        _to_stderr(f"phk: cannot write stdout: {os.strerror(errno.EBADF)}\n")
        return EXIT_USAGE
    # Collector paused for the subcommand; README "Command line" says why.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args._config = _load_config(args.config) if args.config else {}
        module = import_module("." + _MODULES.get(args.command, "cli"), __package__)
        status = getattr(module, "cmd_" + args.command)(args)
        sys.stdout.flush()  # a write error shows here, not at interpreter exit
        return status
    except CliError as exc:
        _to_stderr(f"phk: {exc}\n")
        return exc.status
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_OK
    except OSError as exc:
        # Every other file is read and written under a CliError: this is stdout.
        _to_stderr(f"phk: cannot write stdout: {exc.strerror or exc}\n")
        _drop_stdout()
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    raise SystemExit(main())
