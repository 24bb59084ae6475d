"""Command line interface for batch corpus work.

Subcommands: ``parse``, ``validate``, ``segment``, ``convert``, ``stats``,
``agree``. Data goes to stdout, diagnostics to stderr, output is UTF-8
with LF endings and is byte-identical across runs on identical input.

Exit status: 0 success (also when a reader closes the stdout pipe), 1
validation errors present, 2 usage or I/O error (stdout too), 3 parse failure.
A stderr that cannot be written loses its messages, not the exit status.

Input format is sniffed per file (inline, standoff JSON lines, or column
rows) and can be forced with ``--from``. ``-`` reads stdin. Input that is
not UTF-8 is a fatal P010 (exit 3) for every subcommand. A JSON config
file may supply defaults for flags; explicit flags always win. An unknown
section or key in it is a usage error (exit 2). The
``PHK_CONJ_LEXICON`` environment variable points at a default conjunction
lexicon file (one entry per line, UTF-8).

Every subcommand reads annotation files through one function, ``_read``
(one large file may be read in ranges instead; see below), one file at a
time, and each file's documents are released before the next file is
read, so memory follows the largest file per process, not the whole
batch. File names are written as the bytes given, also when not UTF-8.
``parse`` is ``convert --from inline --to standoff``; it and ``convert
--to standoff|columns`` write each document as soon as it is read, one
unit at a time. So when a later file cannot be read (an I/O error or a
coded read error), the complete output of the earlier files is already on
stdout, and no output of later files is written.

``parse``, ``validate``, ``stats`` and ``convert --to standoff|columns``
work file by file, and run their files on every usable CPU: with k =
min(files, usable CPUs) of at least 2, ``main`` forks k workers, which
read the files, and deals the files out round-robin; worker w starts on
the w-th usable CPU. Each worker sends the stdout and stderr text of each
of its files over a pipe, in frames of a few dozen KB, and then the
file's result. The parent walks the files in order, writes each file's
output, and stops at the first failing file, where the one-worker run
stops, so stdout, stderr and the exit status are those of the one-worker
run. A worker holds one document and one frame at a time; the parent
keeps the frames the workers have sent, and once they reach 4 MB reads
only the due file's worker. It folds each file's result into the
command's as the file comes due. A worker that dies is one ``phk:`` line
and exit 2, and no worker outlives ``main``.

``stats`` and ``convert`` given one standoff or column file of 512 KB or
more run its units on every usable CPU. The parent reads the text, cuts it
into ranges where a unit may start (a ``,{"text":`` in the record, a blank
line between rows), and forks a worker per range, the same way. Each
worker decodes its range into a document of its units, with every check
of the whole-file reader, then writes or counts them. The parent writes
nothing until every range has decoded. At the first range that has not (a
coded error, a cut inside an element record, a key after ``units``), it
stops the workers and reads the file in this process from the text it
holds, as it does when the text cannot be cut (a "\\r" in column input, a
second document), so stdout, stderr and the status are those of one
process.

``agree`` given two inline files of 512 KB or more together scores them
in ranges of units the same way: the parent reads both texts and cuts
them at the same unit indexes, each cut at the start of a unit line (one
neither blank nor ``#``; ``workers.pair_bounds``). Worker k parses range k
of each file and returns the range's counts (``metrics.AgreementCounts``),
which the parent adds up. The counts are integers, so the report is the
one-process report. At the first range that fails (a broken line, an
AGR001 or AGR002 within the range), or when the pair cannot be cut
(different numbers of unit lines, a ``#`` line after the first unit), the
parent runs ``agree`` in this process on the texts it holds.

One file below that size or inline (for ``agree``, a pair below it or
not inline), one usable CPU, ``-`` among the files, a platform without
``fork`` or a process that runs other threads keeps the run in one
process.

``agree`` holds both of its documents, so it reads them through one map
from unit line to unit: a line the two inline files share is parsed once,
and both documents hold the same unit object for it; a worker does so for
its two ranges. Both files are read, and their broken lines reported,
before a parse failure ends ``agree``.
``segment`` opens its ``--boundaries`` sidecar before any output and
writes each line's pieces, and its boundary records, as the line is cut.

Each subcommand imports the library modules it runs when it runs, so that
start-up stays small: ``phk parse`` never imports the metrics,
segmentation or validation code. Library functions are looked up through
their module at call time.

``main`` pauses Python's cyclic garbage collector while the subcommand
runs and restores the caller's setting afterwards. The values phkit builds
are trees without reference cycles, which reference counting frees as soon
as they are dropped; a running collector would still walk every object of
a growing document again and again, about a third of parse time, and find
nothing to free.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, TypeVar

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


# From the first non-whitespace character to the end of its line.
_NEXT_LINE = re.compile(r"\S[^\n]*")
# A line that opens a JSON object: "{", then a key or the closing brace.
_JSON_OBJECT = re.compile(r'\{[^\S\n]*["}]')


def _is_doc_header(line: str) -> bool:
    line = line.rstrip()
    return line == "# doc" or line.startswith("# doc ")


def sniff_format(text: str) -> str:
    """Guess the storage format of ``text`` (inline, standoff, or columns)
    from its first non-blank lines.

    Standoff when the first line opens a JSON object. Columns when it is a
    ``# doc`` header followed only by further headers, or when the first
    other line holds a tab (a row or a ``# meta`` line; inline text cannot
    hold one). Anything else is inline, where a line may start with ``{``
    and ``# doc …`` is a metadata line. The first line is never parsed: in
    standoff input it can be a whole document.
    """
    match = _NEXT_LINE.search(text)
    if match is None:
        return "inline"
    if _JSON_OBJECT.match(text, match.start()):
        return "standoff"
    if not _is_doc_header(match.group()):
        return "inline"
    for match in _NEXT_LINE.finditer(text, match.end()):
        line = match.group()
        if not _is_doc_header(line):
            return "columns" if "\t" in line else "inline"
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
) -> Iterator[T]:
    """``use(path, status, docs)`` for each of ``paths``, where ``status,
    docs = _read(path, forced_format)``, with each file's output written in
    file order; yields the results in file order, each once its file's
    output is written, so that a caller folding them holds none. The first
    CliError raised ends the run, after the output of the earlier files only.

    Several files run on forked workers when more than one CPU allows, and
    with ``split`` so does one standoff or column file of ``_SPLIT_BYTES``
    or more, cut into ranges of its units: ``use`` then runs once for each
    range, in its worker, on a document of the range's units, and is told
    which ends of the whole document it holds, as ``use(path, EXIT_OK,
    [(part, None)], (opens, closes))``. The parent reads that file's text
    once; when it is not one document that can be cut, or a range does not
    decode, the file runs in this process on that text, so that stdout,
    stderr and the status are those of one process (see the module
    docstring).
    """

    def job(path: str, fmt: str | None = forced_format, text: str | None = None) -> T:
        return use(path, *_read(path, fmt, text=text))

    one = len(paths) == 1
    if one and not (split and forced_format != "inline" and _size(paths[0]) >= _SPLIT_BYTES):
        return map(job, paths)
    cpus = _workers_for(paths)
    if cpus < 2:
        return map(job, paths)
    if not one:
        from . import workers

        return workers.fan_out([(path, partial(job, path)) for path in paths], min(len(paths), cpus))
    path, text = paths[0], _read_text(paths[0])
    fmt = forced_format or sniff_format(text)
    count = 0
    if fmt != "inline":
        from . import workers

        bounds = workers.range_bounds(text, fmt, cpus)
        count = len(bounds) - 1
    if count < 2:
        return map(job, paths, [fmt], [text])  # in this process, on the text read

    def run(k: int) -> T:
        try:
            part = workers.read_range(text, fmt, bounds, k)
        except (ValueError, RecursionError) as exc:  # the parent runs the file itself
            raise CliError(EXIT_PARSE, str(exc)) from None
        return use(path, EXIT_OK, [(part, None)], (k == 0, k == count - 1))

    jobs = [(path, partial(run, k)) for k in range(count)]
    return workers.fan_out(jobs, count, partial(job, path, fmt, text))


def _workers_for(paths: list[str]) -> int:
    """How many workers a run over ``paths`` may fork: the usable CPUs, or
    1 when it must stay in this process (see the module docstring)."""
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


def _conjunctions(args: argparse.Namespace, default: tuple[str, ...]) -> tuple[str, ...]:
    # Precedence: --conj flag, PHK_CONJ_LEXICON, config file, built-in default.
    if args.conj:
        return _load_lexicon(args.conj)
    env_path = os.environ.get(ENV_CONJ_LEXICON)
    if env_path:
        return _load_lexicon(env_path)
    from_config = _config_value(args, "segment", "conjunctions", list, "a list of strings")
    if from_config:
        if not all(isinstance(c, str) for c in from_config):
            raise CliError(EXIT_USAGE, "segment.conjunctions entries must be strings")
        return tuple(from_config)
    return default


def _load_lexicon(path: str) -> tuple[str, ...]:
    entries = []
    for line in _read_text(path).split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    if not entries:
        raise CliError(EXIT_USAGE, f"conjunction lexicon {path} has no entries")
    return tuple(entries)


def cmd_parse(args: argparse.Namespace) -> int:
    if not args.check:
        return _write_files(args.files, "inline", "standoff")

    def check(path: str, status: int, docs: list) -> int:
        return status  # the file is read for its diagnostics only

    return max(_each_file(args.files, "inline", check))


def cmd_validate(args: argparse.Namespace) -> int:
    from . import validation
    from .validation import Severity

    render = validation.render_records if args.format == "records" else validation.render_text

    def check(path: str, status: int, docs: list) -> tuple[int, bool]:
        errors = False
        for doc, unit_lines in docs:
            findings = validation.validate_document(doc)
            if args.strict:
                findings = [
                    replace(d, severity=Severity.ERROR) if d.severity is Severity.WARNING else d
                    for d in findings
                ]
            if any(d.severity is Severity.ERROR for d in findings):
                errors = True
            for line in render(findings, path, unit_lines):
                print(line)
        return status, errors

    status, errors = EXIT_OK, False
    for file_status, file_errors in _each_file(args.files, args.from_format, check):
        status, errors = max(status, file_status), errors or file_errors
    if status == EXIT_PARSE:
        return EXIT_PARSE
    return EXIT_VALIDATION if errors else EXIT_OK


def cmd_segment(args: argparse.Namespace) -> int:
    from . import segmentation as seg

    commas = [p.value for p in seg.CommaPolicy]
    comma_policy = args.commas or _config_choice(args, "segment", "commas", commas, "comma policy")
    policy = args.policy or _config_choice(
        args, "segment", "policy", ("all", "hard_only"), "segment policy"
    )
    try:
        config = seg.SegmenterConfig(
            _conjunctions(args, seg.DEFAULT_CONJUNCTIONS), seg.CommaPolicy(comma_policy)
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    text = _read_text(args.rawfile)
    path = args.boundaries
    # Opened before the first line, so an unwritable path fails before any output.
    sidecar = _write_to(path, open, path, "wb") if path else None
    write = sys.stdout.write
    try:
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.removesuffix("\r")  # a CRLF line end is an LF one
            if not line:
                continue
            boundaries = seg.propose_boundaries(line, config)
            # A nonempty line is cut into nonempty pieces, one per output line.
            write("\n".join(seg.split_at(line, boundaries, policy)) + "\n")
            if sidecar:
                # The kind and cause members are str, so they concatenate as
                # their values, which are ASCII words: no JSON escaping.
                records = "".join(
                    f'{{"line":{line_no},"position":{b.position},"kind":"'
                    + b.kind + '","cause":"' + b.cause + '"}\n'
                    for b in boundaries
                )
                _write_to(path, sidecar.write, records.encode())
    finally:
        if sidecar:
            _write_to(path, sidecar.close)
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    if args.to == "inline" and len(args.files) == 1:

        def emit(path: str, status: int, docs: list, ends=_WHOLE) -> int:
            kept = [doc for doc, _ in docs if not _is_empty(doc)]
            if len(kept) > 1:
                raise CliError(EXIT_USAGE, "inline output holds a single document per stream")
            for doc in kept:
                sys.stdout.write(emit_document(doc))
            return status

        return max(_each_file(args.files, args.from_format, emit, split=True))
    if args.to == "inline":
        # Every file is still read (and its diagnostics reported) before a
        # second document is refused, so nothing reaches stdout then.
        status, extra = EXIT_OK, False
        first: Document | None = None
        for path in args.files:
            file_status, docs = _read(path, args.from_format)
            status = max(status, file_status)
            for doc, _ in docs:
                if not _is_empty(doc):
                    if first is None:
                        first = doc
                    else:
                        extra = True
            docs = doc = None  # not kept alive while the next file is read
        if extra:
            raise CliError(
                EXIT_USAGE, "inline output holds a single document per stream"
            )
        if first is not None:
            sys.stdout.write(emit_document(first))
        return status
    return _write_files(args.files, args.from_format, args.to)


def cmd_stats(args: argparse.Namespace) -> int:
    from . import metrics

    def count(path: str, status: int, docs: list, ends=_WHOLE) -> tuple[metrics.StatsReport, int]:
        return metrics.corpus_stats(doc for doc, _ in docs), status

    status = EXIT_OK

    def reports() -> Iterator[metrics.StatsReport]:
        nonlocal status
        for report, file_status in _each_file(args.files, args.from_format, count, split=True):
            status = max(status, file_status)
            yield report

    report = metrics.StatsReport.total(reports())
    if args.format == "records":
        print(metrics.stats_records(report))
    else:
        for row in metrics.stats_table(report):
            print(row)
    return status


# ``--match`` values to ``metrics.MatchCriterion`` values.
_MATCH_BY_FLAG = {"exact": "exact", "type": "type_only", "head": "head_overlap"}


def cmd_agree(args: argparse.Namespace) -> int:
    from . import metrics

    match = args.match or _config_choice(
        args, "agree", "match", list(_MATCH_BY_FLAG), "match criterion"
    )
    normalize = args.normalize_rai
    if normalize is None:
        normalize = bool(_config_value(args, "agree", "normalize_rai", bool, "true or false"))
    criterion = metrics.MatchCriterion(_MATCH_BY_FLAG[match])
    paths = [args.file_a, args.file_b]

    def show(report: metrics.AgreementReport) -> int:
        if args.format == "records":
            print(metrics.agreement_records(report))
        else:
            for row in metrics.agreement_table(report):
                print(row)
        return EXIT_OK

    def whole(texts=(None, None)) -> int:
        """The pair in this process, read from ``texts`` where given."""
        docs = []
        known: dict = {}  # unit lines of both files; see the module docstring
        status = EXIT_OK  # both files are read, and their broken lines reported, first
        for path, text in zip(paths, texts):
            file_status, loaded = _read(path, args.from_format, known, text)
            status = max(status, file_status)
            if len(loaded) != 1:
                raise CliError(EXIT_USAGE, f"{path}: expected exactly one document")
            docs.append(loaded.pop()[0])  # its unit lines go before the next file is read
        if status != EXIT_OK:
            return status
        try:
            report = metrics.agree(docs[0], docs[1], criterion, normalize)
        except metrics.AgreementError as exc:
            raise CliError(EXIT_USAGE, f"{exc.code} {exc.message}") from None
        return show(report)

    if args.from_format not in (None, "inline") or sum(map(_size, paths)) < _SPLIT_BYTES:
        return whole()
    cpus = _workers_for(paths)
    if cpus < 2:
        return whole()
    try:
        texts = [_read_text(path) for path in paths]
    except CliError:  # read again in this process, to fail where it fails
        return whole()
    if args.from_format is None and any(sniff_format(text) != "inline" for text in texts):
        return whole(texts)
    from . import workers

    def done(parts: list[metrics.AgreementCounts]) -> int:
        return show(metrics.AgreementCounts.total(parts).report(criterion))

    score = partial(metrics.agreement_counts, criterion=criterion, normalize_rai=normalize)
    return workers.score_pair(texts, cpus, score, done, partial(whole, texts))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phk",
        description="Tools for predicate-head annotated corpora: parse, "
        "validate, segment, convert, and compare annotation files.",
    )
    parser.add_argument(
        "--config", metavar="FILE", help="JSON config file with flag defaults"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse inline files to a standoff stream")
    p.add_argument("files", nargs="+")
    p.add_argument("--check", action="store_true", help="suppress output, only report")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("validate", help="check files against the annotation rules")
    p.add_argument("files", nargs="+")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("segment", help="propose labeling-unit boundaries in raw text")
    p.add_argument("rawfile")
    p.add_argument("--commas", choices=("candidate", "hard", "ignore"))
    p.add_argument("--conj", metavar="FILE", help="conjunction lexicon, one entry per line")
    p.add_argument("--policy", choices=("all", "hard_only"))
    p.add_argument(
        "--boundaries", metavar="FILE", help="write boundary records to a sidecar file"
    )
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("convert", help="convert between storage formats")
    p.add_argument("--to", required=True, choices=("inline", "standoff", "columns"))
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("agree", help="inter-annotator agreement between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--match", choices=("exact", "type", "head"))
    p.add_argument("--normalize-rai", action="store_true", default=None)
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--from", dest="from_format", choices=("inline", "standoff", "columns"))
    p.set_defaults(func=cmd_agree)

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
    # Collector paused for the subcommand; see the module docstring.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args._config = _load_config(args.config) if args.config else {}
        status = args.func(args)
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
