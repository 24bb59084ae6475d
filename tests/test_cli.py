import errno
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phkit import cli, metrics, validation
from phkit.cli import main, sniff_format
from phkit.convert import read_columns, read_standoff, to_columns, to_standoff
from phkit.inline import emit_document, parse_document
from phkit.model import Document, LabelingUnit

from .conftest import GOLDEN_PATH, child_env

GOLDEN_PARAGRAPH = (
    "被告人陈某某因家庭矛盾迁怒岳父滕某某。"
    "2015年6月29日凌晨，陈某某谎称购买房屋，"
    "将其骗至其新房南侧桥上，"
    "两人发生争执并互相厮打。"
    "陈某某持刀捅刺滕某某，"
    "用砖头多次击打其头部，"
    "并将其头部撞向地面，"
    "致其死亡。"
    "陈某某驾驶电动三轮车抛尸至大桥下的河中。"
)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_encoded(argv: list[str]) -> tuple[int, bytes, bytes]:
    """``main(argv)`` with stdout and stderr as a process has them: text
    streams over bytes, so that what cannot be encoded fails here as it
    would there (an ``io.StringIO`` never encodes)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    out.flush()
    err.flush()
    return status, out.buffer.getvalue(), err.buffer.getvalue()


def test_parse_golden_emits_one_standoff_record(capsys, golden_path):
    status, out, err = run_cli(capsys, "parse", str(golden_path))
    assert status == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["id"] == "golden"
    assert len(record["units"]) == 10


def test_parse_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.ann"
    empty.write_text("", encoding="utf-8")
    status, out, err = run_cli(capsys, "parse", str(empty))
    assert (status, out, err) == (0, "", "")


def test_parse_check_broken_file(capsys, tmp_path):
    broken = tmp_path / "broken.ann"
    broken.write_text("[SUB-W 王某\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "parse", str(broken), "--check")
    assert status == 3
    assert out == ""
    assert "P001" in err


def test_parse_unreadable_file_is_exit_2(capsys, tmp_path):
    status, out, err = run_cli(capsys, "parse", str(tmp_path / "missing.ann"))
    assert status == 2
    assert "missing.ann" in err


def _stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


@pytest.mark.parametrize("case", ["golden", "broken", "empty", "two files", "stdin"])
def test_parse_equals_convert_inline_to_standoff(
    capsys, monkeypatch, tmp_path, golden_path, golden_text, case
):
    broken = tmp_path / "broken.ann"
    broken.write_text("#id: b\n[PRE-S 走]\n[SUB-W 王某\n", encoding="utf-8")
    empty = tmp_path / "empty.ann"
    empty.write_text("", encoding="utf-8")
    files = {
        "golden": [golden_path],
        "broken": [broken],
        "empty": [empty],
        "two files": [golden_path, broken],
        "stdin": ["-"],
    }[case]
    results = []
    for command in (["parse"], ["convert", "--from", "inline", "--to", "standoff"]):
        _stdin(monkeypatch, ("\ufeff" + golden_text.replace("\n", "\r\n")).encode())
        results.append(run_cli(capsys, *command, *map(str, files)))
    assert results[0] == results[1]
    assert results[0][0] == (3 if broken in files else 0)
    assert (results[0][1] == "") == (case == "empty")


@pytest.mark.parametrize("name, status", [("golden", 0), ("broken", 3)])
def test_parse_check_prints_nothing_and_keeps_the_status(
    capsys, tmp_path, golden_path, name, status
):
    broken = tmp_path / "broken.ann"
    broken.write_text("[SUB-W 王某\n", encoding="utf-8")
    path = str(golden_path if name == "golden" else broken)
    _, _, err = run_cli(capsys, "parse", path)
    assert run_cli(capsys, "parse", "--check", path) == (status, "", err)


@pytest.mark.parametrize("command", [["parse"], ["validate"], ["convert", "--to", "standoff"]])
def test_invalid_utf8_is_a_fatal_p010(capsys, tmp_path, golden_path, command):
    bad = tmp_path / "bad.ann"
    bad.write_bytes("[PRE-S 走]\n".encode() + b"[SUB-W \xff]\n")
    # The file after the bad one is not read.
    status, out, err = run_cli(capsys, *command, str(bad), str(golden_path))
    assert (status, out) == (3, "")
    assert err == f"phk: {bad}: P010 input is not valid UTF-8 at byte 19\n"


def test_validate_golden(capsys, golden_path):
    status, out, err = run_cli(capsys, "validate", str(golden_path))
    assert status == 0
    assert "W020" in out
    assert out.count("\n") == 1
    assert str(golden_path) + ":2:" in out


def test_validate_ignores_leading_bom(capsys, tmp_path):
    source = "#id: d\n\n[SUB-W 王某][PRE-S 发生][PRE-S 厮打]\n[PRE-S 走]\n"
    outputs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / name / "in.ann"
        path.parent.mkdir()
        path.write_text(bom + source, encoding="utf-8")
        status, out, err = run_cli(capsys, "validate", str(path))
        outputs.append((status, out.replace(str(path), "FILE"), err))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1
    assert "FILE:3:" in outputs[0][1]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", "inline"),
        (" \n\t\n", "inline"),
        ("[PRE-S 走]\n{x}\n", "inline"),
        ("#id: d\n# doc\n", "inline"),
        ('\n\n  {"id": ""}\n', "standoff"),
        ('\u3000\r\n{"id": ""}', "standoff"),
        ("# doc\n", "columns"),
        ("\n# doc x \r\n甲\tO\tO\n", "columns"),
        ("# docs\n", "inline"),
        # Inline text may start with "{" and carry a "# doc" metadata line.
        ("{a} [PRE-S 来]\n", "inline"),
        ("# doc note\n[PRE-S 来]了\n", "inline"),
        ("# doc a\n\n# doc b\n", "columns"),
    ],
)
def test_sniff_format_reads_first_non_blank_line(text, expected):
    assert sniff_format(text) == expected


LONG = 200_000


@pytest.mark.parametrize(
    "text, expected",
    [
        ("\n \u3000" + '{"id":"' + "x" * LONG + '"}\n', "standoff"),
        ("{" + "x" * LONG + "\n", "inline"),
        ("[PRE-S 走]" + "甲" * LONG + "\n# doc\n", "inline"),
        ("# doc " + "x" * LONG + "\n\n甲\tO\tO\n", "columns"),
        ("# doc\n" + "甲" * LONG + "\tO\tO\n", "columns"),
        ("# doc " + "x" * LONG, "columns"),
        ("# doc" + " " * LONG + "\t\n", "columns"),
        ("# doc" + "\t" * LONG + "x\n", "inline"),
    ],
    ids=["standoff", "inline brace", "inline", "doc id", "row", "doc only", "spaces", "tabs"],
)
def test_sniff_format_reads_a_long_first_line(text, expected):
    # The first line may be a whole document: sniff_format tells its format
    # from its first characters, and a header line from its end.
    assert sniff_format(text) == expected


@pytest.mark.parametrize(
    "text", ["{a} [PRE-S 来]\n", "# doc note\n[PRE-S 来]了\n"]
)
def test_validate_inline_that_looks_like_another_format(capsys, tmp_path, text):
    path = tmp_path / "in.ann"
    path.write_text(text, encoding="utf-8")
    status, _, err = run_cli(capsys, "validate", str(path))
    assert status in (0, 1)
    assert err == ""


def test_validate_strict_promotes_warnings(capsys, golden_path):
    status, out, _ = run_cli(capsys, "validate", str(golden_path), "--strict")
    assert status == 1
    assert "W020 error" in out


def test_validate_two_pre_file(capsys, tmp_path):
    bad = tmp_path / "two_pre.ann"
    bad.write_text("[PRE-S 发生][PRE-S 厮打]\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "validate", str(bad))
    assert status == 1
    assert "E001" in out


def test_validate_unparseable_file_is_exit_3(capsys, tmp_path):
    bad = tmp_path / "broken.ann"
    bad.write_text("[SUB-W 王某\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "validate", str(bad))
    assert status == 3
    assert "P001" in err


@pytest.mark.parametrize(
    "line, column",
    [
        ("[PRE-S a\tb]", 9),
        ("x\ry[PRE-S a]", 2),
        ("# a\rb\n[PRE-S 来]", 4),
        ("#id: a\rb\n[PRE-S 来]", 7),
    ],
)
def test_validate_tab_or_lone_cr_is_p011(capsys, tmp_path, line, column):
    bad = tmp_path / "bad.ann"
    bad.write_bytes((line + "\n").encode("utf-8"))
    status, out, err = run_cli(capsys, "validate", str(bad))
    assert status == 3
    assert f"bad.ann:1:{column}: P011 " in err
    assert "Traceback" not in err


def test_validate_second_id_after_empty_id_is_p012(capsys, tmp_path):
    bad = tmp_path / "bad.ann"
    bad.write_text("#id:\n#id: x\n[PRE-S 来]\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "validate", str(bad))
    assert status == 3
    assert "bad.ann:2:1: P012 " in err
    assert "Traceback" not in err


def test_stats_reads_standoff_input(capsys, golden_path, tmp_path):
    status, standoff, _ = run_cli(capsys, "convert", "--to", "standoff", str(golden_path))
    stream = tmp_path / "golden.jsonl"
    stream.write_text(standoff, encoding="utf-8")
    status, out, _ = run_cli(capsys, "stats", str(stream))
    assert status == 0
    assert "units: 10" in out.splitlines()


def test_validate_records_format(capsys, golden_path):
    status, out, _ = run_cli(
        capsys, "validate", str(golden_path), "--format", "records"
    )
    assert status == 0
    record = json.loads(out.splitlines()[0])
    assert record["code"] == "W020"
    assert record["line"] == 2


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_validate_standoff_names_each_records_line(capsys, tmp_path, fmt):
    # Two records, each with one E001 finding, on lines 1 and 3.
    two = tmp_path / "two.jsonl"
    record = to_standoff(Document("d", (), (LabelingUnit("走来"),)))
    two.write_text(record + "\n\n" + record.replace('"d"', '"e"') + "\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "validate", "--format", fmt, str(two))
    assert (status, err) == (1, "")
    if fmt == "records":
        lines = [json.loads(line)["line"] for line in out.splitlines()]
    else:
        lines = [int(line.split(":")[1]) for line in out.splitlines()]
    assert lines == [1, 3]


def test_segment_running_example(capsys, tmp_path, golden_doc):
    raw = tmp_path / "raw.txt"
    raw.write_text(GOLDEN_PARAGRAPH + "\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "segment", str(raw))
    assert status == 0
    assert out.splitlines() == [u.text for u in golden_doc.units]


def test_segment_empty_file(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("", encoding="utf-8")
    status, out, _ = run_cli(capsys, "segment", str(raw))
    assert (status, out) == (0, "")


def test_segment_boundary_sidecar(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n\n甲并乙\n", encoding="utf-8")
    sidecar = tmp_path / "bounds.jsonl"
    status, out, _ = run_cli(
        capsys, "segment", str(raw), "--boundaries", str(sidecar)
    )
    assert status == 0
    lines = sidecar.read_text("utf-8").splitlines()
    records = [json.loads(l) for l in lines]
    assert records == [
        {"line": 1, "position": 1, "kind": "candidate", "cause": "comma"},
        {"line": 1, "position": 3, "kind": "hard", "cause": "end_mark"},
        {"line": 3, "position": 0, "kind": "candidate", "cause": "conjunction"},
    ]
    # The records are formatted directly, as json.dumps would write them.
    assert lines == [json.dumps(rec, separators=(",", ":")) for rec in records]
    status, out, _ = run_cli(
        capsys, "segment", str(raw), "--commas", "hard", "--boundaries", str(sidecar)
    )
    assert (status, out) == (0, "甲，\n乙。\n丙\n甲\n并乙\n")
    assert sidecar.read_text("utf-8").splitlines() == [
        '{"line":1,"position":1,"kind":"hard","cause":"comma"}',
        '{"line":1,"position":3,"kind":"hard","cause":"end_mark"}',
        '{"line":3,"position":0,"kind":"candidate","cause":"conjunction"}',
    ]


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_segment_unwritable_sidecar_is_exit_2(capsys, tmp_path, where):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    target = tmp_path / "no" / "b.jsonl" if where == "missing directory" else tmp_path
    status, out, err = run_cli(capsys, "segment", str(raw), "--boundaries", str(target))
    assert (status, out) == (2, "")
    assert err.startswith(f"phk: cannot write {target}: ")
    assert err.count("\n") == 1


def test_segment_crlf_file_equals_its_lf_twin(capsys, tmp_path):
    # The last line has no line end; a CR before it is still a line end.
    lf = "今天下雨。\n甲，乙。丙\n\n甲并乙"
    outputs = []
    for name, text in (("lf", lf), ("crlf", lf.replace("\n", "\r\n") + "\r")):
        raw = tmp_path / f"{name}.txt"
        raw.write_bytes(text.encode("utf-8"))
        sidecar = tmp_path / f"{name}.jsonl"
        status, out, err = run_cli(capsys, "segment", str(raw), "--boundaries", str(sidecar))
        assert (status, err) == (0, "")
        outputs.append((out.encode("utf-8"), sidecar.read_bytes()))
    assert outputs[1] == outputs[0]
    assert outputs[0][0] == "今天下雨。\n甲，\n乙。\n丙\n甲\n并乙\n".encode("utf-8")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_segment_sidecar_write_error_is_exit_2(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "segment", str(raw), "--boundaries", "/dev/full")
    assert status == 2
    assert out == "甲，\n乙。\n丙\n"
    assert err == "phk: cannot write /dev/full: No space left on device\n"


def test_segment_policy_and_commas_flags(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "segment", str(raw), "--policy", "hard_only")
    assert out.splitlines() == ["甲，乙。", "丙"]
    status, out, _ = run_cli(capsys, "segment", str(raw), "--commas", "hard", "--policy", "hard_only")
    assert out.splitlines() == ["甲，", "乙。", "丙"]
    status, out, _ = run_cli(capsys, "segment", str(raw), "--commas", "ignore")
    assert out.splitlines() == ["甲，乙。", "丙"]


def test_segment_conj_lexicon_env(capsys, tmp_path, monkeypatch):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲或乙\n", encoding="utf-8")
    lexicon = tmp_path / "conj.txt"
    lexicon.write_text("或\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "segment", str(raw))
    assert out.splitlines() == ["甲或乙"]
    monkeypatch.setenv("PHK_CONJ_LEXICON", str(lexicon))
    status, out, _ = run_cli(capsys, "segment", str(raw))
    assert out.splitlines() == ["甲", "或乙"]


def test_convert_round_trip_through_all_formats(capsys, golden_path, tmp_path, golden_text):
    status, standoff, _ = run_cli(capsys, "convert", "--to", "standoff", str(golden_path))
    assert status == 0
    standoff_file = tmp_path / "golden.jsonl"
    standoff_file.write_text(standoff, encoding="utf-8")
    status, columns, _ = run_cli(capsys, "convert", "--to", "columns", str(standoff_file))
    assert status == 0
    columns_file = tmp_path / "golden.cols"
    columns_file.write_text(columns, encoding="utf-8")
    status, inline, _ = run_cli(capsys, "convert", "--to", "inline", str(columns_file))
    assert status == 0
    assert inline == golden_text


def test_convert_inline_rejects_multiple_documents(capsys, tmp_path, golden_path):
    stream = tmp_path / "two.jsonl"
    stream.write_text(
        '{"id":"a","units":[]}\n{"id":"b","units":[]}\n', encoding="utf-8"
    )
    status, out, err = run_cli(capsys, "convert", "--to", "inline", str(stream))
    assert (status, out) == (2, "")
    assert "single document" in err
    # Two files of one document each: still nothing on stdout.
    status, out, err = run_cli(
        capsys, "convert", "--to", "inline", str(golden_path), str(golden_path)
    )
    assert (status, out) == (2, "")
    assert "single document" in err


@pytest.mark.parametrize("to", ["inline", "standoff", "columns"])
def test_convert_skips_empty_documents(capsys, tmp_path, golden_path, golden_doc, to):
    empty = tmp_path / "empty.ann"
    empty.write_text("", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    records.write_text('{"id":"","units":[]}\n' + to_standoff(golden_doc) + "\n", encoding="utf-8")
    expected = {
        "inline": emit_document(golden_doc),
        "standoff": to_standoff(golden_doc) + "\n",
        "columns": to_columns(golden_doc),
    }[to]
    for files in ([empty, golden_path, empty], [records], [empty, records, empty]):
        status, out, err = run_cli(capsys, "convert", "--to", to, *map(str, files))
        assert (status, out, err) == (0, expected, ""), files


def _three_files(tmp_path, golden_doc):
    """An inline file, a standoff stream of two documents and a column file."""
    other = Document("other", ("# note",), (LabelingUnit("甲乙"),))
    paths = [tmp_path / "a.ann", tmp_path / "b.jsonl", tmp_path / "c.cols"]
    paths[0].write_text("[SUB-W 王某][PRE-S 走]了\n", encoding="utf-8")
    paths[1].write_text(
        to_standoff(golden_doc) + "\n" + to_standoff(other) + "\n", encoding="utf-8"
    )
    paths[2].write_text(to_columns(golden_doc), encoding="utf-8")
    return [str(p) for p in paths]


@pytest.mark.parametrize("to", ["standoff", "columns"])
def test_convert_many_files_is_concatenation_of_single_files(
    capsys, tmp_path, golden_doc, to
):
    paths = _three_files(tmp_path, golden_doc)
    singles = []
    for path in paths:
        status, out, _ = run_cli(capsys, "convert", "--to", to, path)
        assert status == 0
        singles.append(out)
    status, out, err = run_cli(capsys, "convert", "--to", to, *paths)
    assert (status, out, err) == (0, "".join(singles), "")


def test_stats_many_files_counts_every_document(capsys, tmp_path, golden_doc):
    paths = _three_files(tmp_path, golden_doc)
    texts = [Path(p).read_text(encoding="utf-8") for p in paths]
    docs = [
        parse_document(texts[0]).document,
        *read_standoff(texts[1]),
        *read_columns(texts[2]),
    ]
    status, out, err = run_cli(capsys, "stats", "--format", "records", *paths)
    expected = metrics.stats_records(metrics.corpus_stats(docs))
    assert (status, out, err) == (0, expected + "\n", "")


def test_convert_keeps_earlier_output_when_a_later_file_fails(
    capsys, tmp_path, golden_path
):
    _, single, _ = run_cli(capsys, "convert", "--to", "standoff", str(golden_path))
    missing = tmp_path / "missing.ann"
    status, out, err = run_cli(
        capsys, "convert", "--to", "standoff", str(golden_path), str(missing)
    )
    assert status == 2
    assert out == single
    assert err.startswith(f"phk: cannot read {missing}")
    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"id": 1}\n', encoding="utf-8")
    status, out, err = run_cli(
        capsys, "convert", "--to", "standoff", str(golden_path), str(broken)
    )
    assert status == 3
    assert out == single
    assert err.startswith(f"phk: {broken}: C004 ")


class _Discard:
    """A stdout that keeps nothing of what it is given."""

    def write(self, s: str) -> int:
        return len(s)

    def flush(self) -> None:
        pass


def _peaks(monkeypatch, command: list[str], path, workers: int, few: int, many: int):
    """Traced peaks of ``command`` over ``few`` and over ``many`` copies of
    ``path``, with the files run on up to ``workers`` workers."""
    monkeypatch.setattr(sys, "stdout", _Discard())
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)

    def peak(files: int) -> int:
        tracemalloc.start()
        try:
            assert main([*command, *[str(path)] * files]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    main([*command, str(path), str(path)])  # warm-up: imports what a run with workers uses
    return peak(few), peak(many)


def _big(tmp_path, golden_lines):
    path = tmp_path / "big.ann"
    path.write_text("\n".join(golden_lines * 300) + "\n", encoding="utf-8")
    return path


def test_convert_memory_does_not_grow_with_file_count(monkeypatch, tmp_path, golden_lines):
    path = _big(tmp_path, golden_lines)
    one, four = _peaks(monkeypatch, ["convert", "--to", "standoff"], path, 1, 1, 4)
    assert four < 1.3 * one, (one, four)


def test_convert_parent_memory_does_not_grow_with_file_count(
    monkeypatch, tmp_path, golden_lines
):
    # tracemalloc sees the parent only: the output it holds for files that
    # are not due yet, which stays below what one file's run holds.
    path = _big(tmp_path, golden_lines)
    one, four = _peaks(monkeypatch, ["convert", "--to", "standoff"], path, 2, 1, 4)
    assert four < one, (one, four)


@pytest.mark.parametrize("workers", [1, 2])
def test_stats_memory_does_not_grow_with_file_count(monkeypatch, golden_path, workers):
    # Each file's counts join the total once the file is due, so a long
    # list of small files keeps none of their reports (which would take
    # 300 files to 7-9 times the peak of two). With two workers the parent
    # also holds the pickled counts of files a worker finished ahead.
    two, many = _peaks(monkeypatch, ["stats"], golden_path, workers, 2, 300)
    assert many < 3 * two, (two, many)


def test_stats_table_and_records(capsys, golden_path):
    status, out, _ = run_cli(capsys, "stats", str(golden_path))
    assert status == 0
    assert "pattern S: 5" in out.splitlines()
    assert "pattern M: 5" in out.splitlines()
    status, out, _ = run_cli(capsys, "stats", str(golden_path), "--format", "records")
    record = json.loads(out)
    assert record["by_tag"]["ADV-P"] == 6


def test_stats_empty_corpus(capsys, tmp_path):
    empty = tmp_path / "empty.ann"
    empty.write_text("", encoding="utf-8")
    status, out, _ = run_cli(capsys, "stats", str(empty))
    assert status == 0
    assert "units: 0" in out.splitlines()


def test_agree_self(capsys, golden_path):
    status, out, _ = run_cli(capsys, "agree", str(golden_path), str(golden_path))
    assert status == 0
    assert "precision: 1.0000" in out.splitlines()
    assert "kappa: 1.0000" in out.splitlines()


def test_agree_text_mismatch_is_exit_2(capsys, golden_path, tmp_path):
    other = tmp_path / "other.ann"
    other.write_text("[PRE-S 走]\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "agree", str(golden_path), str(other))
    assert status == 2
    assert "AGR002" in err


def test_agree_match_and_normalize_flags(capsys, tmp_path):
    a = tmp_path / "a.ann"
    b = tmp_path / "b.ann"
    a.write_text("[RAI-W 岳父]\n", encoding="utf-8")
    b.write_text("[COM-W 岳父]\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "agree", str(a), str(b), "--match", "type")
    assert "f1: 0.0000" in out.splitlines()
    status, out, _ = run_cli(
        capsys, "agree", str(a), str(b), "--match", "type", "--normalize-rai"
    )
    assert "f1: 1.0000" in out.splitlines()


def test_agree_inputs_share_units_and_report_a_broken_line_per_file(capsys, tmp_path):
    # ``agree`` loads both files through one map of known lines.
    a = tmp_path / "a.ann"
    b = tmp_path / "b.ann"
    a.write_text("[SUB-W 王]走\n[SUB-W ]\n", encoding="utf-8")
    b.write_text("#id: b\n[SUB-W 王]走\n\n[SUB-W ]\n", encoding="utf-8")
    known: dict = {}
    status_a, [(doc_a, _)] = cli._read(str(a), None, known)
    status_b, [(doc_b, _)] = cli._read(str(b), None, known)
    assert doc_b.units[0] is doc_a.units[0]
    assert (status_a, status_b) == (3, 3)
    assert capsys.readouterr().err == (
        f"{a}:2:8: P009 empty element content\n{b}:4:8: P009 empty element content\n"
    )


def test_agree_reports_the_broken_lines_of_both_files(capsys, tmp_path):
    a = tmp_path / "ba.ann"
    b = tmp_path / "bb.ann"
    a.write_text("[SUB-W 王]走\n[SUB-W ]\n", encoding="utf-8")
    b.write_text("[SUB-W 王]走\n\n[SUB-W ]\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "agree", str(a), str(b))
    assert (status, out) == (3, "")
    assert err == (
        f"{a}:2:8: P009 empty element content\n{b}:3:8: P009 empty element content\n"
    )


def test_segment_unknown_policy_in_config_is_exit_2(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲。乙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"segment": {"policy": "both"}}), encoding="utf-8")
    status, out, err = run_cli(capsys, "--config", str(config), "segment", str(raw))
    assert (status, out) == (2, "")
    assert err == "phk: unknown segment policy 'both'\n"


def test_config_file_defaults_flags_win(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"segment": {"commas": "ignore"}}), encoding="utf-8")
    _, out, _ = run_cli(capsys, "--config", str(config), "segment", str(raw))
    assert out.splitlines() == ["甲，乙。", "丙"]
    _, out, _ = run_cli(
        capsys, "--config", str(config), "segment", str(raw), "--commas", "candidate"
    )
    assert out.splitlines() == ["甲，", "乙。", "丙"]


def test_unknown_match_criterion_in_config_is_exit_2(capsys, tmp_path, golden_path):
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"agree": {"match": ["x"]}}), encoding="utf-8")
    status, out, err = run_cli(
        capsys, "--config", str(config), "agree", str(golden_path), str(golden_path)
    )
    assert (status, out) == (2, "")
    assert err == "phk: unknown match criterion ['x']\n"


@pytest.mark.parametrize("entry", [None, 1])
def test_non_string_conjunction_in_config_is_exit_2(capsys, tmp_path, entry):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲None乙1丙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(
        json.dumps({"segment": {"conjunctions": ["和", entry]}}), encoding="utf-8"
    )
    status, out, err = run_cli(capsys, "--config", str(config), "segment", str(raw))
    assert (status, out) == (2, "")
    assert err == "phk: segment.conjunctions entries must be strings\n"


@pytest.mark.parametrize("value", ["false", "true", 0, 1, [], {}], ids=repr)
def test_non_bool_normalize_rai_in_config_is_exit_2(capsys, tmp_path, golden_path, value):
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"agree": {"normalize_rai": value}}), encoding="utf-8")
    status, out, err = run_cli(
        capsys, "--config", str(config), "agree", str(golden_path), str(golden_path)
    )
    assert (status, out) == (2, "")
    assert err == "phk: agree.normalize_rai must be true or false\n"


@pytest.mark.parametrize("value, kind", [(None, "RAI"), (False, "RAI"), (True, "COM")])
def test_normalize_rai_in_config_is_read_as_a_bool(capsys, tmp_path, golden_path, value, kind):
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"agree": {"normalize_rai": value}}), encoding="utf-8")
    status, out, err = run_cli(
        capsys, "--config", str(config), "agree", str(golden_path), str(golden_path)
    )
    assert (status, err) == (0, "")
    assert f"kind {kind}: matched {9 if kind == 'COM' else 1} " in out
    assert ("kind RAI:" in out) == (kind == "RAI")


@pytest.mark.parametrize("value", ["和", {"和": 1}, 0, False], ids=repr)
def test_non_list_conjunctions_in_config_is_exit_2(capsys, tmp_path, value):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲和乙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"segment": {"conjunctions": value}}), encoding="utf-8")
    status, out, err = run_cli(capsys, "--config", str(config), "segment", str(raw))
    assert (status, out) == (2, "")
    assert err == "phk: segment.conjunctions must be a list of strings\n"


def test_null_conjunctions_in_config_is_the_default(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"segment": {"conjunctions": None}}), encoding="utf-8")
    assert run_cli(capsys, "--config", str(config), "segment", str(raw)) == run_cli(
        capsys, "segment", str(raw)
    )


def test_empty_conjunctions_in_config_is_exit_2(capsys, tmp_path):
    # An empty list was read as unset, and the default lexicon cut at 然后;
    # an empty --conj or PHK_CONJ_LEXICON file is exit 2 too.
    raw = tmp_path / "raw.txt"
    raw.write_text("我们吃饭然后他们睡觉。\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({"segment": {"conjunctions": []}}), encoding="utf-8")
    status, out, err = run_cli(capsys, "--config", str(config), "segment", str(raw))
    assert (status, out, err) == (2, "", "phk: segment.conjunctions has no entries\n")


@pytest.mark.parametrize("value", [0, False, "", [], {}, 1, "both"], ids=repr)
@pytest.mark.parametrize(
    "section, key, what",
    [
        ("segment", "commas", "comma policy"),
        ("segment", "policy", "segment policy"),
        ("agree", "match", "match criterion"),
    ],
)
def test_a_config_choice_other_than_null_is_checked(
    capsys, tmp_path, golden_path, section, key, what, value
):
    # A falsy value is not the default: only null or an absent key is.
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    command = (
        ["segment", str(raw)]
        if section == "segment"
        else ["agree", str(golden_path), str(golden_path)]
    )
    status, out, err = run_cli(capsys, "--config", str(config), *command)
    assert (status, out) == (2, "")
    assert err == f"phk: unknown {what} {value!r}\n"


@pytest.mark.parametrize("key", ["commas", "policy", "match"])
def test_a_null_config_choice_is_the_default(capsys, tmp_path, golden_path, key):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    section = "agree" if key == "match" else "segment"
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({section: {key: None}}), encoding="utf-8")
    command = (
        ["segment", str(raw)]
        if section == "segment"
        else ["agree", str(golden_path), str(golden_path)]
    )
    assert run_cli(capsys, "--config", str(config), *command) == run_cli(capsys, *command)


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1, 2]", "config {path} must be a JSON object"),
        ("null", "config {path} must be a JSON object"),
        ('{"segment": 5, "agree": []}', "config section segment must be an object or null"),
        ('{"agree": []}', "config section agree must be an object or null"),
        ('{"segment": {"comas": "ignore"}}', "unknown config key segment.comas"),
        ('{"agree": {"normalize": true}}', "unknown config key agree.normalize"),
        ('{"segmnt": {"commas": "ignore"}}', "unknown config section segmnt"),
        # A surrogate escape that no byte stands for is written as the escape.
        ('{"segment": {"\\ud800": 1}}', "unknown config key segment.\\ud800"),
        # One that the stderr would write as the byte 0xFF is written as the escape too.
        ('{"\\udcff": 1}', "unknown config section \\udcff"),
    ],
)
@pytest.mark.parametrize("command", ["segment", "stats"])
def test_a_config_of_the_wrong_shape_is_exit_2(capsys, tmp_path, content, message, command):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(content, encoding="utf-8")
    status, out, err = run_cli(capsys, "--config", str(config), command, str(raw))
    assert (status, out) == (2, "")
    assert err == "phk: " + message.format(path=config) + "\n"


def test_a_config_with_a_bom_is_read(capsys, tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"segment": {"commas": "ignore"}}).encode())
    assert run_cli(capsys, "--config", str(config), "segment", str(raw)) == (0, "甲，乙。\n丙\n", "")


def test_deeply_nested_config_is_exit_2(capsys, tmp_path, golden_path):
    config = tmp_path / "deep.json"
    config.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    status, out, err = run_cli(capsys, "--config", str(config), "stats", str(golden_path))
    assert (status, out) == (2, "")
    assert err.startswith(f"phk: cannot load config {config}: maximum recursion depth")


def test_deeply_nested_standoff_record_is_c004_exit_3(capsys, tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"id":"x","units":' + "[" * 200_000 + "]" * 200_000 + "}\n")
    status, out, err = run_cli(capsys, "convert", "--to", "columns", str(path))
    assert (status, out) == (3, "")
    assert err.startswith(
        f"phk: {path}: C004 line 1: record is not valid JSON: maximum recursion depth"
    )


@pytest.mark.parametrize(
    "third, message",
    [
        (
            '{"id":"c","units":[{"text":"走","elements":[{"kind":"PRE","sub":"X","start":0,"end":1}]}]}',
            "C003 line 4: illegal kind/subtag combination 'PRE'/'X'",
        ),
        (
            '{"id": 1, x}',
            "C004 line 4: record is not valid JSON: Expecting property name enclosed in double"
            " quotes: line 1 column 11 (char 10)",
        ),
    ],
    ids=["C003", "C004"],
)
def test_a_standoff_read_error_names_its_record_line(capsys, tmp_path, third, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":"a","units":[]}\n{"id":"b","units":[]}\n\n' + third + "\n")
    for command in (["stats"], ["convert", "--to", "columns"]):
        assert run_cli(capsys, *command, str(path)) == (3, "", f"phk: {path}: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "# doc x\n甲\tB-PRE-S\tB\n\n丙\tB-PRE-X\tB\n",
            "C003 line 4: illegal element tag 'B-PRE-X'",
        ),
        (
            "# doc x\n甲\tB-PRE-S\tB\n\n丙\tO\tO\n丁\tI-PRE-S\tB\n",
            "C010 line 4: 'I-PRE-S' without a preceding matching B tag",
        ),
        (
            "# doc x\n甲\tB-PRE-S\tB\n乙\tI-PRE-S\tB\n\n丙\tO\tB\n",
            "C011 line 5: role 'B' on an O-tagged character",
        ),
        # The line of the failing document's header, not of the unit.
        ("# doc a\n甲\tO\tO\n# doc  x\n\n乙\tO\tO\n", "C012 line 3: invalid document id ' x'"),
        (
            "# doc x\r\n甲\tO\tO\r\n\r\n乙\tO\tB\r\n",
            "C011 line 4: role 'B' on an O-tagged character",
        ),
    ],
    ids=["C003", "C010", "C011", "C012", "C011 CRLF"],
)
def test_a_column_read_error_names_its_line(capsys, tmp_path, text, message):
    path = tmp_path / "bad.cols"
    path.write_text(text, encoding="utf-8", newline="")
    for command in (["stats"], ["convert", "--to", "standoff"]):
        assert run_cli(capsys, *command, str(path)) == (3, "", f"phk: {path}: {message}\n")


@pytest.mark.parametrize(
    "value", [["x"], {"x": 1}, 1, None, True], ids=["list", "object", "number", "null", "bool"]
)
@pytest.mark.parametrize(
    "section, key",
    [
        ("segment", "commas"),
        ("segment", "policy"),
        ("segment", "conjunctions"),
        ("agree", "match"),
        ("agree", "normalize_rai"),
    ],
)
def test_any_json_value_under_a_config_key_is_exit_0_or_2(
    capsys, tmp_path, golden_path, section, key, value
):
    raw = tmp_path / "raw.txt"
    raw.write_text("甲，乙。丙\n", encoding="utf-8")
    config = tmp_path / "phk.json"
    config.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    command = (
        ["segment", str(raw)]
        if section == "segment"
        else ["agree", str(golden_path), str(golden_path)]
    )
    # An uncaught exception would fail the test here, before any status.
    status, _, err = run_cli(capsys, "--config", str(config), *command)
    assert status in (0, 2)
    assert "Traceback" not in err
    assert (err == "") == (status == 0)


def test_repeated_invocations_are_byte_identical(golden_path):
    cmd = [sys.executable, "-m", "phkit", "parse", str(golden_path)]
    first = subprocess.run(cmd, capture_output=True, env=child_env())
    second = subprocess.run(cmd, capture_output=True, env=child_env())
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_pipeline_parse_convert_equals_direct(golden_path):
    parse = subprocess.run(
        [sys.executable, "-m", "phkit", "parse", str(golden_path)],
        capture_output=True,
        check=True,
        env=child_env(),
    )
    piped = subprocess.run(
        [sys.executable, "-m", "phkit", "convert", "--to", "columns", "-"],
        input=parse.stdout,
        capture_output=True,
        check=True,
        env=child_env(),
    )
    direct = subprocess.run(
        [sys.executable, "-m", "phkit", "convert", "--to", "columns", str(golden_path)],
        capture_output=True,
        check=True,
        env=child_env(),
    )
    assert piped.stdout == direct.stdout
    assert piped.stdout


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command",
    [
        ["parse", "{golden}"],
        ["validate", "{golden}"],
        ["stats", "{golden}"],
        ["agree", "{golden}", "{golden}"],
        ["segment", "{golden}"],
        ["convert", "--to", "inline", "{golden}"],
    ],
    ids=lambda command: command[0],
)
def test_stdout_write_error_is_exit_2(golden_path, command, buffered):
    # Buffered, the output of a small run is only written when the
    # interpreter exits, where a failure would be reported outside phk.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [arg.format(golden=golden_path) for arg in command]
    with open("/dev/full", "wb") as full:
        child = subprocess.run(
            [sys.executable, "-m", "phkit", *argv], stdout=full, stderr=subprocess.PIPE, env=env
        )
    err = child.stderr.decode("utf-8")
    assert child.returncode == 2, err
    assert err == "phk: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("command", ["parse", "stats"])
def test_closed_stdout_pipe_is_exit_0(golden_path, command):
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as in a shell pipeline
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before phk writes
    try:
        child = subprocess.run(
            [sys.executable, "-m", "phkit", command, str(golden_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (0, b"")


@pytest.mark.parametrize(
    "command",
    [
        ["parse", "{golden}"],
        ["validate", "{golden}"],
        ["stats", "{golden}"],
        ["agree", "{golden}", "{golden}"],
        ["segment", "{golden}", "--boundaries", "{sidecar}"],
        ["convert", "--to", "columns", "{golden}"],
    ],
    ids=lambda command: command[0],
)
def test_closed_stdout_descriptor_is_exit_2(golden_path, tmp_path, command):
    # Started with descriptor 1 closed (`phk ... >&-`), sys.stdout is None.
    sidecar = tmp_path / "boundaries.jsonl"
    argv = [arg.format(golden=golden_path, sidecar=sidecar) for arg in command]
    child = subprocess.run(
        [sys.executable, "-m", "phkit", *argv],
        stderr=subprocess.PIPE,
        env=child_env(),
        preexec_fn=lambda: os.close(1),
    )
    err = child.stderr.decode("utf-8")
    assert child.returncode == 2, err
    assert err == f"phk: cannot write stdout: {os.strerror(errno.EBADF)}\n"
    assert not sidecar.exists()


@pytest.mark.parametrize("command", ["validate", "segment"])
def test_closed_stdin_is_exit_2(command):
    # Started with descriptor 0 closed (`phk validate - <&-`), sys.stdin is None.
    child = subprocess.run(
        [sys.executable, "-m", "phkit", command, "-"],
        capture_output=True,
        env=child_env(),
        preexec_fn=lambda: os.close(0),
    )
    assert (child.returncode, child.stdout) == (2, b"")
    assert child.stderr.decode() == f"phk: cannot read -: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize("stderr", ["closed", "full"])
@pytest.mark.parametrize(
    "files, status",
    [
        (["{missing}"], 2),
        (["{bad}"], 3),
        (["{broken}"], 3),
        (["{golden}", "{broken}"], 3),
        (["{golden}", "{missing}"], 2),
    ],
    ids=["missing", "not UTF-8", "parse diagnostics", "two files", "missing second file"],
)
def test_an_unwritable_stderr_keeps_the_exit_status(golden_path, tmp_path, files, status, stderr):
    bad = tmp_path / "bad.ann"
    bad.write_bytes(b"[PRE-S \xff]\n")
    broken = tmp_path / "broken.ann"
    broken.write_text("[SUB-W 王某\n", encoding="utf-8")
    paths = dict(missing=tmp_path / "missing.ann", bad=bad, broken=broken, golden=golden_path)
    argv = [sys.executable, "-m", "phkit", "validate", *(f.format(**paths) for f in files)]
    if stderr == "closed":
        child = subprocess.run(
            argv, stdout=subprocess.PIPE, env=child_env(), preexec_fn=lambda: os.close(2)
        )
    elif Path("/dev/full").exists():
        with open("/dev/full", "wb") as full:
            child = subprocess.run(argv, stdout=subprocess.PIPE, stderr=full, env=child_env())
    else:
        pytest.skip("needs a device that is always full")
    assert child.returncode == status


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["parse"])  # missing files argument
    assert err.value.code == 2


USAGE = json.loads((GOLDEN_PATH.parent / "cli_usage.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != USAGE["python"],
    reason="argparse words its help and errors differently in other Python versions",
)
@pytest.mark.parametrize("case", USAGE["cases"], ids=lambda case: " ".join(case["argv"]) or "-")
def test_help_and_usage_errors_are_byte_identical(tmp_path, case):
    # Recorded before the subcommands' arguments were added lazily: every
    # --help, every usage error and an abbreviated option keep their bytes.
    for name, text in USAGE["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = {**child_env(), "COLUMNS": "80", "LINES": "24"}
    env.pop(cli.ENV_CONJ_LEXICON, None)
    child = subprocess.run(
        [sys.executable, "-m", "phkit", *case["argv"]], cwd=tmp_path, capture_output=True, env=env
    )
    assert (child.returncode, child.stdout.decode(), child.stderr.decode()) == (
        case["status"], case["stdout"], case["stderr"]
    )


# --- the collector pause ----------------------------------------------------


@contextmanager
def _gc_state(enabled: bool):
    """Run the block with the collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["ok", "parse failure", "CliError"])
def test_main_leaves_the_gc_state_as_it_found_it(
    capsys, tmp_path, golden_path, enabled, case
):
    broken = tmp_path / "broken.ann"
    broken.write_text("[SUB-W 王某\n", encoding="utf-8")
    path, expected = {
        "ok": (golden_path, 0),
        "parse failure": (broken, 3),
        "CliError": (tmp_path / "missing.ann", 2),
    }[case]
    with _gc_state(enabled):
        status, _, _ = run_cli(capsys, "validate", str(path))
        after = gc.isenabled()
    assert status == expected
    assert after is enabled


def test_main_pauses_the_gc_while_the_subcommand_runs(monkeypatch, golden_path):
    seen = []

    def cmd_validate(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(validation, "cmd_validate", cmd_validate)  # looked up when it runs
    with _gc_state(True):
        assert main(["validate", str(golden_path)]) == 0
        assert gc.isenabled()
    assert seen == [False]


def _corpus(tmp_path, golden_doc, units: int, fmt: str) -> str:
    doc = Document("corpus", golden_doc.metadata, golden_doc.units * (units // 10))
    write = {"inline": emit_document, "standoff": to_standoff, "columns": to_columns}
    path = tmp_path / f"{units}.{fmt}"
    path.write_text(write[fmt](doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("fmt", ["inline", "standoff", "columns"])
def test_no_reference_cycles_grow_with_the_input(capsys, tmp_path, golden_doc, fmt):
    # The collector pause is safe only if whatever cycles a command leaves
    # do not grow with its input: reference counting frees everything else.
    small, big = (_corpus(tmp_path, golden_doc, n, fmt) for n in (20, 2000))
    commands = [
        ["validate", "{}"],
        ["stats", "{}"],
        ["convert", "--to", "inline", "{}"],
        ["convert", "--to", "standoff", "{}"],
        ["convert", "--to", "columns", "{}"],
        ["agree", "{}", "{}"],
    ]
    if fmt == "inline":
        commands += [["parse", "{}"], ["segment", "{}"]]
    with _gc_state(False):
        for command in commands:
            found = []
            for path in (small, small, big):  # the first run fills caches
                main([arg.format(path) for arg in command])
                capsys.readouterr()
                found.append(gc.collect())
            assert found[1] == found[2], (command, found)


# File names that are not UTF-8: ``phk`` writes them as the bytes given.
_NAMES = {
    "bad": b"a\xff.ann",
    "findings": b"f\xff.ann",
    "missing": b"m\xff.ann",
    "raw": b"r\xff.txt",
    "nodir": b"d\xff/x.jsonl",
}
_P009 = "{bad}:2:8: P009 empty element content\n"
_NOT_FOUND = "phk: cannot read {missing}: No such file or directory\n"
_E001 = "{findings}:1: E001 error expected exactly one PRE element, found 2\n"

# Per case: the arguments, the exit status, what stdout holds and stderr.
_NAME_CASES = {
    "parse": (["parse", "{golden}", "{bad}"], 3, "", _P009),
    "parse --check": (["parse", "--check", "{bad}", "{golden}"], 3, "", _P009),
    "validate": (["validate", "{findings}", "{golden}"], 1, _E001, ""),
    "validate records": (
        ["validate", "--format", "records", "{golden}", "{findings}"], 1, '"file":"{findings}"', ""
    ),
    "stats": (["stats", "{golden}", "{missing}"], 2, "", _NOT_FOUND),
    "convert --to inline": (["convert", "--to", "inline", "{bad}"], 3, "", _P009),
    "convert --to standoff": (
        ["convert", "--to", "standoff", "{golden}", "{missing}"], 2, "", _NOT_FOUND
    ),
    "convert --to columns": (["convert", "--to", "columns", "{bad}", "{golden}"], 3, "", _P009),
    "agree": (["agree", "{golden}", "{bad}"], 3, "", _P009),
    "segment": (["segment", "{missing}"], 2, "", _NOT_FOUND),
    "--config": (
        ["--config", "{missing}", "stats", "{golden}"],
        2,
        "",
        "phk: cannot load config {missing}: No such file or directory\n",
    ),
    "--conj": (["segment", "--conj", "{missing}", "{raw}"], 2, "", _NOT_FOUND),
    "PHK_CONJ_LEXICON": (["segment", "{raw}"], 2, "", _NOT_FOUND),
    "--boundaries": (
        ["segment", "--boundaries", "{nodir}", "{raw}"],
        2,
        "",
        "phk: cannot write {nodir}: No such file or directory\n",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", _NAME_CASES)
def test_a_file_name_that_is_not_utf8_is_written_as_its_bytes(
    monkeypatch, tmp_path, golden_path, case, workers
):
    names = {key: str(tmp_path / os.fsdecode(raw)) for key, raw in _NAMES.items()}
    names["golden"] = str(golden_path)
    Path(names["bad"]).write_text("[SUB-W 王]走\n[SUB-W ]\n", encoding="utf-8")
    Path(names["findings"]).write_text("[PRE-S 走][PRE-S 来]\n", encoding="utf-8")
    Path(names["raw"]).write_text("甲，乙。\n", encoding="utf-8")
    command, status, out, err = _NAME_CASES[case]
    if case == "PHK_CONJ_LEXICON":
        monkeypatch.setenv(cli.ENV_CONJ_LEXICON, names["missing"])
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    result = run_encoded([arg.format(**names) for arg in command])

    def encoded(text: str) -> bytes:
        return text.format(**names).encode("utf-8", "surrogateescape")

    assert (result[0], encoded(out) in result[1], result[2]) == (status, True, encoded(err))


@pytest.mark.parametrize("field", ["text", "id", "meta"])
@pytest.mark.parametrize("to", ["inline", "standoff", "columns"])
def test_convert_refuses_a_lone_surrogate_escape_before_any_output(tmp_path, field, to):
    record = {
        "text": '{"id":"x","units":[{"text":"走\\udcff","elements":[]}]}',
        "id": '{"id":"\\udcff","units":[{"text":"走","elements":[]}]}',
        "meta": '{"id":"x","meta":["# \\ud800"],"units":[]}',
    }[field]
    path = tmp_path / "lone.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    expected = f"phk: {path}: C004 line 1: '{field}' holds a lone surrogate escape\n"
    assert run_encoded(["convert", "--to", to, str(path)]) == (3, b"", expected.encode())


# --- fuzzing the command line ------------------------------------------------

_FUZZ_COMMANDS = [
    ["parse", "{}"],
    ["parse", "--check", "{}"],
    ["validate", "{}"],
    ["validate", "--strict", "--format", "records", "{}"],
    ["stats", "{}"],
    ["stats", "--format", "records", "{}"],
    ["convert", "--to", "inline", "{}"],
    ["convert", "--to", "standoff", "{}"],
    ["convert", "--to", "columns", "{}"],
    ["agree", "{}", "{}"],
    ["agree", "--match", "head", "--format", "records", "{}", str(GOLDEN_PATH)],
    ["segment", "--commas", "hard", "{}"],
] + [
    [command, "--from", fmt, *rest, "{}"]
    for fmt in ("inline", "standoff", "columns")
    for command, *rest in (["validate"], ["stats"], ["convert", "--to", "inline"])
]

_FUZZ_TOKENS = [
    b"\n", b"\r", b"\t", b" ", b"\x00", b"\xff", b"\xe6\x9d", "\ufeff".encode(),
    b"#", b"#id:", b"#id: x", b"# doc", b"# meta\t", b"[", b"]", b"(", b")", b"-",
    b"\\", b"[PRE-S ", b"[ADV-P ", b"[UNC ", "来".encode(), b"{", b"}", b"[]",
    b'"', b":", b",", b"0", b"-1", b"7", b"null", b"true", b"1e999", b"1.5",
    b'"id"', b'"units"', b'"text"', b'"elements"', b'"kind"', b'"sub"',
    b'"start"', b'"end"', b'"trig_end"', b'"head_start"', b'"PRE"', b'"S"',
    b"B-PRE-S", b"I-PRE-S", b"O", b"H", b"TH", b"T",
    b"\\ud800", b"\\udcff", b"\\ud83d\\ude00",  # lone, and paired into one character
]


@cache
def _fuzz_seeds() -> tuple[bytes, ...]:
    doc = parse_document(GOLDEN_PATH.read_text(encoding="utf-8")).document
    return tuple(
        text.encode("utf-8")
        for text in (emit_document(doc), to_standoff(doc) + "\n", to_columns(doc))
    )


@st.composite
def _edited_seeds(draw):
    """A valid inline, standoff or column file with a few bytes edited."""
    data = bytearray(draw(st.sampled_from(_fuzz_seeds())))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        span = draw(st.integers(0, 8))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "delete":
            del data[at : at + span]
        else:
            token = draw(st.sampled_from(_FUZZ_TOKENS))
            data[at : at + (span if edit == "replace" else 0)] = token
    return bytes(data)


@st.composite
def _escaped_records(draw):
    """The standoff seed with a lone surrogate, or a character outside the
    BMP, at the end of its id or a unit text (where it keeps the offsets), or
    as a meta line. json.dumps writes it as a JSON escape, a pair for the latter."""
    record = json.loads(_fuzz_seeds()[1])
    char = draw(st.sampled_from(["\ud800", "\udcff", "\U0001f600"]))
    field = draw(st.sampled_from(["id", "meta", "text"]))
    if field == "id":
        record["id"] += char
    elif field == "meta":
        record["meta"] = ["# " + char]  # the seed has none
    else:
        record["units"][draw(st.integers(0, len(record["units"]) - 1))]["text"] += char
    return json.dumps(record).encode()


_fuzz_inputs = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=30).map(b"".join),
    _edited_seeds(),
    _escaped_records(),
)


@given(data=_fuzz_inputs, command=st.sampled_from(_FUZZ_COMMANDS))
@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_bytes_to_any_subcommand_end_with_an_exit_status(tmp_path, data, command):
    name = b"fuzz\xff.in"  # not UTF-8
    path = tmp_path / os.fsdecode(name)
    path.write_bytes(data)
    status, out, _ = run_encoded([arg.format(path) for arg in command])
    assert status in (0, 1, 2, 3)
    # Only the name is written as bytes that are not UTF-8: no escape in a
    # standoff string reaches stdout as a byte of its own.
    out.replace(name, b"").decode("utf-8")
