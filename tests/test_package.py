"""The package as a whole: its public names, what it and a command import,
and where the JSON writer options are stated."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import phkit

from .conftest import child_env

# The public names of ``phkit`` by the submodule that defines them.
PUBLIC_NAMES = {
    "convert": [
        "ConvertError",
        "from_columns",
        "from_standoff",
        "read_columns",
        "read_standoff",
        "to_columns",
        "to_standoff",
    ],
    "inline": [
        "ParseDiagnostic",
        "ParseResult",
        "emit_document",
        "emit_unit",
        "parse_bytes",
        "parse_document",
        "parse_unit",
    ],
    "metrics": [
        "AgreementError",
        "AgreementReport",
        "MatchCriterion",
        "StatsReport",
        "agree",
        "char_kappa",
        "corpus_stats",
        "span_agreement",
    ],
    "model": [
        "Document",
        "Element",
        "ElementForm",
        "ElementType",
        "LabelingUnit",
        "ModelError",
        "PredicatePattern",
        "Segment",
        "Span",
        "element_surface",
    ],
    "segmentation": [
        "BoundaryCause",
        "BoundaryKind",
        "CommaPolicy",
        "SegmentBoundary",
        "SegmenterConfig",
        "propose_boundaries",
        "split",
    ],
    "validation": ["Diagnostic", "Severity", "validate_document", "validate_unit"],
}


def test_public_import_surface():
    assert phkit.__all__ == sorted(n for names in PUBLIC_NAMES.values() for n in names)
    assert phkit.__version__ == "0.1.0"
    star: dict = {}
    exec("from phkit import *", star)
    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"phkit.{module_name}")
        for name in names:
            assert getattr(phkit, name) is getattr(module, name)
            assert star[name] is getattr(module, name)
            assert name in dir(phkit)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        phkit.nonexistent


# Per subcommand: its arguments (FILE is the input file), its input (None
# for the golden file), what its stdout starts with, the modules it imports
# and the modules it must not import. No command imports ``dataclasses``,
# which loads ``inspect``, ``ast``, ``dis`` and ``tokenize``.
NO_DATACLASSES = {"dataclasses", "inspect"}
CHILD_IMPORTS = {
    "parse": (
        ["FILE"],
        None,
        b'{"id":"golden"',
        {"phkit.cli", "phkit.inline", "phkit.convert"},
        # One file runs in one process: nothing of the workers' is imported.
        # The readers and the broken-line diagnoser (validation) are not either.
        {"phkit.metrics", "phkit.segmentation", "phkit.validation", "phkit.workers", "pickle"}
        | NO_DATACLASSES | {"phkit.readers"},
    ),
    "segment": (
        ["FILE"],
        "甲，乙。丙\n",
        "甲，\n乙。\n丙\n".encode("utf-8"),
        {"phkit.cli", "phkit.inline", "phkit.segmentation"},
        {"phkit.metrics", "phkit.validation", "phkit.convert", "phkit.readers"} | NO_DATACLASSES,
    ),
    "validate": (
        ["--format", "records", "FILE"],
        None,
        b'{"file":',
        {"phkit.cli", "phkit.inline", "phkit.validation"},
        {"phkit.metrics", "phkit.segmentation", "phkit.convert", "phkit.readers"} | NO_DATACLASSES,
    ),
    "stats": (
        ["--format", "records", "FILE"],
        None,
        b'{"units":10,',
        {"phkit.cli", "phkit.inline", "phkit.metrics"},
        {"phkit.validation", "phkit.segmentation", "phkit.convert", "phkit.readers"}
        | NO_DATACLASSES,
    ),
    "convert": (
        ["--to", "columns", "FILE"],
        None,
        b"# doc golden\n",
        {"phkit.cli", "phkit.inline", "phkit.convert"},
        # Writing columns needs no reader.
        {"phkit.metrics", "phkit.segmentation", "phkit.validation", "phkit.readers"}
        | NO_DATACLASSES,
    ),
    "agree": (
        ["--format", "records", "FILE", "FILE"],
        None,
        b'{"criterion":"exact","matched":32,',
        {"phkit.cli", "phkit.inline", "phkit.metrics"},
        {"phkit.validation", "phkit.segmentation", "phkit.convert", "phkit.readers"}
        | NO_DATACLASSES,
    ),
}


@pytest.mark.parametrize("command", sorted(CHILD_IMPORTS))
def test_parse_child_imports_neither_metrics_nor_segmentation_nor_validation(
    golden_path, tmp_path, command
):
    # Runs ``python -m phkit COMMAND ARGS`` through runpy, then lists what it imported.
    args, raw, stdout, imported, not_imported = CHILD_IMPORTS[command]
    path = golden_path
    if raw is not None:
        path = tmp_path / "raw.txt"
        path.write_text(raw, encoding="utf-8")
    code = (
        "import runpy, sys\n"
        "sys.argv = ['phkit', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('phkit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "sys.stderr.write(f'{status} ' + ' '.join(sorted(sys.modules)))\n"
    )
    argv = [str(path) if arg == "FILE" else arg for arg in args]
    child = subprocess.run(
        [sys.executable, "-c", code, command, *argv], capture_output=True, env=child_env()
    )
    status, *modules = child.stderr.decode().split()
    assert status == "0"
    assert child.stdout.startswith(stdout)
    assert imported <= set(modules)
    assert not not_imported & set(modules)


@pytest.mark.parametrize("escaped, compiled", [(False, 0), (True, 1)])
def test_parse_compiles_the_escaped_element_regex_only_for_a_backslash(
    golden_path, tmp_path, escaped, compiled
):
    # The golden file holds no backslash; the other file holds one escape.
    path = golden_path
    if escaped:
        path = tmp_path / "escaped.ann"
        path.write_text("[PRE-S 吃\\-]了\n", encoding="utf-8")
    code = (
        "import runpy, sys\n"
        "sys.argv = ['phkit', 'parse', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('phkit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "regex = sys.modules['phkit.inline']._escaped_element\n"
        "sys.stderr.write(f'{status} {regex.cache_info().currsize}')\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, env=child_env()
    )
    assert child.stderr.decode().split() == ["0", str(compiled)]
    assert child.stdout.startswith(b'{"id":')


@pytest.mark.parametrize(
    "args, sniffs",
    [
        (["parse"], 0),
        (["convert", "--from", "inline", "--to", "standoff"], 0),
        (["convert", "--to", "standoff"], 1),
    ],
)
def test_a_command_compiles_the_sniffing_patterns_only_when_it_sniffs(golden_path, args, sniffs):
    # ``parse`` and a forced format never sniff.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['phkit', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('phkit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "patterns = sys.modules['phkit.cli']._sniff_patterns\n"
        "sys.stderr.write(f'{status} {patterns.cache_info().currsize}')\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, *args, str(golden_path)], capture_output=True, env=child_env()
    )
    assert child.stderr.decode().split() == ["0", str(sniffs)]


@pytest.mark.parametrize(
    "command, forks, compiled",
    [(["parse"], False, 0), (["stats"], True, 0), (["agree"], True, 1)],
    ids=["parse", "stats", "agree"],
)
def test_only_a_ranged_pair_compiles_the_unit_line_pattern(
    golden_path, tmp_path, command, forks, compiled
):
    # ``stats`` of two files fans them out; an ``agree`` pair of any size is
    # cut at its unit lines. Both run on two usable CPUs.
    copy = tmp_path / "copy.ann"
    copy.write_bytes(golden_path.read_bytes())
    paths = [str(golden_path)] if command == ["parse"] else [str(golden_path), str(copy)]
    code = (
        "import runpy, sys\n"
        "from phkit import cli\n"
        "cli._usable_cpus = lambda: 2\n"
        "cli._SPLIT_BYTES = 0\n"
        "sys.argv = ['phkit', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('phkit', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "pattern = sys.modules['phkit.inline']._unit_line\n"
        "forked = 'phkit.workers' in sys.modules\n"
        "sys.stderr.write(f'{status} {forked} {pattern.cache_info().currsize}')\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, *command, *paths], capture_output=True, env=child_env()
    )
    assert child.stderr.decode().split() == ["0", str(forks), str(compiled)]


@pytest.mark.parametrize(
    "code, not_imported",
    [
        # The commands moved into these modules import cli when they run.
        ("import phkit.metrics", {"phkit.cli", "argparse"}),
        ("import phkit.segmentation", {"phkit.cli", "argparse"}),
        ("import phkit.validation", {"phkit.cli", "argparse"}),
        # The writers alone, and the readers' names only once used.
        ("import phkit.convert", {"phkit.cli", "argparse", "phkit.readers"}),
        ("from phkit.convert import to_standoff, to_columns", {"phkit.readers"}),
        # The range rules of standoff and columns, which the range runner calls.
        ("import phkit.readers", {"phkit.cli", "argparse", "phkit.workers"}),
    ],
)
def test_a_library_module_imports_neither_cli_nor_what_it_does_not_run(code, not_imported):
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=child_env(), check=True
    )
    assert not not_imported & set(child.stdout.decode().split())


def test_the_convert_module_names_the_readers(golden_doc):
    import phkit.convert
    import phkit.readers

    for name in ("from_columns", "from_standoff", "read_columns", "read_standoff"):
        assert getattr(phkit.convert, name) is getattr(phkit.readers, name)
    assert phkit.convert.read_standoff(phkit.convert.to_standoff(golden_doc)) == [golden_doc]
    with pytest.raises(AttributeError, match="no attribute '_record'"):
        phkit.convert._record


def _names_of(tree: ast.Module, module: str) -> set[str]:
    """The names that ``tree`` imports from ``module`` or reads as ``module.name``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == module
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
    }


def test_the_workers_name_no_private_of_the_readers():
    # The range rules of standoff and columns are the readers' own, and the
    # unit-line rule of an inline pair the parser's: the workers call them
    # by their public names, and compile no pattern of their own.
    tree = ast.parse((Path(phkit.__file__).parent / "workers.py").read_text(encoding="utf-8"))
    uses = {"readers": {"range_bounds", "read_range"}, "inline": {"unit_line_starts"}}
    for module, used in uses.items():
        named = _names_of(tree, module)
        assert named >= used
        assert not {name for name in named if name.startswith("_")}
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "re" not in imported


def test_only_the_file_loop_and_agree_call_the_reader():
    # Every per-file command reads through cli._each_file, which fans the
    # files out; agree reads its pair through the range gate's fallback.
    callers = set()
    for path in sorted(Path(phkit.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers.update(
                (path.stem, top.name)
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "_read"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "_read"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "cli"
                )
            )
    assert callers == {("cli", "_each_file"), ("metrics", "cmd_agree")}


def test_the_package_imports_the_standard_library_only():
    imported = set()
    for path in sorted(Path(phkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                imported.add((path.name, node.module))
    assert ("cli.py", "argparse") in imported
    outside = {
        (name, module)
        for name, module in imported
        if module.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, f"imports outside the standard library: {sorted(outside)}"


def test_json_writer_options_are_stated_in_one_module():
    source = Path(phkit.__file__).parent
    stating = sorted(
        path.name
        for path in source.glob("*.py")
        if re.search(r"\b(separators|ensure_ascii)\s*=", path.read_text(encoding="utf-8"))
    )
    assert len(stating) <= 1, f"JSON writer options stated in {stating}"


def test_bench_selftest_passes():
    # The bench tracer wraps phkit functions by module and name (for example
    # phkit.cli.parse_bytes), and bench/spans.py model_probe builds values
    # through phkit.model's Segment and Span, so renaming or deleting one
    # breaks the bench. The selftest takes a few seconds; the timeout only
    # keeps a hung one from hanging this suite.
    root = Path(__file__).parents[1]
    child = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-4000:]
