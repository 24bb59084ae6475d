import os
from pathlib import Path

import pytest

import phkit
from phkit import parse_document

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "golden.ann"


def child_env() -> dict[str, str]:
    """The environment for a ``python -m phkit`` child that imports the same
    phkit as these tests, whether or not it is installed."""
    paths = [str(Path(phkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.fixture(scope="session")
def golden_path() -> Path:
    return GOLDEN_PATH


@pytest.fixture(scope="session")
def golden_text() -> str:
    return GOLDEN_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_lines(golden_text) -> list[str]:
    return [
        line
        for line in golden_text.split("\n")
        if line and not line.startswith("#")
    ]


@pytest.fixture(scope="session")
def golden_doc(golden_text):
    result = parse_document(golden_text)
    assert result.ok, result.diagnostics
    return result.document
