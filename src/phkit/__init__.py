"""phkit: tooling for predicate-head annotated Chinese corpora.

Parses and emits the inline bracket notation, validates annotations
against the scheme's structural rules, proposes labeling-unit boundaries
in raw text, converts between inline, standoff, and per-character column
formats, and computes corpus statistics and inter-annotator agreement.

Every public name is also importable from the package itself
(``from phkit import parse_document``). Each submodule is imported on the
first use of one of its names (PEP 562), so a command that needs only the
parser and writers does not pay to import the rest.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_SUBMODULE_NAMES = {
    "convert": (
        "ConvertError",
        "from_columns",
        "from_standoff",
        "read_columns",
        "read_standoff",
        "to_columns",
        "to_standoff",
    ),
    "inline": (
        "ParseDiagnostic",
        "ParseResult",
        "emit_document",
        "emit_unit",
        "parse_bytes",
        "parse_document",
        "parse_unit",
    ),
    "metrics": (
        "AgreementError",
        "AgreementReport",
        "MatchCriterion",
        "StatsReport",
        "agree",
        "char_kappa",
        "corpus_stats",
        "span_agreement",
    ),
    "model": (
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
    ),
    "segmentation": (
        "BoundaryCause",
        "BoundaryKind",
        "CommaPolicy",
        "SegmentBoundary",
        "SegmenterConfig",
        "propose_boundaries",
        "split",
    ),
    "validation": ("Diagnostic", "Severity", "validate_document", "validate_unit"),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
