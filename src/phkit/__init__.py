"""phkit: tooling for predicate-head annotated Chinese corpora.

Parses and emits the inline bracket notation, validates annotations
against the scheme's structural rules, proposes labeling-unit boundaries
in raw text, converts between inline, standoff, and per-character column
formats, and computes corpus statistics and inter-annotator agreement.
"""

from .convert import (
    ConvertError,
    from_columns,
    from_standoff,
    read_columns,
    read_standoff,
    to_columns,
    to_standoff,
)
from .inline import (
    ParseDiagnostic,
    ParseResult,
    emit_document,
    emit_unit,
    parse_bytes,
    parse_document,
    parse_unit,
)
from .metrics import (
    AgreementError,
    AgreementReport,
    MatchCriterion,
    StatsReport,
    agree,
    char_kappa,
    corpus_stats,
    span_agreement,
)
from .model import (
    Document,
    Element,
    ElementForm,
    ElementType,
    LabelingUnit,
    ModelError,
    PredicatePattern,
    Segment,
    Span,
    element_surface,
)
from .segmentation import (
    BoundaryCause,
    BoundaryKind,
    CommaPolicy,
    SegmentBoundary,
    SegmenterConfig,
    propose_boundaries,
    split,
)
from .validation import Diagnostic, Severity, validate_document, validate_unit

__version__ = "0.1.0"

__all__ = [
    "AgreementError",
    "AgreementReport",
    "BoundaryCause",
    "BoundaryKind",
    "CommaPolicy",
    "ConvertError",
    "Diagnostic",
    "Document",
    "Element",
    "ElementForm",
    "ElementType",
    "LabelingUnit",
    "MatchCriterion",
    "ModelError",
    "ParseDiagnostic",
    "ParseResult",
    "PredicatePattern",
    "Segment",
    "SegmentBoundary",
    "SegmenterConfig",
    "Severity",
    "Span",
    "StatsReport",
    "agree",
    "char_kappa",
    "corpus_stats",
    "element_surface",
    "emit_document",
    "emit_unit",
    "from_columns",
    "from_standoff",
    "parse_bytes",
    "parse_document",
    "parse_unit",
    "propose_boundaries",
    "read_columns",
    "read_standoff",
    "span_agreement",
    "split",
    "to_columns",
    "to_standoff",
    "validate_document",
    "validate_unit",
]
