import re
from pathlib import Path

from hypothesis import example, given

import phkit.validation
from phkit.inline import parse_document, parse_unit
from phkit.model import (
    Document,
    ElementForm,
    ElementType,
    LabelingUnit,
    PredicatePattern,
    Span,
)
from phkit.validation import (
    RULES,
    Diagnostic,
    Severity,
    render_records,
    render_text,
    validate_document,
    validate_unit,
)

from .strategies import documents


def unit_of(line: str):
    unit, diags = parse_unit(line)
    assert not diags, diags
    return unit


def codes(findings):
    return [d.code for d in findings]


def test_conformant_golden_unit_is_clean():
    assert validate_unit(unit_of("并[PRE-M 互相(厮打)]。")) == []


def test_rai_element_warns_w020(golden_doc):
    findings = validate_unit(golden_doc.units[0], 0)
    assert codes(findings) == ["W020"]
    assert findings[0].severity is Severity.WARNING
    rai = next(e for e in golden_doc.units[0].elements if e.kind is ElementType.RAI)
    assert findings[0].span == rai.span


def test_two_pre_elements_is_e001():
    findings = validate_unit(unit_of("[PRE-S 发生][PRE-S 厮打]"))
    assert codes(findings) == ["E001"]
    assert findings[0].severity is Severity.ERROR


def test_zero_pre_with_form_p_gives_w010_and_e001():
    findings = validate_unit(unit_of("[COM-P 购买房屋]"))
    assert codes(findings) == ["E001", "W010"]


def test_pre_m_without_body_head_is_e003():
    findings = validate_unit(unit_of("[PRE-M 互相厮打]"))
    assert codes(findings) == ["E003"]
    # A trigger head does not satisfy the body-head requirement.
    findings = validate_unit(unit_of("[PRE-M (互)相-厮打]"))
    assert "E003" in codes(findings)


def test_unc_must_be_sole_and_whole():
    assert validate_unit(unit_of("[UNC 此句无法标注]")) == []
    assert codes(validate_unit(unit_of("[UNC 此句]无法"))) == ["E005"]
    assert codes(validate_unit(unit_of("[UNC 此句][COM-W 无法]"))) == [
        "E005"
    ]


def test_pre_with_trigger_is_w011():
    findings = validate_unit(unit_of("[PRE-S 去-扭开]"))
    assert "W011" in codes(findings)


def test_i040_fires_on_ba_bei_triggers_outside_adv():
    findings = validate_unit(unit_of("[SUB-W 雨水][PRE-S 冲][COM-P 把-荷叶]"))
    assert "I040" in codes(findings)
    # ADV elements are the expected home of Ba/Bei phrases.
    findings = validate_unit(unit_of("[SUB-W 苹果][ADV-P 被-王某][PRE-M (吃)得]"))
    assert "I040" not in codes(findings)
    # A word merely starting with the character is not a construction.
    findings = validate_unit(unit_of("[SUB-W 被告人][PRE-S 走]"))
    assert codes(findings) == []


def test_i041_fires_on_sub_after_pre():
    findings = validate_unit(unit_of("[PRE-S 走][SUB-W 王某]"))
    assert "I041" in codes(findings)
    findings = validate_unit(unit_of("[SUB-W 王某][PRE-S 走]"))
    assert "I041" not in codes(findings)


def test_golden_document_yields_only_w020(golden_doc):
    findings = validate_document(golden_doc)
    assert codes(findings) == ["W020"]
    assert findings[0].unit_index == 0


def test_empty_document_is_clean():
    assert validate_document(Document()) == []


def test_mutation_rewriting_pre_to_sub_gives_one_e001_per_unit(golden_text):
    mutated = re.sub(r"PRE-[SRLMV]", "SUB-W", golden_text)
    result = parse_document(mutated)
    assert result.ok
    findings = validate_document(result.document)
    errors = [d for d in findings if d.severity is Severity.ERROR]
    assert len(errors) == len(result.document.units)
    assert {d.code for d in errors} == {"E001"}
    assert sorted(d.unit_index for d in errors) == list(
        range(len(result.document.units))
    )


def test_inserting_second_pre_into_conformant_unit_adds_error(golden_lines):
    for line in golden_lines:
        base = validate_unit(unit_of(line))
        assert not any(d.severity is Severity.ERROR for d in base)
        mutated = validate_unit(unit_of(line + "[PRE-S 走]"))
        assert any(d.severity is Severity.ERROR for d in mutated), line


@given(documents())
def test_e001_soundness_brute_force(doc):
    findings = validate_document(doc)
    flagged = {d.unit_index for d in findings if d.code == "E001"}
    for i, unit in enumerate(doc.units):
        pre_count = sum(1 for e in unit.elements if e.kind is ElementType.PRE)
        has_unc = any(e.kind is ElementType.UNC for e in unit.elements)
        assert (i in flagged) == (pre_count != 1 and not has_unc)


@given(documents())
def test_single_whole_span_unc_units_have_no_errors(doc):
    for i, unit in enumerate(doc.units):
        els = unit.elements
        if (
            len(els) == 1
            and els[0].kind is ElementType.UNC
            and els[0].span.start == 0
            and els[0].span.end == len(unit.text)
        ):
            findings = validate_unit(unit, i)
            assert not any(d.severity is Severity.ERROR for d in findings)


@given(documents())
def test_validation_is_deterministic(doc):
    first = validate_document(doc)
    second = validate_document(doc)
    assert first == second
    keys = [(d.unit_index, d.span.start if d.span else -1, d.code) for d in first]
    assert keys == sorted(keys)


def test_render_text_format(golden_doc):
    findings = validate_document(golden_doc)
    lines = render_text(findings, "golden.ann", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    assert lines == ["golden.ann:2: W020 warning RAI is a legacy tag; consider COM"]


def test_render_records_is_json(golden_doc):
    import json

    findings = validate_document(golden_doc)
    (line,) = render_records(findings, "golden.ann", [2])
    record = json.loads(line)
    assert record["code"] == "W020"
    assert record["severity"] == "warning"
    assert record["line"] == 2
    assert record["start"] == 13 and record["end"] == 18


def test_rule_tables_in_readme_and_docstring_match_rules():
    expected = {code: severity.value for code, (severity, _) in RULES.items()}
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("## Validation rules", 1)[1].split("\n## ", 1)[0]
    in_readme = dict(re.findall(r"^\| ([EWI]\d{3}) \| (\w+) +\|", section, re.MULTILINE))
    docstring = phkit.validation.__doc__
    in_docstring = dict(re.findall(r"^([EWI]\d{3}) +(\w+) ", docstring, re.MULTILINE))
    assert in_readme == expected
    assert in_docstring == expected


# --- the one-pass validator against the four-pass one it replaced -----------
#
# The reference below is the earlier validate_unit with its severity table
# and helper, copied verbatim: four walks over the elements, severities and
# messages stated apart.

SEVERITY_BY_CODE: dict[str, Severity] = {
    "E001": Severity.ERROR,
    "E003": Severity.ERROR,
    "E005": Severity.ERROR,
    "W010": Severity.WARNING,
    "W011": Severity.WARNING,
    "W020": Severity.WARNING,
    "I040": Severity.INFO,
    "I041": Severity.INFO,
}


def _finding(code: str, unit_index: int, span: Span | None, message: str) -> Diagnostic:
    return Diagnostic(code, SEVERITY_BY_CODE[code], unit_index, span, message)


def _order_key(d: Diagnostic) -> tuple[int, int, str]:
    return (d.unit_index, d.span.start if d.span is not None else -1, d.code)


def four_pass_validate_unit(unit: LabelingUnit, unit_index: int = 0) -> list[Diagnostic]:
    """Check one unit against the rule table; an empty list means clean."""
    out: list[Diagnostic] = []
    els = unit.elements
    uncs = [e for e in els if e.kind is ElementType.UNC]
    pres = [e for e in els if e.kind is ElementType.PRE]

    if uncs:
        for e in uncs:
            sole = len(els) == 1
            whole = e.span.start == 0 and e.span.end == len(unit.text)
            if not (sole and whole):
                out.append(
                    _finding(
                        "E005",
                        unit_index,
                        e.span,
                        "UNC must be the sole element and cover the whole unit",
                    )
                )
    elif len(pres) != 1:
        out.append(
            _finding(
                "E001",
                unit_index,
                None,
                f"expected exactly one PRE element, found {len(pres)}",
            )
        )

    for e in els:
        if (
            e.kind is ElementType.PRE
            and e.pattern is PredicatePattern.MODIFIED
            and e.body.head is None
        ):
            out.append(
                _finding(
                    "E003",
                    unit_index,
                    e.span,
                    "PRE-M requires a head group marking the verb",
                )
            )
        if e.form is ElementForm.PHRASE and e.trigger is None:
            out.append(
                _finding(
                    "W010",
                    unit_index,
                    e.span,
                    "form-P element has no trigger separator",
                )
            )
        if e.kind is ElementType.PRE and e.trigger is not None:
            out.append(
                _finding(
                    "W011",
                    unit_index,
                    e.span,
                    "PRE element contains a trigger separator",
                )
            )
        if e.kind is ElementType.RAI:
            out.append(
                _finding(
                    "W020",
                    unit_index,
                    e.span,
                    "RAI is a legacy tag; consider COM",
                )
            )
        if (
            e.kind is not ElementType.ADV
            and e.trigger is not None
            and unit.text.startswith(("把", "被"), e.trigger.span.start)
        ):
            out.append(
                _finding(
                    "I040",
                    unit_index,
                    e.span,
                    "把/被 phrases are normally annotated as adverbial elements",
                )
            )

    if pres:
        first_pre_end = min(p.body.span.end for p in pres)
        for e in els:
            if e.kind is ElementType.SUB and e.span.start >= first_pre_end:
                out.append(
                    _finding(
                        "I041",
                        unit_index,
                        e.span,
                        "SUB element appears after the PRE element",
                    )
                )

    out.sort(key=_order_key)
    return out


def doc_of(*lines: str) -> Document:
    return Document(units=tuple(unit_of(line) for line in lines))


@given(documents())
@example(doc_of("[PRE-S 走][SUB-W 王某][PRE-S 跑]"))  # a SUB between two PREs
@example(doc_of("[SUB-W 王某][PRE-S 走]"))  # a SUB before the only PRE
@example(doc_of("[UNC 此句][COM-W 无法]", "无法[UNC 此句]"))  # UNC beside another element
@example(doc_of("[UNC 把-此句无法标注]"))  # UNC with a 把 trigger
@example(doc_of("[PRE-M (互)相-厮打]"))  # PRE-M with only a trigger head
@example(doc_of("[COM-P 购买房屋]", "[COM-P 把-房屋]"))  # zero PREs, a form-P element
def test_one_pass_validator_equals_the_four_pass_reference(doc):
    for i, unit in enumerate(doc.units):
        assert validate_unit(unit, i) == four_pass_validate_unit(unit, i)
