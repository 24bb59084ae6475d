"""Lossless conversion between the document model and storage formats.

Standoff format: one document per line as a JSON record: ``id``,
optional ``meta`` (raw comment lines), ``units`` with ``text`` and
``elements``; each element carries ``kind``, optional ``sub`` (pattern
or form letter), ``start``/``end``, and the optional trigger,
trigger-head and body-head offsets, all codepoint offsets into the unit
text. The writer puts the keys in that order and omits absent optionals;
its bytes are ``model.compact_json`` of the record as a dict, built
without the dict.

Column format: one row per codepoint, tab-separated into character,
boundary tag (``B-PRE-S`` / ``I-PRE-S`` / ``O``), and role flag
(``T`` trigger, ``TH`` trigger head, ``B`` body, ``H`` body head,
``O`` outside). Units are separated by a blank line; each document opens
with a ``# doc <id>`` header, followed by one ``# meta\t<line>`` row per
metadata line. The trigger/body separator has no character of its own:
it is re-derived as the boundary between the T-flagged and B-flagged
runs.

This module holds the writers; the readers, with their error codes, are
in ``readers``, and their names here import it on first use (PEP 562).
"""

from __future__ import annotations

from typing import Iterator

from .model import STANDOFF_TAGS, TAGS, CodedError, Document, Element, LabelingUnit, compact_json


class ConvertError(CodedError):
    """A record cannot be converted into a valid document."""


# Each element record up to its first offset, by (kind, pattern, form),
# e.g. '{"kind":"PRE","sub":"S","start":'.
_RECORD_HEADS = {
    TAGS[tag]: compact_json({"kind": kind} if sub is None else {"kind": kind, "sub": sub})[:-1]
    + ',"start":'
    for (kind, sub), tag in STANDOFF_TAGS.items()
}


def _element_json(el: Element) -> str:
    span = el.span
    rec = f'{_RECORD_HEADS[el.kind, el.pattern, el.form]}{span.start},"end":{span.end}'
    trigger = el.trigger
    if trigger is not None:
        rec += f',"trig_start":{trigger.span.start},"trig_end":{trigger.span.end}'
        if trigger.head is not None:
            rec += f',"trig_head_start":{trigger.head.start},"trig_head_end":{trigger.head.end}'
    head = el.body.head
    if head is not None:
        rec += f',"head_start":{head.start},"head_end":{head.end}'
    return rec + "}"


def standoff_pieces(doc: Document, opens: bool = True, closes: bool = True) -> Iterator[str]:
    """Yield the standoff record of ``doc`` (no newline) in pieces: the
    header up to ``"units":[``, then one piece per unit, then ``]}``.

    The pieces join to ``compact_json`` of the whole record as a dict, with
    the keys in the order the module docstring gives. A document that holds
    one range of a record's units (see ``readers.read_range``) leaves out the
    header unless it ``opens`` the record, then starts its first unit with
    a comma, and leaves out ``]}`` unless it ``closes`` the record.
    """
    separator = ',{"text":'
    if opens:
        header = '{"id":' + compact_json(doc.id)
        if doc.metadata:
            header += ',"meta":' + compact_json(doc.metadata)
        yield header + ',"units":['
        separator = '{"text":'
    for u in doc.units:
        yield (
            separator
            + compact_json(u.text)
            + ',"elements":['
            + ",".join([_element_json(e) for e in u.elements])
            + "]}"
        )
        separator = ',{"text":'
    if closes:
        yield "]}"


def to_standoff(doc: Document) -> str:
    """Serialize one document as a single standoff JSON line (no newline)."""
    return "".join(standoff_pieces(doc))


def _unit_rows(unit: LabelingUnit) -> str:
    """The unit's rows, each with its newline."""
    n = len(unit.text)
    btags = ["O"] * n
    roles = ["O"] * n
    for el in unit.elements:
        tag = el.tag
        sp = el.span
        btags[sp.start] = "B-" + tag
        for i in range(sp.start + 1, sp.end):
            btags[i] = "I-" + tag
        if el.trigger is not None:
            tseg = el.trigger
            for i in range(tseg.span.start, tseg.span.end):
                roles[i] = "T"
            if tseg.head is not None:
                for i in range(tseg.head.start, tseg.head.end):
                    roles[i] = "TH"
        for i in range(el.body.span.start, el.body.span.end):
            roles[i] = "B"
        if el.body.head is not None:
            for i in range(el.body.head.start, el.body.head.end):
                roles[i] = "H"
    return "".join([f"{ch}\t{b}\t{r}\n" for ch, b, r in zip(unit.text, btags, roles)])


def columns_pieces(doc: Document, opens: bool = True, closes: bool = True) -> Iterator[str]:
    """Yield the column block of ``doc`` in pieces: the ``# doc`` and
    ``# meta`` rows, then one piece per unit (its rows, after a blank line
    from the second unit on). Every piece ends with a newline. A document
    that holds one range of a block's units (see ``readers.read_range``)
    leaves out the header rows unless it ``opens`` the block, and then
    starts its first unit with a blank line; a block has no closing piece."""
    separator = "\n"
    if opens:
        header = "# doc " + doc.id if doc.id else "# doc"
        yield header + "\n" + "".join([f"# meta\t{meta}\n" for meta in doc.metadata])
        separator = ""
    for unit in doc.units:
        yield separator + _unit_rows(unit)
        separator = "\n"


def to_columns(doc: Document) -> str:
    """Serialize one document in the per-character column format."""
    return "".join(columns_pieces(doc))


def __getattr__(name: str):
    """A reader, from ``readers`` (see the module docstring)."""
    if name not in ("from_columns", "from_standoff", "read_columns", "read_standoff"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import readers

    value = globals()[name] = getattr(readers, name)  # later lookups skip this function
    return value
