"""Text formats for concept classes and point sets, and the one strict
reader that every JSON document of the package goes through.

Class file grammar, one concept per line:

    line 1: JSON header {"format": "concept-class", "version": 1,
                         "m": <int>, "count": <int>,
                         "dedup": <bool, optional, default false>,
                         "labels": [<m distinct strings>, optional]}
    lines 2..count+1: 0/1 membership string of length exactly m

Point-set files are a single JSON document:

    {"format": "point-set", "version": 1, "m": <int>, "points": [<ints>]}

A class header, a point-set file and a CLI config are each decoded by
`decode` and read by `read_fields` against a table of kinds, so all three
refuse an unknown or missing key and a value of the wrong kind (json's
true where an int belongs, null where a list does) alike. The two file
formats also refuse a wrong tag and a version other than the int 1; a
class file also refuses count or length mismatches and stray trailing
lines.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .domain import Concept, ConceptClass, Domain, membership_matrix
from .errors import FormatError

CLASS_TAG = "concept-class"
POINTSET_TAG = "point-set"
FORMAT_VERSION = 1


def decode(text: str, what: str):
    """The JSON value of `text`; malformed JSON is a FormatError naming
    `what`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: not valid JSON: {exc}") from exc


def typed(value, kind, where: str):
    """A document value checked against its kind: int (a JSON integer, never
    a bool or a float), float (ints too), bool (true or false and nothing
    else), str, dict, or [kind] for a list."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise FormatError(f"{where} must be a list")
        return [typed(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    accepted = (int, float) if kind is float else kind
    # json's true is a Python int, so a bool passes only where bool is asked
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise FormatError(f"{where} must be {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def read_fields(doc, what: str, fields: dict) -> list:
    """Strictly read a document object. `fields` maps every allowed key to
    its kind (see typed), or to (kind, default) for an optional key; the
    values come back in `fields` order."""
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be an object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise FormatError(f"unknown {what} key(s): {', '.join(unknown)}")
    out = []
    for key, kind in fields.items():
        if key in doc:
            out.append(typed(doc[key], kind[0] if isinstance(kind, tuple) else kind,
                             f"{what} {key!r}"))
        elif isinstance(kind, tuple):
            out.append(kind[1])
        else:
            raise FormatError(f"{what} needs key {key!r}")
    return out


def read_tag(doc, what: str, key: str, table) -> str:
    """The entry of `table` that document object `doc` names under `key`."""
    name = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(name, str) or name not in table:
        raise FormatError(f"{what} needs {key!r}, one of: {', '.join(table)}")
    return name


def _read_file_doc(text: str, what: str, tag: str, fields: dict) -> list:
    """The values of `fields` in a file's JSON document: its format tag
    first, then every field typed, then the version."""
    doc = decode(text, what)
    read_tag(doc, what, "format", (tag,))
    _, version, *values = read_fields(
        doc, what, {"format": str, "version": int, **fields}
    )
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {what} version {version}")
    return values


def dump_class(cls: ConceptClass) -> str:
    header: dict = {
        "format": CLASS_TAG,
        "version": FORMAT_VERSION,
        "m": cls.domain.size,
        "count": len(cls.concepts),
    }
    if cls.dedup:
        header["dedup"] = True
    if cls.domain.labels is not None:
        header["labels"] = list(cls.domain.labels)
    # one row of '0'/'1' bytes per concept, each ended by a newline
    rows = membership_matrix(cls.masks(), cls.domain.size).view(np.uint8) + ord("0")
    body = np.hstack([rows, np.full((len(rows), 1), ord("\n"), dtype=np.uint8)])
    return json.dumps(header, sort_keys=True) + "\n" + body.tobytes().decode("ascii")


def load_class(text: str) -> ConceptClass:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty class document")
    m, count, dedup, labels = _read_file_doc(
        lines[0], "class header", CLASS_TAG,
        {"m": int, "count": int, "dedup": (bool, False), "labels": ([str], None)},
    )
    try:
        domain = Domain(m, labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    body = [ln for ln in lines[1:] if ln.strip() != ""]
    if len(body) != count:
        raise FormatError(f"header says {count} concepts, found {len(body)}")
    concepts = []
    for k, ln in enumerate(body):
        ln = ln.strip()
        if len(ln) != m or any(ch not in "01" for ch in ln):
            raise FormatError(f"record {k}: expected a 0/1 string of length {m}")
        concepts.append(Concept.from_string(ln))
    try:
        return ConceptClass(domain, tuple(concepts), dedup=dedup)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_class(cls: ConceptClass, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_class(cls))


def read_class(path: str | os.PathLike) -> ConceptClass:
    with open(path, "r", encoding="ascii") as fh:
        return load_class(fh.read())


def dump_point_set(points: Concept) -> str:
    doc = {
        "format": POINTSET_TAG,
        "version": FORMAT_VERSION,
        "m": points.m,
        "points": list(points.indices()),
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def load_point_set(text: str) -> Concept:
    m, points = _read_file_doc(
        text, "point-set document", POINTSET_TAG, {"m": int, "points": [int]}
    )
    try:
        return Concept.from_indices(m, points)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_point_set(points: Concept, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_point_set(points))


def read_point_set(path: str | os.PathLike) -> Concept:
    with open(path, "r", encoding="ascii") as fh:
        return load_point_set(fh.read())
