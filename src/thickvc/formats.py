"""Text formats for concept classes and point sets.

Class file grammar, one concept per line:

    line 1: JSON header {"format": "concept-class", "version": 1,
                         "m": <int>, "count": <int>,
                         "dedup": <bool, optional, default false>,
                         "labels": [<m distinct strings>, optional]}
    lines 2..count+1: 0/1 membership string of length exactly m

Point-set files are a single JSON document:

    {"format": "point-set", "version": 1, "m": <int>, "points": [<ints>]}

Parsers are strict: wrong tags, unknown versions, count or length
mismatches, stray trailing lines and a boolean given as m, count or a
point are all rejected.
"""

from __future__ import annotations

import json
import os

from .domain import Concept, ConceptClass, Domain
from .errors import FormatError

CLASS_TAG = "concept-class"
POINTSET_TAG = "point-set"
FORMAT_VERSION = 1


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
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(c.to_string() for c in cls.concepts)
    return "\n".join(lines) + "\n"


def load_class(text: str) -> ConceptClass:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty class document")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad class header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CLASS_TAG:
        raise FormatError(f"not a {CLASS_TAG} document")
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported version {header.get('version')!r}")
    m = header.get("m")
    count = header.get("count")
    if type(m) is not int or m < 1:
        raise FormatError(f"bad domain size {m!r}")
    if type(count) is not int or count < 0:
        raise FormatError(f"bad concept count {count!r}")
    body = [ln for ln in lines[1:] if ln.strip() != ""]
    if len(body) != count:
        raise FormatError(f"header says {count} concepts, found {len(body)}")
    concepts = []
    for k, ln in enumerate(body):
        ln = ln.strip()
        if len(ln) != m or any(ch not in "01" for ch in ln):
            raise FormatError(f"record {k}: expected a 0/1 string of length {m}")
        concepts.append(Concept.from_string(ln))
    labels = header.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != m
            or not all(isinstance(s, str) for s in labels)
        ):
            raise FormatError("labels must be a list of m strings")
        labels = tuple(labels)
    try:
        domain = Domain(m, labels)
        return ConceptClass(domain, tuple(concepts), dedup=bool(header.get("dedup", False)))
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad point-set document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != POINTSET_TAG:
        raise FormatError(f"not a {POINTSET_TAG} document")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported version {doc.get('version')!r}")
    m = doc.get("m")
    pts = doc.get("points")
    if type(m) is not int or m < 1:
        raise FormatError(f"bad domain size {m!r}")
    if not isinstance(pts, list) or not all(type(i) is int for i in pts):
        raise FormatError("points must be a list of ints")
    try:
        return Concept.from_indices(m, pts)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_point_set(points: Concept, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_point_set(points))


def read_point_set(path: str | os.PathLike) -> Concept:
    with open(path, "r", encoding="ascii") as fh:
        return load_point_set(fh.read())
