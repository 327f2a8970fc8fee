import json

import pytest

from thickvc import (
    Concept,
    ConceptClass,
    Domain,
    FormatError,
    read_class,
    read_point_set,
    save_class,
    save_point_set,
)
from thickvc.formats import (
    dump_class,
    dump_point_set,
    load_class,
    load_point_set,
)


def _cls():
    d = Domain(4, labels=("a", "b", "c", "d"))
    return ConceptClass(
        d,
        (
            Concept.empty(4),
            Concept.from_indices(4, [0, 3]),
            Concept.full(4),
        ),
    )


def test_class_round_trip(tmp_path):
    cls = _cls()
    text = dump_class(cls)
    header = json.loads(text.splitlines()[0])
    assert header["format"] == "concept-class"
    assert header["m"] == 4 and header["count"] == 3
    back = load_class(text)
    assert back.domain.size == 4
    assert [c.bits for c in back.concepts] == [c.bits for c in cls.concepts]
    assert back.domain.labels == cls.domain.labels
    p = tmp_path / "x.cls"
    save_class(cls, p)
    assert [c.bits for c in read_class(p).concepts] == [
        c.bits for c in cls.concepts
    ]


def test_class_format_rejections():
    good = dump_class(_cls())
    lines = good.splitlines()
    with pytest.raises(FormatError):
        load_class("")
    with pytest.raises(FormatError):
        load_class("not json\n0000")
    with pytest.raises(FormatError):
        load_class(good + "0110\n")  # extra row
    with pytest.raises(FormatError):
        load_class("\n".join(lines[:-1]))  # missing row
    with pytest.raises(FormatError):
        load_class(good.replace("1111", "111"))  # wrong width
    with pytest.raises(FormatError):
        load_class(good.replace("1111", "11x1"))  # bad character
    hdr = json.loads(lines[0])
    hdr["format"] = "other"
    with pytest.raises(FormatError):
        load_class("\n".join([json.dumps(hdr)] + lines[1:]))


@pytest.mark.parametrize("field", ["m", "count"])
def test_class_header_refuses_a_bool(field):
    # json's true would otherwise pass as the int 1
    header = {"format": "concept-class", "version": 1, "m": 1, "count": 1}
    load_class(json.dumps(header) + "\n1\n")
    header[field] = True
    with pytest.raises(FormatError):
        load_class(json.dumps(header) + "\n1\n")


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
def test_headers_refuse_a_non_int_version(version):
    # json's true == 1 and 1.0 == 1 in Python; neither is the int version
    header = {"format": "concept-class", "version": version, "m": 1, "count": 1}
    with pytest.raises(FormatError, match="version"):
        load_class(json.dumps(header) + "\n1\n")
    doc = {"format": "point-set", "version": version, "m": 2, "points": [0]}
    with pytest.raises(FormatError, match="version"):
        load_point_set(json.dumps(doc))


@pytest.mark.parametrize("dedup", ["no", "", 0, 1, None, [True]])
def test_class_header_refuses_a_non_bool_dedup(dedup):
    # bool("no") is True: a string would otherwise turn dedup on
    header = {"format": "concept-class", "version": 1, "m": 1, "count": 2}
    body = "\n0\n1\n"
    for ok in (True, False):
        assert load_class(json.dumps({**header, "dedup": ok}) + body).dedup is ok
    with pytest.raises(FormatError, match="dedup"):
        load_class(json.dumps({**header, "dedup": dedup}) + body)


def test_point_set_round_trip(tmp_path):
    pts = Concept.from_indices(7, [0, 2, 6])
    text = dump_point_set(pts)
    doc = json.loads(text)
    assert doc["format"] == "point-set" and doc["points"] == [0, 2, 6]
    assert load_point_set(text) == pts
    p = tmp_path / "n.set"
    save_point_set(pts, p)
    assert read_point_set(p) == pts


def test_point_set_rejections():
    with pytest.raises(FormatError):
        load_point_set("[]")
    with pytest.raises(FormatError):
        load_point_set(json.dumps({"format": "point-set", "version": 1}))
    with pytest.raises(FormatError):
        load_point_set(
            json.dumps(
                {"format": "point-set", "version": 1, "m": 3, "points": [3]}
            )
        )


@pytest.mark.parametrize(
    "doc",
    [{"m": True, "points": [0]}, {"m": 2, "points": [True, False]}],
    ids=["m", "points"],
)
def test_point_set_refuses_bools(doc):
    with pytest.raises(FormatError):
        load_point_set(json.dumps({"format": "point-set", "version": 1, **doc}))


def test_dump_is_deterministic():
    cls = _cls()
    assert dump_class(cls) == dump_class(cls)
    assert dump_point_set(Concept.empty(2)) == dump_point_set(Concept.empty(2))


def _per_concept_dump(cls):
    # the rendering the matrix writer replaced: one to_string line per concept
    header = json.loads(dump_class(cls).splitlines()[0])
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(c.to_string() for c in cls.concepts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [1, 7, 8, 9, 64, 65])
def test_dump_class_matches_per_concept_rendering(m):
    import random

    rnd = random.Random(m)
    masks = [0, (1 << m) - 1] + [rnd.getrandbits(m) for _ in range(40)]
    concepts = tuple(Concept(m, b) for b in masks)
    unique = tuple(Concept(m, b) for b in dict.fromkeys(masks))
    labels = tuple(f"p{i}" for i in range(m))
    for cls in (
        ConceptClass(Domain(m), ()),
        ConceptClass(Domain(m), concepts),
        ConceptClass(Domain(m, labels=labels), concepts),
        ConceptClass(Domain(m), unique, dedup=True),
    ):
        text = dump_class(cls)
        assert text == _per_concept_dump(cls), (m, len(cls.concepts))
        assert load_class(text) == cls
