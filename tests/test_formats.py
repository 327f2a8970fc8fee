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
