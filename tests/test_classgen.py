"""Generator orders, sizes, determinism, and the decorated-class invariants
that the thick-dimension experiments lean on."""

import hashlib

import numpy as np
import pytest

from thickvc import (
    Concept,
    ConceptClass,
    Domain,
    FiniteCofiniteClass,
    PrincipalIdeal,
    WorkLimitExceeded,
    derive_rng,
    gen_cluster_decorated,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    gen_thresholds,
    restrict,
    vc_after_removal,
    vc_dimension,
    vc_mod_ideal,
    vc_thick,
)
from thickvc.formats import dump_class


def test_finite_cofinite_order_and_counts():
    cls = gen_finite_cofinite(4, 1, backend="dense")
    got = [tuple(c.indices()) for c in cls.concepts]
    assert got == [
        (),
        (0, 1, 2, 3),
        (0,),
        (1,),
        (2,),
        (3,),
        (0, 1, 2),  # complement of {3}: co-small sets ascend as sets
        (0, 1, 3),
        (0, 2, 3),
        (1, 2, 3),
    ]
    assert len(gen_finite_cofinite(4, 0, backend="dense").concepts) == 2
    cls2 = gen_finite_cofinite(7, 3, backend="dense")
    assert len(cls2.concepts) == FiniteCofiniteClass(7, 3).size


def test_finite_cofinite_backends():
    assert isinstance(gen_finite_cofinite(9, 2, backend="structured"),
                      FiniteCofiniteClass)
    assert isinstance(gen_finite_cofinite(9, 2, backend="dense"), ConceptClass)
    # auto: small stays dense, huge flips to structured
    assert isinstance(gen_finite_cofinite(9, 2), ConceptClass)
    assert isinstance(gen_finite_cofinite(1000, 5), FiniteCofiniteClass)
    with pytest.raises(WorkLimitExceeded):
        gen_finite_cofinite(1000, 5, backend="dense")
    with pytest.raises(ValueError):
        gen_finite_cofinite(9, 2, backend="verbose")


def test_intervals_and_thresholds():
    iv = gen_intervals(4)
    got = [tuple(c.indices()) for c in iv.concepts]
    assert got[0] == ()
    assert got[1:5] == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]
    assert len(got) == 1 + 4 * 5 // 2
    assert vc_dimension(iv) == 2
    th = gen_thresholds(5)
    assert [c.size for c in th.concepts] == [0, 1, 2, 3, 4, 5]
    assert vc_dimension(th) == 1
    with pytest.raises(ValueError):
        gen_intervals(1)


def test_power_set():
    ps = gen_power_set(3)
    assert len(ps.concepts) == 8
    assert [c.bits for c in ps.concepts] == list(range(8))
    assert vc_dimension(ps) == 3
    with pytest.raises(ValueError):
        gen_power_set(21)


def test_random_deterministic_with_golden_hash():
    cls = gen_random(10, 40, 0.35, seed=777)
    again = gen_random(10, 40, 0.35, seed=777)
    assert [c.bits for c in cls.concepts] == [c.bits for c in again.concepts]
    assert len(cls.concepts) == 39  # one duplicate row dropped
    digest = hashlib.sha256(dump_class(cls).encode()).hexdigest()
    assert digest == (
        "d25a15ede02f408c1e9880da95bdff1667cc19fbb61d16e3d08ab9f6d4f6d3f0"
    )
    other = gen_random(10, 40, 0.35, seed=778)
    assert [c.bits for c in cls.concepts] != [c.bits for c in other.concepts]


def test_random_density_extremes():
    empty = gen_random(6, 5, 0.0, seed=1)
    assert len(empty.concepts) == 1 and empty.concepts[0].size == 0
    full = gen_random(6, 5, 1.0, seed=1)
    assert len(full.concepts) == 1 and full.concepts[0].size == 6


def reference_random(m, count, density, seed):
    """The per-row bit loop gen_random replaced, kept as its oracle."""
    rows = derive_rng(seed, "gen-random").random((count, m)) < density
    masks = []
    for row in rows:
        bits = 0
        for i in range(m):
            if row[i]:
                bits |= 1 << i
        if bits not in masks:
            masks.append(bits)
    return masks


def test_random_matches_reference_loop():
    for m in (1, 8, 9, 65):
        for density in (0.0, 0.3, 0.5, 1.0):
            for seed in (1, 2):
                cls = gen_random(m, 30, density, seed)
                want = reference_random(m, 30, density, seed)
                assert [c.bits for c in cls.concepts] == want, (m, density, seed)


def test_blowup_layout():
    base = gen_power_set(2)
    cls = gen_cluster_decorated(base, 3, 0, seed=5)
    assert cls.domain.size == 6
    assert [tuple(c.indices()) for c in cls.concepts] == [
        (),
        (0, 1, 2),
        (3, 4, 5),
        (0, 1, 2, 3, 4, 5),
    ]
    # blowing up is VC-neutral
    assert vc_dimension(cls) == vc_dimension(base)


def test_decorated_counts_and_order():
    base = gen_power_set(2)
    cls = gen_cluster_decorated(base, 2, 3, seed=9)
    assert cls.domain.size == 2 * 2 + 3
    assert len(cls.concepts) == len(base.concepts) + (2**3 - 1)
    # pure blowups first, then noise subsets ascending
    offset = 4
    noise_parts = [c.bits >> offset for c in cls.concepts]
    assert noise_parts[: len(base.concepts)] == [0] * len(base.concepts)
    assert noise_parts[len(base.concepts) :] == list(range(1, 8))


def test_decorated_cluster_region_trace_is_the_blowup():
    base = gen_power_set(2)
    cs = 3
    cls = gen_cluster_decorated(base, cs, 4, seed=13)
    region = list(range(len(base.concepts[0].indices()) * 0, 2 * cs))
    traced = restrict(cls, region)
    blow = {c.bits for c in gen_cluster_decorated(base, cs, 0, seed=13).concepts}
    assert {c.bits for c in traced.concepts} <= blow | set()
    assert {c.bits for c in traced.concepts} == blow


def test_decorated_invariant_battery():
    # noise points are shattered (vc >= noise), but cluster-sized thickness
    # stays at the base dimension; removing the noise points exactly
    # restores it
    base = gen_power_set(1)  # vc 1
    cs, noise = 3, 4
    for seed in range(12):
        cls = gen_cluster_decorated(base, cs, noise, seed=seed)
        assert vc_dimension(cls) >= noise, seed
        assert vc_thick(cls, cs) == 1, seed
        res = vc_after_removal(cls, noise, mode="exact")
        assert res.vc == 1, seed
        # negligible set = the noise points, thick dimension via the ideal
        m = cls.domain.size
        npts = list(range(m - noise, m))
        ideal = PrincipalIdeal(Concept.from_indices(m, npts))
        assert vc_mod_ideal(cls, ideal) == 1, seed


def test_decorated_validation():
    base = gen_power_set(2)
    with pytest.raises(ValueError):
        gen_cluster_decorated(base, 0, 2, seed=1)
    with pytest.raises(ValueError):
        gen_cluster_decorated(base, 2, -1, seed=1)
    with pytest.raises(ValueError):
        gen_cluster_decorated(base, 2, 25, seed=1)


def test_decorated_deterministic():
    base = gen_intervals(3)
    a = gen_cluster_decorated(base, 2, 5, seed=42)
    b = gen_cluster_decorated(base, 2, 5, seed=42)
    c = gen_cluster_decorated(base, 2, 5, seed=43)
    assert [x.bits for x in a.concepts] == [x.bits for x in b.concepts]
    assert [x.bits for x in a.concepts] != [x.bits for x in c.concepts]


def test_generators_take_strict_sizes():
    # a bool or a float is no size, and a numpy integer is one
    base = gen_intervals(3)
    bad_calls = [
        lambda v: gen_intervals(v),
        lambda v: gen_thresholds(v),
        lambda v: gen_power_set(v),
        lambda v: gen_finite_cofinite(v, 1),
        lambda v: gen_finite_cofinite(7, v),
        lambda v: gen_cluster_decorated(base, v, 0, 1),
        lambda v: gen_cluster_decorated(base, 2, v, 1),
        lambda v: gen_random(v, 3, 0.5, 1),
        lambda v: gen_random(4, v, 0.5, 1),
    ]
    for call in bad_calls:
        for v in (True, 2.0):
            with pytest.raises(ValueError, match="not an int"):
                call(v)
    same = [
        (gen_intervals(np.int64(4)), gen_intervals(4)),
        (gen_thresholds(np.int64(4)), gen_thresholds(4)),
        (gen_power_set(np.int64(3)), gen_power_set(3)),
        (gen_finite_cofinite(np.int64(7), np.int64(2)), gen_finite_cofinite(7, 2)),
        (
            gen_cluster_decorated(base, np.int64(2), np.int64(3), 1),
            gen_cluster_decorated(base, 2, 3, 1),
        ),
        (gen_random(np.int64(6), np.int64(9), 0.5, 1), gen_random(6, 9, 0.5, 1)),
    ]
    for got, want in same:
        assert got == want
