"""Measure construction, tolerances, sampling determinism."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickvc import (
    Concept,
    DiscreteMeasure,
    DomainMismatch,
    derive_rng,
    mixture,
    symdiff_distance,
    uniform,
    uniform_on,
)
from conftest import point_mass, sample_iid
from thickvc.measures import GUIDE_MAX, GUIDE_PER_POINT, _draw_indices


def test_basic_properties():
    mu = uniform(4)
    assert mu.m == 4
    assert mu.atom_bound == 0.25
    assert mu.weights[2] == 0.25
    assert mu.mass([0, 3]) == pytest.approx(0.5)
    assert mu.mass([]) == 0.0
    assert mu.mass(Concept.from_indices(4, [1, 2]).indices()) == pytest.approx(0.5)


def test_sum_tolerance_bands():
    # off by < 1e-12: accepted verbatim
    w = (0.5, 0.5 + 2e-13)
    assert DiscreteMeasure(w).weights == w
    # off by ~1e-10: silently renormalized
    mu = DiscreteMeasure((0.5, 0.5 + 1e-10))
    assert sum(mu.weights) == pytest.approx(1.0, abs=1e-15)
    assert mu.weights != (0.5, 0.5 + 1e-10)
    # off by 1e-6: rejected
    with pytest.raises(ValueError):
        DiscreteMeasure((0.5, 0.5 + 1e-6))


def test_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiscreteMeasure(())
    with pytest.raises(ValueError):
        DiscreteMeasure((1.5, -0.5))
    with pytest.raises(ValueError):
        DiscreteMeasure((float("nan"), 1.0))


def test_uniform_on_and_point_mass():
    mu = uniform_on(Concept.from_indices(6, [1, 4, 5]))
    assert mu.weights[0] == 0.0
    assert mu.weights[4] == pytest.approx(1 / 3)
    assert mu.atom_bound == pytest.approx(1 / 3)
    pm = point_mass(5, 3)
    assert pm.atom_bound == 1.0 and pm.weights[3] == 1.0
    with pytest.raises(ValueError):
        uniform_on(Concept.empty(4))
    with pytest.raises(ValueError):
        point_mass(4, 4)


def test_mixture():
    mu = mixture([point_mass(3, 0), point_mass(3, 2)], [0.25, 0.75])
    assert mu.weights == (0.25, 0.0, 0.75)
    with pytest.raises(DomainMismatch):
        mixture([uniform(3), uniform(4)], [0.5, 0.5])
    with pytest.raises(ValueError):
        mixture([uniform(3)], [0.9])


def test_sampling_is_deterministic():
    mu = uniform(10)
    a = sample_iid(mu, 50, 1234)
    b = sample_iid(mu, 50, 1234)
    c = sample_iid(mu, 50, 1235)
    assert a == b
    assert a != c
    assert len(a) == 50 and all(type(p) is int for p in a)
    # generator form reproduces the seed form
    assert sample_iid(mu, 50, derive_rng(1234, "sample")) == a


def test_sampling_respects_support():
    mu = uniform_on(Concept.from_indices(8, [2, 5]))
    s = sample_iid(mu, 400, 7)
    assert set(s) <= {2, 5}
    # both atoms appear: probability of missing one is 2^-399
    assert set(s) == {2, 5}


def test_sampling_frequencies_converge():
    mu = DiscreteMeasure((0.7, 0.2, 0.1))
    s = sample_iid(mu, 20_000, 99)
    freq = collections.Counter(s)
    for i in range(3):
        assert freq[i] / 20_000 == pytest.approx(mu.weights[i], abs=0.02)


class _TopOfUnitInterval:
    """Generator stub whose every uniform draw is the largest float below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


def test_draw_past_short_cumsum_lands_on_positive_weight():
    # seven sevenths sum to just under 1, so u = nextafter(1, 0) passes the
    # cumsum's end; the draw must go to point 6, not a zero-weight point
    mu = DiscreteMeasure((1 / 7,) * 7 + (0.0,) * 3)
    assert mu._cum[-1] < np.nextafter(1.0, 0.0)
    idx = _draw_indices(mu, 4, _TopOfUnitInterval())
    assert idx.tolist() == [6, 6, 6, 6]


class _Uniforms:
    """Generator stub that hands out the given uniforms in one random call."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.calls = 0

    def random(self, n):
        self.calls += 1
        assert n == self.u.size
        return self.u.copy()


def _reference(mu, u):
    return np.minimum(np.searchsorted(mu._cum, u, side="right"), mu._last)


def _edge_uniforms(mu):
    """Every edge j/(2m) of the old guide table and j/G of the current one
    with its neighbours on both sides, every cumsum value and the float
    below it, 0 and the largest float below 1."""
    G = mu._guide[0]
    edges = np.concatenate([
        np.arange(2 * mu.m + 1) / (2 * mu.m), np.arange(G + 1) / G,
    ])
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        mu._cum, np.nextafter(mu._cum, 0.0), [0.0, np.nextafter(1.0, 0.0)],
    ])
    return u[(u >= 0.0) & (u < 1.0)]


def _assert_draws_match_searchsorted(mu, u):
    stub = _Uniforms(u)
    got = _draw_indices(mu, u.size, stub)
    assert stub.calls == 1
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _reference(mu, u))


def _renormalised(k, eps):
    # k - 1 atoms of 1/k and one of 1/k + eps, off by eps: renormalised
    mu = DiscreteMeasure((1 / k,) * (k - 1) + (1 / k + eps,) + (0.0,) * 2)
    assert mu.weights[k - 1] != 1 / k + eps
    return mu


def _cluster():
    return DiscreteMeasure((1e-12,) * 999 + (1.0 - 999e-12,))


EDGE_MEASURES = {
    "leading zeros": DiscreteMeasure((0.0, 0.0, 0.3, 0.7)),
    "interior zeros": DiscreteMeasure((0.25, 0.0, 0.0, 0.5, 0.25)),
    "trailing zeros": DiscreteMeasure((0.5, 0.5, 0.0, 0.0)),
    "cumsum on bucket edges": uniform(4),
    "u * G rounding up to the next bucket": uniform(13),
    "uniform(1000)": uniform(1000),
    "short cumsum": DiscreteMeasure((1 / 7,) * 7 + (0.0,) * 3),
    "renormalised below 1": _renormalised(6, 1e-10),
    "renormalised above 1": _renormalised(9, 1e-10),
    "point mass at 0": point_mass(5, 0),
    "point mass at m - 1": point_mass(5, 4),
    "1e-12 cluster": _cluster(),
}


@pytest.mark.parametrize("name", sorted(EDGE_MEASURES))
def test_draw_indices_match_searchsorted_at_edges(name):
    mu = EDGE_MEASURES[name]
    u = np.concatenate([_edge_uniforms(mu), derive_rng(5, "edges").random(2000)])
    _assert_draws_match_searchsorted(mu, u)


def test_renormalised_cumsums_end_on_both_sides_of_one():
    assert EDGE_MEASURES["renormalised below 1"]._cum[-1] < 1.0
    assert EDGE_MEASURES["renormalised above 1"]._cum[-1] > 1.0


def test_power_of_two_bucket_of_u_never_starts_past_u():
    # u just below a cumsum value that is itself an edge j/(2m): u * 2m
    # rounds up to that edge, past u; u * G for a power of two G is exact,
    # so the table's bucket b always has b/G <= u < (b + 1)/G
    mu = uniform(13)
    u = _edge_uniforms(mu)
    old = (u * 2 * mu.m).astype(np.intp)
    assert np.any((old / (2 * mu.m) > u) & np.isin(old / (2 * mu.m), mu._cum))
    G = mu._guide[0]
    b = (u * G).astype(np.intp)
    assert G & (G - 1) == 0
    assert np.all((b / G <= u) & (u < (b + 1) / G))
    _assert_draws_match_searchsorted(mu, u)


def _paths(mu, u):
    """Which path of _draw_indices resolves each u: 0 the table's gather,
    1 one step forward from the bucket's start, 2 searchsorted."""
    G, table, _ = mu._guide
    t = table[(u * G).astype(np.intp)].astype(np.int64)
    steps = _reference(mu, u) - ~t
    assert np.all(steps[t < 0] >= 0)
    return np.where(t >= 0, 0, np.where(steps <= 1, 1, 2))


def test_draw_indices_reach_gather_step_and_searchsorted_paths():
    # the 999 light atoms all sit in bucket 0, so a u there past the first
    # two starts at index 0 and one step cannot reach it: searchsorted
    # finishes it. The cumsums 0.3 and 0.6 each sit alone inside a bucket,
    # which one step resolves; every other bucket holds no cumsum.
    mu = DiscreteMeasure((1e-12,) * 999 + (0.3 - 999e-12, 0.3, 0.4))
    G = mu._guide[0]
    lone = [np.linspace(b / G, (b + 1) / G, 200, endpoint=False)
            for b in (int(0.3 * G), int(0.6 * G))]
    u = np.concatenate([
        np.linspace(0.0, 2e-9, 400), *lone, derive_rng(6, "c").random(400),
    ])
    paths = _paths(mu, u)
    assert all(np.count_nonzero(paths == k) >= 300 for k in range(3))
    _assert_draws_match_searchsorted(mu, u)


def _harmonic(m):
    w = 1.0 / np.arange(1, m + 1)
    return DiscreteMeasure(tuple(w / w.sum()))


GUARD_MEASURES = {
    **EDGE_MEASURES,
    "uniform_on half of 1000": uniform_on(Concept.from_indices(1000, range(0, 1000, 2))),
    "harmonic(1000)": _harmonic(1000),
}


@pytest.mark.parametrize("name", sorted(GUARD_MEASURES))
def test_guide_table_mixed_mass_bound(name):
    # built fresh: the table is lazy and stays outside equality and repr
    mu = DiscreteMeasure(GUARD_MEASURES[name].weights)
    assert "_guide" not in vars(mu)
    twin = DiscreteMeasure(mu.weights)
    G, table, pad = mu._guide
    assert "_guide" in vars(mu) and "_guide" not in vars(twin)
    assert mu == twin and repr(mu) == repr(twin) and hash(mu) == hash(twin)
    positive = np.count_nonzero(mu._arr)
    assert G & (G - 1) == 0 and G >= min(GUIDE_MAX, GUIDE_PER_POINT * (positive + 1))
    assert table.dtype == np.int32 and table.shape == (G,)
    # mixed buckets hold at most (positive points) / G of the mass
    mixed = table < 0
    assert np.count_nonzero(mixed) / G <= positive / G
    # a pure bucket's entry is the draw at both its ends; a mixed bucket's
    # start is the draw at its left end
    lo = np.arange(G) / G
    hi = np.nextafter((np.arange(G) + 1) / G, 0.0)
    start = np.where(mixed, ~table, table)
    np.testing.assert_array_equal(start, _reference(mu, lo))
    np.testing.assert_array_equal(table[~mixed], _reference(mu, hi)[~mixed])
    assert pad[-1] == np.inf and pad.size == mu._last + 1


def test_guide_table_bytes_at_a_million_points():
    # the old layout took 2m + 1 int64 starts and an m-entry float64 pad
    m = 10**6
    mu = uniform(m)
    G, table, pad = mu._guide
    assert table.nbytes + pad.nbytes <= 8 * (2 * m + 1) + 8 * m
    assert np.count_nonzero(table < 0) <= m


def test_guide_table_is_lazy_and_outside_equality():
    mu, twin = uniform(6), uniform(6)
    assert "_guide" not in vars(mu)
    _draw_indices(mu, 3, derive_rng(1, "lazy"))
    assert "_guide" in vars(mu) and "_guide" not in vars(twin)
    assert mu == twin and repr(mu) == repr(twin) and hash(mu) == hash(twin)


@settings(settings.get_profile("oracles"))
@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=80
    ).filter(lambda w: sum(w) > 0),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
)
def test_draw_indices_match_searchsorted_property(w, extra):
    w = np.asarray(w)
    mu = DiscreteMeasure(tuple(w / w.sum()))
    _assert_draws_match_searchsorted(mu, np.concatenate([_edge_uniforms(mu), extra]))


def test_sample_size_zero_and_negative():
    mu = uniform(3)
    assert sample_iid(mu, 0, 5) == ()
    with pytest.raises(ValueError):
        sample_iid(mu, -1, 5)


def test_point_mass_and_sample_iid_take_strict_ints():
    # a bool is not an index or a count, and neither is a float
    for m, i in ((3, True), (3, False), (3, 1.0), (3.0, 1), (True, 0)):
        with pytest.raises(ValueError, match="not an int"):
            point_mass(m, i)
    for n in (True, False, 2.0):
        with pytest.raises(ValueError, match="not an int"):
            sample_iid(uniform(3), n, 1)
    for m in (True, False, 3.0):
        with pytest.raises(ValueError, match="not an int"):
            uniform(m)
    # numpy integers still count
    assert point_mass(np.int64(3), np.int32(1)).weights == (0.0, 1.0, 0.0)
    assert uniform(np.int64(3)) == uniform(3)
    assert sample_iid(uniform(3), np.int64(4), 1) == sample_iid(uniform(3), 4, 1)


def test_symdiff_distance():
    mu = DiscreteMeasure((0.1, 0.2, 0.3, 0.4))
    a = Concept.from_indices(4, [0, 1])
    b = Concept.from_indices(4, [1, 2])
    assert symdiff_distance(mu, a, b) == pytest.approx(0.4)
    assert symdiff_distance(mu, a, a) == 0.0
    with pytest.raises(DomainMismatch):
        symdiff_distance(mu, a, Concept.empty(5))


def test_atom_bound_on_skewed_measure():
    w = np.arange(1, 11, dtype=float)
    mu = DiscreteMeasure(tuple(w / w.sum()))
    assert mu.atom_bound == pytest.approx(10 / 55)
