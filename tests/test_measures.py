"""Measure construction, tolerances, sampling determinism."""

import collections

import numpy as np
import pytest

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
from thickvc.measures import _draw_indices, point_mass, sample_iid


def test_basic_properties():
    mu = uniform(4)
    assert mu.m == 4
    assert mu.atom_bound == 0.25
    assert mu.weight(2) == 0.25
    assert mu.mass([0, 3]) == pytest.approx(0.5)
    assert mu.mass([]) == 0.0
    assert mu.measure_of(Concept.from_indices(4, [1, 2])) == pytest.approx(0.5)


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
    assert pm.atom_bound == 1.0 and pm.weight(3) == 1.0
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
    assert a.points == b.points
    assert a.points != c.points
    assert a.seed == 1234 and a.n == 50
    # generator form reproduces the seed form
    d = sample_iid(mu, 50, derive_rng(1234, "sample"))
    assert d.points == a.points and d.seed is None


def test_sampling_respects_support():
    mu = uniform_on(Concept.from_indices(8, [2, 5]))
    s = sample_iid(mu, 400, 7)
    assert set(s.points) <= {2, 5}
    # both atoms appear: probability of missing one is 2^-399
    assert set(s.points) == {2, 5}


def test_sampling_frequencies_converge():
    mu = DiscreteMeasure((0.7, 0.2, 0.1))
    s = sample_iid(mu, 20_000, 99)
    freq = collections.Counter(s.points)
    for i in range(3):
        assert freq[i] / 20_000 == pytest.approx(mu.weight(i), abs=0.02)


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


def test_sample_size_zero_and_negative():
    mu = uniform(3)
    assert sample_iid(mu, 0, 5).points == ()
    with pytest.raises(ValueError):
        sample_iid(mu, -1, 5)


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
