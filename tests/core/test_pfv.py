"""Unit tests for probabilistic feature vectors (Definition 1)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.pfv import PFV, ProbabilisticFeatureVector


class TestConstruction:
    def test_basic(self):
        v = PFV([1.0, 2.0], [0.1, 0.2], key="a")
        assert v.dims == 2
        assert v.key == "a"
        assert np.array_equal(v.mu, [1.0, 2.0])
        assert np.array_equal(v.sigma, [0.1, 0.2])

    def test_alias(self):
        assert PFV is ProbabilisticFeatureVector

    @pytest.mark.parametrize(
        "mu, sigma, message",
        [
            ([math.nan], [1.0], "mu contains non-finite values"),
            ([0.0, math.nan], [1.0, 1.0], "mu contains non-finite values"),
            ([math.inf, 0.0], [1.0, 1.0], "mu contains non-finite values"),
            ([-math.inf], [1.0], "mu contains non-finite values"),
            ([0.0, 0.0], [1.0, math.nan], "finite and strictly positive"),
            ([0.0], [math.inf], "finite and strictly positive"),
            ([0.0], [-math.inf], "finite and strictly positive"),
            ([0.0], [0.0], "finite and strictly positive"),
            ([0.0], [-1.0], "finite and strictly positive"),
            ([0.0, 0.0], [1.0, 0.0], "finite and strictly positive"),
            ([0.0], [-0.0], "finite and strictly positive"),
            ([0.0], [-1e-300], "finite and strictly positive"),
            ([1.0, 2.0], [0.1], "must have the same length, got 2 and 1"),
            ([0.0], [1.0, 1.0], "must have the same length, got 1 and 2"),
            ([], [], "a pfv needs at least one dimension"),
            (np.zeros((2, 2)), np.ones((2, 2)), "mu must be 1-dimensional"),
            ([0.0], [[1.0]], "sigma must be 1-dimensional"),
            (0.0, [1.0], "mu must be 1-dimensional"),
        ],
    )
    def test_every_rejected_input_names_its_fault(self, mu, sigma, message):
        with pytest.raises(ValueError, match=message):
            PFV(mu, sigma)

    def test_smallest_positive_sigma_accepted(self):
        v = PFV([0.0, -1e308], [5e-324, 1e308])
        assert v.sigma[0] > 0.0

    def test_arrays_are_read_only(self):
        v = PFV([1.0], [0.5])
        with pytest.raises(ValueError):
            v.mu[0] = 2.0
        with pytest.raises(ValueError):
            v.sigma[0] = 2.0

    def test_does_not_alias_input(self):
        mu = np.array([1.0, 2.0])
        v = PFV(mu, [0.1, 0.1])
        mu[0] = 99.0
        assert v.mu[0] == 1.0


class TestDensity:
    def test_log_density_matches_scipy(self):
        v = PFV([0.0, 1.0], [0.5, 2.0])
        x = np.array([0.3, 0.7])
        expected = stats.norm.logpdf(x, v.mu, v.sigma).sum()
        assert v.log_density(x) == pytest.approx(expected)

    def test_density_exponentiates(self):
        v = PFV([0.0], [1.0])
        assert v.density([0.0]) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_density_dimension_check(self):
        v = PFV([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            v.log_density([0.0])

    def test_distant_density_underflows_to_zero_but_log_is_finite(self):
        v = PFV([0.0] * 27, [0.01] * 27)
        x = np.full(27, 10.0)
        assert v.density(x) == 0.0
        assert math.isfinite(v.log_density(x))


class TestProtocol:
    def test_len_and_iter(self):
        v = PFV([1.0, 2.0], [0.1, 0.2])
        assert len(v) == 2
        assert list(v) == [(1.0, 0.1), (2.0, 0.2)]

    def test_equality_includes_key(self):
        a = PFV([1.0], [0.1], key=1)
        b = PFV([1.0], [0.1], key=1)
        c = PFV([1.0], [0.1], key=2)
        assert a == b
        assert a != c

    def test_equality_checks_values(self):
        assert PFV([1.0], [0.1]) != PFV([1.0], [0.2])
        assert PFV([1.0], [0.1]) != PFV([2.0], [0.1])

    def test_eq_other_type(self):
        assert PFV([1.0], [0.1]).__eq__(42) is NotImplemented

    def test_hash_consistent_with_eq(self):
        a = PFV([1.0], [0.1], key=1)
        b = PFV([1.0], [0.1], key=1)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_with_key(self):
        v = PFV([1.0], [0.1], key=None)
        w = v.with_key("id7")
        assert w.key == "id7"
        assert np.array_equal(w.mu, v.mu)
        assert v.key is None  # original untouched

    def test_repr_mentions_key_and_dims(self):
        text = repr(PFV([1.0, 2.0], [0.1, 0.2], key="x"))
        assert "x" in text and "d=2" in text
