"""Property tests of Lemmas 2 and 3: the conservative node bounds.

The crucial contract: for every Gaussian whose parameters lie inside a
node's parameter rectangle and every evaluation point, the upper hull
dominates the density and the lower bound stays below it. We check the
collapsed closed form against brute-force grid maximisation and against
the paper's literal seven-case formula.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gaussian import SQRT_TWO_PI_E, pdf
from repro.core.joint import SigmaRule, combine_sigma, log_joint_density
from repro.core.pfv import PFV
from repro.gausstree.bounds import ParameterRect
from repro.gausstree.hull import (
    hull_lower,
    hull_upper,
    log_hull_lower,
    log_hull_upper,
    node_log_bounds,
    node_log_bounds_batch,
    node_log_bounds_multi,
    node_log_upper,
)


@st.composite
def box_and_x(draw):
    mu_lo = draw(st.floats(-5, 5))
    mu_hi = mu_lo + draw(st.floats(0, 4))
    sigma_lo = draw(st.floats(0.05, 2.0))
    sigma_hi = sigma_lo + draw(st.floats(0, 3.0))
    x = draw(st.floats(-15, 15))
    return mu_lo, mu_hi, sigma_lo, sigma_hi, x


def grid_extrema(mu_lo, mu_hi, sigma_lo, sigma_hi, x, steps=60):
    mus = np.linspace(mu_lo, mu_hi, steps)
    sigmas = np.linspace(sigma_lo, sigma_hi, steps)
    values = [pdf(x, m, s) for m in mus for s in sigmas]
    return min(values), max(values)


def paper_seven_cases(mu_lo, mu_hi, sigma_lo, sigma_hi, x):
    """Lemma 2 exactly as printed, case by case."""
    if x < mu_lo - sigma_hi:
        return pdf(x, mu_lo, sigma_hi)  # (I)
    if x < mu_lo - sigma_lo:
        return pdf(x, mu_lo, mu_lo - x)  # (II)
    if x < mu_lo:
        return pdf(x, mu_lo, sigma_lo)  # (III)
    if x < mu_hi:
        return pdf(x, x, sigma_lo)  # (IV)
    if x < mu_hi + sigma_lo:
        return pdf(x, mu_hi, sigma_lo)  # (V)
    if x < mu_hi + sigma_hi:
        return pdf(x, mu_hi, x - mu_hi)  # (VI)
    return pdf(x, mu_hi, sigma_hi)  # (VII)


class TestUpperHull:
    @given(box_and_x())
    @settings(max_examples=150, deadline=None)
    def test_matches_papers_piecewise_formula(self, params):
        mu_lo, mu_hi, sigma_lo, sigma_hi, x = params
        ours = float(hull_upper(x, mu_lo, mu_hi, sigma_lo, sigma_hi))
        paper = paper_seven_cases(mu_lo, mu_hi, sigma_lo, sigma_hi, x)
        assert ours == pytest.approx(paper, rel=1e-12)

    @given(box_and_x())
    @settings(max_examples=100, deadline=None)
    def test_dominates_grid_maximum(self, params):
        mu_lo, mu_hi, sigma_lo, sigma_hi, x = params
        _, grid_max = grid_extrema(mu_lo, mu_hi, sigma_lo, sigma_hi, x)
        ours = float(hull_upper(x, mu_lo, mu_hi, sigma_lo, sigma_hi))
        assert ours >= grid_max - 1e-12

    @given(box_and_x())
    @settings(max_examples=60, deadline=None)
    def test_tight_at_attained_maximum(self, params):
        # The hull is the *exact* maximum, not just an upper bound: the
        # grid maximum converges to it from below.
        mu_lo, mu_hi, sigma_lo, sigma_hi, x = params
        _, grid_max = grid_extrema(mu_lo, mu_hi, sigma_lo, sigma_hi, x, steps=150)
        ours = float(hull_upper(x, mu_lo, mu_hi, sigma_lo, sigma_hi))
        assert grid_max <= ours * (1 + 1e-12) + 1e-15
        assert ours <= grid_max * 1.2 + 1e-12

    def test_case_ii_closed_form(self):
        # Inside case (II) the hull is 1 / (sqrt(2 pi e) * (mu_lo - x)).
        mu_lo, sigma_lo, sigma_hi = 0.0, 0.5, 2.0
        x = -1.0  # mu_lo - sigma_hi <= x < mu_lo - sigma_lo
        value = float(hull_upper(x, mu_lo, 1.0, sigma_lo, sigma_hi))
        assert value == pytest.approx(1.0 / (SQRT_TWO_PI_E * 1.0))

    def test_plateau_inside_mu_interval(self):
        values = hull_upper(
            np.array([0.2, 0.5, 0.8]), 0.0, 1.0, 0.3, 0.6
        )
        assert values[0] == pytest.approx(values[1]) == pytest.approx(values[2])

    def test_continuity_at_case_boundaries(self):
        mu_lo, mu_hi, sigma_lo, sigma_hi = 0.0, 1.0, 0.3, 0.9
        boundaries = [
            mu_lo - sigma_hi,
            mu_lo - sigma_lo,
            mu_lo,
            mu_hi,
            mu_hi + sigma_lo,
            mu_hi + sigma_hi,
        ]
        for b in boundaries:
            left = float(hull_upper(b - 1e-9, mu_lo, mu_hi, sigma_lo, sigma_hi))
            right = float(hull_upper(b + 1e-9, mu_lo, mu_hi, sigma_lo, sigma_hi))
            assert left == pytest.approx(right, rel=1e-5)

    def test_log_form_consistent(self):
        x = np.linspace(-3, 3, 20)
        lin = hull_upper(x, 0.0, 1.0, 0.2, 0.8)
        log = log_hull_upper(x, 0.0, 1.0, 0.2, 0.8)
        assert np.allclose(np.log(lin), log)

    def test_rejects_nonpositive_sigma_lo(self):
        with pytest.raises(ValueError):
            log_hull_upper(0.0, 0.0, 1.0, 0.0, 1.0)

    def test_degenerate_point_box_equals_pdf(self):
        # A single-pfv node: the hull is just that pfv's Gaussian.
        for x in (-1.0, 0.25, 2.0):
            assert float(hull_upper(x, 0.3, 0.3, 0.7, 0.7)) == pytest.approx(
                pdf(x, 0.3, 0.7)
            )


class TestLowerBound:
    @given(box_and_x())
    @settings(max_examples=100, deadline=None)
    def test_below_grid_minimum(self, params):
        mu_lo, mu_hi, sigma_lo, sigma_hi, x = params
        grid_min, _ = grid_extrema(mu_lo, mu_hi, sigma_lo, sigma_hi, x)
        ours = float(hull_lower(x, mu_lo, mu_hi, sigma_lo, sigma_hi))
        assert ours <= grid_min + 1e-12

    @given(box_and_x())
    @settings(max_examples=100, deadline=None)
    def test_equals_minimum_over_corners(self, params):
        mu_lo, mu_hi, sigma_lo, sigma_hi, x = params
        corners = [
            pdf(x, m, s)
            for m in (mu_lo, mu_hi)
            for s in (sigma_lo, sigma_hi)
        ]
        ours = float(hull_lower(x, mu_lo, mu_hi, sigma_lo, sigma_hi))
        assert ours == pytest.approx(min(corners), rel=1e-12)

    @given(box_and_x())
    @settings(max_examples=60, deadline=None)
    def test_lower_never_exceeds_upper(self, params):
        mu_lo, mu_hi, sigma_lo, sigma_hi, x = params
        lo = float(log_hull_lower(x, mu_lo, mu_hi, sigma_lo, sigma_hi))
        hi = float(log_hull_upper(x, mu_lo, mu_hi, sigma_lo, sigma_hi))
        assert lo <= hi + 1e-12


@st.composite
def node_with_members(draw):
    d = draw(st.integers(1, 3))
    count = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 100_000))
    rng = np.random.default_rng(seed)
    members = [
        PFV(rng.uniform(-2, 2, d), rng.uniform(0.05, 1.0, d), key=i)
        for i in range(count)
    ]
    q = PFV(rng.uniform(-3, 3, d), rng.uniform(0.05, 1.0, d))
    return ParameterRect.of_vectors(members), members, q


class TestNodeBounds:
    """The query-facing contract: node bounds sandwich every member's
    Lemma-1 joint density (Section 5.2's shifted-sigma evaluation)."""

    @given(node_with_members())
    @settings(max_examples=80, deadline=None)
    def test_bounds_sandwich_member_densities(self, case):
        rect, members, q = case
        for rule in SigmaRule:
            lo, hi = node_log_bounds(rect, q, rule)
            for v in members:
                dens = log_joint_density(v, q, rule)
                assert lo - 1e-9 <= dens <= hi + 1e-9

    @given(node_with_members())
    @settings(max_examples=40, deadline=None)
    def test_node_log_upper_matches_bounds(self, case):
        rect, _, q = case
        _, hi = node_log_bounds(rect, q)
        assert node_log_upper(rect, q) == pytest.approx(hi)

    @given(node_with_members())
    @settings(max_examples=40, deadline=None)
    def test_shifted_sigma_equivalence(self, case):
        # The query bound equals the plain hull evaluated with the
        # query-combined sigma interval at mu_q — Section 5.2's identity.
        rect, _, q = case
        s_lo = combine_sigma(rect.sigma_lo, q.sigma)
        s_hi = combine_sigma(rect.sigma_hi, q.sigma)
        direct = float(
            np.sum(log_hull_upper(q.mu, rect.mu_lo, rect.mu_hi, s_lo, s_hi))
        )
        _, hi = node_log_bounds(rect, q)
        assert direct == pytest.approx(hi)

    def test_batch_matches_scalar(self, rng):
        d, k = 3, 5
        rects = []
        for _ in range(k):
            mu = rng.uniform(-1, 1, (4, d))
            sg = rng.uniform(0.05, 0.8, (4, d))
            rects.append(
                ParameterRect(mu.min(0), mu.max(0), sg.min(0), sg.max(0))
            )
        q = PFV(rng.uniform(-1, 1, d), rng.uniform(0.05, 0.8, d))
        stacked = (
            np.vstack([r.mu_lo for r in rects]),
            np.vstack([r.mu_hi for r in rects]),
            np.vstack([r.sigma_lo for r in rects]),
            np.vstack([r.sigma_hi for r in rects]),
        )
        lows, highs = node_log_bounds_batch(*stacked, q)
        for i, r in enumerate(rects):
            lo, hi = node_log_bounds(r, q)
            assert lows[i] == pytest.approx(lo)
            assert highs[i] == pytest.approx(hi)

    def test_containment_monotonicity(self, rng):
        # A sub-rectangle has tighter bounds than its parent.
        parent = ParameterRect(
            np.array([0.0]), np.array([2.0]), np.array([0.1]), np.array([1.0])
        )
        child = ParameterRect(
            np.array([0.5]), np.array([1.5]), np.array([0.2]), np.array([0.8])
        )
        q = PFV([0.7], [0.3])
        plo, phi = node_log_bounds(parent, q)
        clo, chi = node_log_bounds(child, q)
        assert chi <= phi + 1e-12
        assert clo >= plo - 1e-12


def random_rects(rng, k, d):
    """``k`` rectangles as stacked ``(k, d)`` bounds, sigma in 1e-3..10."""
    mu_lo = rng.uniform(-1, 1, (k, d))
    mu_hi = mu_lo + rng.uniform(0, 0.5, (k, d))
    sigma_lo = 10.0 ** rng.uniform(-3, 0.5, (k, d))
    sigma_hi = sigma_lo * 10.0 ** rng.uniform(0, 0.5, (k, d))
    return mu_lo, mu_hi, sigma_lo, sigma_hi


class TestMultiKernel:
    """The dimension-major bound kernel against the per-rectangle
    reference :func:`node_log_bounds`."""

    @pytest.mark.parametrize("rule", list(SigmaRule))
    @pytest.mark.parametrize("d", [1, 4, 10, 27, 64])
    def test_every_row_matches_node_log_bounds(self, rule, d):
        rng = np.random.default_rng(100 + d)
        k, m = 12, 3
        stacked = random_rects(rng, k, d)
        # Rectangles 0-2 are points in mu; query 0 sits inside the mu box
        # of rectangle 5.
        stacked[1][:3] = stacked[0][:3]
        q_mu = rng.uniform(-1.2, 1.2, (m, d))
        q_mu[0] = stacked[0][5] + 0.25 * (stacked[1][5] - stacked[0][5])
        q_sigma = 10.0 ** rng.uniform(-3, 1, (m, d))
        lows, highs = node_log_bounds_multi(*stacked, q_mu, q_sigma, rule)
        assert lows.shape == highs.shape == (m, k)
        for j in range(k):
            rect = ParameterRect(*(bound[j] for bound in stacked))
            for i in range(m):
                lo, hi = node_log_bounds(rect, PFV(q_mu[i], q_sigma[i]), rule)
                assert abs(lows[i, j] - lo) <= 1e-12 * max(1.0, abs(lo))
                assert abs(highs[i, j] - hi) <= 1e-12 * max(1.0, abs(hi))

    @pytest.mark.parametrize("rule", list(SigmaRule))
    def test_rejects_a_zero_combined_sigma_lo(self, rule):
        rng = np.random.default_rng(5)
        stacked = random_rects(rng, 4, 3)
        q_mu = rng.uniform(-1, 1, (2, 3))
        q_sigma = np.full((2, 3), 0.2)
        stacked[2][2, 1] = 0.0
        # The query's sigma keeps the combined bound positive, as in
        # node_log_bounds.
        node_log_bounds_multi(*stacked, q_mu, q_sigma, rule)
        q_sigma[1, 1] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            node_log_bounds_multi(*stacked, q_mu, q_sigma, rule)

    def test_paper_rule_rejects_a_nonpositive_sum(self):
        rng = np.random.default_rng(6)
        stacked = random_rects(rng, 4, 3)
        q = PFV(rng.uniform(-1, 1, 3), np.full(3, 0.2))
        stacked[2][2, 1] = -0.1  # sigma_lo + sigma_q = 0.1
        node_log_bounds_batch(*stacked, q, SigmaRule.PAPER)
        stacked[2][2, 1] = -0.3  # -0.1: its square would be positive
        with pytest.raises(ValueError, match="strictly positive"):
            node_log_bounds_batch(*stacked, q, SigmaRule.PAPER)
