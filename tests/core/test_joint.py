"""Tests of Lemma 1: the joint density of two probabilistic features.

The central check integrates the product of two Gaussian pdfs numerically
(scipy.quad) and compares it with the closed form — under the exact
CONVOLUTION rule the two must agree to quadrature precision, which is the
strongest validation of the lemma (and pins down the paper's sigma-vs-
variance notational slip documented in ``repro.core.joint``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from repro.core import joint
from repro.core.gaussian import log_pdf_array
from repro.core.joint import (
    PreparedColumns,
    SigmaRule,
    combine_sigma,
    joint_density,
    joint_density_1d,
    log_joint_density,
    log_joint_density_1d,
    log_joint_density_batch,
    log_joint_density_multi,
)
from repro.core.pfv import PFV


def overlap_integral(mu_v, sigma_v, mu_q, sigma_q):
    """Numerical integral of N_{mu_v,sigma_v}(x) * N_{mu_q,sigma_q}(x).

    The product of two Gaussian pdfs is itself proportional to a Gaussian
    centred at the precision-weighted mean; integrating tightly around
    that centre keeps the quadrature from missing a narrow spike.
    """
    f = lambda x: stats.norm.pdf(x, mu_v, sigma_v) * stats.norm.pdf(x, mu_q, sigma_q)
    wv, wq = 1.0 / sigma_v**2, 1.0 / sigma_q**2
    center = (wv * mu_v + wq * mu_q) / (wv + wq)
    width = 1.0 / math.sqrt(wv + wq)
    value, _ = integrate.quad(f, center - 30 * width, center + 30 * width, limit=200)
    return value


class TestLemma1:
    @given(
        mu_v=st.floats(-3, 3),
        sigma_v=st.floats(0.05, 2.0),
        mu_q=st.floats(-3, 3),
        sigma_q=st.floats(0.05, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_convolution_rule_matches_quadrature(
        self, mu_v, sigma_v, mu_q, sigma_q
    ):
        closed = joint_density_1d(
            mu_v, sigma_v, mu_q, sigma_q, SigmaRule.CONVOLUTION
        )
        numeric = overlap_integral(mu_v, sigma_v, mu_q, sigma_q)
        assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-12)

    def test_paper_rule_differs_from_convolution(self):
        # The literal sigma_v + sigma_q formula is NOT the overlap
        # integral — documenting the notational slip.
        paper = joint_density_1d(0.0, 0.5, 0.2, 0.5, SigmaRule.PAPER)
        exact = joint_density_1d(0.0, 0.5, 0.2, 0.5, SigmaRule.CONVOLUTION)
        assert paper != pytest.approx(exact, rel=1e-3)

    def test_reduces_to_plain_density_when_query_exact(self):
        # sigma_q -> 0: the joint density becomes N_{mu_v,sigma_v}(mu_q).
        value = joint_density_1d(0.3, 0.4, 0.5, 1e-12, SigmaRule.CONVOLUTION)
        assert value == pytest.approx(stats.norm.pdf(0.5, 0.3, 0.4), rel=1e-6)

    @given(
        mu_v=st.floats(-3, 3),
        sigma_v=st.floats(0.05, 2.0),
        mu_q=st.floats(-3, 3),
        sigma_q=st.floats(0.05, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, mu_v, sigma_v, mu_q, sigma_q):
        for rule in SigmaRule:
            assert log_joint_density_1d(
                mu_v, sigma_v, mu_q, sigma_q, rule
            ) == pytest.approx(
                log_joint_density_1d(mu_q, sigma_q, mu_v, sigma_v, rule)
            )


class TestCombineSigma:
    def test_convolution(self):
        assert combine_sigma(3.0, 4.0, SigmaRule.CONVOLUTION) == pytest.approx(5.0)

    def test_paper(self):
        assert combine_sigma(3.0, 4.0, SigmaRule.PAPER) == pytest.approx(7.0)

    def test_elementwise(self):
        out = combine_sigma(np.array([3.0, 1.0]), np.array([4.0, 1.0]))
        assert out == pytest.approx([5.0, math.sqrt(2.0)])

    @given(
        s1=st.floats(0.01, 10),
        s2=st.floats(0.01, 10),
        delta=st.floats(0.001, 1.0),
    )
    def test_strictly_increasing_in_sigma_v(self, s1, s2, delta):
        # The monotonicity every Gauss-tree interval bound relies on.
        for rule in SigmaRule:
            assert combine_sigma(s1 + delta, s2, rule) > combine_sigma(s1, s2, rule)


class TestMultivariate:
    def test_product_over_dimensions(self):
        v = PFV([0.0, 1.0], [0.5, 0.3])
        q = PFV([0.2, 0.9], [0.1, 0.4])
        expected = sum(
            log_joint_density_1d(v.mu[i], v.sigma[i], q.mu[i], q.sigma[i])
            for i in range(2)
        )
        assert log_joint_density(v, q) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            log_joint_density(PFV([0.0], [1.0]), PFV([0.0, 0.0], [1.0, 1.0]))

    def test_linear_space_variant(self):
        v = PFV([0.0], [0.5])
        q = PFV([0.1], [0.5])
        assert joint_density(v, q) == pytest.approx(
            math.exp(log_joint_density(v, q))
        )


class TestBatch:
    def test_matches_scalar_loop(self, rng):
        n, d = 20, 4
        mu = rng.uniform(0, 1, (n, d))
        sigma = rng.uniform(0.05, 0.5, (n, d))
        q = PFV(rng.uniform(0, 1, d), rng.uniform(0.05, 0.5, d))
        batch = log_joint_density_batch(mu, sigma, q)
        for i in range(n):
            v = PFV(mu[i], sigma[i])
            assert batch[i] == pytest.approx(log_joint_density(v, q))

    def test_paper_rule_batch(self, rng):
        mu = rng.uniform(0, 1, (5, 2))
        sigma = rng.uniform(0.1, 0.5, (5, 2))
        q = PFV([0.5, 0.5], [0.2, 0.2])
        batch = log_joint_density_batch(mu, sigma, q, SigmaRule.PAPER)
        for i in range(5):
            v = PFV(mu[i], sigma[i])
            assert batch[i] == pytest.approx(
                log_joint_density(v, q, SigmaRule.PAPER)
            )

    def test_shape_validation(self):
        q = PFV([0.0], [1.0])
        with pytest.raises(ValueError):
            log_joint_density_batch(np.zeros(3), np.ones(3), q)
        with pytest.raises(ValueError):
            log_joint_density_batch(np.zeros((3, 2)), np.ones((3, 2)), q)


def per_dimension_reference(mu, sigma, q_mu, q_sigma, rule):
    """``(m, n)`` sums of per-dimension ``log_pdf_array`` terms: the
    elementwise Lemma-1 path, which accepts any array the pfv would not."""
    sigma_c = combine_sigma(sigma[None, :, :], q_sigma[:, None, :], rule)
    return np.sum(log_pdf_array(q_mu[:, None, :], mu[None, :, :], sigma_c), axis=2)


class TestMultiKernel:
    """The dimension-major kernel against the per-pfv reference."""

    @pytest.mark.parametrize("rule", list(SigmaRule))
    @pytest.mark.parametrize("d", [1, 4, 10, 27, 64])
    def test_every_entry_matches_the_per_pfv_reference(self, rule, d):
        rng = np.random.default_rng(d)
        n, m = 30, 3
        mu = rng.uniform(-1, 1, (n, d))
        sigma = 10.0 ** rng.uniform(-3, 1, (n, d))
        q_mu = rng.uniform(-1, 1, (m, d))
        q_sigma = 10.0 ** rng.uniform(-3, 1, (m, d))
        multi = log_joint_density_multi(mu, sigma, q_mu, q_sigma, rule)
        assert multi.shape == (m, n)
        for i in range(m):
            q = PFV(q_mu[i], q_sigma[i])
            for j in range(n):
                ref = log_joint_density(PFV(mu[j], sigma[j]), q, rule)
                assert abs(multi[i, j] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_paper_rule_takes_the_log_of_sigma_c_not_its_square(self):
        # sigma_c**2 overflows above ~1.3e154; log(sigma_c) does not.
        mu = np.array([[0.0, 1.0]])
        sigma = np.array([[1e200, 0.5]])
        q_mu = np.array([[0.5, 0.5]])
        q_sigma = np.array([[1e200, 0.5]])
        got = log_joint_density_multi(mu, sigma, q_mu, q_sigma, SigmaRule.PAPER)
        ref = per_dimension_reference(mu, sigma, q_mu, q_sigma, SigmaRule.PAPER)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, ref, rtol=1e-12)


class TestMultiKernelInputChecks:
    """The kernels reject exactly what ``log_pdf_array`` rejects: a
    combined ``sigma_c <= 0`` anywhere."""

    def setup_method(self):
        self.mu = np.zeros((4, 3))
        self.sigma = np.full((4, 3), 0.5)
        self.q_mu = np.full((2, 3), 0.1)
        self.q_sigma = np.full((2, 3), 0.5)

    def check(self, rule, rejected):
        args = (self.mu, self.sigma, self.q_mu, self.q_sigma, rule)
        prepared = PreparedColumns.stack(
            [(self.mu, self.sigma)], *self.mu.shape, rule
        )
        if rejected:
            with pytest.raises(ValueError, match="positive"):
                log_joint_density_multi(*args)
            with pytest.raises(ValueError, match="positive"):
                prepared.log_densities(self.q_mu, self.q_sigma)
            with pytest.raises(ValueError, match="positive"):
                log_joint_density_batch(
                    self.mu, self.sigma, PFV(self.q_mu[1], self.q_sigma[1]), rule
                )
        else:
            got = log_joint_density_multi(*args)
            np.testing.assert_allclose(
                got, per_dimension_reference(*args), rtol=1e-12
            )
            assert np.array_equal(
                prepared.log_densities(self.q_mu, self.q_sigma), got
            )

    def test_convolution_rejects_zero_sigma_on_both_sides(self):
        self.sigma[2, 1] = 0.0
        self.check(SigmaRule.CONVOLUTION, rejected=False)
        self.q_sigma[1, 1] = 0.0
        self.check(SigmaRule.CONVOLUTION, rejected=True)

    def test_convolution_accepts_zero_sigmas_in_different_dimensions(self):
        # Each combined sigma pairs a stored and a query sigma of the same
        # dimension, so these two zeros never meet.
        self.sigma[2, 1] = 0.0
        self.q_sigma[1, 2] = 0.0
        self.check(SigmaRule.CONVOLUTION, rejected=False)

    def test_convolution_accepts_a_negative_sigma(self):
        # sigma_c = sqrt(sigma_v**2 + sigma_q**2) stays positive.
        self.sigma[2, 1] = -0.7
        self.check(SigmaRule.CONVOLUTION, rejected=False)

    def test_paper_rejects_a_nonpositive_sum(self):
        self.sigma[2, 1] = -0.3  # sigma_v + sigma_q = 0.2
        self.check(SigmaRule.PAPER, rejected=False)
        self.sigma[2, 1] = -0.7  # -0.2: its square would be positive
        self.check(SigmaRule.PAPER, rejected=True)
        self.sigma[2, 1] = -0.5  # exactly 0
        self.check(SigmaRule.PAPER, rejected=True)


# Sigmas the kernel must either evaluate or refuse like any other:
# signed zeros, NaN, infinities, negatives, and 1e-170, whose square
# underflows to 0.
_ODD_SIGMAS = [0.0, -0.0, math.nan, math.inf, -math.inf, -0.3, -2.0, 1e-170]


@st.composite
def _kernel_inputs(draw):
    """Random stacks and queries with odd sigmas in random cells, under a
    budget that cuts the stack into chunks of a few rows or its queries
    into blocks of a few queries, and the row numbers where the prepared
    form's blocks start."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, d = draw(st.integers(1, 40)), draw(st.integers(0, 40)), draw(
        st.integers(1, 10)
    )
    share = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2]))

    def sigmas(rows):
        values = rng.uniform(0.05, 0.5, (rows, d))
        odd = rng.random((rows, d)) < share
        values[odd] = rng.choice(_ODD_SIGMAS, size=int(odd.sum()))
        return values

    return (
        draw(st.sampled_from(list(SigmaRule))),
        draw(st.sampled_from([1, 7, 50, 300, 2_000, 32_768])),
        sorted(draw(st.lists(st.integers(0, n), max_size=3))),
        rng.uniform(-1, 1, (n, d)),
        sigmas(n),
        rng.uniform(-1, 1, (m, d)),
        sigmas(m),
    )


def _outcome(call):
    try:
        return call()
    except ValueError:
        return ValueError


class TestPreparedColumns:
    """The prepared form (:class:`PreparedColumns`) and the raw ``(n, d)``
    form of the one kernel, against one-query calls."""

    @given(_kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_both_forms_give_the_same_bits_or_both_refuse(self, inputs):
        rule, budget, starts, mu, sigma, q_mu, q_sigma = inputs
        n, d = mu.shape
        bounds = [0, *starts, n]
        columns = PreparedColumns.stack(
            [(mu[a:b], sigma[a:b]) for a, b in zip(bounds, bounds[1:])],
            n, d, rule,
        )
        assert not columns.mu.flags.writeable
        assert not columns.power.flags.writeable
        # The refusal rule as a test of every (query, row, dimension)
        # spread sigma_c**p: p = 2 under CONVOLUTION, 1 under PAPER.
        p = 2 if rule is SigmaRule.CONVOLUTION else 1
        with np.errstate(all="ignore"):
            spreads = sigma[np.newaxis] ** p + q_sigma[:, np.newaxis] ** p
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(joint, "_CHUNK_ELEMENTS", budget)
                raw = _outcome(
                    lambda: log_joint_density_multi(
                        mu, sigma, q_mu, q_sigma, rule
                    )
                )
                prepared = _outcome(
                    lambda: columns.log_densities(q_mu, q_sigma)
                )
            # Each query alone at the default budget: one chunk of every
            # row, in a block of its own.
            singles = [
                _outcome(
                    lambda: log_joint_density_multi(
                        mu, sigma, q_mu[i : i + 1], q_sigma[i : i + 1], rule
                    )
                )
                for i in range(len(q_mu))
            ]
        refused = (spreads <= 0.0).any(axis=(1, 2))
        assert [single is ValueError for single in singles] == refused.tolist()
        if refused.any():
            assert raw is ValueError and prepared is ValueError
            return
        assert raw is not ValueError and prepared is not ValueError
        want = np.vstack(singles)
        nan = np.isnan(want)
        for got in (raw, prepared):
            assert np.array_equal(nan, np.isnan(got))
            assert np.array_equal(
                got[~nan].view(np.int64), want[~nan].view(np.int64)
            )

    def test_stack_refuses_blocks_that_do_not_fit(self):
        mu = np.zeros((3, 4))
        with pytest.raises(ValueError, match="rows"):
            PreparedColumns.stack([(mu, mu)], 4, 4)
        with pytest.raises(ValueError, match="pairs"):
            PreparedColumns.stack([(mu, np.zeros((3, 1)))], 3, 4)
        with pytest.raises(ValueError, match="pairs"):
            PreparedColumns.stack([(mu[:, :1], mu[:, :1])], 3, 4)
        columns = PreparedColumns.stack([(mu, mu + 1.0)], 3, 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            columns.log_densities(np.zeros((1, 3)), np.ones((1, 3)))
