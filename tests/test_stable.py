"""Stable sampler, tail asymptotics, noise blocks and characteristic function."""

import math

import numpy as np
import pytest
from scipy.stats import kendalltau, ks_2samp

from stablemimo.stable import (
    NoiseModel,
    StableParams,
    char_fn,
    sample_noise_block,
    sample_stable,
    sample_subordinator,
    stable_tail_constant,
    tail_ccdf,
    tail_pdf,
)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestStableParams:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.01, 3.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            StableParams(alpha=alpha)

    def test_rejects_bad_sigma_and_beta(self):
        with pytest.raises(ValueError):
            StableParams(alpha=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            StableParams(alpha=1.0, beta=1.5)


class TestSampleStable:
    def test_gaussian_special_case_variance(self):
        x = sample_stable(StableParams(alpha=2.0), rng_for(1), size=10**6)
        assert abs(x.var() - 2.0) < 0.02

    def test_cauchy_median_and_upper_tail(self):
        # standard Cauchy: P(w > 1) = 1/2 - arctan(1)/pi = 1/4
        x = sample_stable(StableParams(alpha=1.0), rng_for(2), size=10**6)
        assert abs(np.median(x)) < 0.01
        assert abs((x > 1.0).mean() - 0.25) < 0.01

    def test_ccdf_asymptote_alpha_143(self):
        params = StableParams(alpha=1.43)
        x = sample_stable(params, rng_for(3), size=2 * 10**6)
        c = stable_tail_constant(1.43)
        for lam in (20.0, 40.0, 70.0, 100.0):
            ratio = (x > lam).mean() * lam**1.43 / c
            assert abs(ratio - 1.0) < 0.1, (lam, ratio)

    def test_scaling_property_ks(self):
        # sigma * S(alpha, 1, 0, 0) equals S(alpha, sigma, 0, 0) in law
        params = StableParams(alpha=1.3, sigma=2.5)
        a = sample_stable(params, rng_for(4), size=10**5)
        b = 2.5 * sample_stable(StableParams(alpha=1.3), rng_for(5), size=10**5)
        assert ks_2samp(a, b).pvalue > 0.01

    def test_scalar_draw(self):
        x = sample_stable(StableParams(alpha=1.5), rng_for(6))
        assert isinstance(x, float)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.715, 1.0, 1.43, 2.0])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_bits_equal_cms_expression(self, alpha, beta):
        # the in-place transform against the expression it replaced: same
        # bits (as uint64, so a sign of zero or a NaN payload counts) and
        # the same stream position.  alpha 0.5 and 2 take numpy's special
        # powers (square, identity, sqrt); 0.715 is fig4's subordinator
        params = StableParams(alpha=alpha, sigma=1.3, beta=beta, mu=-0.2)
        for size in (None, 1000, (7, 3, 2)):
            got_rng, want_rng = (np.random.Generator(np.random.Philox(key=[9, 4]))
                                 for _ in range(2))
            if size is None:  # numpy scalar math, not 0-d arrays
                got = [sample_stable(params, got_rng) for _ in range(500)]
                want = [cms_expression(params, want_rng) for _ in range(500)]
                assert all(type(x) is float for x in got)
                got, want = np.array(got), np.array(want)
            else:
                got = sample_stable(params, got_rng, size=size)
                want = cms_expression(params, want_rng, size=size)
                assert got.shape == want.shape == np.empty(size).shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), size
            # Philox's state holds arrays; repr compares them in full
            assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)


def cms_expression(params, rng, size=None):
    """sample_stable as one expression per branch, before its steps were
    written in place."""
    alpha, sigma, beta, mu = params.alpha, params.sigma, params.beta, params.mu
    shape = () if size is None else size
    u = rng.uniform(-np.pi / 2, np.pi / 2, shape)
    w = rng.standard_exponential(shape)
    if alpha == 1.0:
        half_pi = np.pi / 2
        x = (2 / np.pi) * (
            (half_pi + beta * u) * np.tan(u)
            - beta * np.log((half_pi * w * np.cos(u)) / (half_pi + beta * u))
        )
        out = sigma * x + mu
        if beta != 0.0:
            out = out + (2 / np.pi) * beta * sigma * math.log(sigma)
    else:
        tb = beta * math.tan(math.pi * alpha / 2.0)
        b0 = math.atan(tb) / alpha
        s0 = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
        au = alpha * (u + b0)
        x = (
            s0
            * np.sin(au)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos(u - au) / w) ** ((1.0 - alpha) / alpha)
        )
        out = sigma * x + mu
    return float(out) if size is None else out


class TestSubordinator:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, 2.5])
    def test_rejects_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            sample_subordinator(alpha, rng_for(0))

    def test_positive_support(self):
        a = sample_subordinator(0.5, rng_for(7), size=10**5)
        assert np.all(a > 0.0)

    def test_degenerate_limit_near_two(self):
        a = sample_subordinator(1.999, rng_for(8), size=10**5)
        assert 0.8 <= np.median(a) <= 1.25

    def test_compound_tail_alpha_05(self):
        # sqrt(A) times a complex Gaussian with S_2(1,0,0) components gives
        # a unit-scale isotropic variate; real part tails follow the CCDF law
        rng = rng_for(9)
        n = 10**7
        a = sample_subordinator(0.5, rng, size=n)
        g_re = rng.normal(0.0, math.sqrt(2.0), n)
        w = np.sqrt(a) * g_re
        params = StableParams(alpha=0.5)
        for lam in (50.0, 100.0, 300.0):
            ratio = (w > lam).mean() / tail_ccdf(lam, params)
            assert abs(ratio - 1.0) < 0.1, (lam, ratio)

    def test_compound_tail_exponent_alpha_143(self):
        rng = rng_for(10)
        n = 10**7
        a = sample_subordinator(1.43, rng, size=n)
        g = np.sqrt(a) * rng.normal(0.0, math.sqrt(2.0), n)
        lams = np.geomspace(20.0, 100.0, 6)
        ccdf = np.array([(g > lam).mean() for lam in lams])
        slope = np.polyfit(np.log(lams), np.log(ccdf), 1)[0]
        assert 1.38 <= -slope <= 1.48

    def test_compound_matches_direct_sampler_in_tail(self):
        # compound construction vs directly sampled S_alpha(1,0,0) marginal
        alpha = 1.2
        rng = rng_for(11)
        n = 10**6
        w_compound = np.sqrt(sample_subordinator(alpha, rng, size=n)) * rng.normal(
            0.0, math.sqrt(2.0), n
        )
        w_direct = sample_stable(StableParams(alpha=alpha), rng_for(12), size=n)
        for lam in (10.0, 20.0, 50.0):
            ratio = (w_compound > lam).mean() / (w_direct > lam).mean()
            assert 0.9 <= ratio <= 1.1, (lam, ratio)


class TestNoiseBlock:
    def test_shared_column_amplitudes_dependent(self):
        w, genie = sample_noise_block(
            NoiseModel.SHARED, 1.5, 2, 2, rng_for(13), size=10**5
        )
        assert genie.shape == (10**5, 1, 2)
        tau = kendalltau(np.abs(w[:, 0, 0]), np.abs(w[:, 1, 0])).statistic
        assert tau > 0.1

    def test_iid_entries_uncorrelated(self):
        w, genie = sample_noise_block(
            NoiseModel.IID, 1.5, 2, 2, rng_for(14), size=10**5
        )
        assert genie.shape == (10**5, 2, 2)
        tau = kendalltau(np.abs(w[:, 0, 0]), np.abs(w[:, 1, 0])).statistic
        assert abs(tau) <= 0.01

    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    def test_gaussian_case_entry_variance(self, model):
        # alpha = 2 draws no subordinator, so both models give the same w;
        # only the genie record's layout tells them apart
        other = NoiseModel.IID if model is NoiseModel.SHARED else NoiseModel.SHARED
        w, genie = sample_noise_block(model, 2.0, 2, 2, rng_for(15), size=10**5)
        w_other, _ = sample_noise_block(other, 2.0, 2, 2, rng_for(15), size=10**5)
        assert np.array_equal(w, w_other)
        g = 1 if model is NoiseModel.SHARED else 2
        assert genie.shape == (10**5, g, 2)
        assert np.all(genie == 1.0)
        var = np.mean(np.abs(w) ** 2)
        assert abs(var - 2.0) < 0.05

    @pytest.mark.parametrize("size", [None, 7])
    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    def test_one_record_layout(self, model, size):
        # genie (..., g, t_s), g = 1 per column or n_r per entry, and
        # w = sqrt(genie) * G by broadcasting, replayed draw for draw
        n_r, t_s = 3, 2
        w, genie = sample_noise_block(model, 1.2, n_r, t_s, rng_for(16), size=size)
        batch = () if size is None else (size,)
        g = 1 if model is NoiseModel.SHARED else n_r
        assert genie.shape == batch + (g, t_s)
        assert w.shape == batch + (n_r, t_s)
        rng = rng_for(16)
        assert np.array_equal(sample_subordinator(1.2, rng, size=genie.shape), genie)
        gauss = rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape)
        assert np.array_equal(w, np.sqrt(genie) * gauss)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            sample_noise_block(NoiseModel.SHARED, 1.0, 0, 2, rng_for(0))


class TestTails:
    def test_cauchy_value(self):
        # alpha=1, beta=0, w=10: C_1 * 10^-2 = 1/(100 pi)
        got = tail_pdf(10.0, StableParams(alpha=1.0))
        assert got == pytest.approx(1.0 / (100.0 * math.pi), rel=1e-12)

    def test_beta_one_doubles(self):
        p0 = tail_pdf(7.0, StableParams(alpha=1.2, beta=0.0))
        p1 = tail_pdf(7.0, StableParams(alpha=1.2, beta=1.0))
        assert p1 == pytest.approx(2.0 * p0, rel=1e-12)

    def test_levy_case_ratio(self):
        # S_{1/2}(sigma, 1, 0) is Levy with scale sigma:
        # f(w) = sqrt(sigma/(2 pi)) w^(-3/2) exp(-sigma/(2w))
        sigma, w = 1.0, 1e4
        exact = math.sqrt(sigma / (2 * math.pi)) * w**-1.5 * math.exp(-sigma / (2 * w))
        got = tail_pdf(w, StableParams(alpha=0.5, sigma=sigma, beta=1.0))
        assert 0.95 <= got / exact <= 1.05

    def test_ccdf_cauchy(self):
        exact = 0.5 - math.atan(100.0) / math.pi
        got = tail_ccdf(100.0, StableParams(alpha=1.0))
        assert abs(got / exact - 1.0) < 0.005

    def test_ccdf_sigma_scaling(self):
        a = 1.43
        r = tail_ccdf(37.0, StableParams(alpha=a, sigma=2.0)) / tail_ccdf(
            37.0, StableParams(alpha=a, sigma=1.0)
        )
        assert r == pytest.approx(2.0**a, rel=1e-12)

    def test_ccdf_matches_sampler(self):
        params = StableParams(alpha=1.43)
        x = sample_stable(params, rng_for(16), size=2 * 10**6)
        lam = 50.0
        assert abs((x > lam).mean() / tail_ccdf(lam, params) - 1.0) < 0.1

    def test_pdf_is_ccdf_derivative(self):
        # -d/dlam of the CCDF term equals the pdf term identically
        rng = rng_for(17)
        for _ in range(5):
            params = StableParams(
                alpha=rng.uniform(0.3, 1.9),
                sigma=rng.uniform(0.5, 3.0),
                beta=rng.uniform(-1.0, 1.0),
            )
            lam = rng.uniform(5.0, 50.0)
            analytic = params.alpha * tail_ccdf(lam, params) / lam
            assert analytic == pytest.approx(tail_pdf(lam, params), rel=1e-12)


class TestCharFn:
    def test_at_zero(self):
        assert char_fn(0.0, StableParams(alpha=1.43)) == 1.0
        assert char_fn(0.0, StableParams(alpha=1.0, beta=0.5)) == 1.0

    def test_gaussian_value(self):
        got = char_fn(1.0, StableParams(alpha=2.0))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_conjugate_symmetry_symmetric_case(self):
        for alpha in (0.7, 1.0, 1.43, 2.0):
            params = StableParams(alpha=alpha)
            t = np.array([0.3, 1.7, 4.2])
            assert np.allclose(char_fn(-t, params), np.conj(char_fn(t, params)))

    def test_empirical_cf(self):
        params = StableParams(alpha=1.43)
        x = sample_stable(params, rng_for(18), size=10**6)
        for t in (0.1, 0.5, 1.0, 2.0):
            emp = np.exp(1j * t * x).mean()
            assert abs(emp - char_fn(t, params)) < 0.01

    def test_empirical_cf_skewed_cauchy(self):
        # alpha = 1, beta != 0: the sampler's (2/pi) beta sigma log(sigma)
        # shift (1.05 here) moves the CF by 0.05-0.12 at these t
        params = StableParams(alpha=1.0, sigma=3.0, beta=0.5)
        x = sample_stable(params, rng_for(19), size=10**6)
        for t in (-0.2, 0.05, 0.1, 0.2, 0.5):
            emp = np.exp(1j * t * x).mean()
            assert abs(emp - char_fn(t, params)) < 0.01
