"""Coding gains, derivatives, thresholds, and conditional PEP forms."""

import math

import numpy as np
import pytest

from stablemimo.codes import enumerate_codebook, sample_channel
from stablemimo.stable import NoiseModel, sample_noise_block, sample_subordinator
from stablemimo.theory import (
    AlphaThresholds,
    PepAsymptote,
    conditional_pep_gar,
    conditional_pep_mdr_bound,
    dlog_gain,
    dlog_gain_numeric,
    find_alpha_thresholds,
    has_asymptote,
    log_coding_gain,
    pep_asymptote,
    q_function,
    union_bound_ber,
)

from helpers import gain

# Frozen arbitrary-precision regression constants (30+ significant digits
# at computation time).
G_GAR_2_1_05 = 3.65557264835570900299973298038
G_MDR_2_1_05 = 3.45827494751838283668032780753
G_GAR_2_2_143 = 4.80124882976274387761852221739
G_MDR_2_2_143 = 9.92038701763230118774059869922

# (x, Gamma(x)) and (x, digamma(x)) high-precision references.
GAMMA_REFS = [
    (0.25, 3.625609908221908311931),
    (0.5, 1.772453850905516027298),
    (0.715, 1.274918376030974267213),
    (1.0, 1.0),
    (1.285, 0.8998666768906231405206),
    (1.43, 0.8860362361244690279375),
    (1.5, 0.8862269254527580136491),
    (2.0, 1.0),
    (2.5, 1.329340388179137020474),
    (3.75, 4.422988410460250562888),
]
DIGAMMA_REFS = [
    (0.25, -4.22745353337626540809),
    (0.5, -1.963510026021423479441),
    (0.715, -1.178222494915432647181),
    (1.0, -0.5772156649015328606065),
    (1.285, -0.1863408827738422091068),
    (1.43, -0.03106092367144705166424),
    (1.5, 0.03648997397857652055902),
    (2.0, 0.4227843350984671393935),
    (2.5, 0.7031566406452431872257),
    (3.75, 1.182537388611796228642),
]


class TestSpecialFunctions:
    def test_gamma_against_frozen_refs(self):
        from scipy.special import gamma

        for x, ref in GAMMA_REFS:
            assert abs(gamma(x) / ref - 1.0) < 1e-12, x

    def test_digamma_against_frozen_refs(self):
        from scipy.special import digamma

        for x, ref in DIGAMMA_REFS:
            assert abs(digamma(x) / ref - 1.0) < 1e-12, x

    def test_dlog_gain_digamma_against_frozen_refs(self):
        # the GAR n_r derivative is -(2/a) (psi(n_r - a/2) - psi(n_r)): pick a
        # so that n_r - a/2 is a reference point below n_r = 1 or 2
        refs = dict(DIGAMMA_REFS)
        checked = 0
        for x, ref in DIGAMMA_REFS:
            n_r = math.ceil(x)
            if n_r in (1, 2) and x < n_r:
                a = 2.0 * (n_r - x)
                want = -(2.0 / a) * (ref - refs[n_r])
                assert dlog_gain("gar", "n_r", 2, n_r, a) == pytest.approx(want, rel=1e-12), x
                checked += 1
        assert checked == 6

    def test_math_lgamma_and_erfc_match_scipy(self):
        from scipy import special

        x = np.linspace(0.05, 30.0, 3001)
        lg = np.array([math.lgamma(v) for v in x])
        assert np.allclose(lg, special.gammaln(x), rtol=1e-14, atol=1e-14)
        z = np.linspace(-6.0, 9.0, 301).reshape(7, 43)
        q = q_function(z)
        assert q.shape == z.shape
        assert np.allclose(q, 0.5 * special.erfc(z / math.sqrt(2.0)), rtol=1e-14, atol=0.0)
        assert float(q_function(1.0)) == pytest.approx(
            0.5 * float(special.erfc(1.0 / math.sqrt(2.0))), rel=1e-15)


class TestCodingGains:
    def test_frozen_values(self):
        assert gain("gar", 2, 1, 0.5) == pytest.approx(G_GAR_2_1_05, rel=1e-12)
        assert gain("mdr", 2, 1, 0.5) == pytest.approx(G_MDR_2_1_05, rel=1e-12)
        assert gain("gar", 2, 2, 1.43) == pytest.approx(G_GAR_2_2_143, rel=1e-12)
        assert gain("mdr", 2, 2, 1.43) == pytest.approx(G_MDR_2_2_143, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.43])
    def test_gar_increasing_in_nr(self, alpha):
        assert gain("gar", 2, 2, alpha) > gain("gar", 2, 1, alpha)
        gains = [gain("gar", 2, nr, alpha) for nr in range(1, 7)]
        assert np.all(np.diff(gains) > 0)

    def test_gar_decreasing_in_nt(self):
        for alpha in (0.5, 1.0, 1.43, 1.9):
            for nr in (1, 2, 4):
                gains = [gain("gar", nt, nr, alpha) for nt in range(1, 9)]
                assert np.all(np.diff(gains) < 0), (alpha, nr)

    def test_gar_convex_in_nt(self):
        for alpha in (0.5, 1.0, 1.43, 1.9):
            for nr in (1, 2, 4):
                gains = np.array([gain("gar", nt, nr, alpha) for nt in range(1, 9)])
                assert np.all(np.diff(gains, 2) > 0), (alpha, nr)

    @pytest.mark.parametrize("alpha", [0.5, 1.43])
    def test_mdr_increasing_in_nr(self, alpha):
        gains = [gain("mdr", 2, nr, alpha) for nr in range(1, 7)]
        assert np.all(np.diff(gains) > 0)

    def test_mdr_iid_factor(self):
        for nr in (1, 2, 3):
            for alpha in (0.5, 1.43):
                expected = gain("mdr", 2, nr, alpha) * nr ** (-2.0 / alpha)
                got = gain("mdr", 2, nr, alpha, model=NoiseModel.IID)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="antenna counts"):
            gain("gar", 0, 1, 0.5)
        with pytest.raises(ValueError, match="alpha must be"):
            gain("gar", 2, 1, 2.0)


class TestClosedFormRule:
    def test_has_asymptote_truth_table(self):
        shared, iid = NoiseModel.SHARED, NoiseModel.IID
        for alpha in (0.5, 1.43, 1.999):
            assert has_asymptote("gar", shared, alpha)
            assert not has_asymptote("gar", iid, alpha)
            assert has_asymptote("mdr", shared, alpha)
            assert has_asymptote("mdr", iid, alpha)
            for rx in ("ml", "aor"):
                for model in (shared, iid):
                    assert not has_asymptote(rx, model, alpha)
        for rx in ("gar", "mdr", "ml", "aor"):
            for model in (shared, iid):
                assert not has_asymptote(rx, model, 2.0)
                assert not has_asymptote(rx, model, 0.0)

    @pytest.mark.parametrize("rx,model,alpha", [
        ("gar", NoiseModel.IID, 1.43),
        ("aor", NoiseModel.SHARED, 1.43),
        ("gar", NoiseModel.SHARED, 2.0),
        ("mdr", NoiseModel.SHARED, 2.0),
    ])
    def test_log_coding_gain_rejects_pairs_without_asymptote(self, rx, model, alpha):
        with pytest.raises(ValueError, match="no closed-form asymptote"):
            log_coding_gain(rx, model, 2, 2, alpha)

    def test_pep_asymptote_gain_is_exp_of_log_gain(self):
        for rx, model in (("gar", NoiseModel.SHARED), ("mdr", NoiseModel.SHARED),
                          ("mdr", NoiseModel.IID)):
            for nt, nr, alpha in ((2, 1, 0.5), (2, 2, 1.43), (4, 3, 1.9)):
                assert gain(rx, nt, nr, alpha, model) == math.exp(
                    log_coding_gain(rx, model, nt, nr, alpha))


class TestPepAsymptote:
    def test_diversity_orders(self):
        assert pep_asymptote("gar", NoiseModel.SHARED, 2, 1, 0.5).diversity_order == 0.5
        a = pep_asymptote("mdr", NoiseModel.SHARED, 2, 4, 1.43)
        assert a.diversity_order == pytest.approx(0.715)
        a = pep_asymptote("mdr", NoiseModel.IID, 3, 2, 1.43)
        assert a.diversity_order == pytest.approx(0.715)

    def test_unit_value_at_inverse_gain(self):
        a = pep_asymptote("gar", NoiseModel.SHARED, 2, 2, 1.43)
        assert a.evaluate(1.0 / a.coding_gain) == pytest.approx(1.0, rel=1e-12)

    def test_decreasing_in_rho(self):
        a = pep_asymptote("mdr", NoiseModel.SHARED, 2, 1, 0.5)
        vals = a.evaluate(np.geomspace(1.0, 1e5, 12))
        assert np.all(np.diff(vals) < 0)

    def test_gar_iid_rejected(self):
        with pytest.raises(ValueError):
            pep_asymptote("gar", NoiseModel.IID, 2, 2, 0.5)

    @pytest.mark.parametrize("gain_, order", [(0.0, 1.0), (1.0, 0.0)])
    def test_rejects_nonpositive_gain_or_order(self, gain_, order):
        with pytest.raises(ValueError, match="must be positive"):
            PepAsymptote(gain_, order)


class TestDerivatives:
    WELL_CONDITIONED = [
        ("gar", "n_r", 2, 1, 0.5),
        ("gar", "n_r", 2, 1, 1.43),
        ("gar", "n_r", 3, 2, 1.9),
        ("gar", "n_r", 2, 4, 1.0),
        ("mdr", "n_r", 2, 1, 0.5),
        ("mdr", "n_r", 2, 2, 1.43),
        ("mdr", "n_r", 4, 2, 1.9),
        ("mdr", "n_t", 2, 1, 0.5),
        ("mdr", "n_t", 2, 2, 1.43),
        ("mdr", "n_t", 3, 1, 1.0),
        ("mdr", "n_t", 5, 2, 1.9),
    ]

    @pytest.mark.parametrize("rx,wrt,nt,nr,alpha", WELL_CONDITIONED)
    def test_matches_finite_differences(self, rx, wrt, nt, nr, alpha):
        closed = dlog_gain(rx, wrt, nt, nr, alpha)
        numeric = dlog_gain_numeric(rx, wrt, nt, nr, alpha)
        assert abs(closed - numeric) < 1e-6

    def test_gar_nr_frozen_value(self):
        # finite-difference oracle value at (n_r=1, alpha=1): 4*ln 2
        got = dlog_gain("gar", "n_r", 1, 1, 1.0)
        assert got == pytest.approx(4.0 * math.log(2.0), rel=1e-12)
        assert got == pytest.approx(
            dlog_gain_numeric("gar", "n_r", 1, 1, 1.0), abs=1e-7
        )

    def test_mdr_nr_positive(self):
        for alpha in np.linspace(0.1, 1.9, 10):
            assert dlog_gain("mdr", "n_r", 2, 2, alpha) > 0.0

    def test_gar_nr_positive(self):
        for alpha in (0.5, 1.0, 1.43, 1.9):
            assert dlog_gain("gar", "n_r", 2, 2, alpha) > 0.0

    def test_unsupported_combination(self):
        with pytest.raises(ValueError, match="numeric"):
            dlog_gain("gar", "n_t", 2, 1, 0.5)

    def test_numeric_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable 'alpha'"):
            dlog_gain_numeric("gar", "alpha", 2, 1, 0.5)

    def test_gar_nt_numeric_negative(self):
        for alpha in (0.5, 1.43):
            assert dlog_gain_numeric("gar", "n_t", 2, 2, alpha) < 0.0


class TestThresholds:
    def test_quoted_values_nr1(self):
        # For n_r = 1 the MDR log-gain step from N to N + 1 transmit antennas
        # is -(2/alpha) log((N + 1)(N - alpha/2) / N^2), which changes sign
        # at alpha = 2N / (N + 1).  The window's first pair (N = 2) and last
        # pair (N = 9) give alpha0 = 4/3 and alpha1 = 9/5 exactly.
        for a in (0.5, 4.0 / 3.0, 1.9):
            for n in range(2, 10):
                step = math.log(gain("mdr", n + 1, 1, a) / gain("mdr", n, 1, a))
                want = -(2.0 / a) * math.log((n + 1) * (n - a / 2.0) / n**2)
                assert step == pytest.approx(want, abs=1e-12)
        th = find_alpha_thresholds(1)
        assert th.alpha0 == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert th.alpha1 == pytest.approx(9.0 / 5.0, abs=1e-6)

    def test_regimes_nr1(self):
        gains_low = [gain("mdr", nt, 1, 0.5) for nt in range(1, 9)]
        assert np.all(np.diff(gains_low) < 0)
        gains_high = [gain("mdr", nt, 1, 1.9) for nt in range(1, 9)]
        assert np.all(np.diff(gains_high) > 0)

    def test_concave_regime_between(self):
        # inside (alpha0, alpha1) the gain rises then falls over the window
        diffs = np.diff([gain("mdr", nt, 1, 1.6) for nt in range(2, 11)])
        assert diffs[0] > 0 and diffs[-1] < 0

    def test_derivative_sign_pattern_matches_regimes(self):
        th = find_alpha_thresholds(1)
        below, above = th.alpha0 - 0.05, th.alpha1 + 0.05
        assert all(
            dlog_gain("mdr", "n_t", nt, 1, above) > 0 for nt in range(2, 10)
        )
        diffs_below = np.diff(
            [gain("mdr", nt, 1, below) for nt in range(2, 11)]
        )
        assert np.all(diffs_below < 0)

    def test_invariant_ordering(self):
        th = find_alpha_thresholds(2)
        assert 0.0 < th.alpha0 < th.alpha1 < 2.0

    def test_rejects_bad_nr(self):
        with pytest.raises(ValueError):
            find_alpha_thresholds(0)

    def test_unbracketed_window_raises(self):
        # at n_r = 300 the gain still falls across some pair at alpha =
        # 1.999, so [0.05, 1.999] brackets alpha0 but not alpha1
        with pytest.raises(ValueError):
            find_alpha_thresholds(300)

    def test_alpha_thresholds_type_validation(self):
        with pytest.raises(ValueError):
            AlphaThresholds(alpha0=1.5, alpha1=1.2)


def q_function_craig(x: float) -> float:
    """Q(x) via Craig's finite-integral representation over (0, pi/2)."""
    from scipy import integrate

    val, _ = integrate.quad(
        lambda th: math.exp(-x * x / (2.0 * math.sin(th) ** 2)),
        0.0,
        math.pi / 2.0,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val / math.pi


class TestQFunction:
    def test_craig_agrees_with_erfc(self):
        for x in (0.0, 0.3, 1.0, 2.5, 5.0):
            assert abs(float(q_function(x)) - q_function_craig(x)) < 1e-10

    def test_known_value(self):
        assert float(q_function(1.0)) == pytest.approx(0.158655, abs=1e-6)


class TestConditionalPep:
    def setup_method(self):
        self.cb = enumerate_codebook("alamouti", "bpsk")

    def test_equal_codewords_give_half(self):
        s = self.cb.codewords[0]
        h = np.ones((1, 2))
        assert conditional_pep_gar(h, np.ones((1, 2)), 10.0, s, s) == 0.5

    def test_value_range_and_bound(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            h = sample_channel(2, 2, rng)
            genie = sample_subordinator(0.8, rng, size=(1, 2))
            s, sp = self.cb.codewords[0], self.cb.codewords[1]
            exact_pep = conditional_pep_gar(h, genie, 5.0, s, sp)
            bound = conditional_pep_mdr_bound(h, genie, 5.0, s, sp)
            # the MDR bound's formula: the noise scaled up to A_max
            formula = float(
                q_function(
                    math.sqrt(
                        5.0 * np.sum(np.abs(h @ (s - sp)) ** 2)
                        / (2.0 * genie.max())
                    )
                )
            )
            assert 0.0 <= exact_pep <= 0.5
            assert bound == pytest.approx(formula, rel=1e-12)

    def test_bound_exact_when_genie_constant(self):
        rng = np.random.default_rng(51)
        h = sample_channel(2, 2, rng)
        genie = np.full((1, 2), 1.7)
        s, sp = self.cb.codewords[0], self.cb.codewords[2]
        # with equal subordinators, whitening is a common scale: the MDR
        # bound coincides with the exact whitened PEP
        assert conditional_pep_mdr_bound(h, genie, 4.0, s, sp) == pytest.approx(
            conditional_pep_gar(h, genie, 4.0, s, sp), rel=1e-12
        )

    def test_bound_dominates_exact_mdr_pep(self):
        rng = np.random.default_rng(52)
        s, sp = self.cb.codewords[0], self.cb.codewords[1]
        for _ in range(50):
            h = sample_channel(2, 2, rng)
            genie = sample_subordinator(0.9, rng, size=(1, 2))
            delta = h @ (s - sp)
            e = delta / np.linalg.norm(delta)
            denom = 2.0 * np.sum(genie * np.abs(e) ** 2)
            exact = float(
                q_function(math.sqrt(4.0 * np.linalg.norm(delta) ** 2 / denom))
            )
            bound = conditional_pep_mdr_bound(h, genie, 4.0, s, sp)
            assert bound >= exact - 1e-15

    @pytest.mark.parametrize("n_t", [1, 3])
    def test_rejects_transmit_antenna_mismatch(self, n_t):
        s, sp = self.cb.codewords[0], self.cb.codewords[1]  # n_t = 2
        for pep in (conditional_pep_gar, conditional_pep_mdr_bound):
            with pytest.raises(ValueError, match=f"h has {n_t} transmit antennas"):
                pep(np.ones((2, n_t)), np.ones((1, 2)), 1.0, s, sp)

    def test_genie_positivity_enforced(self):
        s, sp = self.cb.codewords[0], self.cb.codewords[1]
        for pep in (conditional_pep_gar, conditional_pep_mdr_bound):
            with pytest.raises(ValueError, match="genie record must be positive"):
                pep(np.ones((1, 2)), np.array([[1.0, 0.0]]), 1.0, s, sp)

    @pytest.mark.parametrize("pep", [conditional_pep_gar, conditional_pep_mdr_bound])
    def test_rejects_per_column_record(self, pep):
        # a model I record without its group axis, (B, t_s) with B == n_r,
        # would broadcast as one trial's per-entry record; it is refused
        rng = np.random.default_rng(57)
        h = sample_channel(2, 2, rng, size=2)
        _, genie = sample_noise_block(NoiseModel.SHARED, 0.8, 2, 2, rng, size=2)
        s, sp = self.cb.codewords[0], self.cb.codewords[1]
        assert pep(h, genie, 7.0, s, sp).shape == (2,)
        with pytest.raises(ValueError, match="genie record of shape \\(2, 2\\)"):
            pep(h, genie[:, 0], 7.0, s, sp)

    @pytest.mark.parametrize("pep", [conditional_pep_gar, conditional_pep_mdr_bound])
    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    def test_batched_equals_per_trial(self, pep, model):
        # genie (B, g, t_s): g = 1 under model I, g = n_r under model II
        rng = np.random.default_rng(55)
        h = sample_channel(2, 2, rng, size=50)
        _, genie = sample_noise_block(model, 0.8, 2, 2, rng, size=50)
        s, sp = self.cb.codewords[0], self.cb.codewords[3]
        got = pep(h, genie, 7.0, s, sp)
        assert got.shape == (50,)
        each = [pep(h[b], genie[b], 7.0, s, sp) for b in range(50)]
        assert all(type(v) is np.float64 for v in each)
        assert np.array_equal(got, each)

    def test_mdr_bound_takes_block_maximum_over_entries(self):
        # model II: one subordinator per entry, so A_max runs over rows too
        rng = np.random.default_rng(56)
        h = sample_channel(2, 2, rng, size=50)
        _, genie = sample_noise_block(NoiseModel.IID, 0.8, 2, 2, rng, size=50)
        s, sp = self.cb.codewords[0], self.cb.codewords[3]
        norm_sq = np.sum(np.abs(h @ (s - sp)) ** 2, axis=(1, 2))
        a_max = genie.reshape(50, -1).max(axis=1)
        want = q_function(np.sqrt(7.0 * norm_sq / (2.0 * a_max)))
        got = conditional_pep_mdr_bound(h, genie, 7.0, s, sp)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_gar_average_slope(self):
        # averaged over fading and subordinators, log-log slope ~ -alpha*Nt/2
        rng = np.random.default_rng(53)
        n = 10**5
        # halved codewords: a unit-normalized difference
        s, sp = self.cb.codewords[0] / 2.0, self.cb.codewords[1] / 2.0
        means = []
        for rho in (1e4, 1e6):
            h = sample_channel(1, 2, rng, size=n)
            a = sample_subordinator(0.5, rng, size=(n, 1, 2))
            means.append(np.mean(conditional_pep_gar(h, a, rho, s, sp)))
        slope = (math.log10(means[1]) - math.log10(means[0])) / 2.0
        assert -0.55 <= slope <= -0.45

    def test_mdr_bound_average_slope(self):
        rng = np.random.default_rng(54)
        n = 10**5
        s, sp = self.cb.codewords[0] / 2.0, self.cb.codewords[1] / 2.0
        means = []
        for rho in (1e4, 1e6):
            h = sample_channel(1, 2, rng, size=n)
            a = sample_subordinator(0.5, rng, size=(n, 1, 2))
            means.append(np.mean(conditional_pep_mdr_bound(h, a, rho, s, sp)))
        slope = (math.log10(means[1]) - math.log10(means[0])) / 2.0
        assert -0.30 <= slope <= -0.20


class TestAsymptoteConsistency:
    def test_simulated_pairwise_error_within_factor_two(self):
        # restricted two-codeword decoding measures the pairwise error
        # probability directly; the bound is asymptotic, so only
        # order-of-magnitude agreement is claimed at the top SNR decade
        from stablemimo.codes import Codebook
        from stablemimo.receivers import batch_gar
        from stablemimo.stable import sample_noise_block

        cb = enumerate_codebook("alamouti", "bpsk")
        pair = Codebook(
            codewords=cb.codewords[:2].copy(),
            bit_labels=np.array([[0], [1]], dtype=np.uint8),
        )
        d = pair.codewords[0] - pair.codewords[1]
        c = (d @ d.conj().T)[0, 0].real
        asym = pep_asymptote("gar", NoiseModel.SHARED, 2, 1, 0.5)
        rng = np.random.default_rng(60)
        for rho_db in (40.0, 50.0):
            rho = 10.0 ** (rho_db / 10.0)
            n = 400_000
            h = sample_channel(1, 2, rng, size=n)
            w, genie = sample_noise_block(NoiseModel.SHARED, 0.5, 1, 2, rng, size=n)
            y = np.sqrt(rho) * np.einsum("brn,nt->brt", h, pair.codewords[0]) + w
            errors = np.mean(batch_gar(y, h, genie, rho, pair) != 0)
            ratio = errors / float(asym.evaluate(c * rho))
            assert 0.5 <= ratio <= 2.0, (rho_db, ratio)


class TestUnionBound:
    def test_matches_hand_loop(self):
        asym = pep_asymptote("gar", NoiseModel.SHARED, 2, 1, 0.5)
        rho = np.array([10.0, 100.0])
        for constellation, k in (("bpsk", 4), ("qpsk", 16)):
            cb = enumerate_codebook("alamouti", constellation)
            assert len(cb) == k
            got = union_bound_ber(cb, asym, rho)
            expected = np.zeros(2)
            for i in range(k):
                for j in range(k):
                    if i == j:
                        continue
                    d = cb.codewords[i] - cb.codewords[j]
                    c = (d @ d.conj().T)[0, 0].real
                    expected += (
                        (asym.coding_gain * c * rho) ** -0.5
                        * np.sum(cb.bit_labels[i] != cb.bit_labels[j])
                    )
            expected /= k * cb.bits_per_codeword
            assert np.allclose(got, expected, rtol=1e-12), constellation

    def test_rejects_non_unitary_differences(self):
        from stablemimo.codes import Codebook

        codewords = np.zeros((2, 2, 2), dtype=complex)
        codewords[0] = [[1, 1], [0, 0]]
        codewords[1] = [[-1, -1], [0, 0]]
        cb = Codebook(
            codewords=codewords,
            bit_labels=np.array([[0], [1]], dtype=np.uint8),
        )
        asym = pep_asymptote("gar", NoiseModel.SHARED, 2, 1, 0.5)
        with pytest.raises(ValueError, match="unitary"):
            union_bound_ber(cb, asym, np.array([10.0]))
