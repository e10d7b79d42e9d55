"""Amplitude density quadrature and lookup tables against closed-form oracles."""

import math

import numpy as np
import pytest

from stablemimo import (
    AmplitudePdfTable,
    IsotropicAmplitudeSpec,
    amplitude_pdf,
    amplitude_tail_pdf,
    build_amplitude_table,
    noise_amplitude_spec,
)
from stablemimo import amplitude
from stablemimo.amplitude import QuadratureError, _gaussian_log_amplitude_pdf


def rayleigh_type(r, sigma=1.0):
    # alpha=2, d=2: complex Gaussian with per-component variance 2*sigma^2
    v = 4.0 * sigma * sigma
    return 2.0 * r / v * np.exp(-r * r / v)


def chi_type_d4(r, sigma=1.0):
    v = 4.0 * sigma * sigma
    return 2.0 * r**3 / (v * v) * np.exp(-r * r / v)


def isotropic_cauchy(r, sigma=1.0):
    # alpha=1, d=2: f(r) = sigma * r / (r^2 + sigma^2)^(3/2)
    return sigma * r / (r * r + sigma * sigma) ** 1.5


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            IsotropicAmplitudeSpec(alpha=0.0, sigma=1.0, d=2)
        with pytest.raises(ValueError):
            IsotropicAmplitudeSpec(alpha=1.0, sigma=-1.0, d=2)
        with pytest.raises(ValueError):
            IsotropicAmplitudeSpec(alpha=1.0, sigma=1.0, d=0)
        for bad in (
            dict(alpha=math.nan, sigma=1.0, d=2),
            dict(alpha=1.43, sigma=math.nan, d=2),
            dict(alpha=1.43, sigma=math.inf, d=2),
            dict(alpha=1.43, sigma=1.0, d=math.nan),
            dict(alpha=1.43, sigma=1.0, d=math.inf),
            dict(alpha=1.43, sigma=1.0, d=2.5),
        ):
            with pytest.raises(ValueError):
                IsotropicAmplitudeSpec(**bad)

    def test_rejects_negative_radius(self):
        spec = IsotropicAmplitudeSpec(1.0, 1.0, 2)
        for bad in (-0.1, -math.inf, math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError):
                amplitude_pdf(bad, spec)


class TestArrayContract:
    @pytest.mark.parametrize("alpha,d", [(1.43, 2), (1.43, 3), (0.5, 4), (0.8, 1)])
    def test_shape_and_scalar_agreement(self, alpha, d):
        spec = IsotropicAmplitudeSpec(alpha, 2.0, d)
        # 21 entries: not a multiple of the evaluation block size
        r = np.concatenate([[0.0, np.inf], np.geomspace(1e-3, 1e3, 19)]).reshape(3, 7)
        assert r.size % amplitude._BLOCK_RADII != 0
        got = amplitude_pdf(r, spec)
        assert isinstance(got, np.ndarray) and got.shape == (3, 7)
        for value, ri in zip(got.ravel(), r.ravel()):
            one = amplitude_pdf(ri, spec)
            assert type(one) is float
            assert value == pytest.approx(one, rel=1e-13, abs=0.0)
        # f(0) = (2/pi) Gamma(1 + 1/alpha) / sigma for d = 1, else 0; f(inf) = 0
        at_zero = 0.0 if d > 1 else (2.0 / math.pi) * math.gamma(1.0 + 1.0 / alpha) / 2.0
        assert got[0, :2].tolist() == [at_zero, 0.0]

    def test_too_few_zeros_raise(self, monkeypatch):
        # two segment contributions: the Euler spread misses the target
        monkeypatch.setattr(amplitude, "_N_ZEROS", 3)
        spec = IsotropicAmplitudeSpec(0.5, 1.0, 2)
        with pytest.raises(QuadratureError):
            amplitude_pdf(1.0, spec)
        with pytest.raises(QuadratureError):
            build_amplitude_table(spec, n_nodes=8, r_max=64.0)
        with pytest.raises(QuadratureError):
            build_amplitude_table(spec, n_nodes=8)


class TestClosedForms:
    def test_gaussian_d2(self):
        spec = IsotropicAmplitudeSpec(2.0, 1.0, 2)
        for r in (0.5, 1.0, 2.0):
            assert abs(amplitude_pdf(r, spec) - rayleigh_type(r)) < 1e-6

    def test_gaussian_d4(self):
        spec = IsotropicAmplitudeSpec(2.0, 1.0, 4)
        for r in (0.5, 1.5, 3.0):
            assert abs(amplitude_pdf(r, spec) - chi_type_d4(r)) < 1e-6

    def test_cauchy_d2(self):
        spec = IsotropicAmplitudeSpec(1.0, 1.0, 2)
        for r in (0.3, 1.0, 2.0, 10.0):
            assert abs(amplitude_pdf(r, spec) - isotropic_cauchy(r)) < 1e-5

    def test_cauchy_d2_nonunit_sigma(self):
        spec = IsotropicAmplitudeSpec(1.0, 0.5, 2)
        for r in (0.3, 1.0, 5.0):
            assert abs(amplitude_pdf(r, spec) - isotropic_cauchy(r, 0.5)) < 1e-5

    def test_univariate_d1_cauchy(self):
        # d=1 amplitude is twice the univariate symmetric density
        spec = IsotropicAmplitudeSpec(1.0, 1.0, 1)
        for r in (0.5, 1.0, 3.0):
            exact = 2.0 / (math.pi * (1.0 + r * r))
            assert abs(amplitude_pdf(r, spec) - exact) < 1e-8

    def test_zero_radius(self):
        assert amplitude_pdf(0.0, IsotropicAmplitudeSpec(1.5, 1.0, 2)) == 0.0
        assert amplitude_pdf(0.0, IsotropicAmplitudeSpec(1.5, 1.0, 4)) == 0.0
        # d=1: f(0) = (2/pi) Gamma(1 + 1/alpha) / sigma
        got = amplitude_pdf(0.0, IsotropicAmplitudeSpec(0.8, 2.0, 1))
        assert got == pytest.approx(
            (2.0 / math.pi) * math.gamma(1.0 + 1.0 / 0.8) / 2.0, rel=1e-12
        )


class TestTailBehavior:
    @pytest.mark.parametrize("alpha,d", [(1.0, 2), (1.43, 2), (1.43, 4)])
    def test_dominant_term_at_1e3(self, alpha, d):
        spec = IsotropicAmplitudeSpec(alpha, 1.0, d)
        ratio = amplitude_pdf(1e3, spec) / amplitude_tail_pdf(1e3, spec)
        assert abs(ratio - 1.0) < 0.02

    @pytest.mark.parametrize("d", [2, 4])
    def test_dominant_term_heavy_alpha(self, d):
        # at alpha=0.5 the neglected term is O(r^-0.5) relative, so the 2%
        # agreement point sits at much larger radii than for alpha >= 1
        spec = IsotropicAmplitudeSpec(0.5, 1.0, d)
        ratio = amplitude_pdf(1e6, spec) / amplitude_tail_pdf(1e6, spec)
        assert abs(ratio - 1.0) < 0.02

    def test_tail_constant_sigma_scaling(self):
        base = amplitude_tail_pdf(50.0, IsotropicAmplitudeSpec(1.43, 1.0, 2))
        scaled = amplitude_tail_pdf(50.0, IsotropicAmplitudeSpec(1.43, 2.0, 2))
        assert scaled / base == pytest.approx(2.0**1.43, rel=1e-12)


class TestNormalization:
    @pytest.mark.parametrize("alpha,d", [(1.43, 2), (0.5, 4)])
    def test_integrates_to_one(self, alpha, d):
        spec = IsotropicAmplitudeSpec(alpha, 1.0, d)
        total = integrate_amplitude(spec)
        assert abs(total - 1.0) < 1e-4


def integrate_amplitude(spec, r_split=1e4):
    """Composite Gauss-Legendre over log-spaced panels plus the analytic tail."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.concatenate([[0.0], np.geomspace(1e-3, r_split, 25)])
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        total += 0.5 * (b - a) * np.sum(weights * amplitude_pdf(r, spec))
    if spec.alpha < 2.0:
        total += (
            amplitude_tail_pdf(r_split, spec) * r_split / spec.alpha
        )  # integral of K r^(-a-1)
    return total


class TestTable:
    def test_interpolation_error_against_direct(self, table_a143_d2):
        tab = table_a143_d2
        rng = np.random.default_rng(21)
        idx = rng.integers(0, len(tab.grid) - 1, size=20)
        mids = np.sqrt(tab.grid[idx] * tab.grid[idx + 1])
        direct = np.log(amplitude_pdf(mids, tab.spec))
        assert np.max(np.abs(tab.log_pdf(mids) - direct)) < 1e-3

    def test_beyond_grid_equals_tail_formula(self, table_a143_d2):
        tab = table_a143_d2
        r = tab.grid[-1] * 7.3
        expected = math.log(tab.tail_constant) - (tab.spec.alpha + 1.0) * math.log(r)
        assert tab.log_pdf(r) == expected

    def test_tail_matches_quadrature_at_grid_end(self, table_a143_d2):
        tab = table_a143_d2
        r_n = tab.grid[-1]
        ratio = math.exp(tab.log_values[-1]) / amplitude_tail_pdf(r_n, tab.spec)
        assert abs(ratio - 1.0) < 0.01

    def test_gaussian_d4_table_matches_closed_form(self):
        spec = IsotropicAmplitudeSpec(2.0, 1.0, 4)
        tab = build_amplitude_table(spec)
        exact = np.log(chi_type_d4(tab.grid))
        assert np.max(np.abs(tab.log_values - exact)) < 1e-4

    def test_gaussian_table_far_tail_is_exact(self):
        spec = IsotropicAmplitudeSpec(2.0, 1.0, 2)
        tab = build_amplitude_table(spec)
        for r in (12.0, 30.0):
            assert tab.log_pdf(r) == pytest.approx(
                float(_gaussian_log_amplitude_pdf(r, 1.0, 2)), rel=1e-12
            )

    def test_below_grid_small_radius_slope(self, table_a143_d2):
        tab = table_a143_d2
        r0 = tab.grid[0]
        lo = tab.log_pdf(r0 / 10.0)
        # d-1 slope per decade in log space
        assert lo == pytest.approx(tab.log_values[0] - math.log(10.0), rel=1e-9)
        assert tab.log_pdf(0.0) == -math.inf

    def test_save_load_round_trip(self, tmp_path, table_a143_d2):
        path = tmp_path / "table.npz"
        table_a143_d2.save(path)
        loaded = AmplitudePdfTable.load(path)
        assert loaded.spec == table_a143_d2.spec
        r = np.geomspace(1e-4, 1e3, 64)
        assert np.array_equal(loaded.log_pdf(r), table_a143_d2.log_pdf(r))

    def test_load_rejects_unknown_version(self, tmp_path, table_a143_d2):
        path = tmp_path / "table.npz"
        table_a143_d2.save(path)
        with np.load(path) as data:
            payload = dict(data)
        payload["format_version"] = np.int64(99)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            AmplitudePdfTable.load(path)

    def test_noise_spec_matches_unit_noise(self):
        spec = noise_amplitude_spec(1.43, 4)
        assert spec.sigma == pytest.approx(2.0**-0.5)
        assert spec.d == 4
