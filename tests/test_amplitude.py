"""Amplitude density quadrature and lookup tables against closed-form oracles."""

import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stablemimo import amplitude
from stablemimo.amplitude import (
    NOISE_SIGMA,
    AmplitudePdfTable,
    IsotropicAmplitudeSpec,
    QuadratureError,
    _gaussian_log_amplitude_pdf,
    amplitude_pdf,
    amplitude_tail_constant,
    amplitude_tail_pdf,
    build_amplitude_table,
)

from helpers import integrate_amplitude, two_path_log_pdf


# closed forms at the noise scale sigma = NOISE_SIGMA, where 4 sigma^2 = 2
def rayleigh_type(r):
    # alpha=2, d=2: complex Gaussian with per-component variance 2*sigma^2
    return r * np.exp(-r * r / 2.0)


def chi_type_d4(r):
    return r**3 / 2.0 * np.exp(-r * r / 2.0)


def isotropic_cauchy(r, sigma=NOISE_SIGMA):
    # alpha=1, d=2: f(r) = sigma * r / (r^2 + sigma^2)^(3/2)
    return sigma * r / (r * r + sigma * sigma) ** 1.5


def log_cauchy_amplitude(r, d, sigma=NOISE_SIGMA):
    # alpha=1, any d: S_{d-1} r^(d-1) times the multivariate Cauchy density
    # Gamma((d+1)/2) sigma / (pi^((d+1)/2) (sigma^2 + r^2)^((d+1)/2))
    return (math.log(2.0 * sigma / math.sqrt(math.pi)) + math.lgamma((d + 1) / 2.0)
            - math.lgamma(d / 2.0) + (d - 1) * np.log(r)
            - (d + 1) / 2.0 * np.log(sigma * sigma + r * r))


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            IsotropicAmplitudeSpec(alpha=0.0, d=2)
        with pytest.raises(ValueError):
            IsotropicAmplitudeSpec(alpha=1.0, d=0)
        for bad in (
            dict(alpha=math.nan, d=2),
            dict(alpha=2.5, d=2),
            dict(alpha=1.43, d=math.nan),
            dict(alpha=1.43, d=math.inf),
            dict(alpha=1.43, d=2.5),
        ):
            with pytest.raises(ValueError):
                IsotropicAmplitudeSpec(**bad)

    def test_rejects_negative_radius(self):
        spec = IsotropicAmplitudeSpec(1.0, 2)
        for bad in (-0.1, -math.inf, math.nan, [1.0, math.nan]):
            with pytest.raises(ValueError):
                amplitude_pdf(bad, spec)


class TestArrayContract:
    @pytest.mark.parametrize("alpha,d", [(1.43, 2), (1.43, 3), (0.5, 4), (0.8, 1)])
    def test_shape_and_scalar_agreement(self, alpha, d, monkeypatch):
        spec = IsotropicAmplitudeSpec(alpha, d)
        # 21 entries in blocks of 4 radii: several blocks and a short last one
        n_log_a = amplitude._law_rule(alpha, d)[0].size
        monkeypatch.setattr(amplitude, "_BLOCK", 4 * n_log_a)
        r = np.concatenate([[0.0, np.inf], np.geomspace(1e-3, 1e3, 19)]).reshape(3, 7)
        assert r.size % (amplitude._BLOCK // n_log_a) != 0
        got = amplitude_pdf(r, spec)
        assert isinstance(got, np.ndarray) and got.shape == (3, 7)
        for value, ri in zip(got.ravel(), r.ravel()):
            one = amplitude_pdf(ri, spec)
            assert type(one) is float
            assert value == pytest.approx(one, rel=1e-13, abs=0.0)
        # f(0) = (2/pi) Gamma(1 + 1/alpha) / sigma for d = 1, else 0; f(inf) = 0
        at_zero = 0.0 if d > 1 else (2.0 / math.pi) * math.gamma(1.0 + 1.0 / alpha) / NOISE_SIGMA
        assert got[0, 1] == 0.0
        assert got[0, 0] == pytest.approx(at_zero, rel=1e-13, abs=0.0)

    def test_too_few_zeros_raise(self, monkeypatch):
        # an under-resolved rule, a coarse step in l = log A or few theta
        # nodes: its nested half rules miss the error target.  The test
        # keeps the id it had under the Bessel-zero rule.
        spec = IsotropicAmplitudeSpec(0.5, 2)
        for setting, value in [("_LOG_A_STEP", 1.0), ("_THETA_NODES", 15)]:
            with monkeypatch.context() as m:
                m.setattr(amplitude, setting, value)
                # the cached rule is keyed by (alpha, d) alone, so bypass the cache
                m.setattr(amplitude, "_law_rule", amplitude._law_rule.__wrapped__)
                with pytest.raises(QuadratureError):
                    amplitude_pdf(1.0, spec)
                with pytest.raises(QuadratureError):
                    build_amplitude_table(spec, n_nodes=8, r_max=64.0)
                with pytest.raises(QuadratureError):
                    build_amplitude_table(spec, n_nodes=8)


class TestClosedForms:
    def test_gaussian_d2(self):
        spec = IsotropicAmplitudeSpec(2.0, 2)
        for r in (0.5, 1.0, 2.0):
            assert abs(amplitude_pdf(r, spec) - rayleigh_type(r)) < 1e-6

    def test_gaussian_d4(self):
        spec = IsotropicAmplitudeSpec(2.0, 4)
        for r in (0.5, 1.5, 3.0):
            assert abs(amplitude_pdf(r, spec) - chi_type_d4(r)) < 1e-6

    def test_cauchy_d2(self):
        spec = IsotropicAmplitudeSpec(1.0, 2)
        for r in (0.3, 1.0, 2.0, 10.0):
            assert abs(amplitude_pdf(r, spec) - isotropic_cauchy(r)) < 1e-5

    def test_cauchy_d2_nonunit_sigma(self):
        # the law is at the noise scale 2^-1/2, not at sigma = 1
        spec = IsotropicAmplitudeSpec(1.0, 2)
        for r in (0.3, 1.0, 5.0):
            assert abs(amplitude_pdf(r, spec) - isotropic_cauchy(r)) < 1e-5
            assert abs(amplitude_pdf(r, spec) - isotropic_cauchy(r, 1.0)) > 1e-3

    @pytest.mark.parametrize("d", [13, 14, 24])
    def test_cauchy_high_dimensions(self, d):
        # d >= 13: the ML tables of model I with n_r >= 7 (d = 2 n_r)
        spec = IsotropicAmplitudeSpec(1.0, d)
        r = np.geomspace(1e-3, 1e6, 271)
        got = amplitude_pdf(r, spec)
        assert np.max(np.abs(got / np.exp(log_cauchy_amplitude(r, d)) - 1.0)) <= 1e-6
        tab = build_amplitude_table(spec)
        exact = log_cauchy_amplitude(tab.grid, d)
        assert np.max(np.abs(tab.log_values - exact)) <= 1e-6

    def test_univariate_d1_cauchy(self):
        # d=1 amplitude is twice the univariate symmetric density
        spec = IsotropicAmplitudeSpec(1.0, 1)
        for r in (0.5, 1.0, 3.0):
            exact = 2.0 * NOISE_SIGMA / (math.pi * (NOISE_SIGMA**2 + r * r))
            assert abs(amplitude_pdf(r, spec) - exact) < 1e-8

    def test_zero_radius(self):
        assert amplitude_pdf(0.0, IsotropicAmplitudeSpec(1.5, 2)) == 0.0
        assert amplitude_pdf(0.0, IsotropicAmplitudeSpec(1.5, 4)) == 0.0
        # d=1: f(0) = (2/pi) Gamma(1 + 1/alpha) / sigma
        got = amplitude_pdf(0.0, IsotropicAmplitudeSpec(0.8, 1))
        assert got == pytest.approx(
            (2.0 / math.pi) * math.gamma(1.0 + 1.0 / 0.8) / NOISE_SIGMA, rel=1e-12
        )


class TestTailBehavior:
    @pytest.mark.parametrize("alpha,d", [(1.0, 2), (1.43, 2), (1.43, 4)])
    def test_dominant_term_at_1e3(self, alpha, d):
        spec = IsotropicAmplitudeSpec(alpha, d)
        ratio = amplitude_pdf(1e3, spec) / amplitude_tail_pdf(1e3, spec)
        assert abs(ratio - 1.0) < 0.02

    @pytest.mark.parametrize("d", [2, 4])
    def test_dominant_term_heavy_alpha(self, d):
        # at alpha=0.5 the neglected term is O(r^-0.5) relative, so the 2%
        # agreement point sits at much larger radii than for alpha >= 1
        spec = IsotropicAmplitudeSpec(0.5, d)
        ratio = amplitude_pdf(1e6, spec) / amplitude_tail_pdf(1e6, spec)
        assert abs(ratio - 1.0) < 0.02

    def test_far_tail_relative_error(self):
        # the neglected term is O(r^-alpha) ~ 1e-9 relative at r = 1e6
        spec = IsotropicAmplitudeSpec(1.43, 4)
        ratio = amplitude_pdf(1e6, spec) / amplitude_tail_pdf(1e6, spec)
        assert abs(ratio - 1.0) < 1e-5


class TestNormalization:
    @pytest.mark.parametrize("alpha,d", [(1.43, 2), (0.5, 4)])
    def test_integrates_to_one(self, alpha, d):
        spec = IsotropicAmplitudeSpec(alpha, d)
        total = integrate_amplitude(spec)
        assert abs(total - 1.0) < 1e-4


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
        expected = (math.log(amplitude_tail_constant(tab.spec))
                    - (tab.spec.alpha + 1.0) * math.log(r))
        assert tab.log_pdf(r) == expected

    def test_tail_matches_quadrature_at_grid_end(self, table_a143_d2):
        # also an odd dimension, d = 5
        for tab in (table_a143_d2, build_amplitude_table(IsotropicAmplitudeSpec(1.43, 5))):
            r_n = tab.grid[-1]
            ratio = math.exp(tab.log_values[-1]) / amplitude_tail_pdf(r_n, tab.spec)
            assert abs(ratio - 1.0) < 0.01, tab.spec

    def test_gaussian_d4_table_matches_closed_form(self):
        spec = IsotropicAmplitudeSpec(2.0, 4)
        tab = build_amplitude_table(spec)
        exact = np.log(chi_type_d4(tab.grid))
        assert np.max(np.abs(tab.log_values - exact)) < 1e-4

    def test_gaussian_table_far_tail_is_exact(self):
        spec = IsotropicAmplitudeSpec(2.0, 2)
        tab = build_amplitude_table(spec)
        for r in (12.0, 30.0):
            assert tab.log_pdf(r) == pytest.approx(
                float(_gaussian_log_amplitude_pdf(r, 2)), rel=1e-12
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # r * r overflows to inf
            assert tab.log_pdf(1e300) == -math.inf

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

    def test_save_writes_the_v1_keys(self, tmp_path, table_a143_d2):
        tab = table_a143_d2
        path = tmp_path / "table.npz"
        tab.save(path)
        want = {"format_version": np.int64(1), "alpha": np.float64(1.43),
                "sigma": np.float64(2.0**-0.5), "d": np.int64(2), "grid": tab.grid,
                "log_values": tab.log_values,
                "tail_constant": np.float64(amplitude_tail_constant(tab.spec))}
        with np.load(path) as data:
            assert sorted(data.files) == sorted(want)
            for key, value in want.items():
                assert data[key].dtype == value.dtype, key
                assert np.array_equal(data[key], value), key

    @pytest.mark.parametrize("tail_constant", ["spec", 0.0])
    def test_v1_file_loads_bit_equal(self, tmp_path, table_a143_d2, tail_constant):
        # an archive as written with the tail constant stored in the table;
        # load derives K from the spec, whatever the file holds
        tab = table_a143_d2
        k = amplitude_tail_constant(tab.spec) if tail_constant == "spec" else tail_constant
        path = tmp_path / "table.npz"
        np.savez(path, format_version=np.int64(1), alpha=np.float64(1.43),
                 sigma=np.float64(2.0**-0.5), d=np.int64(2), grid=tab.grid,
                 log_values=tab.log_values, tail_constant=np.float64(k))
        loaded = AmplitudePdfTable.load(path)
        assert loaded.spec == tab.spec
        assert np.array_equal(loaded.grid, tab.grid)
        assert np.array_equal(loaded.log_values, tab.log_values)
        for ours, theirs in zip(loaded._u_rows, tab._u_rows):
            assert np.array_equal(ours, theirs)
        r = np.concatenate([[0.0, math.inf], np.geomspace(1e-6, 1e6, 257)])
        assert np.array_equal(loaded.log_pdf(r), tab.log_pdf(r))

    def test_load_rejects_unknown_version(self, tmp_path, table_a143_d2):
        path = tmp_path / "table.npz"
        table_a143_d2.save(path)
        with np.load(path) as data:
            saved = dict(data)
        # a file's sigma must be the noise scale, the only one a spec holds
        for key, value, match in [("format_version", np.int64(99), "version"),
                                  ("sigma", np.float64(1.0), "sigma 1.0"),
                                  ("sigma", np.float64(math.nan), "sigma nan")]:
            np.savez(path, **dict(saved, **{key: value}))
            with pytest.raises(ValueError, match=match):
                AmplitudePdfTable.load(path)

    def test_noise_spec_matches_unit_noise(self):
        assert amplitude.noise_amplitude_spec(1.43, 4) == IsotropicAmplitudeSpec(alpha=1.43, d=4)
        assert NOISE_SIGMA == 2.0**-0.5


FROZEN_TABLES = Path(__file__).parent / "data" / "amplitude_tables.npz"

# (alpha, d) of the four preset tables, with the r_max their search returns
PRESET_R_MAX = {(0.5, 2): 8192.0, (1.43, 2): 64.0, (0.5, 4): 16384.0, (1.43, 4): 64.0}


def same_bits(got, want):
    # as uint64, so a sign of zero or a NaN payload counts
    return np.array_equal(np.asarray(got, float).view(np.uint64),
                          np.asarray(want, float).view(np.uint64))


def assert_lookup_matches(tab, r, got, want, atol=0.0):
    """got equals want bit for bit where want is not finite and to rtol
    1e-13 (plus atol) elsewhere.  Radii within 4 ulp of r_max are left out
    of that: rounding of the row index may send them to either the last
    cubic or the law beyond the grid, and log f jumps between the two, by
    4e-3 to 9e-3 on these tables for alpha < 2; each must read one of them."""
    r, got, want = np.ravel(r), np.ravel(got), np.ravel(want)
    end = np.abs(r - tab.grid[-1]) <= 4.0 * np.spacing(tab.grid[-1])
    x, (a, d) = np.log(tab.grid), (tab.spec.alpha, tab.spec.d)
    c = amplitude._pchip_coefficients(x, tab.log_values)[:, -1]
    s = np.log(r[end]) - x[-2]
    cubic = c[0] + s * (c[1] + s * (c[2] + s * c[3]))
    tail = (_gaussian_log_amplitude_pdf(r[end], d) if a == 2.0
            else math.log(amplitude_tail_constant(tab.spec)) - (a + 1.0) * np.log(r[end]))
    assert np.all(np.isclose(got[end], cubic, rtol=1e-13, atol=atol)
                  | np.isclose(got[end], tail, rtol=1e-13, atol=atol)), tab.spec
    got, want = got[~end], want[~end]
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite), tab.spec
    assert same_bits(got[~finite], want[~finite]), tab.spec
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=atol,
                               err_msg=str(tab.spec))


class TestDirectIndexLookup:
    @pytest.fixture(scope="class")
    def tables(self):
        specs = list(PRESET_R_MAX) + [(1.9, 2)]
        return [build_amplitude_table(IsotropicAmplitudeSpec(a, d)) for a, d in specs]

    def test_bit_equal_to_scipy_pchip(self, tables):
        # the cubics' coefficients are scipy's bit for bit; their values,
        # read in u = 2 log r by Horner's rule, agree to rounding
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(7)
        for tab in tables:
            x = np.log(tab.grid)
            ref = PchipInterpolator(x, tab.log_values, extrapolate=False)
            coef = amplitude._pchip_coefficients(x, tab.log_values)
            assert same_bits(coef, ref.c[::-1]), tab.spec
            lo, hi = tab.grid[0], tab.grid[-1]
            inner = np.exp(rng.uniform(math.log(lo), math.log(hi), 131_072))
            inner = inner[(inner >= lo) & (inner <= hi)]
            near = np.concatenate(
                [np.nextafter(tab.grid, 0.0), tab.grid, np.nextafter(tab.grid, np.inf)]
            )
            near = near[(near >= lo) & (near <= hi)]
            for r in (inner, near, np.array([lo, hi])):
                assert_lookup_matches(tab, r, tab.log_pdf(r), ref(np.log(r)))

    def test_shape_preserving_branches_bit_equal(self):
        # non-monotone data with flat runs: zero slopes at sign changes and
        # flats, and clipped end slopes, which smooth densities rarely reach
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(3)
        grid = np.geomspace(1e-3, 64.0, 40)
        spec = IsotropicAmplitudeSpec(1.43, 2)
        for trial in range(50):
            y = np.round(rng.normal(size=grid.size), 1)
            if trial % 2:  # steep first and last steps against the next ones
                y[[0, -1]] = y[[1, -2]] + np.array([-5.0, 5.0]) * np.sign(
                    y[[2, -3]] - y[[1, -2]])
            tab = AmplitudePdfTable(spec, grid, y)
            ref = PchipInterpolator(np.log(grid), y, extrapolate=False)
            coef = amplitude._pchip_coefficients(np.log(grid), y)
            assert same_bits(coef, ref.c[::-1]), trial
            r = np.exp(rng.uniform(math.log(grid[0]), math.log(grid[-1]), 2000))
            r = np.concatenate([r[(r >= grid[0]) & (r <= grid[-1])], grid])
            # the values cross zero, so the bound has an absolute part
            assert_lookup_matches(tab, r, tab.log_pdf(r), ref(np.log(r)),
                                  atol=1e-13 * np.max(np.abs(y)))

    def test_pickle_round_trip(self, tables):
        r = np.geomspace(1e-5, 1e6, 4096)
        for tab in tables:
            again = pickle.loads(pickle.dumps(tab))
            assert np.array_equal(again.log_pdf(r), tab.log_pdf(r))

    def test_off_grid_and_shape(self, table_a143_d2):
        tab = table_a143_d2
        r = np.array([[0.0, tab.grid[0] / 3.0], [tab.grid[5], tab.grid[-1] * 3.0]])
        got = tab.log_pdf(r)
        assert got.shape == (2, 2)
        for value, ri in zip(got.ravel(), r.ravel()):
            assert value == tab.log_pdf(float(ri))

    def test_nan_radius_is_nan_without_warning(self, table_a143_d2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = table_a143_d2.log_pdf(np.array([math.nan, 1.0, 1e3, 0.0]))
            assert math.isnan(table_a143_d2.log_pdf(math.nan))
        assert math.isnan(got[0]) and np.isfinite(got[1:3]).all()
        assert got[3] == -math.inf

    def test_rejects_grid_that_is_not_log_uniform(self, tmp_path, table_a143_d2):
        tab = table_a143_d2
        with pytest.raises(ValueError, match="log-uniform"):
            AmplitudePdfTable(
                tab.spec, np.linspace(tab.grid[0], tab.grid[-1], tab.grid.size),
                tab.log_values,
            )
        # a foreign file whose grid changes its log step at r = 1
        path = tmp_path / "table.npz"
        tab.save(path)
        with np.load(path) as data:
            payload = dict(data)
        payload["grid"] = np.concatenate([
            np.geomspace(tab.grid[0], 1.0, 100, endpoint=False),
            np.geomspace(1.0, tab.grid[-1], tab.grid.size - 100),
        ])
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="log-uniform"):
            AmplitudePdfTable.load(path)

    def test_rejects_non_finite_log_values(self, table_a143_d2):
        tab = table_a143_d2
        log_values = tab.log_values.copy()
        log_values[log_values.size // 2] = math.nan
        with pytest.raises(ValueError, match="finite on the grid"):
            AmplitudePdfTable(tab.spec, tab.grid, log_values)

    def test_rejects_fewer_than_three_nodes(self, table_a143_d2):
        spec = IsotropicAmplitudeSpec(1.43, 2)
        with pytest.raises(ValueError, match="n_nodes"):
            build_amplitude_table(spec, n_nodes=2, r_max=64.0)
        tab = table_a143_d2
        with pytest.raises(ValueError, match="3 nodes"):
            AmplitudePdfTable(spec, tab.grid[:2], tab.log_values[:2])
        three = build_amplitude_table(spec, n_nodes=3, r_max=64.0)
        assert np.isfinite(three.log_pdf(np.geomspace(1e-3, 64.0, 50))).all()


class TestOneRouteLookup:
    """Radii read through the u-space rows, against the two-path lookup
    the table replaced."""

    @pytest.fixture(scope="class")
    def tables(self):
        return [build_amplitude_table(IsotropicAmplitudeSpec(a, d), n_nodes=128)
                for a in (0.5, 1.43, 2.0) for d in (1, 2, 4)]

    @staticmethod
    def radii(tab):
        rng = np.random.default_rng(12)
        ends = np.array([tab.grid[0], tab.grid[-1]])
        return np.concatenate([
            [0.0, 5e-324, math.inf, math.nan], ends, np.nextafter(ends, 0.0),
            np.nextafter(ends, math.inf), tab.grid,
            np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 20_000)),
        ])

    @staticmethod
    def expected(tab, r):
        # the two-path lookup returned NaN (with a RuntimeWarning) at alpha = 2,
        # r = inf; log f(inf) is -inf
        want = two_path_log_pdf(tab, r)
        if tab.spec.alpha == 2.0:
            want = np.where(np.asarray(r) == math.inf, -math.inf, want)
        return want

    def lookup(self, tab, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return tab.log_pdf(r)

    def test_bit_equal_to_two_path_lookup(self, tables):
        for tab in tables:
            r = self.radii(tab)
            got = self.lookup(tab, r)
            assert got.shape == r.shape
            assert_lookup_matches(tab, r, got, self.expected(tab, r))

    def test_scalar_zero_d_and_2d_inputs(self, tables):
        # every shape takes the same route: bit-equal to the 1-d call
        for tab in tables:
            r = self.radii(tab)[:16]
            flat = self.lookup(tab, r)
            assert_lookup_matches(tab, r, flat, self.expected(tab, r))
            grid2d = self.lookup(tab, r.reshape(4, 4))
            assert grid2d.shape == (4, 4)
            assert same_bits(grid2d.ravel(), flat)
            for ri, fi in zip(r, flat):
                for arg in (float(ri), np.array(ri)):
                    got = self.lookup(tab, arg)
                    assert type(got) is float
                    assert same_bits(got, fi), (tab.spec, ri)

    def test_four_d_trial_last_radii(self, tables):
        # the engine's layout: (K, g, t_s, B) with the trial axis last, here
        # also as a trial-last view of a trial-first array
        for tab in tables:
            r = self.radii(tab)[:4 * 2 * 2 * 1000]
            flat = self.lookup(tab, r)
            assert_lookup_matches(tab, r, flat, self.expected(tab, r))
            for r4 in (r.reshape(4, 2, 2, 1000), np.moveaxis(r.reshape(1000, 4, 2, 2), 0, -1)):
                got = self.lookup(tab, r4)
                assert got.shape == r4.shape
                assert same_bits(got, tab.log_pdf(r4.ravel()).reshape(r4.shape)), tab.spec

    def test_energy_lookup_matches_log_pdf(self, tables):
        # log_pdf_of_energy reads log f(r) from e = r^2 and log e, against
        # the two-path lookup, which shares no rows with it
        for tab in tables:
            g = tab.grid
            r = np.concatenate([[0.0, math.inf, math.nan, g[0] / 3.0], g,
                                np.sqrt(g[1:] * g[:-1]), g[-1] * np.array([1.5, 7.0, 1e3])])
            e = r * r
            with np.errstate(divide="ignore"):
                u = np.log(e)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = tab.log_pdf_of_energy(u, e)
            assert_lookup_matches(tab, r, got, self.expected(tab, r))


class TestRMaxSearch:
    @pytest.mark.parametrize("alpha,d", list(PRESET_R_MAX))
    def test_preset_r_max_and_table(self, alpha, d):
        spec = IsotropicAmplitudeSpec(alpha, d)
        r_max = amplitude._find_r_max(spec)
        assert r_max == PRESET_R_MAX[alpha, d]
        tab = build_amplitude_table(spec)
        given = build_amplitude_table(spec, r_max=r_max)
        assert np.array_equal(tab.grid, given.grid)
        assert np.array_equal(tab.log_values, given.log_values)


class TestFrozenTables:
    """The tables as the Bessel-kernel Hankel quadrature this module used
    before the subordinator law built them (tests/data/amplitude_tables.npz:
    grid and log f of the four preset specs, (1.9, 2) and (1.2, 5)), an
    oracle independent of the law's derivation from the sampler."""

    def test_tables_match_frozen_quadrature(self):
        with np.load(FROZEN_TABLES) as frozen:
            for alpha, d in list(PRESET_R_MAX) + [(1.9, 2), (1.2, 5)]:
                tab = build_amplitude_table(IsotropicAmplitudeSpec(alpha, d))
                key = f"alpha{alpha}_d{d}"
                grid = frozen[key + "_grid"]
                # the grid's ends are exact; np.geomspace's interior nodes
                # may move by one ulp with the SIMD dispatch (AVX-512 or not)
                assert np.array_equal(tab.grid[[0, -1]], grid[[0, -1]]), key
                np.testing.assert_array_max_ulp(tab.grid, grid, maxulp=1)
                assert np.max(np.abs(tab.log_values - frozen[key + "_log_values"])) <= 1e-9, key


class TestBesselRule:
    """The quadrature rule's imports and cache; the class keeps the name it
    had under the Bessel-kernel rule, so that test ids stay stable."""

    def test_odd_dimension_table_loads_no_optimizer(self):
        # no scipy module for any d
        code = (
            "import sys\n"
            "from stablemimo.amplitude import IsotropicAmplitudeSpec, build_amplitude_table\n"
            "build_amplitude_table(IsotropicAmplitudeSpec(1.2, 5))\n"
            "print([m in sys.modules for m in ('scipy.optimize', 'scipy.special')])\n"
        )
        src = str(Path(amplitude.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[False, False]"

    def test_rule_cached_per_dimension(self):
        # one rule per (alpha, d), shared by the r_max search and the grid
        amplitude._law_rule.cache_clear()
        spec = IsotropicAmplitudeSpec(1.43, 4)
        build_amplitude_table(spec, n_nodes=16)
        assert amplitude._law_rule.cache_info()[:2] == (1, 1)  # (hits, misses)
        build_amplitude_table(spec, n_nodes=16)
        assert amplitude._law_rule.cache_info()[:2] == (3, 1)
        build_amplitude_table(IsotropicAmplitudeSpec(1.43, 2), n_nodes=16, r_max=64.0)
        build_amplitude_table(IsotropicAmplitudeSpec(0.5, 4), n_nodes=16, r_max=64.0)
        assert amplitude._law_rule.cache_info()[:2] == (3, 3)
        assert not any(a.flags.writeable for a in amplitude._law_rule(1.43, 4))
