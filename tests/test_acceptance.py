"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Monte Carlo criteria share the session-scoped sweeps from conftest; the
statistical tolerances below are pinned to the stated acceptance values.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from stablemimo.amplitude import (
    NOISE_SIGMA,
    IsotropicAmplitudeSpec,
    amplitude_pdf,
    build_amplitude_table,
)
from stablemimo.cliio import run_preset
from stablemimo.codes import enumerate_codebook, sample_channel
from stablemimo.montecarlo import SimConfig, fit_slope, run_sweep, snr_at_ber
from stablemimo.receivers import batch_aor, batch_gar, batch_mdr, batch_ml
from stablemimo.stable import (
    NoiseModel,
    StableParams,
    sample_noise_block,
    sample_stable,
    sample_subordinator,
    stable_tail_constant,
)
from stablemimo.theory import (
    conditional_pep_gar,
    conditional_pep_mdr_bound,
    dlog_gain,
    dlog_gain_numeric,
    find_alpha_thresholds,
    pep_asymptote,
)

from helpers import gain, integrate_amplitude


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\ncriterion {criterion}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_sampler_tail_law():
    # the SaS CCDF series (1/pi) sum_k (-1)^(k+1) Gamma(k a)/k! sin(k pi a/2)
    # lam^(-k a) to two terms; its k = 2 term is -8.9% of the first at a = 0.5,
    # lam = 20, and the rest is sampling error: over seeds 1001-1032 the worst
    # deviation read 0.31-0.67% at a = 0.5 and 1.0-8.6% at a = 1.43
    t0 = time.time()
    worst = {}
    for alpha, bound in ((0.5, 0.01), (1.43, 0.10)):
        x = sample_stable(
            StableParams(alpha=alpha), np.random.default_rng(1001), size=10**7
        )
        lam = np.geomspace(20.0, 200.0, 8)
        series = (stable_tail_constant(alpha) * lam**-alpha
                  - math.gamma(2 * alpha) * math.sin(math.pi * alpha) / (2 * math.pi)
                  * lam ** (-2 * alpha))
        ratio = np.array([(x > v).mean() for v in lam]) / series
        worst[alpha] = (float(np.max(np.abs(ratio - 1.0))), bound)
    report(
        1,
        all(dev < bound for dev, bound in worst.values()),
        "empirical CCDF vs its two-term series over lam in [20, 200]: "
        + ", ".join(f"alpha {a} within {dev:.2%} (bound {bound:.0%})"
                    for a, (dev, bound) in worst.items())
        + f" ({time.time() - t0:.0f}s)",
    )


def _large_r_series(r, alpha, d, sigma, terms):
    """Series in (2 sigma / r)^(k alpha), k >= 1, from expanding exp(-(sigma t)^alpha)
    term by term: convergent for alpha < 1, asymptotic for alpha > 1 (Bergstrom
    1952 at d = 1); its k = 1 term is the tail K r^(-alpha-1)."""
    total = 0.0
    for k in range(1, terms + 1):
        ka = k * alpha
        log_mag = (math.lgamma(ka / 2.0 + 1.0) + math.lgamma((ka + d) / 2.0)
                   - math.lgamma(k + 1.0) + ka * math.log(2.0 * sigma / r))
        total += (-1) ** (k + 1) * math.sin(k * math.pi * alpha / 2.0) * math.exp(log_mag)
    return 2.0 * total / (math.pi * r * math.gamma(d / 2.0))


def _small_r_series(r, alpha, d, sigma, terms):
    """Series in (r / 2 sigma)^(2k + d), k >= 0: convergent for alpha > 1."""
    total = 0.0
    for k in range(terms):
        log_mag = (math.lgamma((2.0 * k + d) / alpha) - math.lgamma(k + 1.0)
                   - math.lgamma(k + d / 2.0) + (2 * k + d) * math.log(r / (2.0 * sigma)))
        total += (-1) ** k * math.exp(log_mag)
    return 4.0 * total / (alpha * r * math.gamma(d / 2.0))


def test_criterion_2_amplitude_pdf_oracles():
    t0 = time.time()
    # closed forms at the noise scale sigma = 2^-1/2, where 4 sigma^2 = 2
    radii = np.geomspace(0.3, 4.0, 10)
    cases = {
        (2.0, 2): lambda r: r * np.exp(-r * r / 2.0),
        (2.0, 4): lambda r: r**3 / 2.0 * np.exp(-r * r / 2.0),
        (1.0, 2): lambda r: NOISE_SIGMA * r / (NOISE_SIGMA**2 + r * r) ** 1.5,
    }
    worst_pdf = 0.0
    for (alpha, d), oracle in cases.items():
        spec = IsotropicAmplitudeSpec(alpha, d)
        err = np.max(np.abs(amplitude_pdf(radii, spec) - oracle(radii)))
        worst_pdf = max(worst_pdf, err)
    # the paper's exponents at the noise scale 2^-1/2, where each series
    # reaches 1e-9 relative: r past 256 would test amplitude_pdf's absolute
    # error target instead
    worst_series = 0.0
    for alpha, radii, series, terms in [
        (0.5, np.geomspace(0.05, 1000.0, 13), _large_r_series, 400),
        (1.43, np.geomspace(1e-3, 1.0, 7), _small_r_series, 100),
        (1.43, np.geomspace(64.0, 256.0, 5), _large_r_series, 8),
    ]:
        for d in (2, 4):
            spec = IsotropicAmplitudeSpec(alpha, d)
            want = np.array([series(r, alpha, d, NOISE_SIGMA, terms) for r in radii])
            err = np.max(np.abs(amplitude_pdf(radii, spec) / want - 1.0))
            worst_series = max(worst_series, err)
    worst_norm = 0.0
    for alpha, d in [(2.0, 2), (2.0, 4), (1.0, 2), (1.43, 2), (0.5, 4)]:
        total = integrate_amplitude(IsotropicAmplitudeSpec(alpha, d))
        worst_norm = max(worst_norm, abs(total - 1.0))
    report(
        2,
        worst_pdf < 1e-5 and worst_series < 1e-9 and worst_norm < 1e-4,
        f"max closed-form error {worst_pdf:.2e}, max series relative error "
        f"{worst_series:.2e}, max |integral-1| {worst_norm:.2e} "
        f"({time.time() - t0:.0f}s)",
    )


def test_criterion_3_diversity_slopes(curve_2x1_alpha05):
    want = {rx: pep_asymptote(rx, NoiseModel.SHARED, 2, 1, 0.5).diversity_order
            for rx in ("gar", "mdr")}
    slopes = {rx: fit_slope(curve_2x1_alpha05, rx, window=5).slope for rx in want}
    # 20% of the order: 0.10 for GAR, 0.05 for MDR
    ok = all(abs(slopes[rx] + order) <= 0.2 * order for rx, order in want.items())
    enough = all(
        p.bit_errors >= 200
        for pts in curve_2x1_alpha05.points.values()
        for p in pts
    )
    report(
        3,
        ok and enough,
        f"2x1 alpha=0.5 slopes: GAR {slopes['gar']:.3f} (want -{want['gar']:.2f}+/-"
        f"{0.2 * want['gar']:.2f}), MDR {slopes['mdr']:.3f} (want -{want['mdr']:.2f}+/-"
        f"{0.2 * want['mdr']:.2f}), >=200 errors/point: {enough}",
    )


def test_criterion_4_nr_non_contribution(curve_2x1_alpha05, curve_2x2_alpha05_shared):
    gar_1 = fit_slope(curve_2x1_alpha05, "gar", window=5).slope
    mdr_1 = fit_slope(curve_2x1_alpha05, "mdr", window=5).slope
    gar_2 = fit_slope(curve_2x2_alpha05_shared, "gar", window=5).slope
    mdr_2 = fit_slope(curve_2x2_alpha05_shared, "mdr", window=5).slope
    slopes_ok = abs(gar_2 - gar_1) <= 0.10 and abs(mdr_2 - mdr_1) <= 0.10
    below = np.all(
        curve_2x2_alpha05_shared.ber("gar") < curve_2x1_alpha05.ber("gar")
    )
    report(
        4,
        slopes_ok and bool(below),
        f"slope shifts GAR {gar_2 - gar_1:+.3f}, MDR {mdr_2 - mdr_1:+.3f} "
        f"(both within 0.10); GAR 2x2 below 2x1 everywhere: {below}",
    )


def test_criterion_5_receiver_gaps(curve_2x1_alpha05):
    crossing = {rx: snr_at_ber(curve_2x1_alpha05, rx, 1e-2) for rx in ("gar", "ml", "aor")}
    ml_gar = crossing["ml"] - crossing["gar"]
    aor_ml = crossing["aor"] - crossing["ml"]
    ok = abs(ml_gar - 1.3) <= 0.5 and abs(aor_ml) <= 0.3
    report(
        5,
        ok,
        f"at BER 1e-2: ML-GAR {ml_gar:+.2f} dB (want 1.3+/-0.5), "
        f"AOR-ML {aor_ml:+.3f} dB (want <=0.3)",
    )


def test_criterion_6_model_comparison(curve_2x2_alpha05_shared, curve_2x2_alpha05_iid):
    gar_shared = fit_slope(curve_2x2_alpha05_shared, "gar", window=5).slope
    gar_iid = fit_slope(curve_2x2_alpha05_iid, "gar", window=5).slope
    mdr_shared = fit_slope(curve_2x2_alpha05_shared, "mdr", window=5).slope
    mdr_iid = fit_slope(curve_2x2_alpha05_iid, "mdr", window=5).slope
    steeper = (-gar_iid) - (-gar_shared) >= 0.15
    mdr_equal = abs(mdr_iid - mdr_shared) <= 0.05
    common = [
        i
        for i, s in enumerate(curve_2x2_alpha05_shared.config.snr_grid_db)
        if s in set(curve_2x2_alpha05_iid.config.snr_grid_db)
    ]
    mdr_penalty = np.all(
        curve_2x2_alpha05_iid.ber("mdr")
        > curve_2x2_alpha05_shared.ber("mdr")[common]
    )
    report(
        6,
        steeper and mdr_equal and bool(mdr_penalty),
        f"GAR slopes I/II {gar_shared:.3f}/{gar_iid:.3f} (steeper by "
        f"{(-gar_iid) + gar_shared:.3f} >= 0.15), MDR I/II {mdr_shared:.3f}/"
        f"{mdr_iid:.3f} (|diff| <= 0.05), MDR model-II curve above model-I: "
        f"{mdr_penalty}",
    )


def test_criterion_7_alpha_thresholds():
    t0 = time.time()
    th = find_alpha_thresholds(1)
    ok = abs(th.alpha0 - 1.333) <= 0.01 and abs(th.alpha1 - 1.799) <= 0.01
    report(
        7,
        ok,
        f"alpha0 = {th.alpha0:.4f} (want 1.333+/-0.01), alpha1 = {th.alpha1:.4f} "
        f"(want 1.799+/-0.01) ({time.time() - t0:.2f}s)",
    )


def test_criterion_8_derivative_identities():
    t0 = time.time()
    probes = [
        ("gar", "n_r", 2, 1, 0.5),
        ("gar", "n_r", 2, 2, 1.0),
        ("gar", "n_r", 3, 2, 1.43),
        ("gar", "n_r", 2, 4, 1.9),
        ("mdr", "n_r", 2, 1, 0.5),
        ("mdr", "n_r", 2, 2, 1.43),
        ("mdr", "n_r", 3, 2, 1.9),
        ("mdr", "n_t", 2, 1, 0.5),
        ("mdr", "n_t", 2, 2, 1.43),
        ("mdr", "n_t", 4, 2, 1.9),
    ]
    worst = max(
        abs(dlog_gain(*p) - dlog_gain_numeric(*p)) for p in probes
    )
    shape_ok = True
    for alpha in (0.5, 1.0, 1.43, 1.9):
        for nr in (1, 2, 4):
            g = np.array([gain("gar", nt, nr, alpha) for nt in range(1, 9)])
            shape_ok &= bool(np.all(np.diff(g) < 0) and np.all(np.diff(g, 2) > 0))
    report(
        8,
        worst < 1e-6 and shape_ok,
        f"max |digamma - finite difference| = {worst:.2e} (< 1e-6); GAR gain "
        f"decreasing+convex in n_t: {shape_ok} ({time.time() - t0:.2f}s)",
    )


def test_criterion_9_equivalence_suite(table_a05_d2):
    t0 = time.time()
    cb = enumerate_codebook("alamouti", "bpsk")

    # (a) constant genie record: whitening is a common scale, GAR == MDR
    rng = np.random.default_rng(9001)
    n = 10_000
    h = sample_channel(2, 2, rng, size=n)
    tx = rng.integers(0, 4, size=n)
    w, _ = sample_noise_block(NoiseModel.SHARED, 0.5, 2, 2, rng, size=n)
    rho = 10.0
    y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, cb.codewords[tx]) + w
    genie = np.repeat(rng.uniform(0.25, 4.0, size=(n, 1, 1)), 2, axis=2)
    gar_mdr = np.mean(
        batch_gar(y, h, genie, rho, cb) == batch_mdr(y, h, rho, cb)
    )

    # (b) Gaussian noise: the i.i.d.-model density rule vs plain Euclidean
    table2 = build_amplitude_table(IsotropicAmplitudeSpec(2.0, 2))
    rng = np.random.default_rng(9002)
    h = sample_channel(2, 2, rng, size=n)
    tx = rng.integers(0, 4, size=n)
    w, _ = sample_noise_block(NoiseModel.IID, 2.0, 2, 2, rng, size=n)
    rho = 10.0 ** 1.5
    y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, cb.codewords[tx]) + w
    ml_mdr = np.mean(
        batch_ml(y, h, rho, cb, NoiseModel.IID, table2)
        == batch_mdr(y, h, rho, cb)
    )

    # (c) AOR log-sum vs product form on seeded instances
    rng = np.random.default_rng(9003)
    agree = 0
    for _ in range(1000):
        h1 = sample_channel(2, 2, rng)
        tx1 = int(rng.integers(4))
        w1, _ = sample_noise_block(NoiseModel.SHARED, 0.5, 2, 2, rng)
        y1 = np.sqrt(5.0) * h1 @ cb.codewords[tx1] + w1
        log_form = int(batch_aor(y1[None], h1[None], 5.0, cb, NoiseModel.SHARED)[0])
        prods = [
            np.prod(
                np.linalg.norm(y1 - np.sqrt(5.0) * h1 @ s, axis=0)
            )
            for s in cb.codewords
        ]
        agree += log_form == int(np.argmin(prods))
    ok = gar_mdr == 1.0 and ml_mdr >= 0.999 and agree == 1000
    report(
        9,
        ok,
        f"GAR==MDR (equal genie): {gar_mdr:.1%}; alpha=2 ML(iid) vs MDR: "
        f"{ml_mdr:.2%}; AOR log-sum vs product: {agree}/1000 "
        f"({time.time() - t0:.0f}s)",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    over = {"min_errors": 20, "max_trials": 16384, "seed": 5}
    p1 = run_preset("fig1", dict(over, workers=1), out_dir=str(tmp_path / "w1"))
    p4 = run_preset("fig1", dict(over, workers=4), out_dir=str(tmp_path / "w4"))
    sim_equal = open(p1["sim"], "rb").read() == open(p4["sim"], "rb").read()
    theory_equal = open(p1["theory"], "rb").read() == open(p4["theory"], "rb").read()
    report(
        10,
        sim_equal and theory_equal,
        f"fig1 preset CSVs byte-identical across 1 vs 4 workers: sim={sim_equal}, "
        f"theory={theory_equal} ({time.time() - t0:.0f}s)",
    )


def test_criterion_11_diversity_slopes_alpha143():
    t0 = time.time()
    cfg = SimConfig(
        model=NoiseModel.SHARED,
        alpha=1.43,
        n_r=1,
        snr_grid_db=(10.0, 15.0, 20.0, 25.0),
        receivers=("gar", "mdr"),
        master_seed=2024_05_04,
        min_errors=200,
        max_trials=2_000_000,
        workers=2,
    )
    curve = run_sweep(cfg)
    want = {
        "gar": 1.43 * cfg.n_t / 2.0,
        "mdr": 1.43 / 2.0,
    }
    orders_ok = all(
        pep_asymptote(rx, cfg.model, cfg.n_t, cfg.n_r, cfg.alpha).diversity_order
        == pytest.approx(order, rel=1e-12)
        for rx, order in want.items()
    )
    slopes = {rx: fit_slope(curve, rx, window=4).slope for rx in want}
    # 20% of the order, the relative tolerance of criterion 3
    slopes_ok = all(abs(slopes[rx] + order) <= 0.2 * order for rx, order in want.items())
    enough = all(p.bit_errors >= 200 for pts in curve.points.values() for p in pts)
    report(
        11,
        orders_ok and slopes_ok and enough,
        f"2x1 alpha=1.43 slopes: GAR {slopes['gar']:.3f} (want -1.430+/-0.286), "
        f"MDR {slopes['mdr']:.3f} (want -0.715+/-0.143), asymptote orders match: "
        f"{orders_ok}, >=200 errors/point: {enough} ({time.time() - t0:.2f}s)",
    )


def test_criterion_12_conditional_pep_ratios():
    # conditional Monte Carlo: each conditional PEP averaged over 100k
    # drawn (H, A), divided by its closed-form asymptote, for the Alamouti
    # BPSK pair that differs in one symbol (c = 4), alpha 0.5.  Bands come
    # from 60 seeds (100-159): ratios spanned 0.80-1.19 (GAR) and
    # 0.84-1.00 (MDR bound).  The bound rows rose at every step on every
    # seed; a GAR row's 50 dB ratio varies by 0.05-0.08 across seeds, as
    # much as its rise, so GAR rows are held to their band alone.
    t0 = time.time()
    cb = enumerate_codebook("alamouti", "bpsk")
    s, sp = cb.codewords[0], cb.codewords[1]
    c = ((s - sp) @ (s - sp).conj().T)[0, 0].real
    rng = np.random.default_rng(12)
    rows = [("gar", NoiseModel.SHARED, 1), ("gar", NoiseModel.SHARED, 2),
            ("mdr", NoiseModel.SHARED, 2), ("mdr", NoiseModel.IID, 2)]
    pep = {"gar": conditional_pep_gar, "mdr": conditional_pep_mdr_bound}
    band = {"gar": (0.70, 1.30), "mdr": (0.80, 1.02)}
    ok, lines = True, []
    for rx, model, n_r in rows:
        h = sample_channel(n_r, 2, rng, size=100_000)
        groups = (1 if model is NoiseModel.SHARED else n_r, 2)
        genie = sample_subordinator(0.5, rng, size=(100_000, *groups))
        asym = pep_asymptote(rx, model, 2, n_r, 0.5)
        ratios = [
            float(np.mean(pep[rx](h, genie, rho, s, sp)) / asym.evaluate(c * rho))
            for rho in 10.0 ** (np.array([30.0, 40.0, 50.0]) / 10.0)
        ]
        lo, hi = band[rx]
        ok &= all(lo <= r <= hi for r in ratios)
        if rx == "mdr":
            ok &= ratios[0] < ratios[1] < ratios[2]
        name = "GAR" if rx == "gar" else "MDR bound"
        lines.append(f"{name} model {model.value} n_r {n_r} "
                     + "/".join(f"{r:.3f}" for r in ratios))
    report(
        12,
        ok,
        "conditional-MC PEP / closed form at 30/40/50 dB, alpha 0.5: "
        + "; ".join(lines)
        + " (GAR in [0.70, 1.30]; MDR bound in [0.80, 1.02] and rising) "
        f"({time.time() - t0:.2f}s)",
    )
