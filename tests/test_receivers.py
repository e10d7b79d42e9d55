"""Decision rules against brute-force oracles and degenerate-case identities."""

import numpy as np
import pytest

from stablemimo.amplitude import IsotropicAmplitudeSpec, build_amplitude_table
from stablemimo.codes import block_products, enumerate_codebook, sample_channel
from stablemimo.receivers import (
    METRICS,
    RECEIVER_KINDS,
    ResidualEnergies,
    batch_aor,
    batch_gar,
    batch_mdr,
    batch_ml,
    batch_residuals,
    check_ml_table,
    decide,
    first_minimum,
    ml_table_spec,
)
from stablemimo.stable import NoiseModel, sample_noise_block

from helpers import codeword_products, two_path_log_pdf


@pytest.fixture(scope="module")
def codebook():
    return enumerate_codebook("alamouti", "bpsk")


def trial_last(a):
    return np.moveaxis(a, 0, -1)


def random_instance(codebook, model, alpha, n_r, rho, rng):
    h = sample_channel(n_r, codebook.n_t, rng)
    tx = int(rng.integers(len(codebook)))
    w, genie = sample_noise_block(model, alpha, n_r, codebook.t_s, rng)
    y = np.sqrt(rho) * h @ codebook.codewords[tx] + w
    return y, h, genie, tx


# Single-trial decisions: the batched receivers with B=1.

def gar_decode(y, h, genie, rho, codebook):
    return int(batch_gar(y[None], h[None], np.asarray(genie)[None], rho, codebook)[0])


def mdr_decode(y, h, rho, codebook):
    return int(batch_mdr(y[None], h[None], rho, codebook)[0])


def aor_decode(y, h, rho, codebook, model):
    return int(batch_aor(y[None], h[None], rho, codebook, model)[0])


def ml_decode(y, h, rho, codebook, model, table):
    return int(batch_ml(y[None], h[None], rho, codebook, model, table)[0])


# Straightforward reimplementations used as oracles.

def oracle_mdr(y, h, rho, cb):
    metrics = [np.sum(np.abs(y - np.sqrt(rho) * h @ s) ** 2) for s in cb.codewords]
    return int(np.argmin(metrics))


def oracle_gar(y, h, genie, rho, cb):
    # genie (g, t_s): a model I row (g = 1) broadcasts over its column
    metrics = [np.sum(np.abs(y - np.sqrt(rho) * h @ s) ** 2 / genie) for s in cb.codewords]
    return int(np.argmin(metrics))


def oracle_aor_product(y, h, rho, cb, model):
    # product-of-norms form of the rule
    metrics = []
    for s in cb.codewords:
        r = y - np.sqrt(rho) * h @ s
        if model is NoiseModel.SHARED:
            m = np.prod([np.linalg.norm(r[:, k]) for k in range(r.shape[1])])
        else:
            m = np.prod(np.abs(r))
        metrics.append(m)
    return int(np.argmin(metrics))


def oracle_ml(y, h, rho, cb, model, table):
    # the two-path lookup, not the rows that the kernel under test reads
    metrics = []
    for s in cb.codewords:
        r = y - np.sqrt(rho) * h @ s
        if np.sum(np.abs(r) ** 2) == 0.0:
            return int(np.argmin([np.sum(np.abs(y - np.sqrt(rho) * h @ c) ** 2)
                                  for c in cb.codewords]))
        if model is NoiseModel.SHARED:
            m = sum(
                two_path_log_pdf(table, np.linalg.norm(r[:, k])) for k in range(r.shape[1])
            )
        else:
            m = np.sum(two_path_log_pdf(table, np.abs(r).ravel()))
        metrics.append(m)
    return int(np.argmax(metrics))


class TestNoiselessDecoding:
    @pytest.mark.parametrize("rho", [1.0, 4.0, 100.0])
    def test_all_receivers_return_tx(self, codebook, table_a143_d2, rho):
        rng = np.random.default_rng(31)
        for _ in range(10):
            h = sample_channel(1, 2, rng)
            tx = int(rng.integers(4))
            y = np.sqrt(rho) * h @ codebook.codewords[tx]
            genie = np.abs(rng.normal(size=(1, 2))) + 0.1
            assert mdr_decode(y, h, rho, codebook) == tx
            assert gar_decode(y, h, genie, rho, codebook) == tx
            assert aor_decode(y, h, rho, codebook, NoiseModel.SHARED) == tx
            assert ml_decode(y, h, rho, codebook, NoiseModel.SHARED,
                             table_a143_d2) == tx


class TestOracleAgreement:
    def test_gar_model1_matches_bruteforce(self, codebook):
        rng = np.random.default_rng(32)
        for _ in range(200):
            y, h, genie, _ = random_instance(
                codebook, NoiseModel.SHARED, 0.8, 2, 3.0, rng
            )
            assert gar_decode(y, h, genie, rho=3.0, codebook=codebook) == oracle_gar(
                y, h, genie, 3.0, codebook
            )

    def test_gar_model2_matches_bruteforce(self, codebook):
        rng = np.random.default_rng(33)
        for _ in range(200):
            y, h, genie, _ = random_instance(
                codebook, NoiseModel.IID, 0.8, 2, 3.0, rng
            )
            assert gar_decode(y, h, genie, 3.0, codebook) == oracle_gar(
                y, h, genie, 3.0, codebook
            )

    def test_mdr_matches_bruteforce(self, codebook):
        rng = np.random.default_rng(34)
        for _ in range(200):
            y, h, _, _ = random_instance(codebook, NoiseModel.SHARED, 1.43, 2, 2.0, rng)
            assert mdr_decode(y, h, 2.0, codebook) == oracle_mdr(y, h, 2.0, codebook)

    def test_aor_log_sum_equals_product_form(self, codebook):
        rng = np.random.default_rng(35)
        for model in (NoiseModel.SHARED, NoiseModel.IID):
            for _ in range(100):
                y, h, _, _ = random_instance(codebook, model, 0.5, 2, 5.0, rng)
                assert aor_decode(y, h, 5.0, codebook, model) == oracle_aor_product(
                    y, h, 5.0, codebook, model
                )

    def test_ml_matches_bruteforce(self, codebook, table_a143_d2):
        rng = np.random.default_rng(36)
        for _ in range(100):
            y, h, _, _ = random_instance(codebook, NoiseModel.IID, 1.43, 1, 5.0, rng)
            got = ml_decode(y, h, 5.0, codebook, NoiseModel.IID, table_a143_d2)
            assert got == oracle_ml(y, h, 5.0, codebook, NoiseModel.IID, table_a143_d2)


class TestDegenerateIdentities:
    def test_equal_genie_matches_mdr(self, codebook):
        rng = np.random.default_rng(37)
        for _ in range(200):
            y, h, _, _ = random_instance(codebook, NoiseModel.SHARED, 0.7, 2, 2.0, rng)
            genie = np.full((1, 2), float(rng.uniform(0.2, 5.0)))
            assert gar_decode(y, h, genie, 2.0, codebook) == mdr_decode(
                y, h, 2.0, codebook
            )

    def test_single_slot_aor_matches_mdr(self):
        cb = enumerate_codebook("uncoded", "bpsk")
        rng = np.random.default_rng(38)
        for _ in range(200):
            y, h, _, _ = random_instance(cb, NoiseModel.SHARED, 0.7, 2, 2.0, rng)
            assert aor_decode(y, h, 2.0, cb, NoiseModel.SHARED) == mdr_decode(
                y, h, 2.0, cb
            )

    def test_scale_invariance(self, codebook):
        rng = np.random.default_rng(39)
        for _ in range(100):
            y, h, genie, _ = random_instance(
                codebook, NoiseModel.SHARED, 0.9, 2, 2.0, rng
            )
            c = float(rng.uniform(0.1, 30.0))
            assert mdr_decode(y, h, 2.0, codebook) == mdr_decode(
                c * y, c * h, 2.0, codebook
            )
            assert gar_decode(y, h, genie, 2.0, codebook) == gar_decode(
                c * y, c * h, genie, 2.0, codebook
            )
            assert aor_decode(y, h, 2.0, codebook, NoiseModel.SHARED) == aor_decode(
                c * y, c * h, 2.0, codebook, NoiseModel.SHARED
            )

    def test_gaussian_ml_agrees_with_whitened_euclidean(self, codebook):
        # alpha=2, all subordinators 1: the density metric reduces to the
        # Euclidean rule up to a log-radius term that only matters at
        # near-ties, so agreement is checked where margins are healthy
        table = build_amplitude_table(IsotropicAmplitudeSpec(2.0, 2))
        rng = np.random.default_rng(40)
        n = 10_000
        rho = 100.0
        h = sample_channel(1, 2, rng, size=n)
        tx = rng.integers(0, 4, size=n)
        w, genie = sample_noise_block(NoiseModel.SHARED, 2.0, 1, 2, rng, size=n)
        y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, codebook.codewords[tx]) + w
        ml = batch_ml(y, h, rho, codebook, NoiseModel.SHARED, table)
        gar = batch_gar(y, h, genie, rho, codebook)
        assert np.mean(ml == gar) >= 0.999


class TestAdversarialImpulse:
    def test_mdr_flips_gar_survives(self, codebook):
        # one huge-impulse column dominates the Euclidean metric
        rng = np.random.default_rng(41)
        found = False
        for _ in range(500):
            h = sample_channel(2, 2, rng)
            tx = int(rng.integers(4))
            genie = np.array([[1.0, 1e6]])
            g = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            w = np.sqrt(genie) * g
            y = np.sqrt(4.0) * h @ codebook.codewords[tx] + w
            mdr = mdr_decode(y, h, 4.0, codebook)
            gar = gar_decode(y, h, genie, 4.0, codebook)
            if mdr != tx and gar == tx:
                # verify by direct metric evaluation
                assert oracle_mdr(y, h, 4.0, codebook) == mdr
                assert oracle_gar(y, h, genie, 4.0, codebook) == tx
                found = True
                break
        assert found


class TestValidation:
    def test_missing_genie(self, codebook):
        y = np.zeros((1, 1, 2), dtype=complex)
        h = np.ones((1, 1, 2), dtype=complex)
        with pytest.raises(ValueError, match="genie"):
            batch_gar(y, h, None, 1.0, codebook)

    def test_table_dimension_mismatch(self, codebook, table_a143_d2):
        y = np.zeros((2, 2), dtype=complex)
        h = np.ones((2, 2), dtype=complex)
        # model I with n_r=2 needs d=4
        with pytest.raises(ValueError, match=r"spec .*d=2.*want .*d=4"):
            ml_decode(y, h, 1.0, codebook, NoiseModel.SHARED, table_a143_d2)

    def test_table_scale_mismatch(self):
        # every table is at the noise scale, so what is left to mismatch at
        # the right dimension is the exponent (batch_ml takes its alpha from
        # the table, so the check is called with the sweep's spec)
        other = build_amplitude_table(IsotropicAmplitudeSpec(1.2, 4), n_nodes=3, r_max=64.0)
        with pytest.raises(ValueError, match=r"alpha=1\.2,.*want .*alpha=1\.43"):
            check_ml_table(other, ml_table_spec(NoiseModel.SHARED, 2, 1.43))

    def test_receiver_kind_validation(self, codebook, table_a143_d2):
        y = np.zeros((1, 1, 2), dtype=complex)
        h = np.ones((1, 1, 2), dtype=complex)
        r = trial_last(batch_residuals(y, h, 1.0, codebook))
        energies = ResidualEnergies(r, NoiseModel.IID)
        with pytest.raises(KeyError):
            decide("zf", energies)
        for rx in RECEIVER_KINDS:
            assert decide(rx, energies, np.ones((1, 2, 1)), table_a143_d2).shape == (1,)

    def test_gar_rejects_genie_of_other_grouping(self):
        # uncoded BPSK, n_r = 2: groups and genie are (g, t_s, B), g = 1
        # under model I and 2 under model II; a record of the other
        # grouping would broadcast, so the metric refuses it
        cb = enumerate_codebook("uncoded", "bpsk")
        rng = np.random.default_rng(55)
        h = sample_channel(2, cb.n_t, rng, size=5)
        w, iid_genie = sample_noise_block(NoiseModel.IID, 1.43, 2, cb.t_s, rng, size=5)
        _, shared_genie = sample_noise_block(NoiseModel.SHARED, 1.43, 2, cb.t_s, rng, size=5)
        r = trial_last(batch_residuals(w, h, 1.0, cb))
        grouped = {NoiseModel.SHARED: shared_genie, NoiseModel.IID: iid_genie}
        for model, other in ((NoiseModel.SHARED, NoiseModel.IID),
                             (NoiseModel.IID, NoiseModel.SHARED)):
            e = ResidualEnergies(r, model)
            assert e.group.shape[1:] == trial_last(grouped[model]).shape
            assert decide("gar", e, trial_last(grouped[model])).shape == (5,)
            with pytest.raises(ValueError, match="genie"):
                decide("gar", e, trial_last(grouped[other]))
            with pytest.raises(ValueError, match="genie"):
                decide("gar", e, None)

    def test_batch_gar_rejects_per_column_record(self, codebook):
        # a model I record without its group axis, (B, t_s) with B == n_r,
        # has the shape of one trial's (g, t_s) record; its rank gives it away
        rng = np.random.default_rng(57)
        h = sample_channel(2, 2, rng, size=2)
        w, genie = sample_noise_block(NoiseModel.SHARED, 1.43, 2, 2, rng, size=2)
        y = h @ codebook.codewords[0] + w
        assert batch_gar(y, h, genie, 1.0, codebook).shape == (2,)
        with pytest.raises(ValueError, match="genie"):
            batch_gar(y, h, genie[:, 0], 1.0, codebook)

    def test_batch_gar_single_antenna_models_agree(self, codebook):
        # at n_r = 1 a column is an entry: both models draw the same
        # (B, 1, t_s) record, and both groupings decide alike
        n, rho = 2000, 4.0
        blocks = {}
        for model in (NoiseModel.SHARED, NoiseModel.IID):
            rng = np.random.default_rng(58)
            h = sample_channel(1, 2, rng, size=n)
            tx = rng.integers(0, 4, size=n)
            w, genie = sample_noise_block(model, 1.43, 1, 2, rng, size=n)
            y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, codebook.codewords[tx]) + w
            blocks[model] = y, h, genie
        (y, h, genie), other = blocks.values()
        assert genie.shape == (n, 1, 2)
        assert all(np.array_equal(a, b) for a, b in zip((y, h, genie), other))
        r = trial_last(batch_residuals(y, h, rho, codebook))
        got = batch_gar(y, h, genie, rho, codebook)
        for model in (NoiseModel.SHARED, NoiseModel.IID):
            e = ResidualEnergies(r, model)
            assert np.array_equal(decide("gar", e, trial_last(genie)), got)


class TestBatchScalarAgreement:
    def test_batch_matches_scalar(self, codebook, table_a143_d2):
        # a batch decides each trial as a batch of one (B=1) does
        rng = np.random.default_rng(42)
        n = 64
        h = sample_channel(1, 2, rng, size=n)
        tx = rng.integers(0, 4, size=n)
        w, genie = sample_noise_block(NoiseModel.SHARED, 1.43, 1, 2, rng, size=n)
        rho = 7.0
        y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, codebook.codewords[tx]) + w
        b_mdr = batch_mdr(y, h, rho, codebook)
        b_gar = batch_gar(y, h, genie, rho, codebook)
        b_aor = batch_aor(y, h, rho, codebook, NoiseModel.SHARED)
        b_ml = batch_ml(y, h, rho, codebook, NoiseModel.SHARED, table_a143_d2)
        for i in range(n):
            assert b_mdr[i] == mdr_decode(y[i], h[i], rho, codebook)
            assert b_gar[i] == gar_decode(y[i], h[i], genie[i], rho, codebook)
            assert b_aor[i] == aor_decode(y[i], h[i], rho, codebook, NoiseModel.SHARED)
            assert b_ml[i] == ml_decode(
                y[i], h[i], rho, codebook, NoiseModel.SHARED, table_a143_d2
            )


class TestSharedEnergies:
    @pytest.mark.parametrize("code", ["alamouti", "uncoded"])
    def test_products_match_einsum_bitwise_on_real_codebooks(self, code):
        cb = enumerate_codebook(code, "bpsk")
        rng = np.random.default_rng(50)
        for n_r in (1, 2, 3):
            h = sample_channel(n_r, cb.n_t, rng, size=500)
            hc = codeword_products(h, cb)
            assert np.array_equal(hc, np.einsum("brn,knt->bkrt", h, cb.codewords))
            assert np.array_equal(block_products(trial_last(h), cb), trial_last(hc))

    def test_products_are_c_ordered_from_a_strided_view(self, codebook):
        # the engine passes a block of the chunk's trial-last view of h
        h = np.moveaxis(sample_channel(2, 2, np.random.default_rng(55), size=4096), 0, -1)
        hc = block_products(h[..., :2048], codebook)
        assert hc.shape == (len(codebook), 2, codebook.t_s, 2048)
        assert hc.flags.c_contiguous

    @pytest.mark.parametrize("code", ["alamouti", "uncoded"])
    def test_gathered_synthesis_matches_einsum_bitwise(self, code):
        cb = enumerate_codebook(code, "bpsk")
        rng = np.random.default_rng(51)
        n, rho = 500, 7.0
        h = sample_channel(2, cb.n_t, rng, size=n)
        tx = rng.integers(0, len(cb), size=n)
        w, _ = sample_noise_block(NoiseModel.SHARED, 1.2, 2, cb.t_s, rng, size=n)
        gathered = np.sqrt(rho) * codeword_products(h, cb)[np.arange(n), tx] + w
        direct = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, cb.codewords[tx]) + w
        assert np.array_equal(gathered, direct)

    def test_products_close_to_einsum_on_complex_codebooks(self):
        # complex codewords: the ordered broadcast sum may round differently
        # from einsum in the last place; decisions are pinned by the
        # engine-versus-roster test instead
        rng = np.random.default_rng(52)
        for code in ("alamouti", "uncoded"):
            cb = enumerate_codebook(code, "qpsk")
            h = sample_channel(2, cb.n_t, rng, size=500)
            np.testing.assert_allclose(
                codeword_products(h, cb),
                np.einsum("brn,knt->bkrt", h, cb.codewords),
                rtol=0, atol=4e-15,
            )

    def test_products_reject_antenna_mismatch(self, codebook):
        h = np.ones((3, 1, 1), dtype=complex)
        with pytest.raises(ValueError, match="dimension"):
            codeword_products(h, codebook)

    def test_column_sums_match_reduction(self):
        rng = np.random.default_rng(53)
        for n_r in (1, 2, 3, 5):
            r = rng.standard_cauchy((200, 4, n_r, 2)) + 1j * rng.normal(size=(200, 4, n_r, 2))
            e = ResidualEnergies(trial_last(r), NoiseModel.SHARED)
            sq = np.abs(r) ** 2
            assert np.array_equal(e.group, trial_last(sq.sum(axis=2, keepdims=True)))
            iid = ResidualEnergies(trial_last(r), NoiseModel.IID)
            assert np.array_equal(iid.group, trial_last(sq))
            for model, want in ((NoiseModel.SHARED, e), (NoiseModel.IID, iid)):
                # a C-ordered copy, the layout the engine's residuals have
                again = ResidualEnergies(np.ascontiguousarray(trial_last(r)), model)
                assert np.array_equal(again.group, want.group)
                assert np.array_equal(again.total, want.total)
            # entries one at a time in row-major order; a trial-first numpy
            # sum adds the same way below 8 terms and pairwise from 8 on
            rowmajor = sq[:, :, 0, 0].copy()
            for i, t in list(np.ndindex(n_r, 2))[1:]:
                rowmajor += sq[:, :, i, t]
            assert np.array_equal(e.total, rowmajor.T)
            if n_r * 2 < 8:
                assert np.array_equal(e.total, sq.sum(axis=(2, 3)).T)

    def test_metric_table_covers_roster(self):
        assert RECEIVER_KINDS == tuple(METRICS) == ("gar", "mdr", "ml", "aor")
        assert all(callable(METRICS[rx]) for rx in RECEIVER_KINDS)

    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    def test_shared_energies_decide_like_wrappers(self, codebook, table_a143_d2, model):
        rng = np.random.default_rng(54)
        n, rho = 2000, 4.0
        h = sample_channel(1, 2, rng, size=n)
        tx = rng.integers(0, 4, size=n)
        w, genie = sample_noise_block(model, 1.43, 1, 2, rng, size=n)
        y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, codebook.codewords[tx]) + w
        energies = ResidualEnergies(trial_last(batch_residuals(y, h, rho, codebook)), model)
        wrappers = {
            "gar": batch_gar(y, h, genie, rho, codebook),
            "mdr": batch_mdr(y, h, rho, codebook),
            "ml": batch_ml(y, h, rho, codebook, model, table_a143_d2),
            "aor": batch_aor(y, h, rho, codebook, model),
        }
        for rx, want in wrappers.items():
            got = decide(rx, energies, trial_last(genie), table_a143_d2)
            assert np.array_equal(got, want), rx


class TestFirstMinimum:
    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_matches_argmin(self, k):
        rng = np.random.default_rng(60 + k)
        cost = rng.integers(-2, 3, size=(k, 4096)).astype(float)  # exact ties throughout
        hit = rng.random(cost.shape) < 0.1
        cost[hit] = rng.choice([np.inf, -np.inf, 0.0, -0.0, np.nan], size=hit.sum())
        cost[:, 0] = np.nan
        cost[:, 1] = np.inf
        cost[:, 2] = -np.inf
        cost[:, 3] = -0.0
        cost[:2, 4:6] = [[-0.0, 0.0], [0.0, -0.0]]
        cost[-1, 6] = np.nan  # a NaN after the least value still wins
        assert 0.01 < np.isnan(cost).any(axis=0).mean() < 0.9
        got = first_minimum(cost)
        assert got.dtype == np.intp
        assert np.array_equal(got, cost.argmin(axis=0))


class TestMlTableSpec:
    def test_rule(self):
        assert ml_table_spec(NoiseModel.SHARED, 1, 0.5) == IsotropicAmplitudeSpec(0.5, 2)
        assert ml_table_spec(NoiseModel.SHARED, 3, 1.43) == IsotropicAmplitudeSpec(1.43, 6)
        assert ml_table_spec(NoiseModel.IID, 3, 2.0) == IsotropicAmplitudeSpec(2.0, 2)

    def test_check_message(self, table_a143_d2):
        with pytest.raises(ValueError, match=r"table spec .*d=2\) does not match the "
                                             r"sweep \(want .*d=4\)"):
            check_ml_table(table_a143_d2, ml_table_spec(NoiseModel.SHARED, 2, 1.43))
        check_ml_table(table_a143_d2, ml_table_spec(NoiseModel.IID, 2, 1.43))


# The trial-first (B, K, n_r, t_s) decode formulas the trial-axis-last
# kernel replaced, frozen here as its oracle, with the selection each
# applied over codewords.  The kernel's costs are these metrics with ML's
# negated, and every kernel decision is an argmin.

FROZEN_SELECT = {"gar": np.argmin, "mdr": np.argmin, "ml": np.argmax, "aor": np.argmin}


def as_cost(rx, metric):
    return -metric if rx == "ml" else metric

def frozen_products(h, cb):
    c = cb.codewords
    hc = h[:, None, :, 0, None] * c[None, :, None, 0, :]
    for m in range(1, cb.n_t):
        hc += h[:, None, :, m, None] * c[None, :, None, m, :]
    return hc


def frozen_metrics(y, h, genie, rho, cb, model, table):
    """(B, K) metric of every receiver, and under "scale" each one's sum of
    |terms|, the size its rounding error scales with."""
    sq = np.abs(y[:, None, :, :] - np.sqrt(rho) * frozen_products(h, cb)) ** 2
    col = sq[:, :, :1].copy()  # (B, K, 1, t_s): the genie's group axis
    for i in range(1, sq.shape[2]):
        col += sq[:, :, i:i + 1]
    total = sq.sum(axis=(2, 3))
    group = col if model is NoiseModel.SHARED else sq
    with np.errstate(divide="ignore"):
        gar_terms = group / genie[:, None]
        log_group = np.log(group)
        radii = np.sqrt(group)
        by_radius = two_path_log_pdf(table, radii.ravel()).reshape(radii.shape).sum(axis=(2, 3))
    ml_terms = table.log_pdf_of_energy(log_group, group)
    terms = {"gar": gar_terms, "mdr": sq, "ml": ml_terms, "aor": log_group}
    ml = ml_terms.sum(axis=(2, 3))
    exact = total <= 1e-20 * total.max(axis=1, keepdims=True)
    if np.any(exact):
        ml, by_radius = np.where(exact, np.inf, ml), np.where(exact, np.inf, by_radius)
    # ml_by_radius: the same law read by radius through the two-path lookup
    # the table replaced, which shares no rows with the kernel's and which
    # the kernel's ML matches to a tolerance, not bit for bit
    return {"gar": gar_terms.sum(axis=(2, 3)), "mdr": total, "ml": ml,
            "aor": log_group.sum(axis=(2, 3)), "ml_by_radius": by_radius,
            "scale": {rx: np.abs(t).sum(axis=(2, 3)) for rx, t in terms.items()}}


def kernel_metrics(y, h, genie, rho, cb, model, table):
    """(K, B) cost of every receiver, through the trial-axis-last kernel."""
    s = np.sqrt(rho) * block_products(trial_last(h), cb)
    e = ResidualEnergies(trial_last(y) - s, model)
    return {rx: cost(e, trial_last(genie), table)
            for rx, cost in METRICS.items()}


def drawn_block(cb, model, n_r, rho, seed, n=600, noiseless=0, alpha=1.43):
    """Trials drawn as a chunk draws them, the first ``noiseless`` of them
    without noise (exact fits)."""
    rng = np.random.default_rng(seed)
    h = sample_channel(n_r, cb.n_t, rng, size=n)
    tx = rng.integers(0, len(cb), size=n)
    w, genie = sample_noise_block(model, alpha, n_r, cb.t_s, rng, size=n)
    w[:noiseless] = 0.0
    y = np.sqrt(rho) * frozen_products(h, cb)[np.arange(n), tx] + w
    return y, h, genie


class TestKernelOracle:
    @pytest.fixture(scope="class")
    def tables(self):
        specs = (IsotropicAmplitudeSpec(1.43, d) for d in (2, 4, 6, 8))
        return {spec: build_amplitude_table(spec) for spec in specs}

    def cases(self, constellation, n_rs):
        for code in ("alamouti", "uncoded"):
            cb = enumerate_codebook(code, constellation)
            for model in (NoiseModel.SHARED, NoiseModel.IID):
                for n_r in n_rs:
                    for snr_db in (0.0, 20.0):
                        yield cb, model, n_r, 10.0 ** (snr_db / 10.0)

    def test_bpsk_metrics_bit_equal(self, tables):
        for seed, (cb, model, n_r, rho) in enumerate(self.cases("bpsk", (1, 2, 3))):
            table = tables[ml_table_spec(model, n_r, 1.43)]
            y, h, genie = drawn_block(cb, model, n_r, rho, seed, noiseless=5)
            want = frozen_metrics(y, h, genie, rho, cb, model, table)
            got = kernel_metrics(y, h, genie, rho, cb, model, table)
            assert np.isinf(want["ml"][:5]).any(axis=1).all()  # the exact-fit rule fired
            for rx in METRICS:
                assert np.array_equal(got[rx], as_cost(rx, want[rx]).T), (
                    cb.n_t, model, n_r, rho, rx)
            # assert_allclose also requires the same inf and NaN positions
            by_radius = want["ml_by_radius"]
            np.testing.assert_allclose(got["ml"], -by_radius.T, rtol=1e-13)
            assert np.array_equal(got["ml"].argmin(axis=0), by_radius.argmax(axis=1))

    def test_qpsk_decisions_pinned(self, tables):
        for seed, (cb, model, n_r, rho) in enumerate(self.cases("qpsk", (1, 2, 3))):
            table = tables[ml_table_spec(model, n_r, 1.43)]
            y, h, genie = drawn_block(cb, model, n_r, rho, 100 + seed, noiseless=5)
            want = frozen_metrics(y, h, genie, rho, cb, model, table)
            got = kernel_metrics(y, h, genie, rho, cb, model, table)
            for rx, select in FROZEN_SELECT.items():
                assert np.array_equal(got[rx].argmin(axis=0), select(want[rx], axis=1)), rx

    def test_eight_term_sums_keep_decisions(self, tables):
        # n_r = 4 under Alamouti: 8 entries per block, where the kernel's
        # row-major sum and a trial-first pairwise sum may round differently.
        # Terms of both signs (log energies) may cancel, so the bound also
        # scales with the sum of their magnitudes
        cb = enumerate_codebook("alamouti", "bpsk")
        for model in (NoiseModel.SHARED, NoiseModel.IID):
            table = tables[ml_table_spec(model, 4, 1.43)]
            y, h, genie = drawn_block(cb, model, 4, 10.0, 200, n=4000)
            want = frozen_metrics(y, h, genie, 10.0, cb, model, table)
            got = kernel_metrics(y, h, genie, 10.0, cb, model, table)
            for rx, select in FROZEN_SELECT.items():
                cost = as_cost(rx, want[rx]).T
                tol = 1e-13 * (np.abs(cost) + want["scale"][rx].T)  # rtol + atol
                assert np.all(np.abs(got[rx] - cost) <= tol), (model, rx)
                assert np.array_equal(got[rx].argmin(axis=0), select(want[rx], axis=1)), rx


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ml_metric scores the amplitude density, whose r^(d-1) surface factor adds "
    "-(d-1) * sum(log r) to the log-likelihood, so ML is not maximum likelihood"))
@pytest.mark.parametrize("model,n_r", [(NoiseModel.SHARED, 1), (NoiseModel.SHARED, 2),
                                       (NoiseModel.IID, 2)])
def test_ml_decides_as_mdr_under_gaussian_noise(codebook, model, n_r):
    # at alpha = 2 the noise is Gaussian and minimum distance is maximum
    # likelihood, so a true ML rule decides as MDR on every trial (0 dB)
    y, h, _ = drawn_block(codebook, model, n_r, 1.0, 300, n=8192, alpha=2.0)
    e = ResidualEnergies(trial_last(y) - block_products(trial_last(h), codebook), model)
    table = build_amplitude_table(ml_table_spec(model, n_r, 2.0))
    assert np.array_equal(decide("ml", e, table=table), decide("mdr", e))
