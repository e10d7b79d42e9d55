"""Constellations, Alamouti construction, codebooks, channel and synthesis."""

import numpy as np
import pytest

from stablemimo import (
    Codebook,
    NoiseModel,
    alamouti_encode,
    enumerate_codebook,
    sample_channel,
    sample_noise_block,
)
from stablemimo.codes import CONSTELLATIONS
from stablemimo.montecarlo import _chunk_rng
from stablemimo.stable import sample_subordinator

from helpers import codeword_products


def synthesize(h, tx, w, rho, cb):
    """Received blocks as the engine forms them, from the codeword products."""
    return np.sqrt(rho) * codeword_products(h, cb)[np.arange(len(h)), tx] + w


class TestAlamouti:
    def test_bpsk_one_one(self):
        s = alamouti_encode(1.0, 1.0)
        assert np.array_equal(s, np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_orthogonality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s1, s2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            s = alamouti_encode(s1, s2)
            power = abs(s1) ** 2 + abs(s2) ** 2
            assert np.allclose(s @ s.conj().T, power * np.eye(2))
            assert np.linalg.norm(s) ** 2 == pytest.approx(2.0 * power)

    def test_bpsk_differences_scaled_unitary(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        scales = set()
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                d = cb.codewords[i] - cb.codewords[j]
                g = d @ d.conj().T
                c = g[0, 0].real
                assert np.allclose(g, c * np.eye(2), atol=1e-12)
                assert c > 0
                scales.add(round(c, 9))
        assert scales == {4.0, 8.0}


class TestCodebook:
    def test_alamouti_bpsk(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        assert len(cb) == 4
        assert cb.bits_per_codeword == 2
        assert cb.n_t == 2 and cb.t_s == 2

    def test_alamouti_qpsk(self):
        cb = enumerate_codebook("alamouti", "qpsk")
        assert len(cb) == 16
        assert cb.bits_per_codeword == 4

    def test_uncoded_bpsk(self):
        cb = enumerate_codebook("uncoded", "bpsk")
        assert len(cb) == 2
        assert cb.n_t == cb.t_s == 1

    def test_unsupported(self):
        with pytest.raises(ValueError):
            enumerate_codebook("vblast", "bpsk")
        with pytest.raises(ValueError):
            enumerate_codebook("alamouti", "64qam")

    def test_unit_average_energy(self):
        for name, (symbols, _) in CONSTELLATIONS.items():
            assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0), name

    def test_gray_labels_qpsk(self):
        symbols, labels = CONSTELLATIONS["qpsk"]
        # ring neighbours (sorted by angle) differ in exactly one bit
        order = np.argsort(np.angle(symbols))
        for a, b in zip(order, np.roll(order, -1)):
            assert np.sum(labels[a] != labels[b]) == 1

    def test_bit_distance_matrix(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        assert cb.bit_distance[0, 0] == 0
        assert cb.bit_distance.max() == 2
        assert np.array_equal(cb.bit_distance, cb.bit_distance.T)

    def test_rejects_arrays_of_wrong_rank(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        with pytest.raises(ValueError, match=r"got shapes \(4, 4\) and \(4, 2\)"):
            Codebook(cb.codewords.reshape(4, 4), cb.bit_labels)
        with pytest.raises(ValueError, match=r"got shapes \(4, 2, 2\) and \(8,\)"):
            Codebook(cb.codewords, cb.bit_labels.ravel())

    def test_rejects_count_not_two_to_the_bits(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        with pytest.raises(ValueError, match="2 codewords for 2-bit labels"):
            Codebook(cb.codewords[:2], cb.bit_labels[:2])


class TestSynthesis:
    def test_noiseless(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        rng = np.random.default_rng(1)
        h = sample_channel(2, 2, rng, size=1)
        y = synthesize(h, [3], np.zeros((1, 2, 2)), 1.0, cb)
        assert np.allclose(y[0], h[0] @ cb.codewords[3])

    def test_zero_rho(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        w = np.random.default_rng(2).normal(size=(1, 1, 2)) * (1 + 1j)
        assert np.array_equal(synthesize(np.ones((1, 1, 2)), [0], w, 0.0, cb), w)

    def test_scalar_scaling(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        s = alamouti_encode(1.0, 1.0)
        y = synthesize(np.eye(2)[None], [0], np.zeros((1, 2, 2)), 4.0, cb)
        assert np.allclose(y[0], 2.0 * s)

    def test_dimension_mismatch(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        with pytest.raises(ValueError, match="dimension"):
            synthesize(np.ones((1, 1, 3)), [0], np.zeros((1, 1, 2)), 1.0, cb)


class TestChannel:
    def test_statistics(self):
        rng = np.random.default_rng(3)
        h = sample_channel(1, 1, rng, size=10**6).ravel()
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
        corr = np.corrcoef(h.real, h.imag)[0, 1]
        assert abs(corr) < 0.01

    def test_sample_trial_shapes(self):
        cb = enumerate_codebook("alamouti", "bpsk")
        rng = np.random.default_rng(4)
        # one trial (B=1) drawn in the engine's order: H, tx, W
        for model, genie_shape in ((NoiseModel.SHARED, (1, 1, 2)), (NoiseModel.IID, (1, 3, 2))):
            h = sample_channel(3, cb.n_t, rng, size=1)
            tx = rng.integers(0, len(cb), size=1)
            w, genie = sample_noise_block(model, 0.9, 3, cb.t_s, rng, size=1)
            assert h.shape == (1, 3, 2)
            assert w.shape == (1, 3, 2)
            assert genie.shape == genie_shape
            assert synthesize(h, tx, w, 10.0, cb).shape == (1, 3, 2)


def frozen_channel(n_r, n_t, rng, size):
    """The reference construction of H: a complex sum, then a division."""
    shape = (size, n_r, n_t)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


def frozen_noise_block(model, alpha, n_r, t_s, rng, size):
    """The reference construction of W: sqrt(A) times a complex Gaussian."""
    a_shape = (size, 1 if model is NoiseModel.SHARED else n_r, t_s)
    a = np.ones(a_shape) if alpha == 2.0 else sample_subordinator(alpha, rng, size=a_shape)
    shape = (size, n_r, t_s)
    return np.sqrt(a) * (rng.normal(size=shape) + 1j * rng.normal(size=shape)), a


class TestDrawConstruction:
    """The samplers write each part of their complex draws in place; every
    bit and the draws they consume match the complex arithmetic."""

    @pytest.mark.parametrize("n_r", [1, 2])
    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    @pytest.mark.parametrize("alpha", [0.5, 1.43, 2.0])
    def test_bit_identical_to_complex_arithmetic(self, alpha, model, n_r):
        cb = enumerate_codebook("alamouti", "bpsk")
        for key in range(20):
            new, old = _chunk_rng(7, key, 3 * key), _chunk_rng(7, key, 3 * key)
            # the engine's order: H, tx, W; 1000 trials end off a vector width
            got = (sample_channel(n_r, cb.n_t, new, size=1000),
                   new.integers(0, len(cb), size=1000),
                   *sample_noise_block(model, alpha, n_r, cb.t_s, new, size=1000))
            want = (frozen_channel(n_r, cb.n_t, old, 1000),
                    old.integers(0, len(cb), size=1000),
                    *frozen_noise_block(model, alpha, n_r, cb.t_s, old, 1000))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), key
            assert repr(new.bit_generator.state) == repr(old.bit_generator.state)
