"""Channel model, constellations and space-time codeword construction.

Received blocks follow Y = sqrt(rho) * H * S + W with H an N_r x N_t
Rayleigh-fading matrix (i.i.d. circularly symmetric complex Gaussian,
unit variance per entry), S drawn uniformly from an enumerated codeword
set, and W an impulsive noise block.  Constellations are normalized to
unit average symbol energy so rho is the per-antenna SNR scale.  A
Codebook is its codeword matrices and their Gray bit labels; the antenna
count, block length and bits per codeword are read from their shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stable import complex_normal

_SQRT2 = np.sqrt(2.0)

# Gray-labelled unit-energy constellations: (symbols, bit labels), row i
# labelling symbol i
CONSTELLATIONS = {
    "bpsk": (
        np.array([1.0 + 0.0j, -1.0 + 0.0j]),
        np.array([[0], [1]], dtype=np.uint8),
    ),
    "qpsk": (
        np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=complex) / _SQRT2,
        np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8),
    ),
}


@dataclass(frozen=True)
class Codebook:
    """Enumerated space-time code: every codeword matrix and its bit label."""

    codewords: np.ndarray  # (n_codewords, n_t, t_s) complex
    bit_labels: np.ndarray  # (n_codewords, bits_per_codeword) uint8

    def __post_init__(self):
        if self.codewords.ndim != 3 or self.bit_labels.ndim != 2:
            raise ValueError(
                f"want codewords (n_codewords, n_t, t_s) and bit_labels "
                f"(n_codewords, bits), got shapes {self.codewords.shape} and "
                f"{self.bit_labels.shape}"
            )
        if len(self.codewords) != 2**self.bits_per_codeword:
            raise ValueError(
                f"{len(self.codewords)} codewords for "
                f"{self.bits_per_codeword}-bit labels; want 2**bits"
            )
        # pairwise Hamming distances, used to count bit errors per decision
        diff = self.bit_labels[:, None, :] != self.bit_labels[None, :, :]
        object.__setattr__(self, "bit_distance", diff.sum(axis=2))

    @property
    def n_t(self) -> int:
        return self.codewords.shape[1]

    @property
    def t_s(self) -> int:
        return self.codewords.shape[2]

    @property
    def bits_per_codeword(self) -> int:
        return self.bit_labels.shape[1]

    def __len__(self):
        return len(self.codewords)


def alamouti_encode(s1: complex, s2: complex) -> np.ndarray:
    """2x2 Alamouti codeword [[s1, -conj(s2)], [s2, conj(s1)]]."""
    return np.array(
        [[s1, -np.conj(s2)], [s2, np.conj(s1)]], dtype=complex
    )


def enumerate_codebook(kind: str, constellation: str = "bpsk") -> Codebook:
    """Enumerate all codewords of the given code over a constellation.

    Supported kinds: "alamouti" (2x2 orthogonal block code) and "uncoded"
    (single antenna, one symbol per block).
    """
    try:
        symbols, labels = CONSTELLATIONS[constellation]
    except KeyError:
        raise ValueError(f"unsupported constellation: {constellation!r}") from None
    m = len(symbols)

    if kind == "alamouti":
        codewords = np.empty((m * m, 2, 2), dtype=complex)
        bit_labels = np.empty((m * m, 2 * labels.shape[1]), dtype=np.uint8)
        for i in range(m):
            for j in range(m):
                codewords[i * m + j] = alamouti_encode(symbols[i], symbols[j])
                bit_labels[i * m + j] = np.concatenate([labels[i], labels[j]])
        return Codebook(codewords, bit_labels)
    if kind == "uncoded":
        return Codebook(symbols.reshape(m, 1, 1).astype(complex), labels.copy())
    raise ValueError(f"unsupported code kind: {kind!r}")


def sample_channel(n_r: int, n_t: int, rng: np.random.Generator, size=None):
    """I.i.d. CN(0, 1) channel entries (variance 1/2 per real part)."""
    shape = (n_r, n_t) if size is None else (size, n_r, n_t)
    return complex_normal(rng, shape, 1.0 / _SQRT2)  # as (normal + 1j*normal) / sqrt(2)


def block_products(h, codebook: Codebook) -> np.ndarray:
    """Noiseless blocks H_b C_k of every trial b under every codeword k,
    trial axis last: h (n_r, n_t, B) -> (K, n_r, t_s, B), C-ordered.

    Terms are summed over transmit antennas in order.  A decode block forms
    these once: the received block of trial b is sqrt(rho) * HC[tx_b, ..., b]
    + W_b, and every receiver's residuals are Y_b - sqrt(rho) * HC[k, ..., b].
    """
    c = codebook.codewords
    if h.shape[1] != codebook.n_t:
        raise ValueError(
            f"dimension mismatch: h has {h.shape[1]} transmit antennas, "
            f"codewords have {codebook.n_t}"
        )
    hc = np.multiply(h[None, :, 0, None, :], c[:, None, 0, :, None], order="C")
    for m in range(1, codebook.n_t):
        hc += h[None, :, m, None, :] * c[:, None, m, :, None]
    return hc
