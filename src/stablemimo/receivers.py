"""Decision rules mapping a received block to a codeword index.

Every rule is a function of the residual energies

    sq[b, k, i, t] = |Y_b - sqrt(rho) H_b C_k|^2  at entry (i, t)

of trial b against codeword k.  ``ResidualEnergies`` holds ``sq`` for a
batch of trials and forms its per-column sums (over receive antennas)
and per-codeword totals once, on first use, so a chunk decoded by the
whole roster builds each of them only once.  ``METRICS`` maps each
receiver name to its metric over those energies and to the selection
(argmin or argmax over codewords) that turns the metric into a decision:

* GAR  - genie-aided: whitens the noise with the (normally unknown)
  subordinator values, then minimizes Euclidean distance.  The genie
  record's shape selects the dependence structure: per-column values
  whiten column-wise, per-entry values whiten entry-wise (Hadamard).
* MDR  - plain minimum Euclidean distance, optimal only for Gaussian noise.
* ML   - maximizes summed log amplitude densities of residual norms,
  evaluated from a cached density table (per column for the shared
  model, per entry for the i.i.d. model).
* AOR  - minimizes summed log residual norms; needs no noise parameters.

All rules are deterministic; exact metric ties resolve to the lowest
codeword index.  A codeword whose residual vanishes identically wins
immediately (for ML this replaces the ill-defined log of a zero-radius
amplitude density; for AOR it is the natural -inf metric).

The ``batch_*`` functions decode stacked trials from (y, h) and are thin
wrappers over the same metrics the Monte Carlo engine applies to a
chunk's shared energies.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .amplitude import AmplitudePdfTable
from .codes import Codebook, codeword_products
from .stable import NoiseModel


def ml_table_dimension(model: NoiseModel, n_r: int) -> int:
    """Real dimensions of one ML density argument: a column of n_r complex
    entries under the shared model, a single complex entry under i.i.d."""
    return 2 * n_r if model is NoiseModel.SHARED else 2


def check_ml_table(table: AmplitudePdfTable, model: NoiseModel, n_r: int):
    want = ml_table_dimension(model, n_r)
    if table.spec.d != want:
        raise ValueError(
            f"table dimension {table.spec.d} does not match model "
            f"{model.value} with n_r={n_r} (want d={want})"
        )


def residuals(y, products, rho):
    """Y - sqrt(rho) H C_k from the codeword products H C_k.

    y: (B, n_r, t_s), products: (B, K, n_r, t_s) -> (B, K, n_r, t_s).
    """
    return y[:, None, :, :] - np.sqrt(rho) * products


class ResidualEnergies:
    """Squared residual magnitudes of a batch against every codeword."""

    def __init__(self, r):
        self.sq = np.abs(r) ** 2  # (B, K, n_r, t_s)

    @cached_property
    def column(self):
        """Per-column energies, summed over receive antennas in order: (B, K, t_s)."""
        col = self.sq[:, :, 0, :].copy()
        for i in range(1, self.sq.shape[2]):
            col += self.sq[:, :, i, :]
        return col

    @cached_property
    def total(self):
        """Whole-block energies: (B, K)."""
        return self.sq.sum(axis=(2, 3))


def gar_metric(e: ResidualEnergies, genie, model, table):
    if np.ndim(genie) == 2:  # (B, t_s): shared subordinator per column
        return (e.column / genie[:, None, :]).sum(axis=2)
    if np.ndim(genie) == 3:  # (B, n_r, t_s): per-entry
        return (e.sq / genie[:, None, :, :]).sum(axis=(2, 3))
    raise ValueError("genie record must be per-column or per-entry")


def mdr_metric(e: ResidualEnergies, genie, model, table):
    return e.total


def aor_metric(e: ResidualEnergies, genie, model, table):
    with np.errstate(divide="ignore"):
        if model is NoiseModel.SHARED:
            return np.log(e.column).sum(axis=2)
        return np.log(e.sq).sum(axis=(2, 3))


def ml_metric(e: ResidualEnergies, genie, model, table):
    radii = np.sqrt(e.column if model is NoiseModel.SHARED else e.sq)
    with np.errstate(divide="ignore"):
        log_f = table.log_pdf(radii.ravel()).reshape(radii.shape)
    metric = log_f.sum(axis=tuple(range(2, log_f.ndim)))
    # a codeword that fits the block exactly wins outright; the relative
    # threshold absorbs float cancellation noise in the residual
    exact = e.total <= 1e-20 * e.total.max(axis=1, keepdims=True)
    if np.any(exact):
        metric = np.where(exact, np.inf, metric)
    return metric


# receiver name -> (metric over residual energies, selection over codewords)
METRICS = {
    "gar": (gar_metric, np.argmin),
    "mdr": (mdr_metric, np.argmin),
    "ml": (ml_metric, np.argmax),
    "aor": (aor_metric, np.argmin),
}
RECEIVER_KINDS = tuple(METRICS)


def decide(name: str, energies: ResidualEnergies, genie=None,
           model: NoiseModel = NoiseModel.SHARED,
           table: AmplitudePdfTable | None = None):
    """Codeword index per trial chosen by receiver ``name``: (B,)."""
    metric, select = METRICS[name]
    return select(metric(energies, genie, model, table), axis=1)


def batch_residuals(y, h, rho, codebook: Codebook):
    """Residuals Y - sqrt(rho) H S for every codeword.

    y: (B, n_r, t_s), h: (B, n_r, n_t) -> (B, K, n_r, t_s).
    """
    return residuals(y, codeword_products(h, codebook), rho)


def _energies(y, h, rho, codebook: Codebook) -> ResidualEnergies:
    return ResidualEnergies(batch_residuals(y, h, rho, codebook))


def batch_mdr(y, h, rho, codebook: Codebook):
    return decide("mdr", _energies(y, h, rho, codebook))


def batch_gar(y, h, genie, rho, codebook: Codebook):
    return decide("gar", _energies(y, h, rho, codebook), genie)


def batch_aor(y, h, rho, codebook: Codebook, model: NoiseModel):
    return decide("aor", _energies(y, h, rho, codebook), model=model)


def batch_ml(y, h, rho, codebook: Codebook, model: NoiseModel, table: AmplitudePdfTable):
    check_ml_table(table, model, y.shape[1])
    return decide("ml", _energies(y, h, rho, codebook), model=model, table=table)
