"""Decision rules mapping a received block to a codeword index.

Every rule is a function of the residual energies

    sq[k, i, t, b] = |Y_b - sqrt(rho) H_b C_k|^2  at entry (i, t)

of trial b against codeword k, with the trial axis last so that each
elementwise step runs one long inner loop per (k, i, t) rather than a
two-element loop per trial.  The Monte Carlo engine decodes a chunk in
blocks of ``montecarlo.DECODE_ENTRIES`` (2^15) residual entries to keep
temporaries small; each decision depends only on its own trial, so the
block size never changes a result.  ``ResidualEnergies`` forms a block's
per-group energies, their logs and per-codeword totals once, when built,
and the whole roster decodes from them.  A group is the entries that
share a subordinator: a column (summed over receive antennas) under
model I, a single entry under model II.  Group energies and the genie record share one layout,
(K, g, t_s, B) and (g, t_s, B): g = 1 under model I, g = n_r under
model II.
``METRICS`` maps each receiver name to its cost over those energies; the
decision is the codeword of least cost:

* GAR  - genie-aided: whitens each group's energy with its (normally
  unknown) subordinator value, then minimizes Euclidean distance.  The
  genie record has the groups' shape.
* MDR  - plain minimum Euclidean distance, optimal only for Gaussian noise.
* ML   - minimizes the negated sum of log amplitude densities of the
  groups' residual norms, read from a density table of the law
  ``ml_table_spec`` names at the groups' log energies.
* AOR  - minimizes the summed log energies of the groups; needs no noise
  parameters.

Sums add one term at a time: column sums over receive antennas in order,
sums over the (n_r, t_s) entries in row-major order, ((s00 + s01) + s10)
+ s11 for 2x2.  A trial-first numpy ``sum(axis=(2, 3))`` adds the same way
below 8 terms but pairwise from 8 on, so where n_r * t_s >= 8 (no preset)
a metric may differ from it in the last place.

All rules are deterministic.  ``decide`` selects with ``first_minimum``,
which returns what ``argmin`` over codewords returns: exact cost ties
resolve to the lowest codeword index, and a trial with a NaN cost takes
its first NaN codeword.  A codeword whose residual vanishes identically
wins immediately with cost -inf (for ML this replaces the ill-defined log
of a zero-radius amplitude density; for AOR it is the natural log of
zero).

The ``batch_*`` functions decode stacked trials from trial-first (y, h)
arrays: they move the trial axis last and apply the same costs.
"""

from __future__ import annotations

import numpy as np

from .amplitude import AmplitudePdfTable, IsotropicAmplitudeSpec
from .codes import Codebook, block_products
from .stable import NoiseModel


def ml_table_spec(model: NoiseModel, n_r: int, alpha: float) -> IsotropicAmplitudeSpec:
    """Amplitude law of one ML density argument: the norm of a column of
    n_r complex noise entries under the shared model (d = 2 n_r), of a
    single complex entry under i.i.d. (d = 2)."""
    return IsotropicAmplitudeSpec(alpha, 2 * n_r if model is NoiseModel.SHARED else 2)


def check_ml_table(table: AmplitudePdfTable, want: IsotropicAmplitudeSpec):
    if table.spec != want:
        raise ValueError(f"table spec {table.spec} does not match the sweep (want {want})")


class ResidualEnergies:
    """Energies of a block of trials' residuals r (K, n_r, t_s, B) against
    every codeword, trial axis last.  group is the energy per subordinator
    group, (K, g, t_s, B): column sums over receive antennas, in order,
    with g = 1 under model I; the squared residuals, g = n_r, under model
    II.  log_group is its log, -inf where a group's residual vanishes,
    read by the ML and AOR costs.  total is the whole-block energy:
    (K, B)."""

    def __init__(self, r, model: NoiseModel):
        # hypot, then square (the ops of abs(r) ** 2); re**2 + im**2 rounds differently
        sq = np.abs(r)
        np.square(sq, out=sq)
        if model is NoiseModel.IID:
            self.group = sq
        else:
            k, n_r, t_s, b = sq.shape
            self.group = entry_sum(sq.reshape(k, n_r, t_s * b)).reshape(k, 1, t_s, b)
        self.total = entry_sum(sq)
        with np.errstate(divide="ignore"):  # log 0 = -inf: an exact fit
            self.log_group = np.log(self.group)


def entry_sum(a):
    """Sum of (K, ..., B) over the axes between codeword and trial, one
    entry at a time in row-major order: (K, B)."""
    flat = a.reshape(a.shape[0], -1, a.shape[-1])
    out = flat[:, 0].copy()
    for j in range(1, flat.shape[1]):
        out += flat[:, j]
    return out


def gar_metric(e: ResidualEnergies, genie, table):
    if np.shape(genie) != e.group.shape[1:]:
        raise ValueError(f"genie record of shape {np.shape(genie)} does not "
                         f"match the noise groups {e.group.shape[1:]}")
    return entry_sum(e.group / genie)


def mdr_metric(e: ResidualEnergies, genie, table):
    return e.total


def aor_metric(e: ResidualEnergies, genie, table):
    return entry_sum(e.log_group)


def ml_metric(e: ResidualEnergies, genie, table):
    cost = -entry_sum(table.log_pdf_of_energy(e.log_group, e.group))
    # a codeword that fits the block exactly wins outright; the relative
    # threshold absorbs float cancellation noise in the residual
    cost[e.total <= 1e-20 * e.total.max(axis=0)] = -np.inf
    return cost


# receiver name -> cost over residual energies, least cost wins
METRICS = {"gar": gar_metric, "mdr": mdr_metric, "ml": ml_metric, "aor": aor_metric}
RECEIVER_KINDS = tuple(METRICS)


def decide(name: str, energies: ResidualEnergies, genie=None,
           table: AmplitudePdfTable | None = None):
    """Codeword index per trial chosen by receiver ``name``: (B,).  The genie
    record has the trial axis last."""
    return first_minimum(METRICS[name](energies, genie, table))


def first_minimum(cost):
    """cost.argmin(axis=0) of a (K, B) cost: the least cost's index, the
    lowest on ties, and the first NaN's where a trial has one.  The index
    is the count of leading codewords that miss the minimum, formed with
    branch-free passes over the trial axis; argmin runs one K-element loop
    per trial, and masked writes stall on data-dependent branches."""
    best = cost.min(axis=0)  # NaN where a trial has one
    missed = cost[0] != best
    choice = missed.astype(np.intp)
    for k in range(1, len(cost) - 1):  # the last codeword is the only one left
        missed &= cost[k] != best
        choice += missed
    nan = np.isnan(best)
    if nan.any():
        choice[nan] = np.isnan(cost[:, nan]).argmax(axis=0)
    return choice


def _residuals(y, h, rho, codebook: Codebook):
    """Y - sqrt(rho) H S of trial-first y and h, trial axis last: (K, n_r, t_s, B)."""
    return np.moveaxis(y, 0, -1) - np.sqrt(rho) * block_products(np.moveaxis(h, 0, -1), codebook)


def batch_residuals(y, h, rho, codebook: Codebook):
    """Residuals Y - sqrt(rho) H S for every codeword.

    y: (B, n_r, t_s), h: (B, n_r, n_t) -> (B, K, n_r, t_s).
    """
    return np.moveaxis(_residuals(y, h, rho, codebook), -1, 0)


def _batch(name, y, h, rho, codebook: Codebook, model: NoiseModel, genie=None, table=None):
    return decide(name, ResidualEnergies(_residuals(y, h, rho, codebook), model), genie, table)


def batch_mdr(y, h, rho, codebook: Codebook):
    # the block total does not depend on the grouping
    return _batch("mdr", y, h, rho, codebook, NoiseModel.SHARED)


def batch_gar(y, h, genie, rho, codebook: Codebook):
    """The genie record (B, g, t_s) names the model by its group axis: g = 1
    (one subordinator per column) is model I, g = n_r (one per entry) model
    II.  At n_r = 1 both groupings decide alike."""
    if np.ndim(genie) != 3:
        raise ValueError(f"genie record must be (B, g, t_s), got shape {np.shape(genie)}")
    model = NoiseModel.SHARED if np.shape(genie)[1] == 1 else NoiseModel.IID
    return _batch("gar", y, h, rho, codebook, model, genie=np.moveaxis(genie, 0, -1))


def batch_aor(y, h, rho, codebook: Codebook, model: NoiseModel):
    return _batch("aor", y, h, rho, codebook, model)


def batch_ml(y, h, rho, codebook: Codebook, model: NoiseModel, table: AmplitudePdfTable):
    check_ml_table(table, ml_table_spec(model, y.shape[1], table.spec.alpha))
    return _batch("ml", y, h, rho, codebook, model, table=table)
