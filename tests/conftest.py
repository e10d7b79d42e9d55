"""Shared fixtures: cached density tables and the acceptance sweep curves."""

import numpy as np
import pytest

from stablemimo import NoiseModel, SimConfig, build_amplitude_table, run_sweep
from stablemimo.amplitude import IsotropicAmplitudeSpec


@pytest.fixture(scope="session")
def table_a05_d2():
    return build_amplitude_table(IsotropicAmplitudeSpec(0.5, 2))


@pytest.fixture(scope="session")
def table_a05_d4():
    return build_amplitude_table(IsotropicAmplitudeSpec(0.5, 4))


@pytest.fixture(scope="session")
def table_a143_d2():
    return build_amplitude_table(IsotropicAmplitudeSpec(1.43, 2))


@pytest.fixture(scope="session")
def curve_2x1_alpha05(table_a05_d2):
    """Alamouti 2x1, alpha=0.5, shared-subordinator noise, BPSK, 10-50 dB."""
    cfg = SimConfig(
        model=NoiseModel.SHARED,
        alpha=0.5,
        n_r=1,
        snr_grid_db=tuple(np.arange(10.0, 51.0, 5.0)),
        master_seed=2024_05_01,
        min_errors=3000,
        max_trials=6_000_000,
        workers=2,
    )
    return run_sweep(cfg, ml_table=table_a05_d2)


@pytest.fixture(scope="session")
def curve_2x2_alpha05_shared(table_a05_d4):
    """Alamouti 2x2, alpha=0.5, shared-subordinator noise, 10-50 dB."""
    cfg = SimConfig(
        model=NoiseModel.SHARED,
        alpha=0.5,
        n_r=2,
        snr_grid_db=tuple(np.arange(10.0, 51.0, 5.0)),
        master_seed=2024_05_02,
        min_errors=1000,
        max_trials=2_000_000,
        workers=2,
    )
    return run_sweep(cfg, ml_table=table_a05_d4)


@pytest.fixture(scope="session")
def curve_2x2_alpha05_iid(table_a05_d2):
    """Alamouti 2x2, alpha=0.5, i.i.d. noise, 10-40 dB."""
    cfg = SimConfig(
        model=NoiseModel.IID,
        alpha=0.5,
        n_r=2,
        snr_grid_db=tuple(np.arange(10.0, 41.0, 5.0)),
        master_seed=2024_05_03,
        min_errors=500,
        max_trials=1_500_000,
        workers=2,
    )
    return run_sweep(cfg, ml_table=table_a05_d2)
