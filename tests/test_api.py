"""The package's public names and import path."""

import os
import subprocess
import sys
from pathlib import Path

import stablemimo

# the per-trial decode and synthesis API, replaced by the batched functions;
# the per-receiver gains, replaced by log_coding_gain; the gap dict, a
# difference of two snr_at_ber readouts; and the spec wrapper, a call of
# IsotropicAmplitudeSpec(alpha, d)
REMOVED = ("TrialContext", "sample_trial", "synthesize_rx", "ReceiverKind",
           "gar_decode", "mdr_decode", "ml_decode", "aor_decode",
           "coding_gain_gar", "coding_gain_mdr", "log_coding_gain_gar",
           "log_coding_gain_mdr", "compare_receivers_at_ber", "noise_amplitude_spec")


def test_every_exported_name_resolves():
    missing = [name for name in stablemimo.__all__ if not hasattr(stablemimo, name)]
    assert missing == []
    assert len(set(stablemimo.__all__)) == len(stablemimo.__all__)


def test_removed_scalar_names_not_exported():
    assert not set(REMOVED) & set(stablemimo.__all__)
    assert not any(hasattr(stablemimo, name) for name in REMOVED)


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.interpolate/optimize/integrate pull in scipy.linalg and BLAS, and
    # the process pool pulls in multiprocessing; only call sites that need
    # them import them
    code = (
        "import sys, stablemimo\n"
        "heavy = ('scipy.interpolate', 'scipy.optimize', 'scipy.integrate',\n"
        "         'concurrent.futures.process', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    src = str(Path(stablemimo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    # no scipy module at all on the run path: the package and its CLI, the ML
    # tables of fig4 (d = 4) and fig6 model II (d = 2), a preset's theory
    # curves; no process pool in a 1-worker sweep, and no executor in a
    # 2-worker one
    code = (
        "import sys, stablemimo, stablemimo.cli\n"
        "from stablemimo import cliio, montecarlo\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "fig4, fig6 = cliio.resolve_preset('fig4'), cliio.resolve_preset('fig6')\n"
        "assert fig6.configs[1].model.value == 'II'\n"
        "for cfg in (fig4.configs[0], fig6.configs[1]):\n"
        "    montecarlo.build_ml_table(cfg)\n"
        "print(loaded())\n"
        "cliio.theory_overlays(fig4.configs, fig4.theory_receivers)\n"
        "print(loaded())\n"
        "montecarlo.run_sweep(montecarlo.SimConfig(snr_grid_db=(10.0,), receivers=('mdr',),\n"
        "                                          max_trials=100, workers=1))\n"
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multi'))))\n"
        "montecarlo.run_sweep(montecarlo.SimConfig(snr_grid_db=(10.0,), receivers=('mdr',),\n"
        "                                          max_trials=100, workers=2))\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]"] * 5
