"""The package's public names."""

import stablemimo

# the per-trial decode and synthesis API, replaced by the batched functions
REMOVED = ("TrialContext", "sample_trial", "synthesize_rx", "ReceiverKind",
           "gar_decode", "mdr_decode", "ml_decode", "aor_decode")


def test_every_exported_name_resolves():
    missing = [name for name in stablemimo.__all__ if not hasattr(stablemimo, name)]
    assert missing == []
    assert len(set(stablemimo.__all__)) == len(stablemimo.__all__)


def test_removed_scalar_names_not_exported():
    assert not set(REMOVED) & set(stablemimo.__all__)
    assert not any(hasattr(stablemimo, name) for name in REMOVED)
