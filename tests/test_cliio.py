"""Config schema, CSV emission, presets, manifests, and the CLI verbs."""

import json
import math
import os

import numpy as np
import pytest

from stablemimo import (
    NoiseModel,
    PRESETS,
    SimConfig,
    emit_csv,
    parse_config,
    pep_asymptote,
    run_preset,
    run_sweep,
    serialize_config,
    theory_curve,
)
from stablemimo import cliio
from stablemimo.cli import main
from stablemimo.cliio import CSV_HEADER, ConfigError, resolve_preset

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_mini.csv")


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config("alpha = 0.5\ncode = alamouti\n")
        assert cfg.alpha == 0.5
        assert cfg.model is NoiseModel.SHARED
        assert cfg.n_r == 1
        assert cfg.receivers == ("gar", "mdr", "ml", "aor")
        assert cfg.min_errors == 200

    def test_round_trip(self):
        for cfg in (
            parse_config(
                "model = II\nalpha = 1.43\nnr = 2\nsnr_db = 5, 10, 15\n"
                "receivers = gar, aor\nseed = 9\nworkers = 3\n"
            ),
            # more digits than a %g rendering keeps
            SimConfig(alpha=0.1234567, snr_grid_db=(10.123456789, 20)),
        ):
            assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_live_on_simconfig(self):
        assert parse_config("") == SimConfig()
        assert SimConfig().snr_grid_db == tuple(np.arange(10.0, 51.0, 5.0))

    def test_comments_and_blanks(self):
        cfg = parse_config(
            "# scenario\n\nalpha = 0.9   # heavy noise\n  \nnr = 2\n"
        )
        assert cfg.alpha == 0.9
        assert cfg.n_r == 2

    def test_invalid_alpha_names_field(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha = 2.5\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("alpha = 1.0\nsnr = 10\n")

    def test_bad_value_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("alpha = fast\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("alpha = 1.0\nalpha = 0.5\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("alpha 1.0\n")

    def test_nt_consistency(self):
        assert parse_config("alpha = 1.0\nnt = 2\n").n_t == 2
        with pytest.raises(ConfigError, match="nt"):
            parse_config("alpha = 1.0\nnt = 4\n")

    def test_model_value(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config("model = III\n")


class TestEmitCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_sorted_rows(self, tmp_path):
        curve = theory_curve("mdr", NoiseModel.SHARED, 2, 1, 0.5, (30.0, 10.0, 20.0))
        curve2 = theory_curve("gar", NoiseModel.SHARED, 2, 1, 0.5, (20.0, 10.0))
        path = tmp_path / "out.csv"
        emit_csv([curve, curve2], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        keys = [(l.split(",")[1], float(l.split(",")[6])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_theory_rows_match_asymptote_to_printed_precision(self, tmp_path):
        grid = (10.0, 20.0, 30.0)
        curve = theory_curve("gar", NoiseModel.SHARED, 2, 1, 0.5, grid)
        path = tmp_path / "theory.csv"
        emit_csv(curve, path)
        asym = pep_asymptote("gar", NoiseModel.SHARED, 2, 1, 0.5)
        rows = path.read_text().splitlines()[1:]
        for row, snr in zip(rows, grid):
            fields = row.split(",")
            assert fields[0] == "theory"
            assert fields[10] == "" and fields[11] == ""
            expected = float(asym.evaluate(10.0 ** (snr / 10.0)))
            assert float(fields[7]) == pytest.approx(expected, rel=1e-8)

    def test_golden_file_stability(self, tmp_path):
        cfg = SimConfig(
            model=NoiseModel.SHARED,
            alpha=0.5,
            n_r=1,
            snr_grid_db=(10.0, 20.0),
            receivers=("gar", "mdr", "aor"),
            master_seed=42,
            min_errors=10,
            max_trials=8192,
            workers=1,
        )
        curve = run_sweep(cfg)
        overlays = [
            theory_curve(rx, cfg.model, cfg.n_t, cfg.n_r, cfg.alpha, cfg.snr_grid_db)
            for rx in ("gar", "mdr")
        ]
        path = tmp_path / "mini.csv"
        emit_csv([curve] + overlays, path)
        assert path.read_bytes() == open(GOLDEN, "rb").read()


class TestPresets:
    def test_all_presets_resolve_and_validate(self):
        assert len(PRESETS) == 6
        for name in PRESETS:
            preset = resolve_preset(name)
            for cfg in preset.configs:
                assert isinstance(cfg, SimConfig)

    def test_aliases(self):
        assert resolve_preset("fig1").name == "fig1_alamouti_2x1_alpha05"
        assert resolve_preset("fig5").name == "fig5_model_compare_alpha05"

    def test_fig1_matches_handwritten_config(self):
        preset = resolve_preset("fig1")
        (cfg,) = preset.configs
        by_hand = parse_config(
            "model = I\nalpha = 0.5\nnt = 2\nnr = 1\ncode = alamouti\n"
            "constellation = bpsk\n"
            "snr_db = 10, 15, 20, 25, 30, 35, 40, 45, 50\n"
            "receivers = gar, mdr, ml, aor\n"
            f"seed = {cfg.master_seed}\n"
            f"max_trials = {cfg.max_trials}\n"
        )
        assert cfg == by_hand

    def test_fig5_covers_both_models(self):
        preset = resolve_preset("fig5")
        models = {cfg.model for cfg in preset.configs}
        assert models == {NoiseModel.SHARED, NoiseModel.IID}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            resolve_preset("fig99")


@pytest.fixture(scope="module")
def preset_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("preset_run")
    overrides = {"min_errors": 5, "max_trials": 4096, "seed": 7}
    paths = run_preset("fig1", overrides, out_dir=str(out))
    return paths, overrides


class TestRunPreset:
    def test_artifacts_exist(self, preset_artifacts):
        paths, _ = preset_artifacts
        for key in ("sim", "theory", "manifest"):
            assert os.path.exists(paths[key])
        sim_lines = open(paths["sim"]).read().splitlines()
        assert sim_lines[0] == CSV_HEADER
        # 4 receivers x 9 SNR points
        assert len(sim_lines) == 1 + 36

    def test_manifest_complete(self, preset_artifacts):
        paths, overrides = preset_artifacts
        manifest = json.load(open(paths["manifest"]))
        assert manifest["preset"] == "fig1_alamouti_2x1_alpha05"
        assert manifest["overrides"] == {
            k: overrides[k] for k in sorted(overrides)
        }
        assert manifest["runs"][0]["seed"] == 7
        stopping = manifest["runs"][0]["stopping"]
        assert set(stopping) == {"gar", "mdr", "ml", "aor"}
        assert all(
            rec["stopped_on"] in ("errors", "trials")
            for recs in stopping.values()
            for rec in recs
        )

    def test_seed_override_changes_sim_not_theory(self, preset_artifacts, tmp_path):
        paths, overrides = preset_artifacts
        other = dict(overrides, seed=8)
        paths2 = run_preset("fig1", other, out_dir=str(tmp_path))
        assert open(paths["sim"]).read() != open(paths2["sim"]).read()
        assert open(paths["theory"]).read() == open(paths2["theory"]).read()

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overrides"):
            run_preset("fig1", {"snr": 1}, out_dir=str(tmp_path))
        # schema keys outside the override set are rejected too
        with pytest.raises(ValueError, match="overrides"):
            run_preset("fig1", {"alpha": 1.0}, out_dir=str(tmp_path))

    def test_full_raises_cap_unless_overridden(self, tmp_path, monkeypatch):
        from stablemimo import cliio

        seen = []

        def record(cfg):
            seen.append(cfg.max_trials)
            raise RuntimeError("stop before sampling")

        monkeypatch.setattr(cliio, "run_sweep", record)
        with pytest.raises(RuntimeError):
            run_preset("fig1", {}, out_dir=str(tmp_path), full=True)
        with pytest.raises(RuntimeError):
            run_preset("fig1", {"max_trials": 8192}, out_dir=str(tmp_path), full=True)
        assert seen == [cliio.FULL_MAX_TRIALS, 8192]

    def test_fig5_emits_both_models(self, tmp_path):
        paths = run_preset(
            "fig5", {"min_errors": 5, "max_trials": 4096}, out_dir=str(tmp_path)
        )
        rows = open(paths["sim"]).read().splitlines()[1:]
        models = {row.split(",")[2] for row in rows}
        assert models == {"I", "II"}


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-verb"])
        assert exc.value.code == 1

    def test_runtime_error_exit_code(self, tmp_path):
        code = main(["preset", "fig99", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_theory_verb(self, tmp_path):
        code = main(
            [
                "theory", "--receiver", "gar", "--alpha", "0.5",
                "--nt", "2", "--nr", "1", "--snr", "10,20,30",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = tmp_path / "theory_gar_I.csv"
        assert out.exists()
        assert len(out.read_text().splitlines()) == 4

    def test_table_verb_writes_exact_path(self, tmp_path):
        out = tmp_path / "amp"
        assert main(["table", "--alpha", "1.43", "--d", "2", "--out", str(out)]) == 0
        assert os.listdir(tmp_path) == ["amp"]
        from stablemimo import AmplitudePdfTable

        assert AmplitudePdfTable.load(str(out)).spec.d == 2

    def test_table_verb(self, tmp_path):
        out = tmp_path / "amp.npz"
        code = main(["table", "--alpha", "1.43", "--d", "2", "--out", str(out)])
        assert code == 0
        from stablemimo import AmplitudePdfTable

        table = AmplitudePdfTable.load(out)
        assert table.spec.alpha == 1.43
        assert table.spec.d == 2
        assert table.spec.sigma == pytest.approx(2.0**-0.5)

    def test_table_verb_rejects_nan_sigma(self, tmp_path, capsys):
        out = tmp_path / "amp.npz"
        assert main(["table", "--alpha", "1.43", "--d", "2", "--sigma", "nan",
                     "--out", str(out)]) == 2
        assert "sigma" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_run_verb(self, tmp_path):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(
            "alpha = 0.5\nnr = 1\nsnr_db = 10, 20\nreceivers = gar, mdr\n"
            "min_errors = 5\nmax_trials = 4096\nseed = 3\n"
        )
        code = main(["run", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 0
        sim = tmp_path / "mini_sim.csv"
        theory = tmp_path / "mini_theory.csv"
        manifest = tmp_path / "mini_manifest.json"
        assert sim.exists() and theory.exists() and manifest.exists()
        data = json.load(open(manifest))
        assert data["runs"][0]["seed"] == 3
        assert data["config_file"] == str(cfg_path)
        assert data["overrides"] == {}
        # 2 receivers x 2 points
        assert len(sim.read_text().splitlines()) == 5

    def test_run_verb_manifest_matches_preset_shape(self, tmp_path):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(
            "alpha = 0.5\nsnr_db = 10\nreceivers = mdr\nmin_errors = 5\n"
            "max_trials = 4096\n"
        )
        code = main(["run", str(cfg_path), "--out-dir", str(tmp_path),
                     "--seed", "4", "--workers", "1"])
        assert code == 0
        data = json.load(open(tmp_path / "mini_manifest.json"))
        assert data["overrides"] == {"seed": 4, "workers": 1}
        (run,) = data["runs"]
        assert set(run) == {"config", "seed", "stopping"}
        assert parse_config("\n".join(run["config"])).master_seed == 4
        assert set(run["stopping"]) == {"mdr"}
        assert sorted(os.listdir(tmp_path)) == [
            "mini.cfg", "mini_manifest.json", "mini_sim.csv", "mini_theory.csv"
        ]

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        # a directory is not a config file: one message line, no traceback
        assert main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stablemimo: ") and err.count("\n") == 1

    def test_run_verb_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("alpha = 9.9\n")
        assert main(["run", str(cfg_path)]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestRunArtifacts:
    def test_failing_overlay_leaves_no_artifact(self, tmp_path, monkeypatch):
        # alpha = 2 is a valid sweep, but the MDR asymptote needs alpha < 2
        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampling started before overlays were built")

        monkeypatch.setattr(cliio, "run_sweep", must_not_sample)
        cfg_path = tmp_path / "gauss.cfg"
        cfg_path.write_text(
            "alpha = 2\nnr = 1\nsnr_db = 0, 10\nreceivers = mdr\n"
            "min_errors = 5\nmax_trials = 4096\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_preset_failing_overlay_leaves_no_artifact(self, tmp_path, monkeypatch):
        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampling started before overlays were built")

        def failing_overlay(*args, **kwargs):
            raise ValueError("no asymptote")

        monkeypatch.setattr(cliio, "run_sweep", must_not_sample)
        monkeypatch.setattr(cliio, "theory_curve", failing_overlay)
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="asymptote"):
            run_preset("fig1", {"max_trials": 4096}, out_dir=str(out_dir))
        assert not out_dir.exists()

    @pytest.mark.parametrize("failing", ["theory", "manifest"])
    def test_failed_write_publishes_nothing(self, tmp_path, monkeypatch, failing):
        real_emit, real_json = cliio.emit_csv, cliio._write_json
        cfg = SimConfig(alpha=0.5, snr_grid_db=(10.0,), receivers=("mdr",),
                        min_errors=5, max_trials=4096)

        def emit(curves, path):
            if failing == "theory" and path.endswith("_theory.csv.tmp"):
                raise OSError("disk full")
            real_emit(curves, path)

        def write_json(data, path):
            if failing == "manifest":
                raise OSError("disk full")
            real_json(data, path)

        monkeypatch.setattr(cliio, "emit_csv", emit)
        monkeypatch.setattr(cliio, "_write_json", write_json)
        with pytest.raises(OSError, match="disk full"):
            cliio.run_experiment("mini", [cfg], ("mdr",), out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_failing_table_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        from stablemimo import AmplitudePdfTable

        def partial_save(self, path):
            with open(path, "wb") as fh:
                fh.write(b"PK\x03\x04")
            raise OSError("disk full")

        monkeypatch.setattr(AmplitudePdfTable, "save", partial_save)
        out = tmp_path / "amp.npz"
        assert main(["table", "--alpha", "1.43", "--d", "2", "--out", str(out)]) == 2
        assert os.listdir(tmp_path) == []

    def test_failing_theory_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        from stablemimo import cli

        def partial_emit(curves, path):
            with open(path, "w") as fh:
                fh.write(CSV_HEADER + "\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "emit_csv", partial_emit)
        code = main(["theory", "--receiver", "gar", "--alpha", "0.5",
                     "--snr", "10,20", "--out-dir", str(tmp_path)])
        assert code == 2
        assert os.listdir(tmp_path) == []
