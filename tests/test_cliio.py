"""Config schema, CSV emission, presets, manifests, and the CLI verbs."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from stablemimo import (
    NoiseModel,
    PRESETS,
    QuadratureError,
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
        every_field = SimConfig(model=NoiseModel.IID, alpha=0.7, n_r=3, snr_grid_db=(0.0, 7.5),
                                code="uncoded", constellation="qpsk", receivers=("aor", "ml"),
                                master_seed=9, min_errors=17, max_trials=5000, workers=3)
        assert all(getattr(every_field, f.name) != getattr(SimConfig(), f.name)
                   for f in dataclasses.fields(SimConfig))
        assert "nt = 1\n" in serialize_config(every_field)
        for cfg in (
            parse_config(
                "model = II\nalpha = 1.43\nnr = 2\nsnr_db = 5, 10, 15\n"
                "receivers = gar, aor\nseed = 9\nworkers = 3\n"
            ),
            # more digits than a %g rendering keeps
            SimConfig(alpha=0.1234567, snr_grid_db=(10.123456789, 20)),
            every_field,
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

    @pytest.mark.parametrize("text, field", [("alpha = 2.5", "alpha"), ("nr = 0", "n_r"),
                                             ("seed = -1", "master_seed")],
                             ids=["alpha", "nr", "seed"])
    def test_invalid_alpha_names_field(self, text, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(text + "\n")

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
        with pytest.raises(ConfigError, match="line 2: bad value for model: 'III'"):
            parse_config("alpha = 1.0\nmodel = III\n")


class TestEmitCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_rejects_unknown_curve_type(self, tmp_path):
        with pytest.raises(TypeError, match="cannot emit object"):
            emit_csv([object()], tmp_path / "out.csv")

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
        assert set(manifest) == {"preset", "overrides", "package_version", "numpy_version",
                                 "numpy_simd", "wall_time_s", "runs", "artifacts"}
        assert all(isinstance(manifest["numpy_simd"][k], list) for k in ("baseline", "found"))
        assert manifest["overrides"] == {
            k: overrides[k] for k in sorted(overrides)
        }
        assert manifest["runs"][0]["seed"] == 7
        points = manifest["runs"][0]["points"]
        assert [p["snr_db"] for p in points] == list(resolve_preset("fig1").configs[0].snr_grid_db)
        assert all(p["stopped_on"] in ("errors", "trials") for p in points)

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

    @pytest.mark.parametrize("key,value", [("workers", 1.9), ("max_trials", 8192.7),
                                           ("seed", 7.0), ("min_errors", "5")])
    def test_non_integer_override_rejected(self, tmp_path, key, value):
        # overrides are not truncated or parsed: SimConfig's integer check applies
        with pytest.raises(ConfigError, match="must be an integer"):
            run_preset("fig1", {key: value}, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_fig5_emits_both_models(self, tmp_path):
        paths = run_preset(
            "fig5", {"min_errors": 5, "max_trials": 4096}, out_dir=str(tmp_path)
        )
        rows = open(paths["sim"]).read().splitlines()[1:]
        models = {row.split(",")[2] for row in rows}
        assert models == {"I", "II"}


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        # "table" is not a verb and theory has no --out (nor does it read
        # --out as a prefix of --out-dir): exit 1, as for any unknown input
        for argv in (["bogus-verb"], [], ["table", "--alpha", "1.43", "--d", "2", "--out", "t"],
                     ["theory", "--receiver", "gar", "--alpha", "0.5", "--snr", "10",
                      "--out", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
        assert "invalid choice: 'table'" in capsys.readouterr().err

    def test_full_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "fig1", "--full", "--out-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert "--full" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

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

    def test_theory_verb_receiver_case_insensitive(self, tmp_path):
        # the config file's receivers key lower-cases its names; so does --receiver
        for receiver in ("GAR", "gar"):
            out_dir = tmp_path / receiver
            assert main(["theory", "--receiver", receiver, "--alpha", "0.5",
                         "--snr", "10,20", "--out-dir", str(out_dir)]) == 0
            assert os.listdir(out_dir) == ["theory_gar_I.csv"]
        csvs = [(tmp_path / rx / "theory_gar_I.csv").read_bytes() for rx in ("GAR", "gar")]
        assert csvs[0] == csvs[1]

    def test_theory_verb_defaults_and_model(self, tmp_path):
        # --nt left out: SimConfig's n_t (2, from its Alamouti code)
        assert main(["theory", "--receiver", "mdr", "--model", "II", "--nr", "2",
                     "--alpha", "0.5", "--snr", "10, 20,30", "--out-dir", str(tmp_path)]) == 0
        assert os.listdir(tmp_path) == ["theory_mdr_II.csv"]
        expected = tmp_path / "expected.csv"
        emit_csv(theory_curve("mdr", NoiseModel.IID, 2, 2, 0.5, (10.0, 20.0, 30.0)), expected)
        assert (tmp_path / "theory_mdr_II.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("argv, flag", [
        (["theory", "--receiver", "gar", "--alpha", "0.5", "--snr", "10", "--model", "X"],
         "--model"),
        (["theory", "--receiver", "gar", "--alpha", "0.5", "--snr", "10,abc"], "--snr"),
        (["preset", "fig1", "--max-trials", "abc"], "--max-trials"),
        (["preset", "fig1", "--seed", "1.5"], "--seed"),
    ])
    def test_unparsable_value_is_usage_error(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 1
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("receiver, model", [("ml", "I"), ("aor", "I"), ("gar", "II")])
    def test_theory_verb_without_asymptote_exit_2(self, tmp_path, capsys, receiver, model):
        assert main(["theory", "--receiver", receiver, "--model", model, "--alpha", "0.5",
                     "--snr", "10", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"stablemimo: no closed-form asymptote for {receiver!r}")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("snr", ["10,nan", "30,10,10", "inf"])
    def test_theory_verb_rejects_bad_grid(self, tmp_path, capsys, snr):
        assert main(["theory", "--receiver", "gar", "--alpha", "0.5", "--snr", snr,
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stablemimo: snr_grid_db") and err.count("\n") == 1
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
        assert set(run) == {"config", "seed", "points"}
        assert parse_config("\n".join(run["config"])).master_seed == 4
        assert [p["snr_db"] for p in run["points"]] == [10.0]
        assert sorted(os.listdir(tmp_path)) == [
            "mini.cfg", "mini_manifest.json", "mini_sim.csv", "mini_theory.csv"
        ]

    @pytest.mark.parametrize("verb", ["run", "preset"])
    def test_override_flags_reach_manifest_and_config(self, tmp_path, verb):
        # every value off the one the config file or preset gives
        if verb == "run":
            cfg_path = tmp_path / "mini.cfg"
            cfg_path.write_text("alpha = 0.5\nsnr_db = 10\nreceivers = mdr\n"
                                "seed = 1\nmin_errors = 3\nmax_trials = 2048\n")
            target, stem = str(cfg_path), "mini"
        else:
            target, stem = "fig1", resolve_preset("fig1").name
        assert main([verb, target, "--out-dir", str(tmp_path), "--seed", "5", "--workers", "2",
                     "--min-errors", "6", "--max-trials", "4000"]) == 0
        data = json.load(open(tmp_path / f"{stem}_manifest.json"))
        expected = {"max_trials": 4000, "min_errors": 6, "seed": 5, "workers": 2}
        assert data["overrides"] == expected
        (run,) = data["runs"]
        for key, value in expected.items():
            assert f"{key} = {value}" in run["config"]
        assert run["seed"] == 5
        assert run["points"][0]["trials"] <= 4000

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
        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampling started before overlays were built")

        def failing_overlay(*args, **kwargs):
            raise ValueError("no asymptote")

        monkeypatch.setattr(cliio, "run_sweep", must_not_sample)
        monkeypatch.setattr(cliio, "theory_curve", failing_overlay)
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(
            "alpha = 1.43\nnr = 1\nsnr_db = 0, 10\nreceivers = mdr\n"
            "min_errors = 5\nmax_trials = 4096\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_gaussian_config_runs_without_overlay(self, tmp_path):
        # alpha = 2 is a valid sweep; no receiver has a closed form there
        cfg_path = tmp_path / "gauss.cfg"
        cfg_path.write_text(
            "alpha = 2\nnr = 1\nsnr_db = 0, 10\nreceivers = gar, mdr, ml, aor\n"
            "min_errors = 5\nmax_trials = 4096\nworkers = 1\n"
        )
        assert main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        sim = (tmp_path / "gauss_sim.csv").read_text().splitlines()
        assert sim[0] == CSV_HEADER
        rows = {(line.split(",")[1], float(line.split(",")[6])) for line in sim[1:]}
        assert len(sim) == 9
        assert rows == {(rx, snr) for rx in ("aor", "gar", "mdr", "ml")
                        for snr in (0.0, 10.0)}
        assert (tmp_path / "gauss_theory.csv").read_text() == CSV_HEADER + "\n"

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

    def test_failing_table_stops_before_first_sweep(self, tmp_path, monkeypatch, capsys):
        # the second config's table build fails; the first config must not
        # be swept before that
        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampling started before every table was built")

        built = []
        real_build = cliio.montecarlo.build_ml_table

        def build(cfg):
            built.append(cfg.n_r)
            if cfg.n_r == 2:
                raise QuadratureError("error estimate exceeds target (injected)")
            return real_build(cfg)

        monkeypatch.setattr(cliio, "run_sweep", must_not_sample)
        monkeypatch.setattr(cliio.montecarlo, "build_ml_table", build)
        configs = tuple(SimConfig(alpha=1.43, n_r=n_r, snr_grid_db=(10.0,),
                                  min_errors=5, max_trials=4096) for n_r in (1, 2))
        monkeypatch.setitem(cliio.PRESETS, "two_tables",
                            cliio.ExperimentPreset("two_tables", configs, ("mdr",)))
        out_dir = tmp_path / "out"
        assert main(["preset", "two_tables", "--out-dir", str(out_dir)]) == 2
        assert "(injected)" in capsys.readouterr().err
        assert built == [1, 2]
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
