"""Tests for the command-line driver: config parsing, outputs, exit codes."""

import ast
import configparser
import dataclasses
import glob
import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import beamfeedback
from beamfeedback import cli, mdp, simulator, state_grid
from beamfeedback.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    run,
)
from beamfeedback.codebook import random_codebook
from beamfeedback.mdp import NumericalError
from beamfeedback.state_grid import TransitionModel

from conftest import gapped_feedback_model
from oracles import codebook_from_json, model_from_json


def config_text(prefix, *, L=3, doppler=0.1, M=4, N=4, samples=30_000,
                snr_db=20.0, alpha="0.0 0.5", slots=20_000, warmup=500,
                seed=77, codebook=False):
    power = [] if snr_db is None else [f"snr_db = {snr_db}"]  # None: default P
    lines = [
        "[channel]", f"L = {L}", f"doppler_slot = {doppler}", "",
        "[grid]", f"M = {M}", f"N = {N}", f"samples = {samples}", "",
        "[rewards]", *power, f"alpha = {alpha}", "",
        "[trajectory]", f"slots = {slots}", f"warmup = {warmup}",
        f"seed = {seed}", "",
        "[output]", f"prefix = {prefix}", "",
    ]
    if codebook:
        lines += ["[codebook]", "method = lloyd", "size = 8",
                  "training = 4000", "iterations = 10", ""]
    return "\n".join(lines)


def write_config(directory, name="exp.ini", **kwargs):
    prefix = os.path.join(str(directory), "out", "run")
    path = os.path.join(str(directory), name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config_text(prefix, **kwargs))
    return path, prefix


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-solve")
    path, prefix = write_config(directory)
    status = run("solve", path, quiet=True)
    return {"status": status, "config": path, "prefix": prefix}


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-sweep")
    path, prefix = write_config(directory)
    status = run("sweep", path, quiet=True)
    return {"status": status, "config": path, "prefix": prefix}


@pytest.fixture(scope="module")
def fig3(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-fig3")
    path, prefix = write_config(directory, slots=15_000, samples=20_000)
    status = run("reproduce-fig", path, figure=3, quiet=True)
    return {"status": status, "config": path, "prefix": prefix}


@pytest.fixture(scope="module")
def fig6(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-fig6")
    path, prefix = write_config(directory, slots=15_000, samples=20_000, codebook=True)
    status = run("reproduce-fig", path, figure=6, quiet=True)
    return {"status": status, "config": path, "prefix": prefix}


class TestConfigParsing:
    def test_full_file_resolves_every_field(self, tmp_path):
        path, prefix = write_config(tmp_path, L=4, doppler=0.01, M=6, N=8,
                                    samples=5000, snr_db=10.0,
                                    alpha="0.0, 0.25, 1.5", slots=9000,
                                    warmup=100, seed=3, codebook=True)
        cfg = load_config(path)
        assert cfg.L == 4
        assert cfg.doppler_slot == 0.01
        assert (cfg.M, cfg.N) == (6, 8)
        assert cfg.model_samples == 5000
        assert cfg.P == pytest.approx(10.0)
        assert cfg.alphas == (0.0, 0.25, 1.5)
        assert cfg.codebook_method == "lloyd"
        assert cfg.codebook_size == 8
        assert cfg.codebook_training == 4000
        assert cfg.codebook_iterations == 10
        assert (cfg.slots, cfg.warmup, cfg.seed) == (9000, 100, 3)
        assert cfg.prefix == prefix

    def test_omitted_sections_fall_back_to_defaults(self, tmp_path):
        path = tmp_path / "sparse.ini"
        path.write_text("[trajectory]\nseed = 9\n")
        cfg = load_config(str(path))
        defaults = ExperimentConfig()
        assert cfg.seed == 9
        assert cfg.L == defaults.L
        assert cfg.M == defaults.M
        assert cfg.P == defaults.P
        assert cfg.alphas == defaults.alphas
        assert cfg.codebook_method is None

    def test_snr_in_decibels_converts_to_linear(self, tmp_path):
        path = tmp_path / "snr.ini"
        path.write_text("[rewards]\nsnr_db = 20\n")
        assert load_config(str(path)).P == pytest.approx(100.0)

    def test_linear_power_accepted_directly(self, tmp_path):
        path = tmp_path / "p.ini"
        path.write_text("[rewards]\nP = 42.5\n")
        assert load_config(str(path)).P == 42.5

    def test_both_power_spellings_rejected(self, tmp_path):
        path = tmp_path / "both.ini"
        path.write_text("[rewards]\nP = 10\nsnr_db = 10\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))

    def test_unparseable_number_raises(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nM = many\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_alpha_list_raises(self, tmp_path):
        path = tmp_path / "alpha.ini"
        path.write_text("[rewards]\nalpha = 0.0 potato\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("field, value", [
        ("alphas", (0.5, 0.5)),
        ("alphas", (-0.1, 0.5)),
        ("alphas", ()),
        ("L", 0),
        ("doppler_slot", -0.1),
        ("doppler_slot", 0.6),
        ("warmup", 20_000),
        ("codebook_method", "kmeans"),
        ("codebook_size", 0),
        ("codebook_iterations", 0),
        ("codebook_training", 4),
        ("seed", -3),
    ])
    def test_invalid_settings_rejected(self, field, value):
        kwargs = {field: value}
        if field == "warmup":
            kwargs["slots"] = 20_000
        if field == "codebook_training":
            kwargs["codebook_size"] = 8
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("text, named", [
        ("[grid]\nsampels = 5000\n", "grid.sampels"),
        ("[trajectroy]\nslots = 5000\n", "trajectroy.slots"),
        ("[trajectroy]\n", "trajectroy"),
        ("[channel]\nsnr_db = 20\n", "channel.snr_db"),
        ("[DEFAULT]\nseed = 3\n[trajectory]\n", "DEFAULT.seed"),
    ])
    def test_unknown_sections_and_keys_rejected(self, tmp_path, text, named):
        path = tmp_path / "typo.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=named):
            load_config(str(path))

    def test_empty_default_section_is_harmless(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\n[rewards]\nP = 10\n")
        assert load_config(str(path)) == ExperimentConfig(P=10.0)

    def test_codebook_section_without_method_trains_lloyd(self, tmp_path):
        path = tmp_path / "cb.ini"
        path.write_text("[codebook]\nsize = 8\n")
        cfg = load_config(str(path))
        assert (cfg.codebook_method, cfg.codebook_size) == ("lloyd", 8)

    def test_resolved_echo_round_trips(self, tmp_path):
        cfg = ExperimentConfig(L=4, doppler_slot=0.02, M=5, N=6,
                               model_samples=700, P=31.0, alphas=(0.0, 1.0),
                               codebook_method="random", codebook_size=4,
                               slots=5000, warmup=10, seed=8, prefix="x/y")
        path = tmp_path / "echo.ini"
        path.write_text(cfg.to_ini())
        assert load_config(str(path)) == cfg


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_for_work_commands(self):
        assert run("solve") == EXIT_USAGE

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        assert run("solve", str(tmp_path / "gone.ini")) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_figure_number_on_other_commands_rejected(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert run("solve", path, figure=3) == EXIT_USAGE

    def test_reproduce_fig_requires_valid_figure(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert run("reproduce-fig", path) == EXIT_USAGE
        assert run("reproduce-fig", path, figure=9) == EXIT_USAGE

    @pytest.mark.parametrize("extra, argv", [
        ("[grid]\nsampels = 5000\n", []),
        ("[codebook]\nsize = 0\n", []),
        ("[codebook]\nsize = 8\ntraining = 4\n", []),
        ("", ["--seed", "-3"]),
        # non-finite values the library types reject
        ("[channel]\ndoppler_slot = nan\n", []),
        ("[channel]\ndoppler_slot = inf\n", []),
        # past the slot-rate Nyquist limit, where the J0 quadrature would
        # ask for a node array of about 4 pi doppler_slot entries
        ("[channel]\ndoppler_slot = 1e9\n", []),
        ("[rewards]\nalpha = 0.2 inf\n", []),
        ("[rewards]\nalpha = 0.2 nan\n", []),
        ("[rewards]\nP = inf\n", []),
        # power edges the Gamma quantile cannot represent
        ("[channel]\nL = 800\n", []),
    ])
    def test_bad_settings_exit_2_before_any_work(self, tmp_path, capsys, extra, argv):
        path, prefix = write_config(tmp_path, snr_db=None)
        cp = configparser.ConfigParser()
        cp.read(path)
        cp.read_string(extra)  # a second source: its keys join or replace the file's
        with open(path, "w", encoding="utf-8") as handle:
            cp.write(handle)
        assert main(["sweep", "--config", path, *argv]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not os.path.exists(os.path.dirname(prefix))

    @pytest.mark.parametrize("text, message", [
        ("[grid]\nM = 0\n", "L, M and N must be positive"),  # make_grid's own rule
        ("[grid]\nsamples = 0\n", "model sample count must be positive"),
        ("L = 3\n", "cannot parse"),  # a key before any section header
    ])
    def test_config_errors_exit_2_with_their_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = str(tmp_path / "out" / "run")
        assert main(["sweep", "--config", str(path), "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, err
        assert not (tmp_path / "out").exists()

    def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path,
                                                                     monkeypatch):
        target = tmp_path / "run.sweep.csv"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            cli._write_text(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch,
                                              capsys):
        path, prefix = write_config(tmp_path)

        def explode(*args, **kwargs):
            raise NumericalError("policy iteration stalled")

        monkeypatch.setattr(simulator, "policy_iteration_average", explode)
        assert run("solve", path, quiet=True) == EXIT_NUMERICAL
        assert "numerical error" in capsys.readouterr().err
        assert not os.path.exists(os.path.dirname(prefix))

    def test_singular_chain_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        # mixing power, frozen alignment: under a prohibitive price the
        # never-feedback chain keeps one closed class per alignment bin
        path, prefix = write_config(tmp_path, alpha="50.0")

        def frozen_alignment(params, spec, *args, **kwargs):
            top = np.zeros(spec.N)
            top[-1] = 1.0
            return TransitionModel(Ptilde=np.full((spec.M, spec.M), 1.0 / spec.M),
                                   P0=np.eye(spec.N), feedback_row=top, sample_count=1)

        monkeypatch.setattr(simulator, "estimate_transition_model", frozen_alignment)
        assert run("solve", path, quiet=True) == EXIT_NUMERICAL
        assert "singular" in capsys.readouterr().err
        assert not os.path.exists(os.path.dirname(prefix))

    def test_non_threshold_optimum_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        # the settled table feeds back in the middle alignment bin alone
        path, prefix = write_config(tmp_path, M=1, N=3, alpha="2.8")
        monkeypatch.setattr(simulator, "estimate_transition_model",
                            lambda *args, **kwargs: gapped_feedback_model())
        assert run("solve", path, quiet=True) == EXIT_NUMERICAL
        assert "not a threshold rule" in capsys.readouterr().err
        assert not os.path.exists(os.path.dirname(prefix))

    def test_failed_runs_leave_no_partial_outputs(self, tmp_path, monkeypatch):
        path, prefix = write_config(tmp_path)
        monkeypatch.setattr(cli, "measure_curve",
                            lambda *a, **k: (_ for _ in ()).throw(
                                np.linalg.LinAlgError("boom")))
        assert run("evaluate", path, quiet=True) == EXIT_NUMERICAL
        assert not os.path.exists(os.path.dirname(prefix))


class TestSolveCommand:
    def test_succeeds(self, solved):
        assert solved["status"] == EXIT_OK

    def test_zero_price_policy_feeds_back_everywhere(self, solved):
        with open(solved["prefix"] + ".solve.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["is_threshold"] is True
        assert all(t == 1.0 for t in doc["threshold"])
        assert all(all(cell == 1 for cell in row) for row in doc["policy"])

    def test_writes_resolved_config_echo(self, solved):
        echo = solved["prefix"] + ".solve.config.ini"
        assert os.path.exists(echo)
        assert load_config(echo) == load_config(solved["config"])

    def test_rerun_is_byte_identical(self, solved):
        target = solved["prefix"] + ".solve.json"
        with open(target, "rb") as fh:
            first = fh.read()
        assert run("solve", solved["config"], quiet=True) == EXIT_OK
        with open(target, "rb") as fh:
            assert fh.read() == first

    def test_seed_override_changes_the_estimate(self, solved, tmp_path):
        alt = os.path.join(str(tmp_path), "alt")
        assert run("solve", solved["config"], seed=123, out_prefix=alt,
                   quiet=True) == EXIT_OK
        with open(solved["prefix"] + ".solve.json", encoding="utf-8") as fh:
            base = json.load(fh)
        with open(alt + ".solve.json", encoding="utf-8") as fh:
            other = json.load(fh)
        assert other["J"] != base["J"]

    def test_out_override_redirects_outputs(self, solved, tmp_path):
        alt = os.path.join(str(tmp_path), "sub", "alt")
        assert run("solve", solved["config"], out_prefix=alt,
                   quiet=True) == EXIT_OK
        assert os.path.exists(alt + ".solve.json")
        assert os.path.exists(alt + ".solve.config.ini")


class TestSweepCommand:
    def test_csv_has_contract_header_and_one_row_per_price(self, swept):
        assert swept["status"] == EXIT_OK
        with open(swept["prefix"] + ".sweep.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[3] == 1.0

    def test_metadata_records_seeds_and_grid(self, swept):
        with open(swept["prefix"] + ".sweep.meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["seed"] == 77
        assert (meta["M"], meta["N"]) == (4, 4)
        assert meta["alphas"] == [0.0, 0.5]
        assert meta["codebook"] is None

    def test_net_column_consistent_with_price(self, swept):
        with open(swept["prefix"] + ".sweep.csv", encoding="utf-8") as fh:
            rows = [line.split(",") for line in
                    fh.read().strip().split("\n")[1:]]
        for row in rows:
            alpha, net, thr, rate = (float(x) for x in row[:4])
            assert net == pytest.approx(thr - alpha * rate, abs=1e-12)


class TestSingleAntenna:
    def test_sweep_runs_end_to_end(self, tmp_path):
        # one antenna keeps z = 1, so a positive price never pays for feedback
        path, prefix = write_config(tmp_path, L=1, alpha="0.5 2.0",
                                    samples=20_000, slots=5000)
        assert run("sweep", path, quiet=True) == EXIT_OK
        with open(f"{prefix}.sweep.csv", encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().split("\n")[1:]
                    if line]
        assert [float(r[0]) for r in rows] == [0.5, 2.0]
        assert all(float(r[3]) == 0.0 for r in rows)


class TestOtherCommands:
    def test_evaluate_reports_consistent_summary(self, tmp_path):
        path, prefix = write_config(tmp_path, alpha="0.5")
        assert run("evaluate", path, quiet=True) == EXIT_OK
        with open(prefix + ".eval.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["alpha"] == 0.5
        assert doc["net"] == pytest.approx(
            doc["throughput"] - 0.5 * doc["feedback_rate"], abs=1e-12)
        assert 0.0 <= doc["feedback_rate"] <= 1.0
        assert abs(doc["model_gain"] - doc["net"]) < 0.5

    def test_codebook_output_has_unit_rows(self, tmp_path):
        path, prefix = write_config(tmp_path, codebook=True)
        assert run("codebook", path, quiet=True) == EXIT_OK
        with open(prefix + ".codebook.json", encoding="utf-8") as fh:
            codebook = codebook_from_json(fh.read())
        assert codebook.vectors.shape == (8, 3)
        np.testing.assert_allclose(
            np.linalg.norm(codebook.vectors, axis=1), 1.0, atol=1e-9)

    def test_random_codebook_path(self, tmp_path):
        path, prefix = write_config(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[codebook]\nmethod = random\nsize = 4\n")
        assert run("codebook", path, quiet=True) == EXIT_OK
        with open(prefix + ".codebook.json", encoding="utf-8") as fh:
            text = fh.read()
        assert json.loads(text)["method"] == "random"
        drawn = random_codebook(3, 4, simulator._streams(77, simulator._CODEBOOK_STREAM))
        np.testing.assert_array_equal(codebook_from_json(text).vectors, drawn.vectors)
        with open(prefix + ".codebook.config.ini", encoding="utf-8") as fh:
            assert "method = random" in fh.read().split("\n")
        assert run("sweep", path, quiet=True) == EXIT_OK

    def test_model_output_round_trips(self, tmp_path):
        path, prefix = write_config(tmp_path, M=3, N=4, samples=10_000)
        assert run("model", path, quiet=True) == EXIT_OK
        with open(prefix + ".model.json", encoding="utf-8") as fh:
            spec, model = model_from_json(fh.read())
        assert spec.g_points.shape == (3,)
        assert model.P0.shape == (4, 4)
        np.testing.assert_allclose(model.Ptilde.sum(axis=1), 1.0, atol=1e-9)

    def test_model_tables_no_eps_statistics(self, tmp_path, monkeypatch):
        # the model command solves no price, so it needs no quantized rates
        def forbidden(*args, **kwargs):
            raise AssertionError("eps statistics tabled by the model command")

        monkeypatch.setattr(simulator, "epsilon_statistics", forbidden)
        path, prefix = write_config(tmp_path, M=3, N=4, samples=10_000, codebook=True)
        assert run("model", path, quiet=True) == EXIT_OK
        with open(prefix + ".model.json", encoding="utf-8") as fh:
            _, model = model_from_json(fh.read())
        assert model.quantized


class TestSharedStreams:
    """model, solve and evaluate draw the kernels and statistics sweep uses."""

    @pytest.fixture(scope="class")
    def quantized(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-streams")
        return write_config(directory, alpha="0.5 1.5", codebook=True)

    def test_evaluate_equals_the_sweep_row_at_the_first_price(self, quantized):
        path, prefix = quantized
        assert run("sweep", path, quiet=True) == EXIT_OK
        assert run("evaluate", path, quiet=True) == EXIT_OK
        with open(prefix + ".sweep.csv", encoding="utf-8") as fh:
            row = [float(x) for x in fh.read().split("\n")[1].split(",")]
        with open(prefix + ".eval.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert row == [doc[k] for k in CSV_HEADER.split(",")]

    def test_solve_reports_the_gain_evaluate_reports(self, quantized):
        path, prefix = quantized
        assert run("solve", path, quiet=True) == EXIT_OK
        assert run("evaluate", path, quiet=True) == EXIT_OK
        with open(prefix + ".solve.json", encoding="utf-8") as fh:
            solved = json.load(fh)
        with open(prefix + ".eval.json", encoding="utf-8") as fh:
            evaluated = json.load(fh)
        assert solved["J"] == evaluated["model_gain"]

    def test_model_holds_the_kernels_sweep_solves_on(self, quantized, monkeypatch):
        path, prefix = quantized
        estimate, estimated = simulator.estimate_transition_model, []

        def recording(*args, **kwargs):
            estimated.append(estimate(*args, **kwargs))
            return estimated[-1]

        monkeypatch.setattr(simulator, "estimate_transition_model", recording)
        assert run("sweep", path, quiet=True) == EXIT_OK
        assert run("model", path, quiet=True) == EXIT_OK
        with open(prefix + ".model.json", encoding="utf-8") as fh:
            _, model = model_from_json(fh.read())
        swept, modeled = estimated
        for name in ("Ptilde", "P0", "feedback_row", "quantized"):
            np.testing.assert_array_equal(getattr(modeled, name), getattr(swept, name))
            np.testing.assert_array_equal(getattr(model, name), getattr(swept, name))


class TestOccupancyOnlyInSolve:
    """Only the solve JSON writes an occupancy; no other command computes one."""

    def test_commands_and_sweeps_run_without_it(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("occupancy computed outside the solve JSON")

        monkeypatch.setattr(mdp, "stationary_distribution", forbidden)
        path, _ = write_config(tmp_path, M=3, N=3, samples=5000, slots=5000, warmup=100)
        for command, figure in (("sweep", None), ("evaluate", None), ("reproduce-fig", 3)):
            assert run(command, path, figure=figure, quiet=True) == EXIT_OK
        cfg = load_config(path)
        held = cli._make_run(cfg)
        solves = simulator.design(cfg.alphas, held, cfg.P, cfg.model_samples)[1]
        curve = simulator.measure_curve(cfg.alphas, [s.policy.y for s in solves], held, cfg.P)
        assert len(curve) == len(cfg.alphas)


class TestSchema:
    """One declaration per key drives parsing, the echo, metadata and --help."""

    def test_every_field_has_exactly_one_key(self):
        fields = sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        assert sorted(key.field for key in cli._SCHEMA) == fields

    def test_help_names_every_key_with_its_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        defaults = ExperimentConfig()
        for key in cli._SCHEMA:
            default = getattr(defaults, key.field)
            if key.field == "codebook_method":
                assert default is None  # no codebook; a [codebook] section trains Lloyd
                default = "lloyd"
            elif isinstance(default, tuple):
                default = " ".join(str(v) for v in default)
            assert f"{key.name} ({default})" in text or \
                f"{key.name} or snr_db ({default})" in text, key.name
            assert f"[{key.section}]" in text

    def test_readme_config_example_loads(self, tmp_path):
        with open(os.path.join(TestPublicApi.ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        cfg = load_config(str(path))
        assert cfg.codebook_method == "lloyd"
        assert cfg.P == pytest.approx(100.0)
        assert cfg.alphas == (0.0, 0.5, 1.0)
        assert cfg.prefix == "out/run"


class TestReproduceFigures:
    def test_runs_and_writes_every_curve(self, fig3):
        assert fig3["status"] == EXIT_OK
        stem = fig3["prefix"] + ".fig3"
        for label in ("controlled_dop0.1", "periodic_dop0.1",
                      "controlled_dop0.01", "periodic_dop0.01"):
            assert os.path.exists(f"{stem}.{label}.csv")
        assert os.path.exists(stem + ".csv")
        assert os.path.exists(stem + ".meta.json")
        assert os.path.exists(stem + ".config.ini")

    def test_combined_file_prefixes_rows_with_curve_label(self, fig3):
        with open(fig3["prefix"] + ".fig3.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "curve," + CSV_HEADER
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"controlled_dop0.1", "periodic_dop0.1",
                          "controlled_dop0.01", "periodic_dop0.01"}
        assert len(lines) == 1 + 4 * 2

    def test_free_feedback_rows_agree_across_baselines(self, fig3):
        # At zero price both schemes feed back every slot on the same
        # trajectory, so the measured columns must agree exactly.
        with open(fig3["prefix"] + ".fig3.csv", encoding="utf-8") as fh:
            rows = [line.split(",") for line in
                    fh.read().strip().split("\n")[1:]]
        by_curve = {}
        for row in rows:
            if float(row[1]) == 0.0:
                by_curve[row[0]] = (row[2], row[3], row[4])
        assert by_curve["controlled_dop0.1"] == by_curve["periodic_dop0.1"]
        assert by_curve["controlled_dop0.01"] == by_curve["periodic_dop0.01"]

    def test_periodic_threshold_column_is_nan(self, fig3):
        with open(fig3["prefix"] + ".fig3.periodic_dop0.1.csv",
                  encoding="utf-8") as fh:
            rows = fh.read().strip().split("\n")[1:]
        assert all(math.isnan(float(r.split(",")[4])) for r in rows)

    def test_quantized_figure_tracks_perfect_feedback(self, fig6):
        assert fig6["status"] == EXIT_OK
        stem = fig6["prefix"] + ".fig6"
        assert os.path.exists(stem + ".perfect.csv")
        assert os.path.exists(stem + ".quantized_8.csv")
        perfect = np.genfromtxt(stem + ".perfect.csv", delimiter=",",
                               skip_header=1)
        quant = np.genfromtxt(stem + ".quantized_8.csv", delimiter=",",
                             skip_header=1)
        sigma = np.hypot(perfect[:, 5], quant[:, 5])
        assert np.all(quant[:, 1] <= perfect[:, 1] + 3 * sigma)

    def test_figures_5_and_7_write_the_curves_of_3_and_6(self, fig3, fig6):
        # figs 5 and 7 plot other columns of the same curves, under the same labels
        for (figure, twin), done in (((3, 5), fig3), ((6, 7), fig6)):
            assert run("reproduce-fig", done["config"], figure=twin, quiet=True) == EXIT_OK
            stem, twin_stem = (f"{done['prefix']}.fig{n}" for n in (figure, twin))
            with open(stem + ".meta.json", encoding="utf-8") as fh:
                labels = json.load(fh)["curves"]
            with open(twin_stem + ".meta.json", encoding="utf-8") as fh:
                assert json.load(fh)["curves"] == labels
            assert len(labels) == (4 if figure == 3 else 2)
            for label in labels:
                with open(f"{stem}.{label}.csv", "rb") as a, \
                        open(f"{twin_stem}.{label}.csv", "rb") as b:
                    assert a.read() == b.read(), label


class TestMainEntry:
    def test_parses_flags_and_runs(self, tmp_path):
        path, _ = write_config(tmp_path)
        alt = os.path.join(str(tmp_path), "cli-out", "m")
        status = main(["solve", "--config", path, "--out", alt, "--seed",
                       "11", "--quiet"])
        assert status == EXIT_OK
        assert os.path.exists(alt + ".solve.json")

    def test_quiet_suppresses_progress_lines(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, name="a.ini")
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""
        path, _ = write_config(tmp_path, name="b.ini")
        assert main(["solve", "--config", path]) == EXIT_OK
        assert "wrote" in capsys.readouterr().out

    def test_run_computes_its_power_edges_once(self, tmp_path, monkeypatch):
        # the --help epilog reads the defaults without building a config, so
        # a 40x40 run computes the Gamma quantiles of its own grid only
        calls = []
        quantile = state_grid._gamma_quantile
        monkeypatch.setattr(state_grid, "_gamma_quantile",
                            lambda L, q: calls.append((L, q.size)) or quantile(L, q))
        state_grid._power_edges.cache_clear()
        path, _ = write_config(tmp_path, M=40, N=40, samples=2000, slots=2000)
        assert main(["model", "--config", path, "--quiet"]) == EXIT_OK
        assert calls == [(3, 39)]

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["solve", "--bogus"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_invalid_choice_is_usage_error(self):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_figure_argument_flows_through(self, tmp_path):
        path, prefix = write_config(tmp_path, M=3, N=3, samples=8000,
                                    slots=6000, alpha="0.0 1.0")
        status = main(["reproduce-fig", "4", "--config", path, "--quiet"])
        assert status == EXIT_OK
        for label in ("controlled_L3", "periodic_L3", "controlled_L4",
                      "periodic_L4"):
            assert os.path.exists(f"{prefix}.fig4.{label}.csv")


class TestImportFootprint:
    def test_cli_import_skips_heavy_scipy_subpackages(self):
        # each of these subpackages costs up to a second of start-up in every
        # command; the test below checks that no scipy module loads at all
        heavy = ("scipy.signal", "scipy.stats", "scipy.linalg", "scipy.sparse",
                 "scipy.optimize", "scipy.integrate", "scipy.interpolate")
        src = os.path.dirname(os.path.dirname(os.path.abspath(beamfeedback.__file__)))
        code = ("import sys, beamfeedback.cli; "
                f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
        child = subprocess.run([sys.executable, "-c", code],
                               env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == ""

    def test_sweep_loads_no_scipy(self, tmp_path):
        # run a command, not just the import, so a lazy import would show too
        path, _ = write_config(tmp_path, samples=4000, slots=3000, codebook=True)
        src = os.path.dirname(os.path.dirname(os.path.abspath(beamfeedback.__file__)))
        code = ("import sys, beamfeedback.cli; "
                f"status = beamfeedback.cli.main(['sweep', '--config', {path!r}, '--quiet']); "
                "print(status, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        child = subprocess.run([sys.executable, "-c", code],
                               env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == [str(EXIT_OK)]


class TestPublicApi:
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    @classmethod
    def demo_paths(cls):
        return sorted(glob.glob(os.path.join(cls.ROOT, "demos", "*.py")))

    @classmethod
    def imported_names(cls):
        """Names the CLI and the demos import from the package."""
        paths = [cli.__file__] + cls.demo_paths()
        names = set()
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("beamfeedback")):
                    names.update(alias.name for alias in node.names)
        return names

    def test_cli_and_demos_import_no_private_name(self):
        # the CLI seeds its codebook from these two, and the tests share _streams
        shared = {"_streams", "_CODEBOOK_STREAM"}
        private = {name for name in self.imported_names() if name.startswith("_")} - shared
        assert not private, f"the CLI or a demo imports private names: {sorted(private)}"

    def test_every_export_has_a_user(self):
        unused = set(beamfeedback.__all__) - self.imported_names()
        assert not unused, f"exported but used by no CLI command or demo: {unused}"

    def test_every_layer_export_has_a_runtime_caller(self):
        """Each layer's exports are used in the package or a demo, not only in tests."""
        paths = sorted(glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")))
        used = set()
        for path in paths + self.demo_paths():
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        for name in ("channel", "state_grid", "mdp", "codebook", "simulator"):
            module = importlib.import_module(f"beamfeedback.{name}")
            idle = set(module.__all__) - used
            assert not idle, f"{module.__name__} exports what no command or demo runs: {idle}"

    def test_every_module_export_resolves(self):
        for name in ("", ".channel", ".codebook", ".mdp", ".simulator", ".state_grid",
                     ".cli"):
            module = importlib.import_module(f"beamfeedback{name}")
            missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
            assert not missing, f"{module.__name__}.__all__ names {missing}"
