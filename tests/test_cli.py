"""CLI contracts: exit codes, file outputs, manifests, reproducibility."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longicausal.cli
from longicausal.cli import main
from longicausal.exceptions import SimulationError
from longicausal.panel import write_panel_csv
from longicausal.simulate import DgpParams, SimulationConfig

from conftest import make_dataset

SIMULATE_FLOAT_FLAGS = [
    "--causal-effect", "--confounding", "--a-threshold", "--a0-mean", "--a0-sd", "--a-drift", "--a-l-penalty",
    "--a-sd",
]
GR_ARGV = ["baseline", "gr", "--sigma", "-0.47", "--b", "1.41", "--m", "3", "--a-tec", "0", "--volume", "1e6"]
DEFAULT_ANALYZE_PARAMETERS = {
    "panel": None,
    "outcomes": None,
    "wells": None,
    "catalog": None,
    "clusters": 30,
    "radius_km": 15.0,
    "period_months": 4,
    "mag_cut": 2.5,
    "bbox": [32.07, 33.68, -98.38, -96.74],
    "linkage": "ward",
    "truncate_weights": False,
    "robust": "HC0",
    "start": "2013-12",
    "end": "2016-03",
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestBaselineGr:
    def test_central_oklahoma(self, capsys):
        code = main(["baseline", "gr", "--sigma", "-0.47", "--b", "1.41", "--m", "3"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.995e-5, rel=1e-3)

    def test_degenerate_params(self, capsys):
        assert main(["baseline", "gr", "--sigma", "0", "--b", "0", "--m", "0"]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_missing_required_flag(self, capsys):
        assert main(["baseline", "gr", "--b", "1.41", "--m", "3"]) == 2

    def test_expected_count_line(self, capsys):
        code = main(
            ["baseline", "gr", "--sigma", "-0.47", "--b", "1.41", "--m", "3",
             "--a-tec", "0", "--volume", "1e6"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1]) == pytest.approx(10 ** (-4.23) + 19.95, rel=1e-3)

    def test_volume_without_a_tec(self, capsys):
        code = main(["baseline", "gr", "--sigma", "-0.47", "--b", "1.41", "--m", "3", "--volume", "1e6"])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--sigma", "--b", "--m", "--a-tec", "--volume"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_exit_2(self, capsys, flag, value):
        assert main(GR_ARGV + [f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


class TestSimulateCommand:
    def run_small(self, out_dir, seed="7"):
        return main(
            ["simulate", "--n", "12", "--k", "4", "--m", "3", "--seed", seed,
             "--out-dir", str(out_dir)]
        )

    def test_outputs_and_manifest(self, tmp_path):
        assert self.run_small(tmp_path) == 0
        summary = read_csv(tmp_path / "mc_summary.csv")
        assert summary[0] == ["estimator", "avg_point_estimate", "avg_se", "coverage95", "n_replicates", "n_failed"]
        assert [r[0] for r in summary[1:]] == ["naive", "adjusted", "msm"]
        samples = read_csv(tmp_path / "estimate_samples.csv")
        assert samples[0] == ["replicate", "estimator", "beta1_hat", "se", "ci_lo", "ci_hi"]
        assert len(samples) == 1 + 3 * 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["parameters"] == {
            "n": 12,
            "k": 4,
            "m": 3,
            "seed": 7,
            "causal_effect": 0.001,
            "confounding": 0.1,
            "u_levels": 10,
            "a_threshold": 1000.0,
            "a0_mean": 1000.0,
            "a0_sd": 60.0,
            "a_drift": 15.0,
            "a_l_penalty": -55.0,
            "a_sd": 60.0,
            "n_failed": 0,
        }
        assert manifest["tool_version"]

    def test_every_flag_reaches_the_config(self, tmp_path, monkeypatch):
        seen = []

        def capture(config, threads):
            seen.append((config, threads))
            raise SimulationError("captured")

        monkeypatch.setattr(longicausal.cli, "run_monte_carlo", capture)
        argv = ["simulate", "--n", "17", "--k", "5", "--m", "9", "--seed", "42", "--causal-effect", "0.002",
                "--confounding", "0.3", "--u-levels", "7", "--a-threshold", "900.5", "--a0-mean", "950.25",
                "--a0-sd", "40.5", "--a-drift", "12.5", "--a-l-penalty", "-30.5", "--a-sd", "45.5",
                "--out-dir", str(tmp_path / "run")]
        assert main(argv) == 1
        dgp = DgpParams(u_levels=7, a_threshold=900.5, a0_mean=950.25, a0_sd=40.5, a_drift=12.5,
                        a_l_penalty=-30.5, a_sd=45.5)
        want = SimulationConfig(causal_effect=0.002, confounding=0.3, n_units=17, n_periods=5, n_replicates=9,
                                master_seed=42, dgp=dgp)
        assert seen == [(want, 1)]
        # every value differs from its default, so a dropped flag would show
        default = SimulationConfig()
        for name in ("causal_effect", "confounding", "n_units", "n_periods", "n_replicates", "master_seed"):
            assert getattr(want, name) != getattr(default, name), name
        for name in longicausal.cli.DGP_FLAGS:
            assert getattr(dgp, name) != getattr(default.dgp, name), name

    @pytest.mark.parametrize("flag", SIMULATE_FLOAT_FLAGS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_exit_2_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        code = main(["simulate", "--n", "12", "--k", "4", "--m", "2", f"{flag}={value}", "--out-dir", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_small(a) == 0
        assert self.run_small(b) == 0
        assert (a / "mc_summary.csv").read_bytes() == (b / "mc_summary.csv").read_bytes()
        assert (a / "estimate_samples.csv").read_bytes() == (b / "estimate_samples.csv").read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_small(a, seed="7") == 0
        assert self.run_small(b, seed="8") == 0
        assert (a / "estimate_samples.csv").read_bytes() != (b / "estimate_samples.csv").read_bytes()

    def test_single_replicate_coverage_binary(self, tmp_path):
        assert main(["simulate", "--n", "12", "--k", "4", "--m", "1", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
        for row in read_csv(tmp_path / "mc_summary.csv")[1:]:
            assert float(row[3]) in (0.0, 1.0)

    def test_overflowing_parameters_exit_1(self, tmp_path):
        code = main(["simulate", "--m", "2", "--causal-effect", "1.0", "--out-dir", str(tmp_path)])
        assert code == 1

    def test_mean_above_numpy_poisson_limit_exit_1(self, tmp_path, capsys):
        # exp arguments of about 450: finite means that Generator.poisson rejects
        code = main(["simulate", "--causal-effect", "0.05", "--m", "5", "--out-dir", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 5 of 5 replicates failed (budget 1%): replicate 0: SimulationError: "
                              "Poisson mean overflow")
        assert "Traceback" not in err

    def test_u_levels_beyond_int64_exit_1_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--m", "2", "--u-levels", str(2**63), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: u_levels must be in [1, 2**63 - 1], got {2**63}\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    def test_out_dir_that_cannot_be_made_exit_2_writes_nothing(self, tmp_path, capsys, below):
        # FileExistsError for the file itself, NotADirectoryError below it
        taken = tmp_path / "taken"
        taken.write_text("x")
        assert main(["simulate", "--n", "12", "--k", "4", "--m", "2", "--out-dir", str(taken / below)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "x"

    def test_unknown_flag_exit_2(self):
        assert main(["simulate", "--frobnicate", "1"]) == 2

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_bad_threads_variable_exit_2_writes_nothing(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("LONGICAUSAL_THREADS", value)
        out = tmp_path / "run"
        assert main(["simulate", "--m", "2", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: LONGICAUSAL_THREADS must be an integer >= 1, got {value!r}\n"
        assert not out.exists()


class TestAnalyzeCommand:
    def test_raw_pipeline(self, tmp_path, corpus_csvs, capsys):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(
            ["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
             "--out-dir", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("estimator:") == 3 and "relative_risk_per_MMbbl:" in stdout
        est = read_csv(out / "estimates.csv")
        assert est[0][:3] == ["estimator", "beta1_hat", "se"]
        assert [r[0] for r in est[1:]] == ["naive", "adjusted", "msm"]
        for row in est[1:]:
            assert all(part == part for part in row)  # parsable
            float(row[1]), float(row[2]), float(row[5]), float(row[6]), float(row[7])
        weights = read_csv(out / "weights.csv")
        assert weights[0] == ["unit_id", "t", "factor", "cumulative_weight"]
        assert len(weights) == 1 + 30 * 6  # K=7 without baseline -> t=2..7
        panel = read_csv(out / "panel.csv")
        assert len(panel) == 1 + 30 * 7

        manifest = json.loads((out / "manifest.json").read_text())
        digest = "sha256:" + hashlib.sha256(wells_path.read_bytes()).hexdigest()
        assert manifest["input_digests"][str(wells_path)] == digest
        assert manifest["outputs"] == ["panel.csv", "panel_outcomes.csv", "estimates.csv", "weights.csv"]
        assert manifest["parameters"] == {
            **DEFAULT_ANALYZE_PARAMETERS, "wells": str(wells_path), "catalog": str(catalog_path)
        }

    def test_rerun_is_bit_identical(self, tmp_path, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                         "--out-dir", str(out)]) == 0
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()
        assert (a / "weights.csv").read_bytes() == (b / "weights.csv").read_bytes()

    def test_cluster_sensitivity_flag(self, tmp_path, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "k50"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--clusters", "50", "--out-dir", str(out)])
        assert code == 0
        assert len(read_csv(out / "estimates.csv")) == 4
        assert len(read_csv(out / "panel.csv")) == 1 + 50 * 7

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_linkage_flag(self, tmp_path, corpus_csvs, linkage):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / linkage
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--linkage", linkage, "--out-dir", str(out)])
        assert code == 0
        assert len(read_csv(out / "panel_outcomes.csv")) == 1 + 30

    def test_nonconverged_fit_exit_1(self, tmp_path, corpus_csvs, capsys, monkeypatch):
        naive = longicausal.cli.naive_poisson
        monkeypatch.setattr(
            longicausal.cli, "naive_poisson",
            lambda data: dataclasses.replace(naive(data), converged=False),
        )
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--out-dir", str(out)])
        assert code == 1
        assert "naive" in capsys.readouterr().err
        assert not out.exists()

    def test_single_cluster_exit_1_writes_nothing(self, tmp_path, corpus_csvs, capsys):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--clusters", "1", "--out-dir", str(out)])
        assert code == 1
        assert "2 units" in capsys.readouterr().err
        assert not out.exists()

    def test_prebuilt_panel_inputs(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(31)
        vols, quakes, outcomes = [], [], []
        for i in range(12):
            vols.append(rng.uniform(1e5, 9e5, 7))
            quakes.append((rng.random(7) < 0.4).astype(int))
            outcomes.append(int(rng.poisson(3.0)))
        ds = make_dataset(vols, quakes, outcomes, unit_ids=[f"u{i}" for i in range(12)])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        out = tmp_path / "out"
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(out)])
        assert code == 0
        assert len(read_csv(out / "estimates.csv")) == 4
        assert not (out / "panel.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"] == {
            **DEFAULT_ANALYZE_PARAMETERS, "panel": str(tmp_path / "p.csv"), "outcomes": str(tmp_path / "y.csv")
        }

        flags = ["--robust", "HC1", "--truncate-weights", "--bbox", "32,34,-99,-96", "--clusters", "5",
                 "--radius-km", "9.5", "--period-months", "2", "--mag-cut", "3", "--linkage", "single",
                 "--start", "2014-01", "--end", "2015-12"]
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     *flags, "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"] == {
            "panel": str(tmp_path / "p.csv"),
            "outcomes": str(tmp_path / "y.csv"),
            "wells": None,
            "catalog": None,
            "clusters": 5,
            "radius_km": 9.5,
            "period_months": 2,
            "mag_cut": 3.0,
            "bbox": [32.0, 34.0, -99.0, -96.0],
            "linkage": "single",
            "truncate_weights": True,
            "robust": "HC1",
            "start": "2014-01",
            "end": "2015-12",
        }

    def test_requires_exactly_one_input_mode(self, tmp_path, corpus_csvs, capsys):
        wells_path, catalog_path = corpus_csvs
        assert main(["analyze"]) == 2
        assert main(["analyze", "--wells", str(wells_path)]) == 2
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--panel", "x.csv", "--outcomes", "y.csv"]) == 2
        for argv in (["--panel", "x.csv"], ["--outcomes", "y.csv"], ["--wells", str(wells_path), "--outcomes", "y.csv"],
                     ["--catalog", str(catalog_path), "--panel", "x.csv"]):
            assert main(["analyze", *argv, "--out-dir", str(tmp_path / "run")]) == 2
        message = "error: analyze needs either --wells and --catalog, or --panel and --outcomes\n"
        assert capsys.readouterr().err == message * 7
        assert not (tmp_path / "run").exists()

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "wells.csv"
        bad.write_text("well_id,longitude,latitude,year_month,volume_bbl\nw1,-97.0,33.0,2014-01,oops\n")
        cat = tmp_path / "cat.csv"
        cat.write_text("event_id,longitude,latitude,origin_time_iso8601,magnitude\n")
        code = main(["analyze", "--wells", str(bad), "--catalog", str(cat), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "volume_bbl" in err

    @pytest.mark.parametrize("bad", ["wells", "catalog", "panel"])
    def test_non_utf8_input_exit_2_writes_nothing(self, tmp_path, corpus_csvs, capsys, bad):
        ds = make_dataset([[1e5, 2e5], [3e5, 4e5]], [[0, 1], [1, 0]], [1, 2], unit_ids=["u0", "u1"])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        paths = dict(zip(["wells", "catalog"], corpus_csvs), panel=tmp_path / "p.csv", outcomes=tmp_path / "y.csv")
        data = paths[bad].read_bytes()
        paths[bad] = tmp_path / f"latin1-{bad}.csv"
        paths[bad].write_bytes(data[:-4] + b"\xe9" + data[-4:])  # one latin-1 byte in the last row
        modes = ["panel", "outcomes"] if bad == "panel" else ["wells", "catalog"]
        out = tmp_path / "run"
        code = main(["analyze", *(arg for m in modes for arg in (f"--{m}", str(paths[m]))), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[bad]}: not UTF-8 text") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad, rest", [
        ("wells", ",-97.0,33.0,2014-01,5"),
        ("catalog", ",-97.0,33.0,2014-05-12T03:27:00,3.0"),
        ("panel", ",1,5,0"),
    ])
    def test_oversize_field_exit_2_writes_nothing(self, tmp_path, corpus_csvs, capsys, bad, rest):
        # csv.reader refuses a field over csv.field_size_limit() (131,072 characters)
        ds = make_dataset([[1e5, 2e5], [3e5, 4e5]], [[0, 1], [1, 0]], [1, 2], unit_ids=["u0", "u1"])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        paths = dict(zip(["wells", "catalog"], corpus_csvs), panel=tmp_path / "p.csv", outcomes=tmp_path / "y.csv")
        data = paths[bad].read_bytes()
        paths[bad] = tmp_path / f"oversize-{bad}.csv"
        paths[bad].write_bytes(data + ("x" * 200_000 + rest + "\r\n").encode())
        modes = ["panel", "outcomes"] if bad == "panel" else ["wells", "catalog"]
        out = tmp_path / "run"
        code = main(["analyze", *(arg for m in modes for arg in (f"--{m}", str(paths[m]))), "--out-dir", str(out)])
        assert code == 2
        row = data.count(b"\n") + 1
        err = capsys.readouterr().err
        assert err == f"error: {paths[bad]}: field larger than field limit (131072) (row {row})\n"
        assert not out.exists()

    def test_single_unit_panel_exit_1(self, tmp_path, capsys):
        ds = make_dataset([[1e5, 2e5, 3e5]], [[0, 1, 0]], [3], unit_ids=["only"])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "2 units" in capsys.readouterr().err

    def test_missing_input_file_exit_2(self, tmp_path):
        code = main(["analyze", "--wells", str(tmp_path / "nope.csv"), "--catalog", str(tmp_path / "nope2.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("modes", [("wells", "catalog"), ("panel", "outcomes")], ids=["raw", "panel"])
    def test_directory_as_input_exit_2_writes_nothing(self, tmp_path, capsys, modes):
        out = tmp_path / "run"
        code = main(["analyze", *(arg for m in modes for arg in (f"--{m}", str(tmp_path))), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert str(tmp_path) in err
        assert not out.exists()

    def test_bad_bbox_exit_2(self, corpus_csvs, capsys):
        wells_path, catalog_path = corpus_csvs
        for bbox in ("33,32,-98,-96", "nan,33.68,-98.38,-96.74", "32.07,inf,-98.38,-96.74",
                     "32.07,33.68,-inf,-96.74", "32.07,33.68,-98.38,NaN"):
            assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                         "--bbox", bbox]) == 2
            assert "--bbox" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mag-cut", "--radius-km"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_exit_2_writes_nothing(self, tmp_path, corpus_csvs, capsys, flag, value):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     f"{flag}={value}", "--out-dir", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_truncate_and_robust_flags(self, tmp_path, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--out-dir", str(a)]) == 0
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--truncate-weights", "--robust", "HC1", "--out-dir", str(b)]) == 0
        est_a, est_b = read_csv(a / "estimates.csv"), read_csv(b / "estimates.csv")
        assert est_a[3][2] != est_b[3][2]  # msm SE changes under HC1 + truncation


class TestTopLevel:
    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_import_does_not_load_clustering(self):
        # only clustering needs scipy, and it imports it when called, so
        # importing the CLI (what every simulate run pays for) loads none of it
        code = "import sys, longicausal.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        src = str(Path(longicausal.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert result.stdout.strip() == "[]"

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "longicausal" in capsys.readouterr().out
