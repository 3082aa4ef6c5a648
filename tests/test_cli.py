"""CLI contracts: exit codes, file outputs, manifests, reproducibility."""

import csv
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longicausal.cli
from longicausal.cli import main
from longicausal.estimators import estimate
from longicausal.exceptions import SimulationError
from longicausal.iptw import stabilized_weights
from longicausal.panel import read_panel_csv, write_panel_csv
from longicausal.simulate import DgpParams, SimulationConfig, run_monte_carlo

from conftest import make_dataset

SIMULATE_FLOAT_FLAGS = [
    "--causal-effect", "--confounding", "--a-threshold", "--a0-mean", "--a0-sd", "--a-drift", "--a-l-penalty",
    "--a-sd",
]
TREATMENT_OVERFLOW = ("SimulationError: treatment recursion overflow: A is not finite; "
                      "review a0_mean/a0_sd/a_drift/a_l_penalty/a_sd parameters")
SPREAD_OVERFLOW = ("SimulationError: treatment recursion overflow: the spread of A is not finite; "
                   "review a0_mean/a0_sd/a_drift/a_l_penalty/a_sd parameters")
POISSON_OVERFLOW = ("SimulationError: Poisson mean overflow: exp argument inf > 43.67; "
                    "review causal_effect/confounding/volume parameters")
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


def run_outputs(out_dir):
    """A run's files by name, and its manifest without the two keys that vary from run to run."""
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    for key in ("started_utc", "duration_seconds"):
        manifest.pop(key)
    return files, manifest


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

    @pytest.mark.parametrize(
        "sigma, volume, message",
        [("0", "-5", "volume must be >= 0, got -5.0"), ("100", "1e300", "expected count at volume 1e+300 overflows")],
        ids=["negative-volume", "infinite-count"],
    )
    def test_volume_out_of_domain_exit_1(self, capsys, sigma, volume, message):
        argv = ["baseline", "gr", "--sigma", sigma, "--b", "0", "--m", "0", "--a-tec", "0", "--volume", volume]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""  # nothing is printed unless every line can be

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

    @pytest.mark.parametrize(
        "argument, cause",
        [
            *(pytest.param(f"{flag}=1e308", TREATMENT_OVERFLOW, id=flag)
              for flag in ("--a-sd", "--a0-sd", "--a-drift", "--a-l-penalty")),
            *(pytest.param(f"{flag}=1e308", POISSON_OVERFLOW, id=flag)
              for flag in ("--a0-mean", "--causal-effect", "--confounding")),
            *(pytest.param(argument, SPREAD_OVERFLOW, id=argument)
              for argument in ("--a0-mean=-1e308", "--a0-mean=-1e306", "--a-drift=-1e306", "--a-l-penalty=-1e306")),
            pytest.param("--a-drift=-1e308", "PanelError: treatments must be finite, got -inf",
                         id="--a-drift=-1e308"),
        ],
    )
    def test_overflowing_dgp_flag_prints_one_error_line(self, tmp_path, capsys, argument, cause):
        # A, its sum or the Poisson mean overflows: the typed error names the cause, and numpy warns nothing
        out = tmp_path / "run"
        assert main(["simulate", "--n", "50", "--k", "8", "--m", "3", argument, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: 3 of 3 replicates failed (budget 1%): replicate 0: {cause}")
        assert err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", "", pytest.param("1" * 5000, id="5000-digits")])
    def test_bad_threads_variable_exit_2_writes_nothing(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("LONGICAUSAL_THREADS", value)
        out = tmp_path / "run"
        assert main(["simulate", "--m", "2", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: LONGICAUSAL_THREADS must be an integer >= 1, got {value!r}\n"
        assert not out.exists()

    def test_threads_variable_reaches_the_pool(self, tmp_path, monkeypatch, recording_pool):
        monkeypatch.setattr("longicausal.simulate.BLOCK_ROWS", 12 * 4 * 2)  # two replicates a block, three blocks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("LONGICAUSAL_THREADS", threads)
            out = tmp_path / threads
            assert main(["simulate", "--n", "12", "--k", "4", "--m", "6", "--seed", "5", "--out-dir", str(out)]) == 0
            runs[threads] = run_outputs(out)
        assert recording_pool == [2]
        assert runs["2"] == runs["1"]


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

    def test_missing_months_warned_on_stderr(self, tmp_path, corpus_csvs):
        # pytest's log capture hides the line logging's last-resort handler prints, so the CLI runs in its own process
        wells_path, catalog_path = corpus_csvs
        src = str(Path(longicausal.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path), "--out-dir", str(tmp_path)]
        result = subprocess.run([sys.executable, "-m", "longicausal.cli", *argv], capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0
        assert result.stderr == "45 of 65 wells have no reported volume for some study months; treating those as 0 bbl\n"

    def test_nonconverged_fit_exit_1(self, tmp_path, corpus_csvs, capsys, monkeypatch):
        estimate = longicausal.cli.estimate
        monkeypatch.setattr(
            longicausal.cli, "estimate",
            lambda data, sw, **options: [
                rep._replace(converged=False) if rep.estimator == "naive" else rep
                for rep in estimate(data, sw, **options)
            ],
        )
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--out-dir", str(out)])
        assert code == 1
        assert "naive" in capsys.readouterr().err
        assert not out.exists()

    def test_msm_only_failure_exit_1_writes_nothing(self, tmp_path, corpus_csvs, capsys):
        # at 30 km both units total 6 event periods, so the adjusted model drops cumL and fits
        # like the naive one; only the MSM fails, as HC1 needs more than 2 units for 2 coefficients
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--clusters", "2", "--radius-km", "30", "--robust", "HC1", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: HC1 scaling requires n > p"
        assert not out.exists()

    def test_msm_without_residual_df_exit_1_writes_nothing(self, tmp_path, corpus_csvs, capsys):
        # the same two units with the default HC0: the weighted fit interpolates both, so its sandwich is rounding
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--clusters", "2", "--radius-km", "30", "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == ["error: robust covariance requires n > p"]
        assert not out.exists()

    def test_single_cluster_exit_1_writes_nothing(self, tmp_path, corpus_csvs, capsys):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--clusters", "1", "--out-dir", str(out)])
        assert code == 1
        assert "2 units" in capsys.readouterr().err
        assert not out.exists()

    def test_more_clusters_than_wells_exit_1_writes_nothing(self, tmp_path, corpus_csvs, capsys):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--clusters", "66", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: 65 wells inside the bounding box cannot form 66 clusters\n"
        assert not out.exists()

    def test_no_counted_event_exit_1_writes_nothing(self, tmp_path, corpus_csvs, capsys):
        # every corpus magnitude is below 4.5, so no unit has a counted event
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--mag-cut", "5", "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: poisson responses are all zero where weighted; the MLE does not exist\n"
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

    @pytest.mark.parametrize("bad, rest", [
        ("wells", ",-97.0,33.0,2014-01,5"),
        ("catalog", ",-97.0,33.0,2014-05-12T03:27:00,3.0"),
        ("panel", ",1,5,0"),
    ])
    def test_nul_exit_2_writes_nothing(self, tmp_path, corpus_csvs, capsys, bad, rest):
        # csv.reader accepts NUL from Python 3.11 on, and numpy would drop a trailing one from an id
        ds = make_dataset([[1e5, 2e5], [3e5, 4e5]], [[0, 1], [1, 0]], [1, 2], unit_ids=["u0", "u1"])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        paths = dict(zip(["wells", "catalog"], corpus_csvs), panel=tmp_path / "p.csv", outcomes=tmp_path / "y.csv")
        data = paths[bad].read_bytes()
        paths[bad] = tmp_path / f"nul-{bad}.csv"
        paths[bad].write_bytes(data + ("x\0" + rest + "\r\n").encode())
        modes = ["panel", "outcomes"] if bad == "panel" else ["wells", "catalog"]
        out = tmp_path / "run"
        code = main(["analyze", *(arg for m in modes for arg in (f"--{m}", str(paths[m]))), "--out-dir", str(out)])
        assert code == 2
        row = data.count(b"\n") + 1
        assert capsys.readouterr().err == f"error: {paths[bad]}: line contains NUL (row {row})\n"
        assert not out.exists()

    def test_huge_period_exit_2_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text("unit_id,period,volume_bbl,quake_indicator\na,1000000000000,5,0\n")
        (tmp_path / "y.csv").write_text("unit_id,cumulative_quakes\na,0\n")
        out = tmp_path / "run"
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unit 'a' is missing periods [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_single_unit_panel_exit_1(self, tmp_path, capsys):
        ds = make_dataset([[1e5, 2e5, 3e5]], [[0, 1, 0]], [3], unit_ids=["only"])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "2 units" in capsys.readouterr().err

    def test_rank_deficient_treatment_model_exit_1_writes_nothing(self, tmp_path, capsys):
        # volumes 1000 + 500*L make A(t-1) affine in L(t-1): the denominator design
        # [1, A(t-1), L(t-1)] is rank deficient, while the numerator's [1, A(t-1)] fits
        rng = np.random.default_rng(5)
        quakes = (rng.random((12, 6)) < 0.5).astype(int)
        ds = make_dataset(1000.0 + 500.0 * quakes, quakes, rng.poisson(3.0, 12), unit_ids=[f"u{i}" for i in range(12)])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        out = tmp_path / "run"
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: design matrix is rank deficient (singular value ratio below 1e-12)\n"
        assert not out.exists()

    def test_overflowing_volumes_exit_1_writes_nothing(self, tmp_path, capsys):
        # volumes near 1e306: every one is finite, but their spread (the weights' sd floor) overflows
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.uniform(1e306, 9e306, (30, 8)), rng.integers(0, 2, (30, 8)), rng.poisson(3.0, 30),
                          unit_ids=[f"u{i}" for i in range(30)])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        out = tmp_path / "run"
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("error: treatment values overflow: the spread of A is not finite; "
                                           "rescale the treatment (volume) values\n")
        assert not out.exists()

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
        for bbox, message in (
            ("33,32,-98,-96", "bbox must have lat_min < lat_max and lon_min < lon_max"),
            ("nan,33.68,-98.38,-96.74", "expected a finite number, got 'nan'"),
            ("32.07,inf,-98.38,-96.74", "expected a finite number, got 'inf'"),
            ("32.07,33.68,-inf,-96.74", "expected a finite number, got '-inf'"),
            ("32.07,33.68,-98.38,NaN", "expected a finite number, got 'NaN'"),
            ("1,2,3", "bbox must be lat_min,lat_max,lon_min,lon_max"),
        ):
            assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                         "--bbox", bbox]) == 2
            assert capsys.readouterr().err.endswith(f"argument --bbox: {message}\n")

    @pytest.mark.parametrize("flag", ["--mag-cut", "--radius-km"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_float_flag_exit_2_writes_nothing(self, tmp_path, corpus_csvs, capsys, flag, value):
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     f"{flag}={value}", "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and f"number, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--start", "--end"])
    @pytest.mark.parametrize("mode", ["raw", "panel"])
    @pytest.mark.parametrize("value", ["garbage", "2014-13", "", "2013-12-99"])
    def test_malformed_month_flag_exit_2_writes_nothing(self, tmp_path, corpus_csvs, capsys, monkeypatch,
                                                        flag, mode, value):
        monkeypatch.setattr(longicausal.cli, "load_wells_csv", None)  # a usage error stops before any input is read
        monkeypatch.setattr(longicausal.cli, "read_panel_csv", None)
        inputs = {"raw": ["--wells", str(corpus_csvs[0]), "--catalog", str(corpus_csvs[1])],
                  "panel": ["--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv")]}
        out = tmp_path / "run"
        assert main(["analyze", *inputs[mode], f"{flag}={value}", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: " in errors[0] and repr(value) in errors[0]
        assert captured.out == ""
        assert not out.exists()

    def test_month_flags_are_recorded_as_given(self, tmp_path, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--start", " 2013-01", "--end", "2016-12-31", "--out-dir", str(tmp_path)]) == 0
        parameters = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
        assert (parameters["start"], parameters["end"]) == (" 2013-01", "2016-12-31")

    def test_truncate_and_robust_flags(self, tmp_path, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--out-dir", str(a)]) == 0
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--truncate-weights", "--robust", "HC1", "--out-dir", str(b)]) == 0
        est_a, est_b = read_csv(a / "estimates.csv"), read_csv(b / "estimates.csv")
        assert est_a[3][2] != est_b[3][2]  # msm SE changes under HC1 + truncation

    def test_truncation_bounds_are_in_the_manifest(self, tmp_path, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path)]
        assert main([*argv, "--out-dir", str(a)]) == 0
        assert main([*argv, "--truncate-weights", "--out-dir", str(b)]) == 0
        plain, truncated = (json.loads((out / "manifest.json").read_text()) for out in (a, b))
        assert "weights" not in plain
        data = read_panel_csv(b / "panel.csv", b / "panel_outcomes.csv")
        sw = stabilized_weights(data).per_unit_weights
        assert truncated["weights"] == {"truncation": np.percentile(sw, [1.0, 99.0]).tolist()}
        lo, hi = truncated["weights"]["truncation"]
        assert lo < hi
        # the MSM fits the weights clipped to those bounds
        assert read_csv(b / "estimates.csv")[1:] == [
            [rep.estimator, *(f"{v:.17g}" for v in (rep.beta1_hat, rep.se, *rep.ci95, rep.relative_risk_per_MMbbl,
                                                    rep.z, rep.p))]
            for rep in estimate(data, np.clip(sw, lo, hi))
        ]
        assert plain["parameters"] == {**truncated["parameters"], "truncate_weights": False}
        # weights.csv lists the untruncated factors either way
        assert (a / "weights.csv").read_bytes() == (b / "weights.csv").read_bytes()
        assert (a / "estimates.csv").read_bytes() != (b / "estimates.csv").read_bytes()


class FakeLibc:
    """Stands in for `ctypes.CDLL(None)`: records each mallopt call."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestKeepFreedMemory:
    SIMULATE = ["simulate", "--n", "12", "--k", "4", "--m", "3", "--seed", "7"]

    @pytest.fixture
    def libc(self, monkeypatch):
        libc, real = FakeLibc(), ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **kw: libc if name is None else real(name, *a, **kw))
        return libc

    def test_simulate_sets_trim_and_mmap_thresholds(self, tmp_path, libc):
        assert main([*self.SIMULATE, "--out-dir", str(tmp_path)]) == 0
        assert libc.calls == [(-1, 256 << 20), (-3, 32 << 20)]

    def test_other_commands_and_the_library_leave_malloc_alone(self, tmp_path, corpus_csvs, capsys, libc):
        wells_path, catalog_path = corpus_csvs
        raw = tmp_path / "raw"
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--out-dir", str(raw)]) == 0
        assert main(["analyze", "--panel", str(raw / "panel.csv"), "--outcomes", str(raw / "panel_outcomes.csv"),
                     "--out-dir", str(tmp_path / "panel")]) == 0
        assert main(GR_ARGV) == 0
        run_monte_carlo(SimulationConfig(n_units=12, n_periods=4, n_replicates=3), threads=1)
        assert libc.calls == []

    @pytest.mark.parametrize("cdll", [OSError("no libc"), TypeError("no name"), object()],
                             ids=["oserror", "typeerror", "no-mallopt"])
    def test_without_mallopt_simulate_is_unchanged(self, tmp_path, monkeypatch, cdll):
        assert main([*self.SIMULATE, "--out-dir", str(tmp_path / "plain")]) == 0

        def fake_cdll(name, *a, **kw):
            if isinstance(cdll, Exception):
                raise cdll
            return cdll

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert main([*self.SIMULATE, "--out-dir", str(tmp_path / "patched")]) == 0
        assert run_outputs(tmp_path / "patched") == run_outputs(tmp_path / "plain")


class TestTopLevel:
    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_import_does_not_load_clustering(self):
        # only clustering needs scipy and only worker processes need
        # multiprocessing; each is imported when used, so importing the CLI
        # (what every simulate run pays for) loads none of them
        code = (
            "import sys, longicausal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
        )
        src = str(Path(longicausal.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert result.stdout.strip() == "[]"

    def test_negative_values_in_exponent_form_parse_after_equals(self, tmp_path, corpus_csvs, capsys):
        # argparse takes "-1e-3" after a space for an option string; "--flag=-1e-3" always parses
        args = longicausal.cli.build_parser().parse_args(["simulate", "--confounding=-1e-3", "--a-l-penalty=-5.5e1"])
        assert (args.confounding, args.a_l_penalty) == (-1e-3, -55.0)
        assert main(["baseline", "gr", "--sigma=-1.5e0", "--b", "1", "--m", "0"]) == 0
        assert capsys.readouterr().out == "0.03162\n"
        wells_path, catalog_path = corpus_csvs
        out = tmp_path / "run"
        code = main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--bbox=-34,-33,150,151", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: 0 wells inside the bounding box cannot form 30 clusters\n"
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "longicausal" in capsys.readouterr().out

    def test_blas_thread_count_does_not_change_outputs(self, tmp_path, corpus_csvs):
        # seeded runs promise the same outputs at any thread count, the BLAS library's included
        wells_path, catalog_path = corpus_csvs
        src = str(Path(longicausal.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        commands = {
            "simulate": ["simulate", "--n", "600", "--m", "10", "--seed", "3"],
            "analyze": ["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path)],
        }
        outputs = {}
        for threads in ("1", "2"):
            env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
            for name, argv in commands.items():
                out = tmp_path / threads / name
                subprocess.run([sys.executable, "-m", "longicausal.cli", *argv, "--out-dir", str(out)],
                               capture_output=True, check=True, env=env)
                outputs[threads, name] = run_outputs(out)
        for name in commands:
            assert outputs["1", name] == outputs["2", name]
