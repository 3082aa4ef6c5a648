"""CLI contracts: exit codes, file outputs, manifests, reproducibility."""

import csv
import dataclasses
import hashlib
import json

import pytest

import longicausal.cli
from longicausal.cli import main
from longicausal.panel import PanelDataset, write_panel_csv

from conftest import make_panel


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
        assert manifest["parameters"]["m"] == 3
        assert manifest["tool_version"]

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

    def test_unknown_flag_exit_2(self):
        assert main(["simulate", "--frobnicate", "1"]) == 2


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
        assert not (out / "estimates.csv").exists()
        assert not (out / "weights.csv").exists()

    def test_prebuilt_panel_inputs(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(31)
        panels = []
        for i in range(12):
            vols = rng.uniform(1e5, 9e5, 7)
            quakes = (rng.random(7) < 0.4).astype(int)
            panels.append(make_panel(f"u{i}", vols, quakes, outcome=int(rng.poisson(3.0)) ))
        ds = PanelDataset(panels)
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        out = tmp_path / "out"
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(out)])
        assert code == 0
        assert len(read_csv(out / "estimates.csv")) == 4
        assert not (out / "panel.csv").exists()

    def test_requires_exactly_one_input_mode(self, tmp_path, corpus_csvs, capsys):
        wells_path, catalog_path = corpus_csvs
        assert main(["analyze"]) == 2
        assert main(["analyze", "--wells", str(wells_path)]) == 2
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--panel", "x.csv", "--outcomes", "y.csv"]) == 2

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "wells.csv"
        bad.write_text("well_id,longitude,latitude,year_month,volume_bbl\nw1,-97.0,33.0,2014-01,oops\n")
        cat = tmp_path / "cat.csv"
        cat.write_text("event_id,longitude,latitude,origin_time_iso8601,magnitude\n")
        code = main(["analyze", "--wells", str(bad), "--catalog", str(cat), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "volume_bbl" in err

    def test_single_unit_panel_exit_1(self, tmp_path, capsys):
        ds = PanelDataset([make_panel("only", [1e5, 2e5, 3e5], [0, 1, 0], outcome=3)])
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        code = main(["analyze", "--panel", str(tmp_path / "p.csv"), "--outcomes", str(tmp_path / "y.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "2 units" in capsys.readouterr().err

    def test_missing_input_file_exit_2(self, tmp_path):
        code = main(["analyze", "--wells", str(tmp_path / "nope.csv"), "--catalog", str(tmp_path / "nope2.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_bad_bbox_exit_2(self, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        assert main(["analyze", "--wells", str(wells_path), "--catalog", str(catalog_path),
                     "--bbox", "33,32,-98,-96"]) == 2

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

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "longicausal" in capsys.readouterr().out
