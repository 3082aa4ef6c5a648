"""The tables of tools/cmp_cli.py, which lists the CLI runs that must stay byte-identical across a change."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from longicausal.cli import build_parser

_SPEC = importlib.util.spec_from_file_location("cmp_cli", Path(__file__).parents[1] / "tools" / "cmp_cli.py")
cmp_cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cmp_cli)

RUNS = list(cmp_cli._runs(Path("inputs")))


def test_labels_are_unique():
    assert [label for label, count in Counter(label for label, _, _ in RUNS).items() if count > 1] == []


def test_invocations_are_unique():
    pairs = Counter((args, threads) for _, args, threads in RUNS)
    assert [pair for pair, count in pairs.items() if count > 1] == []


def test_every_run_parses():
    # a run whose argv argparse refuses exits 2 on both checkouts alike and so checks nothing
    parser, refused = build_parser(), []
    for label, args, _ in RUNS:
        try:
            parser.parse_args(args)
        except SystemExit:
            refused.append(label)
    assert refused == []


def test_every_analyze_run_gives_one_input_mode():
    modes = {(True, True, False, False), (False, False, True, True)}  # --wells and --catalog, or --panel and --outcomes
    parser = build_parser()
    parsed = [(label, parser.parse_args(args)) for label, args, _ in RUNS if args[0] == "analyze"]
    assert len(parsed) > 0
    assert [label for label, ns in parsed
            if tuple(path is not None for path in (ns.wells, ns.catalog, ns.panel, ns.outcomes)) not in modes] == []


def test_every_variant_is_read_and_every_read_variant_exists():
    read = {runs.inputs for runs in cmp_cli.RUNS} - {None}
    assert read == set(cmp_cli.VARIANTS)


def test_every_input_a_run_reads_is_built():
    # _write_inputs builds, at each of SEEDS, the two variants made by commands and each rewrite that a run reads
    variants = cmp_cli.VARIANTS
    read = {(seed, runs.inputs) for runs in cmp_cli.RUNS if runs.inputs is not None for seed in runs.seeds}
    built = {(seed, name) for seed in cmp_cli.SEEDS for name, variant in variants.items()
             if variant.source is None or (seed, name) in read}
    assert read - built == set()
    assert [(seed, name) for seed, name in built
            if variants[name].source is not None and (seed, variants[name].source) not in built] == []


def test_indicator_panel_with_one_indicator_value_is_refused(tmp_path):
    (tmp_path / "panel.csv").write_text("unit_id,period,volume,quake_indicator\nc00,1,5.0,0\nc00,2,6.0,0\n")
    with pytest.raises(ValueError, match=r"panel\.csv has quake indicators \['0'\], not both 0 and 1"):
        cmp_cli._rewrite(tmp_path / "panel.csv", tmp_path / "out.csv", cmp_cli._indicator_volumes, {})


def test_changed_keys_names_changed_added_and_removed_keys_at_any_depth():
    before = {"started_utc": "a", "duration_seconds": 1.0, "version": "0.1.0",
              "parameters": {"robust": "HC0", "seed": 0, "bbox": None, "nested": {"x": [1, 2]}}, "outputs": ["a.csv"]}
    after = {"started_utc": "b", "version": "0.1.0", "timings": {"weights": 0.5}, "outputs": "a.csv",
             "parameters": {"robust": "HC1", "seed": 0, "nested": {"x": [1, 3]}, "radius_km": 8.0}}
    assert cmp_cli._changed_keys(before, after) == [
        "outputs", "parameters.bbox", "parameters.nested.x", "parameters.radius_km", "parameters.robust", "timings"]
    assert cmp_cli._changed_keys(after, after) == []
    assert cmp_cli._changed_keys({"parameters": {"started_utc": 1}}, {"parameters": {}}) == ["parameters.started_utc"]
