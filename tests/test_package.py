"""The package's public names and the modules a run loads."""

import os
import subprocess
import sys
from pathlib import Path

import longicausal
from longicausal.panel import write_panel_csv
from longicausal.simulate import SimulationConfig, generate_dataset, replicate_seed


def test_all_names_exist_sorted_and_unique():
    names = longicausal.__all__
    assert [name for name in names if not hasattr(longicausal, name)] == []
    assert names == sorted(set(names))


def test_simulate_does_not_load_logging(tmp_path):
    # only analyze's missing-month warning logs, and it imports logging there
    code = (
        "import sys, longicausal.cli; "
        f"code = longicausal.cli.main(['simulate', '--m', '3', '--out-dir', {str(tmp_path)!r}]); "
        "print(code, 'logging' in sys.modules)"
    )
    src = str(Path(longicausal.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout == "0 False\n"


def test_simulate_and_panel_analyze_do_not_load_scipy(tmp_path):
    # only analyze's well clustering needs scipy, and geo.cluster_wells imports it there
    data = generate_dataset(SimulationConfig(n_replicates=1, master_seed=44), replicate_seed(44, 0))
    write_panel_csv(data, tmp_path / "panel.csv", tmp_path / "outcomes.csv")
    code = (
        "import sys, longicausal.cli; "
        f"codes = [longicausal.cli.main(['simulate', '--m', '3', '--out-dir', {str(tmp_path / 'sim')!r}]), "
        f"longicausal.cli.main(['analyze', '--panel', {str(tmp_path / 'panel.csv')!r}, "
        f"'--outcomes', {str(tmp_path / 'outcomes.csv')!r}, '--out-dir', {str(tmp_path / 'analyze')!r}])]; "
        "print(codes, sorted(name for name in sys.modules if name.startswith('scipy')))"
    )
    src = str(Path(longicausal.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.splitlines()[-1] == "[0, 0] []"
