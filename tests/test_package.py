"""The package's public names and the modules a run loads."""

import os
import subprocess
import sys
from pathlib import Path

import longicausal


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
