"""Check that two checkouts of longicausal give byte-identical CLI output.

    python3 tools/cmp_cli.py PARENT_ROOT CHANGE_ROOT

Runs every CLI invocation that RUNS lists once per checkout. A run's two
invocations run side by side, one process per checkout, so a `simulate` run
with LONGICAUSAL_THREADS=2 has four worker processes at once; its outputs
must not depend on how many CPUs they share. The `analyze` runs read input
files that PARENT_ROOT builds once per seed: the CSVs of its
`bench/gen_inputs.py`, the panel its `analyze` writes from them at default
flags, and the rewrites of those files that VARIANTS lists.

Each invocation runs `python -m longicausal.cli` with PYTHONPATH=<root>/src
and PYTHONDONTWRITEBYTECODE=1 in an empty working directory, which is the
default --out-dir. Both checkouts read the same input paths. Every output
file, stdout, stderr and the exit code are compared; manifest.json is
compared without `started_utc` and `duration_seconds`, and when it differs
the dotted paths of the keys that changed, were added or were removed are
named. All files go to a temporary directory outside both checkouts; nothing
is written under bench/.

Prints each differing path and a count line. Exits 0 when every run is
identical, else 1.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

SEEDS = range(4)
VOLATILE_MANIFEST_KEYS = ("started_utc", "duration_seconds")
FLAGS = {"wells.csv": "--wells", "catalog.csv": "--catalog", "panel.csv": "--panel", "panel_outcomes.csv": "--outcomes"}
_MISSING = object()


class Variant(NamedTuple):
    """Files written to `seed<N>/<name>/`; a run on the variant reads them and the rest of `source`'s files.

    `transform(records, source path)` gives the records after the header, which a csv.writer with the `writer`
    options writes; with `writer` None, `transform(data)` maps the source file's bytes. The two variants without
    a `source` are built by PARENT_ROOT's code.
    """
    source: str | None
    files: tuple[str, ...]
    transform: Callable | None = None
    writer: dict | None = {"lineterminator": "\n"}


class Runs(NamedTuple):
    """`command` with each flag set, at each seed and each LONGICAUSAL_THREADS value (None leaves it unset).

    A seed picks `inputs`' files of that seed when `inputs` names a variant, else it is passed as `--seed`.
    """
    command: str
    flag_sets: tuple[str, ...] = ("",)
    inputs: str | None = None
    seeds: tuple = (None,)
    threads: tuple = (None,)


def _linear_volumes(records, _):
    first = {}  # each unit's records start at period 1
    return ([unit, period, first.setdefault(unit, float(volume)) + 1000.0 * (int(period) - 1), quake]
            for unit, period, volume, quake in records)


def _indicator_volumes(records, source: Path) -> list:
    rows = [[unit, period, 1000.0 + 500.0 * int(quake), quake] for unit, period, _, quake in records]
    seen = {quake for *_, quake in rows}
    # with one indicator value the L(t-1) column is dropped and the design is full rank
    if seen != {"0", "1"}:
        raise ValueError(f"{source} has quake indicators {sorted(seen)}, not both 0 and 1")
    return rows


def _rename(ids: dict[str, str]) -> Callable:
    return lambda records, _: ([ids.get(unit, unit), *rest] for unit, *rest in records)


PANEL_FILES = ("panel.csv", "panel_outcomes.csv")
VARIANTS = {
    # the CSVs of PARENT_ROOT's bench/gen_inputs.py
    "": Variant(None, ("wells.csv", "catalog.csv")),
    # every field quoted, lines ended by CRLF
    "quoted": Variant("", ("wells.csv", "catalog.csv"), lambda records, _: records,
                      {"quoting": csv.QUOTE_ALL, "lineterminator": "\r\n"}),
    # the last record's magnitude is `x`, so the run exits 2 naming that record's row
    "bad": Variant("", ("catalog.csv",), lambda data: data.rstrip(b"\n").rpartition(b",")[0] + b",x\n", None),
    # the panel.csv and panel_outcomes.csv that PARENT_ROOT's `analyze` writes at default flags
    "panel": Variant(None, PANEL_FILES),
    # each unit's volume in period t is its period-1 volume + 1000*(t-1): the numerator treatment model fits exactly
    "linear": Variant("panel", ("panel.csv",), _linear_volumes),
    # each volume is 1000 + 500*quake_indicator: the denominator's design [1, A(t-1), L(t-1)] is rank deficient
    "indicator": Variant("panel", ("panel.csv",), _indicator_volumes),
    # every quake_indicator is 0: cumL is constant, the adjusted fit is the naive fit and the weights drop L(t-1)
    "quiet": Variant("panel", ("panel.csv",), lambda records, _: ([u, p, v, 0] for u, p, v, q in records)),
    # units c00-c03 hold a comma, a double quote, a leading space and a line break, which weights.csv quotes
    "renamed": Variant("panel", PANEL_FILES, _rename({"c00": "c,00", "c01": 'q"1', "c02": " lead", "c03": "x\ny"})),
    # units c00-c06 hold a comma, a double quote, CRLF, a bare CR, a leading space, e-acute, and all at once, so
    # weights.csv quotes fields with every character csv's quoting rule names
    "special": Variant("panel", PANEL_FILES, _rename({"c00": "c,00", "c01": 'q"1', "c02": "crlf\r\nid", "c03": "cr\rid",
                                                      "c04": " lead", "c05": "\u00e905", "c06": ' \u00e9,"06"\r\n\r'}),
                       {}),
}

THREADS = ("1", "2")
RUNS = (
    # three sizes, one of them with K=2, in one process and in the worker pool
    Runs("simulate", ("--n 50 --m 300", "--n 600 --m 40", "--n 20 --k 2 --m 200"), seeds=SEEDS, threads=THREADS),
    # 20 blocks of 10 replicates, so one process runs many blocks in turn; 3 blocks of 3-unit panels, in which about
    # a quarter of the replicates have a constant cumL; N*K of 50,000 pooled rows, so every block holds one replicate
    Runs("simulate", ("--n 600 --m 200", "--n 3 --k 2 --m 20000", "--n 2500 --k 20 --m 3"), seeds=(0, 1),
         threads=THREADS),
    # the largest master seed fills the high word of every replicate's 128-bit Philox key
    Runs("simulate", ("--m 50",), seeds=(2**64 - 1,), threads=THREADS),
    # every replicate fails the sd floor, the numerator's with the penalty 0 and the denominator's without: exit 1
    Runs("simulate", ("--n 20 --k 3 --m 1000 --a-l-penalty 0 --a-sd 1e-12", "--n 20 --k 3 --m 1000 --a-sd 1e-12"),
         threads=THREADS),
    # every replicate fails generation: A overflows, the Poisson mean overflows, A is -inf, A's spread overflows
    Runs("simulate", ("--m 3 --a-sd 1e308", "--m 3 --causal-effect 1", "--m 3 --a-drift=-1e308",
                      "--m 3 --a0-mean=-1e306", "--m 3 --a-drift=-1e306"), threads=THREADS),
    # a thread count that is not a number: exit 2 with one `error:` line, writing nothing
    Runs("simulate", ("--m 2",), threads=("two",)),
    # wide, overlapping latitude bands at 60 km; no longitude band at 30000 km, past half the Earth's circumference;
    # exit 1 before writing anything when only the MSM fails (--clusters 2 --robust HC1) and when all three fail
    Runs("analyze", ("", "--truncate-weights", "--bbox 32.6,33.3,-98.1,-97.1 --truncate-weights --robust HC1",
                     "--linkage average --clusters 25", "--linkage single --clusters 40 --radius-km 60",
                     "--linkage complete --radius-km 4", "--radius-km 30000", "--clusters 2 --robust HC1",
                     "--mag-cut 9"), inputs="", seeds=SEEDS),
    # the default HC0 sandwich of two units and two coefficients has no residual degrees of freedom: exit 1
    Runs("analyze", ("--clusters 2",), inputs="", seeds=(0,)),
    # the panel path, read from the files the raw path writes
    Runs("analyze", ("", "--robust HC1", "--truncate-weights"), inputs="panel", seeds=SEEDS),
    # each rewrite at default flags; linear and indicator exit 1 in the weights stage, writing nothing
    *(Runs("analyze", inputs=name, seeds=SEEDS)
      for name in ("quoted", "bad", "linear", "indicator", "quiet", "renamed")),
    # the special ids through truncated weights too
    Runs("analyze", ("", "--truncate-weights"), inputs="special", seeds=(0,)),
    # the rate factor alone, with --a-tec and --volume, --volume alone (exit 1), a power of ten that overflows (exit 1)
    Runs("baseline gr", ("--sigma -0.47 --b 1.41 --m 3", "--sigma -0.47 --b 1.41 --m 3 --a-tec 0 --volume 1e6",
                         "--sigma -0.47 --b 1.41 --m 3 --volume 1e6", "--sigma 400 --b 0 --m 0")),
)


def _env(root: Path, threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LONGICAUSAL_THREADS")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    if threads is not None:
        env["LONGICAUSAL_THREADS"] = threads
    return env


def _input_args(data: Path, name: str | None) -> list[str]:
    """The CLI's input flags for variant `name` under seed directory `data`: its files, and its source's others."""
    paths = {}
    while name is not None:
        paths, name = {**{file: data / name / file for file in VARIANTS[name].files}, **paths}, VARIANTS[name].source
    return [arg for file, path in paths.items() for arg in (FLAGS[file], str(path))]


def _rewrite(source: Path, target: Path, transform: Callable, writer: dict | None) -> None:
    if writer is None:
        target.write_bytes(transform(source.read_bytes()))
        return
    with open(source, newline="") as src, open(target, "w", newline="", encoding="utf-8") as dst:
        records = csv.reader(src)
        csv.writer(dst, **writer).writerows([next(records), *transform(records, source)])


def _write_inputs(parent: Path, inputs: Path) -> None:
    """Build, under `inputs/seed<N>/`, every variant that a run reads at seed N, with PARENT_ROOT's code."""
    read = {(seed, runs.inputs) for runs in RUNS for seed in runs.seeds}
    for seed in SEEDS:
        data = inputs / f"seed{seed}"
        for args in ((parent / "bench" / "gen_inputs.py", "--seed", seed, "--out-dir", data),
                     ("-m", "longicausal.cli", "analyze", *_input_args(data, ""), "--out-dir", data / "panel")):
            subprocess.run([sys.executable, *map(str, args)], env=_env(parent, None), check=True, capture_output=True)
        for name, (source, files, transform, writer) in VARIANTS.items():
            if source is not None and (seed, name) in read:
                (data / name).mkdir()
                for file in files:
                    _rewrite(data / source / file, data / name / file, transform, writer)


def _runs(inputs: Path):
    """(label, CLI arguments, LONGICAUSAL_THREADS or None) of each run that RUNS lists."""
    for command, flag_sets, variant, seeds, thread_values in RUNS:
        for seed, flags, threads in itertools.product(seeds, flag_sets, thread_values):
            chosen = ([] if seed is None else ["--seed", str(seed)] if variant is None
                      else _input_args(inputs / f"seed{seed}", variant))
            args = (*command.split(), *chosen, *flags.split())
            label = " ".join(args).replace(f"{inputs}{os.sep}", "")
            yield label + ("" if threads is None else f" [LONGICAUSAL_THREADS={threads}]"), args, threads


def _changed_keys(before: dict, after: dict, prefix: str = "") -> list[str]:
    """Dotted paths of the keys whose values differ between two manifests, added and removed keys included.

    The top-level VOLATILE_MANIFEST_KEYS are left out.
    """
    paths = []
    for key in sorted(before.keys() | after.keys()):
        old, new, path = before.get(key, _MISSING), after.get(key, _MISSING), prefix + key
        if isinstance(old, dict) and isinstance(new, dict):
            paths += _changed_keys(old, new, path + ".")
        elif old != new and path not in VOLATILE_MANIFEST_KEYS:
            paths.append(path)
    return paths


def _start(root: Path, args, threads, cwd: Path) -> subprocess.Popen:
    """One invocation, started in the new directory `cwd` with its stdout and stderr piped."""
    cwd.mkdir(parents=True)
    return subprocess.Popen([sys.executable, "-m", "longicausal.cli", *args], cwd=cwd, env=_env(root, threads),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _outputs(proc: subprocess.Popen, cwd: Path) -> dict[str, bytes]:
    """Every output of a started invocation once it exits, by name: its files, stdout, stderr and exit code."""
    stdout, stderr = proc.communicate()
    outputs = {path.relative_to(cwd).as_posix(): path.read_bytes() for path in sorted(cwd.rglob("*")) if path.is_file()}
    if "manifest.json" in outputs:
        manifest = json.loads(outputs["manifest.json"])
        outputs["manifest.json"] = json.dumps({key: value for key, value in manifest.items()
                                               if key not in VOLATILE_MANIFEST_KEYS}, sort_keys=True).encode()
    outputs.update({"<stdout>": stdout, "<stderr>": stderr, "<exit code>": str(proc.returncode).encode()})
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cmp_cli.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    parent, change = (Path(root).resolve() for root in argv)
    with tempfile.TemporaryDirectory(prefix="cmp_cli_") as tmp:
        tmp = Path(tmp)
        _write_inputs(parent, tmp / "inputs")
        n_runs = n_differ = 0
        for n_runs, (label, args, threads) in enumerate(_runs(tmp / "inputs"), start=1):
            cwds = [tmp / side / str(n_runs) for side in ("parent", "change")]
            # both invocations start before either is waited for, so the two checkouts run side by side
            procs = [_start(root, args, threads, cwd) for root, cwd in zip((parent, change), cwds)]
            before, after = map(_outputs, procs, cwds)
            differing = [name for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)]
            for name in differing:
                keys = []
                if name == "manifest.json" and name in before and name in after:
                    keys = _changed_keys(json.loads(before[name]), json.loads(after[name]))
                print(f"differs: {label}: {name}" + (f" ({', '.join(keys)})" if keys else ""))
            n_differ += bool(differing)
        print(f"{n_runs - n_differ} of {n_runs} runs identical, {n_differ} differ")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
