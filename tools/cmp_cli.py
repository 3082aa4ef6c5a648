"""Check that two checkouts of longicausal give byte-identical CLI output.

    python3 tools/cmp_cli.py PARENT_ROOT CHANGE_ROOT

Runs a fixed set of 132 CLI invocations once per checkout:

- `simulate`, seeds 0-3, at `--n 50 --m 300`, `--n 600 --m 40` and
  `--n 20 --k 2 --m 200`, each with LONGICAUSAL_THREADS 1 and 2;
- `simulate --n 600 --m 200`, seeds 0-1, with LONGICAUSAL_THREADS 1 and 2:
  20 blocks of 10 replicates each, so one process runs many blocks in turn;
- `simulate --n 3 --k 2 --m 20000`, seeds 0-1, with LONGICAUSAL_THREADS 1
  and 2: 3 blocks, in which about a quarter of the replicates have a cumL
  that is constant across units, so their adjusted fit is their naive fit;
- `simulate --n 2500 --k 20 --m 3`, seeds 0-1, with LONGICAUSAL_THREADS 1
  and 2: N*K is 50,000 pooled rows, so every block holds one replicate and
  every stack has R = 1, in one process and in the worker pool;
- `simulate --seed 18446744073709551615 --m 50`, with LONGICAUSAL_THREADS 1
  and 2: the largest master seed, which fills the high word of every
  replicate's 128-bit Philox key;
- `simulate --n 20 --k 3 --m 1000 --a-sd 1e-12`, with and without
  `--a-l-penalty 0`, each with LONGICAUSAL_THREADS 1 and 2: every replicate
  fails the treatment models' sd floor, the numerator's with the penalty 0
  and the denominator's without, and the run exits 1 with that audit;
- `simulate --m 3` with `--a-sd 1e308` (the treatment recursion overflows),
  `--causal-effect 1` (the Poisson mean overflows), `--a-drift=-1e308` (A is
  -inf and Y is finite), `--a0-mean=-1e306` and `--a-drift=-1e306` (the
  spread of a finite A overflows), each with LONGICAUSAL_THREADS 1 and 2:
  every replicate fails generation, and the run exits 1 with that audit;
- `simulate --m 2` with LONGICAUSAL_THREADS `two`, which exits 2 with one
  `error:` line and writes nothing;
- `analyze` on the inputs of `PARENT_ROOT/bench/gen_inputs.py` seeds 0-3,
  with default flags, with `--truncate-weights` alone, with `--bbox
  32.6,33.3,-98.1,-97.1 --truncate-weights --robust HC1`, with `--linkage average --clusters 25`, with `--linkage
  single --clusters 40 --radius-km 60` (wide, overlapping latitude bands),
  with `--linkage complete --radius-km 4`, with `--radius-km 30000` (every
  event within the radius, past half the Earth's circumference, so no
  centroid has a longitude band), and with two flag sets that exit 1 before
  writing anything: `--clusters 2 --robust HC1`
  (only the MSM fails) and `--mag-cut 9` (all three estimators fail);
- `analyze --clusters 2`, seed 0, with the default `--robust HC0`: the MSM
  fits two units with two coefficients, so its sandwich has no residual
  degrees of freedom and the run exits 1 with one `error:` line, writing
  nothing (before HC0 checked n > p it exited 0 with an MSM se of 7.76e-22);
- `analyze`, seeds 0-3, with default flags on the same inputs rewritten with
  every field quoted and CRLF line ends;
- `analyze`, seeds 0-3, with default flags on a copy of the catalog whose
  last record's magnitude is `x`, which exits 2 naming that record's row;
- `analyze --panel --outcomes`, seeds 0-3, with default flags, with
  `--robust HC1` and with `--truncate-weights` on the panel.csv and panel_outcomes.csv that PARENT_ROOT's
  `analyze` writes once per seed from those inputs at default flags;
- `analyze --panel --outcomes`, seeds 0-3, on a copy of that panel.csv in
  which each unit's volume in period t is its period-1 volume + 1000*(t-1),
  so the numerator treatment model fits exactly and the run exits 1 in the
  weights stage, writing nothing;
- `analyze --panel --outcomes`, seeds 0-3, on a copy of that panel.csv in
  which every volume is 1000 + 500*quake_indicator, so the denominator
  treatment model's design [1, A(t-1), L(t-1)] is rank deficient while the
  numerator's fits, and the run exits 1 in the weights stage, writing
  nothing;
- `analyze --panel --outcomes`, seeds 0-3, on a copy of that panel.csv in
  which every quake_indicator is 0: cumL is constant, so the adjusted fit is
  the naive fit and the weight models drop L(t-1), and the run exits 0;
- `analyze --panel --outcomes`, seeds 0-3, with default flags on a copy of
  that panel.csv and panel_outcomes.csv in which units c00-c03 are renamed
  `c,00`, `q"1`, ` lead` and `x<newline>y`: a comma, a double quote, a
  leading space and a line break in the unit_id column of weights.csv;
- `analyze --panel --outcomes`, seed 0, with default flags and with
  `--truncate-weights`, on a copy of that panel.csv and panel_outcomes.csv
  in which units c00-c06 are renamed to ids holding a comma, a double quote,
  CRLF, a bare CR, a leading space, `é`, and all of these at once, so that
  weights.csv quotes fields with every character csv's quoting rule names;
- `baseline gr` for the rate factor alone, with `--a-tec` and `--volume`,
  with `--volume` but no `--a-tec` (exit 1), and with an exponent whose
  power of ten overflows (exit 1).

Each invocation runs `python -m longicausal.cli` with PYTHONPATH=<root>/src
and PYTHONDONTWRITEBYTECODE=1 in an empty working directory, which is the
default --out-dir. Both checkouts read the same input paths. Every output
file, stdout, stderr and the exit code are compared; manifest.json is
compared without `started_utc` and `duration_seconds`. All files go to a
temporary directory outside both checkouts; nothing is written under bench/.

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

SEEDS = range(4)
SIMULATE_SIZES = (("--n", "50", "--m", "300"), ("--n", "600", "--m", "40"), ("--n", "20", "--k", "2", "--m", "200"))
# seeds of the 20-block run (10 replicates of N=600, K=8 per block), which checks outputs over many blocks
LONG_SIMULATE_SEEDS, LONG_SIMULATE_SIZE = range(2), ("--n", "600", "--m", "200")
# seeds of a 3-block run of 3-unit panels, in which about a quarter of the replicates have a constant cumL
CONSTANT_L_SIMULATE_SEEDS, CONSTANT_L_SIMULATE_SIZE = range(2), ("--n", "3", "--k", "2", "--m", "20000")
# seeds of a run whose N*K fills a block, so every block and every stack holds one replicate
ONE_REPLICATE_SIMULATE_SEEDS, ONE_REPLICATE_SIMULATE_SIZE = range(2), ("--n", "2500", "--k", "20", "--m", "3")
HIGH_SEED_SIMULATE = ("--seed", str(2**64 - 1), "--m", "50")
DEGENERATE_SIMULATE = (("--n", "20", "--k", "3", "--m", "1000", "--a-l-penalty", "0", "--a-sd", "1e-12"),
                       ("--n", "20", "--k", "3", "--m", "1000", "--a-sd", "1e-12"))
OVERFLOW_SIMULATE = (("--m", "3", "--a-sd", "1e308"), ("--m", "3", "--causal-effect", "1"),
                     ("--m", "3", "--a-drift=-1e308"), ("--m", "3", "--a0-mean=-1e306"),
                     ("--m", "3", "--a-drift=-1e306"))
ANALYZE_FLAGS = ((), ("--truncate-weights",),
                 ("--bbox", "32.6,33.3,-98.1,-97.1", "--truncate-weights", "--robust", "HC1"),
                 ("--linkage", "average", "--clusters", "25"),
                 ("--linkage", "single", "--clusters", "40", "--radius-km", "60"),
                 ("--linkage", "complete", "--radius-km", "4"), ("--radius-km", "30000"),
                 ("--clusters", "2", "--robust", "HC1"), ("--mag-cut", "9"))
NO_DF_ANALYZE = ("--clusters", "2")  # seed 0 only: the default HC0 sandwich of two units and two coefficients
GR_FLAGS = (("--sigma", "-0.47", "--b", "1.41", "--m", "3"),
            ("--sigma", "-0.47", "--b", "1.41", "--m", "3", "--a-tec", "0", "--volume", "1e6"),
            ("--sigma", "-0.47", "--b", "1.41", "--m", "3", "--volume", "1e6"),
            ("--sigma", "400", "--b", "0", "--m", "0"))
VOLATILE_MANIFEST_KEYS = ("started_utc", "duration_seconds")


def _env(root: Path, threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LONGICAUSAL_THREADS")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    if threads is not None:
        env["LONGICAUSAL_THREADS"] = threads
    return env


def _write_quoted(data: Path) -> None:
    """Copy `data`'s wells.csv and catalog.csv to `data/quoted/`, every field quoted, lines ended by CRLF."""
    (data / "quoted").mkdir()
    for name in ("wells.csv", "catalog.csv"):
        with open(data / name, newline="") as src, open(data / "quoted" / name, "w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(src))


def _write_bad_magnitude(data: Path) -> None:
    """Copy `data`'s catalog.csv to `data/bad/`, with the magnitude of its last record replaced by `x`."""
    (data / "bad").mkdir()
    head, _, last = (data / "catalog.csv").read_bytes().rstrip(b"\n").rpartition(b"\n")
    (data / "bad" / "catalog.csv").write_bytes(head + b"\n" + last.rpartition(b",")[0] + b",x\n")


def _write_panel(parent: Path, data: Path) -> None:
    """Write `data/panel/panel.csv` and `panel_outcomes.csv` with the parent's `analyze` at default flags."""
    subprocess.run([sys.executable, "-m", "longicausal.cli", "analyze", "--wells", str(data / "wells.csv"),
                    "--catalog", str(data / "catalog.csv"), "--out-dir", str(data / "panel")],
                   env=_env(parent, None), check=True, capture_output=True)


def _write_linear_panel(data: Path) -> None:
    """Copy `data/panel/panel.csv` to `data/linear/`, with each volume its unit's period-1 volume + 1000*(t-1)."""
    source, target = data / "panel" / "panel.csv", data / "linear" / "panel.csv"
    target.parent.mkdir()
    with open(source, newline="") as src, open(target, "w", newline="") as dst:
        records, writer, first = csv.reader(src), csv.writer(dst, lineterminator="\n"), {}
        writer.writerow(next(records))
        for unit, period, volume, quake in records:
            first.setdefault(unit, float(volume))  # each unit's records start at period 1
            writer.writerow([unit, period, first[unit] + 1000.0 * (int(period) - 1), quake])


def _write_indicator_panel(data: Path) -> None:
    """Copy `data/panel/panel.csv` to `data/indicator/`, with each volume 1000 + 500*quake_indicator."""
    source, target = data / "panel" / "panel.csv", data / "indicator" / "panel.csv"
    target.parent.mkdir()
    with open(source, newline="") as src, open(target, "w", newline="") as dst:
        records, writer, seen = csv.reader(src), csv.writer(dst, lineterminator="\n"), set()
        writer.writerow(next(records))
        for unit, period, _, quake in records:
            seen.add(quake)
            writer.writerow([unit, period, 1000.0 + 500.0 * int(quake), quake])
    # with one indicator value the L(t-1) column is dropped and the design is full rank
    assert seen == {"0", "1"}, f"{source} has quake indicators {sorted(seen)}, not both 0 and 1"


def _write_quiet_panel(data: Path) -> None:
    """Copy `data/panel/panel.csv` to `data/quiet/`, with every quake_indicator 0."""
    source, target = data / "panel" / "panel.csv", data / "quiet" / "panel.csv"
    target.parent.mkdir()
    with open(source, newline="") as src, open(target, "w", newline="") as dst:
        records, writer = csv.reader(src), csv.writer(dst, lineterminator="\n")
        writer.writerow(next(records))
        writer.writerows([unit, period, volume, 0] for unit, period, volume, _ in records)


def _write_renamed_panel(data: Path) -> None:
    """Copy `data/panel/`'s two files to `data/renamed/`, with units c00-c03 renamed to CSV-special ids."""
    renamed = {"c00": "c,00", "c01": 'q"1', "c02": " lead", "c03": "x\ny"}
    (data / "renamed").mkdir()
    for name in ("panel.csv", "panel_outcomes.csv"):
        with open(data / "panel" / name, newline="") as src, open(data / "renamed" / name, "w", newline="") as dst:
            records, writer = csv.reader(src), csv.writer(dst, lineterminator="\n")
            writer.writerow(next(records))
            writer.writerows([renamed.get(unit, unit), *rest] for unit, *rest in records)


def _write_special_ids_panel(data: Path) -> None:
    """Copy `data/panel/`'s two files to `data/special/`, with units c00-c06 renamed to ids that need quoting."""
    renamed = {"c00": "c,00", "c01": 'q"1', "c02": "crlf\r\nid", "c03": "cr\rid", "c04": " lead", "c05": "\u00e905",
               "c06": ' \u00e9,"06"\r\n\r'}
    (data / "special").mkdir()
    for name in ("panel.csv", "panel_outcomes.csv"):
        with open(data / "panel" / name, newline="") as src, open(data / "special" / name, "w", newline="",
                                                                   encoding="utf-8") as dst:
            records, writer = csv.reader(src), csv.writer(dst)
            writer.writerow(next(records))
            writer.writerows([renamed.get(unit, unit), *rest] for unit, *rest in records)


def _runs(inputs: Path):
    """(label, CLI arguments, LONGICAUSAL_THREADS or None) of each of the 132 runs."""
    simulate_runs = itertools.chain(itertools.product(SEEDS, SIMULATE_SIZES, ("1", "2")),
                                    itertools.product(LONG_SIMULATE_SEEDS, (LONG_SIMULATE_SIZE,), ("1", "2")),
                                    itertools.product(CONSTANT_L_SIMULATE_SEEDS, (CONSTANT_L_SIMULATE_SIZE,),
                                                      ("1", "2")),
                                    itertools.product(ONE_REPLICATE_SIMULATE_SEEDS, (ONE_REPLICATE_SIMULATE_SIZE,),
                                                      ("1", "2")))
    for seed, size, threads in simulate_runs:
        args = ("simulate", "--seed", str(seed), *size)
        yield f"{' '.join(args)} [LONGICAUSAL_THREADS={threads}]", args, threads
    for flags, threads in itertools.product((HIGH_SEED_SIMULATE, *DEGENERATE_SIMULATE, *OVERFLOW_SIMULATE),
                                            ("1", "2")):
        args = ("simulate", *flags)
        yield f"{' '.join(args)} [LONGICAUSAL_THREADS={threads}]", args, threads
    yield "simulate --m 2 [LONGICAUSAL_THREADS=two]", ("simulate", "--m", "2"), "two"
    for seed, flags in itertools.product(SEEDS, ANALYZE_FLAGS):
        data = inputs / f"seed{seed}"
        args = ("analyze", "--wells", str(data / "wells.csv"), "--catalog", str(data / "catalog.csv"), *flags)
        yield f"analyze seed {seed} {' '.join(flags) or '(default flags)'}", args, None
    data = inputs / "seed0"
    args = ("analyze", "--wells", str(data / "wells.csv"), "--catalog", str(data / "catalog.csv"), *NO_DF_ANALYZE)
    yield f"analyze seed 0 {' '.join(NO_DF_ANALYZE)}", args, None
    for seed in SEEDS:
        data = inputs / f"seed{seed}" / "quoted"
        args = ("analyze", "--wells", str(data / "wells.csv"), "--catalog", str(data / "catalog.csv"))
        yield f"analyze seed {seed} (quoted CRLF inputs)", args, None
    for seed in SEEDS:
        data = inputs / f"seed{seed}"
        args = ("analyze", "--wells", str(data / "wells.csv"), "--catalog", str(data / "bad" / "catalog.csv"))
        yield f"analyze seed {seed} (bad last magnitude)", args, None
    for seed, flags in itertools.product(SEEDS, ((), ("--robust", "HC1"), ("--truncate-weights",))):
        data = inputs / f"seed{seed}" / "panel"
        args = ("analyze", "--panel", str(data / "panel.csv"), "--outcomes", str(data / "panel_outcomes.csv"), *flags)
        yield f"analyze seed {seed} --panel {' '.join(flags) or '(default flags)'}", args, None
    for seed in SEEDS:
        data = inputs / f"seed{seed}"
        args = ("analyze", "--panel", str(data / "linear" / "panel.csv"),
                "--outcomes", str(data / "panel" / "panel_outcomes.csv"))
        yield f"analyze seed {seed} --panel (volumes linear in t)", args, None
    for seed in SEEDS:
        data = inputs / f"seed{seed}"
        args = ("analyze", "--panel", str(data / "indicator" / "panel.csv"),
                "--outcomes", str(data / "panel" / "panel_outcomes.csv"))
        yield f"analyze seed {seed} --panel (volumes 1000 + 500*quake_indicator)", args, None
    for seed in SEEDS:
        data = inputs / f"seed{seed}"
        args = ("analyze", "--panel", str(data / "quiet" / "panel.csv"),
                "--outcomes", str(data / "panel" / "panel_outcomes.csv"))
        yield f"analyze seed {seed} --panel (every quake_indicator 0)", args, None
    for seed in SEEDS:
        data = inputs / f"seed{seed}" / "renamed"
        args = ("analyze", "--panel", str(data / "panel.csv"), "--outcomes", str(data / "panel_outcomes.csv"))
        yield f"analyze seed {seed} --panel (unit ids that need quoting)", args, None
    for flags in ((), ("--truncate-weights",)):
        data = inputs / "seed0" / "special"
        args = ("analyze", "--panel", str(data / "panel.csv"), "--outcomes", str(data / "panel_outcomes.csv"), *flags)
        yield f"analyze seed 0 --panel {' '.join(flags) or '(default flags)'} (ids with CRLF, CR, e-acute)", args, None
    for flags in GR_FLAGS:
        args = ("baseline", "gr", *flags)
        yield " ".join(args), args, None


def _run(root: Path, args, threads, cwd: Path) -> dict[str, bytes]:
    """Every output of one invocation, by name: its files, stdout, stderr and exit code."""
    cwd.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "longicausal.cli", *args], cwd=cwd, env=_env(root, threads),
                          capture_output=True)
    outputs = {path.relative_to(cwd).as_posix(): path.read_bytes() for path in sorted(cwd.rglob("*")) if path.is_file()}
    if "manifest.json" in outputs:
        manifest = json.loads(outputs["manifest.json"])
        for key in VOLATILE_MANIFEST_KEYS:
            manifest.pop(key, None)
        outputs["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    outputs.update({"<stdout>": proc.stdout, "<stderr>": proc.stderr, "<exit code>": str(proc.returncode).encode()})
    return outputs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cmp_cli.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    parent, change = (Path(root).resolve() for root in argv)
    with tempfile.TemporaryDirectory(prefix="cmp_cli_") as tmp:
        tmp = Path(tmp)
        for seed in SEEDS:
            subprocess.run([sys.executable, str(parent / "bench" / "gen_inputs.py"), "--seed", str(seed),
                            "--out-dir", str(tmp / "inputs" / f"seed{seed}")],
                           env=_env(parent, None), check=True, stdout=subprocess.DEVNULL)
            _write_quoted(tmp / "inputs" / f"seed{seed}")
            _write_bad_magnitude(tmp / "inputs" / f"seed{seed}")
            _write_panel(parent, tmp / "inputs" / f"seed{seed}")
            _write_linear_panel(tmp / "inputs" / f"seed{seed}")
            _write_indicator_panel(tmp / "inputs" / f"seed{seed}")
            _write_quiet_panel(tmp / "inputs" / f"seed{seed}")
            _write_renamed_panel(tmp / "inputs" / f"seed{seed}")
        _write_special_ids_panel(tmp / "inputs" / "seed0")
        n_runs = n_differ = 0
        for n_runs, (label, args, threads) in enumerate(_runs(tmp / "inputs"), start=1):
            before = _run(parent, args, threads, tmp / "parent" / str(n_runs))
            after = _run(change, args, threads, tmp / "change" / str(n_runs))
            differing = [name for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)]
            for name in differing:
                print(f"differs: {label}: {name}")
            n_differ += bool(differing)
        print(f"{n_runs - n_differ} of {n_runs} runs identical, {n_differ} differ")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
