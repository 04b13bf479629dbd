"""Print one digest per output set, to check that a change keeps every output.

Run it on two checkouts and compare the lines; equal digests mean equal
outputs, bit for bit, apart from the CPU-time columns:

    PYTHONPATH=src python scripts/parity.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/parity.py

The sets:

* ``analyze``: ``unitcp analyze --method split,full --seeds 3`` on the
  bundled body-fat table, its results.csv and intervals.csv;
* ``analyze-bootstrap``: ``unitcp analyze --method bootstrap --seeds 1
  --bootstrap-b 100``, its results.csv and intervals.csv in one digest
  (warm-started resample fits and their predictions);
* ``simulate``: the n = 30 ``unitcp simulate`` grid, s1-s4 x m1-m4 x
  split,full, 100 split and 20 full replications per cell;
* ``bodyfat-full``: full-CP endpoints on body fat for ``analyze``'s splits
  ``rng=[s, 0]``, s = 0..2, for the six ``ANALYSIS_BATTERY`` pairs;
* ``bodyfat-battery``: the same endpoints from ``full_cp`` called
  directly, in the order of the ``full-bodyfat`` benchmark workload: the
  six pairs inside the loop over test rows, on one dataset per split, with
  each beta family's quantile pair before its Pearson pair on odd rows;
* ``cold-fits``: cold fits of m1-m4 on their scenarios at n = 16 and 30,
  150 seeds each: params, converged, iterations and loglik.

It takes about fifteen seconds on two cores.
"""

from __future__ import annotations

import csv
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from unitcp import (
    Dataset,
    FullConfig,
    ModelFamily,
    ModelSpec,
    Scenario,
    ScenarioConfig,
    ScoreKind,
    cli,
    fit,
    full_cp,
    gen_covariates,
    gen_response,
)

CPU_COLUMNS = {"cpu_mean", "cpu_sd"}

FAMILY_SCENARIO = {
    ModelFamily.TRANSFORM_HOMO: Scenario.TRANSFORM_HOMO,
    ModelFamily.TRANSFORM_HETERO: Scenario.TRANSFORM_HETERO,
    ModelFamily.BETA_MEAN: Scenario.BETA_MEAN,
    ModelFamily.BETA_MEAN_DISP: Scenario.BETA_MEAN_DISP,
}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _csv_lines(path: Path):
    """The rows of a CSV written by the CLI, without its comment lines
    (they hold the input path) and its CPU-time columns."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    keep = [i for i, name in enumerate(rows[0]) if name not in CPU_COLUMNS]
    return [",".join(row[i] for i in keep) for row in rows], len(rows) - 1


def _run(argv) -> None:
    if cli.main(argv) != 0:
        raise SystemExit(f"unitcp {' '.join(argv)} failed")


def analyze(out: Path):
    _run(["analyze", "--method", "split,full", "--seeds", "3", "--output", str(out / "analyze")])
    for name in ("results.csv", "intervals.csv"):
        lines, rows = _csv_lines(out / "analyze" / name)
        yield f"analyze/{name}", _digest(lines), rows


def analyze_bootstrap(out: Path):
    path = out / "bootstrap"
    _run(["analyze", "--method", "bootstrap", "--seeds", "1", "--bootstrap-b", "100", "--output", str(path)])
    results, result_rows = _csv_lines(path / "results.csv")
    intervals, interval_rows = _csv_lines(path / "intervals.csv")
    yield "analyze-bootstrap", _digest(results + intervals), result_rows + interval_rows


def simulate(out: Path):
    path = out / "simulate.csv"
    _run(
        ["simulate", "--n", "30", "--method", "split,full", "--replications-split", "100"]
        + ["--replications-full", "20", "--output", str(path)]
    )
    lines, rows = _csv_lines(path)
    yield "simulate", _digest(lines), rows


def bodyfat_full(out: Path):
    lines = []
    for s in range(3):
        _run(["analyze", "--method", "full", "--seed", str(s), "--seeds", "1", "--output", str(out / f"full{s}")])
        part, _ = _csv_lines(out / f"full{s}" / "intervals.csv")
        lines += part
    yield "bodyfat-full", _digest(lines), len(lines) - 3


def bodyfat_battery(out: Path):
    data = cli.load_csv(cli.bodyfat_path())
    n_test = round(0.1 * data.n)
    families = [family for family, _ in cli.ANALYSIS_BATTERY]
    swapped = sorted(cli.ANALYSIS_BATTERY, key=lambda p: (families.index(p[0]), p[1] is ScoreKind.PEARSON))
    lines = []
    for s in range(3):
        perm = np.random.default_rng([s, 0]).permutation(data.n)
        cons = Dataset(data.y[perm[n_test:]], data.X[perm[n_test:]])
        for row, i in enumerate(perm[:n_test]):
            for family, kind in swapped if row % 2 else cli.ANALYSIS_BATTERY:
                iv = full_cp(cons, data.X[i], ModelSpec(family), kind, FullConfig(0.1))
                lines.append(f"{s},{i},{family.value},{kind.value},{iv.lower!r},{iv.upper!r}")
    yield "bodyfat-battery", _digest(lines), len(lines)


def cold_fits(out: Path):
    lines = []
    for family, scenario in FAMILY_SCENARIO.items():
        for n in (16, 30):
            for seed in range(150):
                rng = np.random.default_rng([seed, 0])
                X = gen_covariates(n, rng)
                y = gen_response(ScenarioConfig(scenario, n, rng_seed=seed), X, rng)
                m = fit(Dataset(y, X), ModelSpec(family))
                fields = (family.value, n, seed, m.params.tobytes().hex(), m.converged, m.iterations, repr(m.loglik))
                lines.append(",".join(map(str, fields)))
    yield "cold-fits", _digest(lines), len(lines)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for output_set in (analyze, analyze_bootstrap, simulate, bodyfat_full, bodyfat_battery, cold_fits):
            for name, digest, rows in output_set(Path(tmp)):
                print(f"{name:24s} {digest}  ({rows} rows)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
