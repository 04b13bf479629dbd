"""Print where full CP's refits go on the body-fat battery, per pair.

For every pair of ``cli.ANALYSIS_BATTERY`` it runs ``full_cp`` on the
bundled body-fat table as ``analyze --method full`` would: construction /
test splits ``rng=[seed, s]`` for s = 0 .. splits - 1, every test row
through the six pairs in order, one dataset per split, so a beta family's
second score kind reuses the first one's end cells.  Per interval it
prints:

* ``refits``: the candidates refitted, cold retries included, and the
  edge probes that an included end cell stopped (``stopped``);
* ``cold``: the refits that started cold, the retries of refits that did
  not converge from the base fit;
* ``rounds``: the refit pool's rounds, which run one after another; a
  round takes every running refit one Newton step, or solves m1 in closed
  form;
* ``iterations``: the Newton iterations of the refits that ended.

The base fits, one per split and family, are not counted.  Run it from the
repository root:

    PYTHONPATH=src python scripts/counts.py [--seed 1] [--splits 3]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from unitcp import Dataset, FullConfig, ModelSpec, cli, conformal, full_cp

COLUMNS = ("refits", "stopped", "cold", "rounds", "iterations")


def counts(seed: int, splits: int) -> dict:
    """The summed counts and the number of intervals, per battery pair."""
    totals = {pair: Counter() for pair in cli.ANALYSIS_BATTERY}
    current = Counter()

    class Counting(conformal._Pool):
        def join(self, tag, y, start=None):
            current["refits"] += 1
            current["cold"] += start is None
            super().join(tag, y, start)

        def drop(self, tag):
            current["stopped"] += tag in self.running
            super().drop(tag)

        def round(self):
            before = self.rounds
            ended = super().round()
            current["rounds"] += self.rounds - before
            current["iterations"] += sum(refit.iterations for _, _, refit in ended)
            return ended

    conformal._Pool = Counting
    data = cli.load_csv(cli.bodyfat_path())
    n_test = round(0.1 * data.n)
    for s in range(splits):
        perm = np.random.default_rng([seed, s]).permutation(data.n)
        cons = Dataset(data.y[perm[n_test:]], data.X[perm[n_test:]])
        for i in perm[:n_test]:
            for family, kind in cli.ANALYSIS_BATTERY:
                current.clear()
                full_cp(cons, data.X[i], ModelSpec(family), kind, FullConfig(0.1))
                totals[family, kind].update(current)
                totals[family, kind]["intervals"] += 1
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--splits", type=int, default=3)
    args = parser.parse_args(argv)
    totals = counts(args.seed, args.splits)
    print(f"{'pair':14s} {'intervals':>9s}" + "".join(f" {name:>10s}" for name in COLUMNS))
    for (family, kind), total in totals.items():
        per = [total[name] / total["intervals"] for name in COLUMNS]
        print(f"{family.value + '/' + kind.value:14s} {total['intervals']:9d}" + "".join(f" {v:10.2f}" for v in per))
    return 0


if __name__ == "__main__":
    sys.exit(main())
