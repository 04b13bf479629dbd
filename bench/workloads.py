"""The benchmark's workloads: inputs made from a seed, then a stream of requests.

A workload builds all of its inputs in ``make_inputs`` (part of set-up) and
then yields *rounds*: lists of requests that the driver issues one at a time.
Every request calls unitcp's public API through a module attribute looked up
at call time, so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import count
from typing import Callable

import numpy as np

import unitcp
from unitcp import cli

import checks

ALPHA = 0.1
FULL_CFG = unitcp.FullConfig(ALPHA)


@dataclass(frozen=True)
class Request:
    """One closed-loop call into the program."""

    family: str  # m1..m4, the family whose interval is asked for
    call: Callable[[], object]
    check: Callable[[object], list[str]]  # untimed output check; returns error strings
    truth: float | None = None  # held-out response, full-CP requests only


@dataclass(frozen=True)
class Outcome:
    """What a request produced -- always one interval -- reduced to the paper's outputs."""

    covered: float
    width: float
    redraws: int
    finite_edges: int


def outcome(req: Request, result) -> Outcome:
    if isinstance(result, unitcp.CoverageReport):
        return Outcome(result.coverage, result.avg_width, result.failures_replaced, 0)
    edges = 0 if result.empty else sum(0.0 < e < 1.0 for e in (result.lower, result.upper))
    return Outcome(float(result.contains(req.truth)), result.width, 0, edges)


def _full_request(data, x_new, y_new, family, kind) -> Request:
    spec = unitcp.ModelSpec(family)
    return Request(
        family=family.value,
        call=lambda: unitcp.full_cp(data, x_new, spec, kind, FULL_CFG),
        check=lambda iv: checks.check_full(iv, data, x_new, spec, kind, FULL_CFG),
        truth=float(y_new),
    )


class _Timed:
    def prefix_rounds(self, seconds: int) -> int:
        """Rounds every run completes; coverage and width are taken over them.

        80% of what the baseline finishes in ``seconds``, so the prefix, and
        with it every output, depends on the seed alone.
        """
        return max(1, int(0.8 * seconds * self.rounds_per_s))


class FullBodyfat:
    """``unitcp analyze --method full`` on the bundled table, one test point per round.

    Each construction/test split is drawn exactly as ``analyze`` draws it
    (``rng=[seed, s]``, 10% test points), and each test point goes through the
    six ``ANALYSIS_BATTERY`` pairs in order, so every round holds the same mix.
    Splits past the one made in set-up are drawn as a run reaches them, so
    no request is asked for twice.
    """

    name = "full-bodyfat"
    rounds_per_s = 0.42  # baseline rate on 2 cores; sizes traced runs, not a result
    test_points = 18  # round(0.1 * 183) for the bundled table: one whole split

    def prefix_rounds(self, seconds: int) -> int:
        """One whole split, whatever ``seconds`` is: coverage and width over
        fewer test points vary too much from seed to seed."""
        return self.test_points

    def make_inputs(self, seed: int, seconds: int):
        t0 = time.perf_counter()
        data = cli.load_csv(cli.bodyfat_path())
        t1 = time.perf_counter()
        n_test = max(1, round(0.1 * data.n))
        if n_test != self.test_points:
            raise ValueError(f"bundled table gives {n_test} test points, expected {self.test_points}")
        splits = [self._split(data, seed, 0)]  # the prefix's
        return (data, seed, splits), {"load_bodyfat_s": t1 - t0, "make_inputs_s": time.perf_counter() - t1}

    def _split(self, data, seed: int, s: int):
        perm = np.random.default_rng([seed, s]).permutation(data.n)
        test_idx, cons_idx = perm[: self.test_points], perm[self.test_points :]
        cons = unitcp.Dataset(data.y[cons_idx], data.X[cons_idx])
        return cons, data.X[test_idx], data.y[test_idx]

    def rounds(self, inputs):
        data, seed, splits = inputs
        for s in count():
            cons, X_test, y_test = splits[s] if s < len(splits) else self._split(data, seed, s)
            for x_new, y_new in zip(X_test, y_test):
                yield [_full_request(cons, x_new, y_new, fam, kind) for fam, kind in cli.ANALYSIS_BATTERY]


class FullM1(_Timed):
    """``unitcp predict --method full --model m1``: scenario s1, n=1000, p=3.

    Every interval gets its own dataset and test point.  Those of the
    deterministic prefix of a run are made in set-up; later ones are made as
    the run reaches them, so no dataset is asked for twice.
    """

    name = "full-m1"
    rounds_per_s = 55.0
    n = 1000
    sigma = 0.63

    def make_inputs(self, seed: int, seconds: int):
        t0 = time.perf_counter()
        items = [self._item(seed, j) for j in range(self.prefix_rounds(seconds))]
        return (seed, items), {"load_bodyfat_s": 0.0, "make_inputs_s": time.perf_counter() - t0}

    def _item(self, seed: int, j: int):
        cfg = unitcp.ScenarioConfig(unitcp.Scenario.TRANSFORM_HOMO, self.n, self.sigma)
        rng = np.random.default_rng([seed, j])
        X = unitcp.gen_covariates(self.n + 1, rng)
        y = unitcp.gen_response(cfg, X, rng)
        return unitcp.Dataset(y[:-1], X[:-1]), X[-1], y[-1]

    def rounds(self, inputs):
        seed, items = inputs
        fam, kind = unitcp.ModelFamily.TRANSFORM_HOMO, unitcp.ScoreKind.RAW
        for j in count():
            data, x_new, y_new = items[j] if j < len(items) else self._item(seed, j)
            yield [_full_request(data, x_new, y_new, fam, kind)]


class SplitSim(_Timed):
    """``unitcp simulate --method split``: matched cells at n=30 and n=1000.

    A round is one ``run_coverage`` call per cell, each with a fresh scenario
    seed, and ``workers`` left at the library default.  Each call runs a
    single replication, so every request is one interval and its latency is
    that interval's, redraws included.
    """

    name = "split-sim"
    rounds_per_s = 16.0
    sizes = (30, 1000)
    cells = (
        ("s1", "m1", "raw"),
        ("s2", "m2", "pearson"),
        ("s3", "m3", "quantile"),
        ("s4", "m4", "quantile"),
    )

    def make_inputs(self, seed: int, seconds: int):
        t0 = time.perf_counter()
        cells = [
            (unitcp.Scenario(sc), n, unitcp.ModelSpec(unitcp.ModelFamily(m)), unitcp.ScoreKind(k))
            for n in self.sizes
            for sc, m, k in self.cells
        ]
        return (seed, cells), {"load_bodyfat_s": 0.0, "make_inputs_s": time.perf_counter() - t0}

    def rounds(self, inputs):
        seed, cells = inputs
        r = 0
        while True:
            scenario_seed = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
            yield [self._request(sc, n, spec, kind, scenario_seed) for sc, n, spec, kind in cells]
            r += 1

    def _request(self, sc, n, spec, kind, scenario_seed) -> Request:
        cfg = unitcp.ScenarioConfig(sc, n, rng_seed=scenario_seed)
        return Request(
            family=spec.family.value,
            call=lambda: unitcp.simlab.run_coverage(cfg, spec, kind, unitcp.Method.SPLIT, ALPHA, 1),
            check=checks.check_report,
        )


WORKLOADS = {w.name: w for w in (FullBodyfat(), FullM1(), SplitSim())}

