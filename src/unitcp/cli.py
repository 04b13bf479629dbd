"""Command line interface: CSV ingestion, fitting, prediction, simulation.

Subcommands
-----------
fit       fit one model family to a CSV dataset, write the estimate as JSON
predict   prediction intervals for new covariate rows (split, full or
          bootstrap)
simulate  Monte Carlo coverage experiments over a scenario/model grid
analyze   real-data workflow: repeated construction/test splits, per-point
          intervals for a battery of model/score pairs, union/intersection
          sensitivity rows, and plot-ready interval data

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric or fitting
error.  Output files are written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .conformal import FullConfig, SplitConfig, full_cp, split_cp_batch
from .datasets import bodyfat_path
from .models import Dataset, FitError, ModelFamily, ModelSpec, fit
from .scores import ScoreKind
from .simlab import (
    Method,
    Scenario,
    ScenarioConfig,
    bootstrap_interval,
    run_coverage,
    summarize,
    union_intersection,
)

__all__ = [
    "DataError",
    "MissingResponseColumn",
    "OutOfRangeResponse",
    "ParseError",
    "UsageError",
    "load_csv",
    "read_results_csv",
    "main",
    "entrypoint",
]

RESULTS_COLUMNS = [
    "scenario",
    "model",
    "score",
    "method",
    "n",
    "alpha",
    "replications",
    "coverage",
    "avg_width",
    "cpu_mean",
    "cpu_sd",
    "failures",
]
RESULTS_SCHEMA = "unitcp-results/1"

INTERVAL_COLUMNS = ["seed", "model", "score", "method", "test_index", "lower", "upper", "truth", "covered"]
INTERVALS_SCHEMA = "unitcp-intervals/1"

# the battery of model/score pairs used for real-data analysis
ANALYSIS_BATTERY = [
    (ModelFamily.TRANSFORM_HOMO, ScoreKind.RAW),
    (ModelFamily.TRANSFORM_HETERO, ScoreKind.PEARSON),
    (ModelFamily.BETA_MEAN, ScoreKind.PEARSON),
    (ModelFamily.BETA_MEAN, ScoreKind.QUANTILE),
    (ModelFamily.BETA_MEAN_DISP, ScoreKind.PEARSON),
    (ModelFamily.BETA_MEAN_DISP, ScoreKind.QUANTILE),
]


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class MissingResponseColumn(DataError):
    pass


class OutOfRangeResponse(DataError):
    pass


class ParseError(DataError):
    pass


# ---------------------------------------------------------------------------
# CSV input


def load_csv(path, rescale: tuple[float, float] | None = None) -> Dataset:
    """Read a dataset: header row, one ``y`` column, numeric covariates.

    ``rescale=(a, b)`` maps the response through (y - a) / (b - a) before
    validation, for data bounded on a general interval.  Rows with missing
    or non-numeric cells and responses outside the open unit interval are
    reported with their 1-based data row numbers.
    """
    names, y, X = _read_table(path, rescale)
    return Dataset(y, X)


def _read_rows(path):
    """Stripped header and the data rows of a CSV file; blank lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise ParseError(f"{path}: empty file")
    return [h.strip() for h in rows[0]], rows[1:]


def _parse_cells(path, header, rows) -> np.ndarray:
    """Data rows as a float matrix, one column per header name.

    Rows with a missing, extra, non-numeric or non-finite cell are reported
    together by their 1-based data row numbers.
    """
    bad_rows, values = [], []
    for r, row in enumerate(rows, start=1):
        try:
            vals = [float(cell) for cell in row]
        except ValueError:
            vals = []
        if len(vals) != len(header) or not all(math.isfinite(v) for v in vals):
            bad_rows.append(r)
            continue
        values.append(vals)
    if bad_rows:
        raise ParseError(f"{path}: missing or non-numeric cells in rows {bad_rows}")
    if not values:
        raise ParseError(f"{path}: no data rows")
    return np.array(values)


def _read_table(path, rescale=None):
    header, rows = _read_rows(path)
    if "y" not in header:
        raise MissingResponseColumn(f"{path}: no column named 'y' in header {header}")
    y_col = header.index("y")
    cov_names = [h for i, h in enumerate(header) if i != y_col]
    values = _parse_cells(path, header, rows)

    y = values[:, y_col]
    if rescale is not None:
        a, b = rescale
        if not b > a:
            raise UsageError("--rescale needs a < b")
        y = (y - a) / (b - a)
    out_of_range = [r + 1 for r, v in enumerate(y) if not 0.0 < v < 1.0]
    if out_of_range:
        raise OutOfRangeResponse(
            f"{path}: responses outside the open interval (0, 1) in rows {out_of_range}"
        )
    return cov_names, y, np.delete(values, y_col, axis=1)


# ---------------------------------------------------------------------------
# atomic output helpers


def _write_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _render_csv(schema: str, columns, rows, meta: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={schema}\n")
    buf.write(f"# version={__version__}\n")
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def read_results_csv(path):
    """Read back a CSV written by this module: (meta dict, row dicts).

    Numeric cells are parsed with float()/int(), so float round trips are
    bit exact.
    """
    meta, rows = {}, []
    header = None
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                if "=" in line:
                    key, _, value = line[1:].strip().partition("=")
                    meta[key.strip()] = value.strip()
                continue
            record = next(csv.reader([line]))
            if header is None:
                header = record
                continue
            row = {}
            for name, cell in zip(header, record):
                try:
                    row[name] = int(cell)
                except ValueError:
                    try:
                        row[name] = float(cell)
                    except ValueError:
                        row[name] = cell
            rows.append(row)
    if header is None:
        raise ParseError(f"{path}: no header row")
    return meta, rows


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bounded(convert, accept, condition: str):
    """An argparse ``type=`` that converts with ``convert`` and rejects a
    value outside ``accept`` as a usage error, before any data are read."""

    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {condition}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_UNIT_FRACTION = _bounded(float, lambda v: 0.0 < v < 1.0, "strictly in (0, 1)")
_COUNT = _bounded(int, lambda v: v >= 1, "at least 1")
_SEED = _bounded(int, lambda v: v >= 0, "non-negative")
_BOOTSTRAP_B = _bounded(int, lambda v: v >= 100, "at least 100")


def _add_common(p):
    p.add_argument("--alpha", type=_UNIT_FRACTION, default=0.1, help="miscoverage level (default 0.1)")
    p.add_argument("--seed", type=_SEED, default=0, help="base RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unitcp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"unitcp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit one model family to a CSV dataset")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--model", required=True, help="m1|m2|m3|m4")
    p_fit.add_argument("--rescale", nargs=2, type=float, metavar=("A", "B"))
    p_fit.add_argument("--output", required=True, help="JSON output path")

    p_pred = sub.add_parser("predict", help="prediction intervals for new covariate rows")
    p_pred.add_argument("--input", required=True, help="training CSV (with y column)")
    p_pred.add_argument("--new", required=True, help="CSV of covariate rows (same columns, no y)")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--score", default=None, help="raw|pearson|quantile (default per model)")
    p_pred.add_argument("--method", default="split", help="split|full|bootstrap (default split)")
    p_pred.add_argument("--bootstrap-b", type=_BOOTSTRAP_B, default=500)
    p_pred.add_argument("--rescale", nargs=2, type=float, metavar=("A", "B"))
    p_pred.add_argument("--output", required=True)
    _add_common(p_pred)

    p_sim = sub.add_parser("simulate", help="Monte Carlo coverage experiments")
    p_sim.add_argument("--scenario", default="s1,s2,s3,s4", help="comma list of s1..s4")
    p_sim.add_argument("--model", default="m1,m2,m3,m4", help="comma list of m1..m4")
    p_sim.add_argument("--score", default=None, help="restrict scores (comma list)")
    p_sim.add_argument("--method", default="split,full", help="comma list of split,full")
    p_sim.add_argument("--n", default="100", help="comma list of sample sizes")
    p_sim.add_argument("--dispersion", type=float, default=None, help="sigma (s1) or phi (s3) level")
    p_sim.add_argument("--replications-split", type=_COUNT, default=1000)
    p_sim.add_argument("--replications-full", type=_COUNT, default=200)
    p_sim.add_argument("--workers", type=_COUNT, default=1, help="worker processes (default 1)")
    p_sim.add_argument("--output", required=True)
    _add_common(p_sim)

    p_an = sub.add_parser("analyze", help="real-data interval analysis")
    p_an.add_argument("--input", default=None, help="CSV path (default: bundled body-fat data)")
    p_an.add_argument("--model", default=None, help="restrict families (comma list)")
    p_an.add_argument("--score", default=None, help="restrict scores (comma list)")
    p_an.add_argument("--method", default="split,full", help="comma list of split,full,bootstrap")
    p_an.add_argument("--seeds", type=_COUNT, default=1, help="number of random construction/test splits")
    p_an.add_argument(
        "--test-fraction", type=_UNIT_FRACTION, default=0.1, help="test share, in (0, 1) (default %(default)s)"
    )
    p_an.add_argument("--bootstrap-b", type=_BOOTSTRAP_B, default=500)
    p_an.add_argument("--rescale", nargs=2, type=float, metavar=("A", "B"))
    p_an.add_argument("--output", required=True, help="output directory")
    _add_common(p_an)

    return parser


def _member(kind):
    """A converter from a name to the member of the enum ``kind`` whose value
    or lower-case name it is, ignoring case and surrounding blanks."""

    def convert(name: str):
        key = name.strip().lower()
        for member in kind:
            if key in (member.value, member.name.lower()):
                return member
        raise ValueError(f"expected one of {', '.join(m.value for m in kind)}")

    return convert


def _parse_name(token: str, convert, label: str):
    try:
        return convert(token)
    except ValueError as exc:
        raise UsageError(f"bad {label} {token!r}: {exc}") from exc


def _parse_list(raw: str, convert, label: str):
    out = []
    for token in raw.split(","):
        token = token.strip()
        if token:
            out.append(_parse_name(token, convert, label))
    if not out:
        raise UsageError(f"empty {label} list")
    return out


def _battery(model_filter, score_filter):
    models = None if model_filter is None else _parse_list(model_filter, _member(ModelFamily), "model")
    scores = None if score_filter is None else _parse_list(score_filter, _member(ScoreKind), "score")
    combos = [
        (fam, kind)
        for fam, kind in ANALYSIS_BATTERY
        if (models is None or fam in models) and (scores is None or kind in scores)
    ]
    if not combos:
        raise UsageError(
            "no valid model/score combinations selected; the raw score pairs with m1 "
            "and pearson/quantile with m2..m4"
        )
    return combos


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    family = _parse_name(args.model, _member(ModelFamily), "model")
    data = load_csv(args.input, rescale=tuple(args.rescale) if args.rescale else None)
    model = fit(data, ModelSpec(family))
    payload = {
        "family": family.value,
        "mean_intercept": model.mean_intercept,
        "mean_coef": list(model.mean_coef),
        "disp_intercept": model.disp_intercept,
        "disp_coef": list(model.disp_coef),
        "loglik": model.loglik,
        "converged": model.converged,
        "n": data.n,
        "p": data.p,
        "version": __version__,
    }
    _write_atomic(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def _default_score(family: ModelFamily) -> ScoreKind:
    return ScoreKind.RAW if family is ModelFamily.TRANSFORM_HOMO else ScoreKind.PEARSON


def _read_new_covariates(path, expected_names):
    header, rows = _read_rows(path)
    if header != expected_names:
        raise ParseError(f"{path}: covariate columns {header} do not match training columns {expected_names}")
    return _parse_cells(path, header, rows)


def _intervals(method: Method, data, X_new, spec, kind, args, split_seed, seed_prefix):
    """Intervals of one method for every row of ``X_new``, with the process
    CPU seconds charged to each: ``(intervals, cpus)``.

    Split CP runs one batch with split seed ``split_seed`` and charges every
    row an equal share of its CPU time.  Full CP and the bootstrap run row by
    row; bootstrap row i draws from seed ``[*seed_prefix, i]`` and ignores
    ``kind``.  ``args`` supplies ``alpha`` and ``bootstrap_b``.
    """
    if method is Method.SPLIT:
        start = time.process_time()
        intervals = split_cp_batch(data, X_new, spec, kind, SplitConfig(args.alpha, rng_seed=split_seed))
        return intervals, [(time.process_time() - start) / len(X_new)] * len(X_new)
    cfg = FullConfig(args.alpha)
    intervals, cpus = [], []
    for i, x in enumerate(X_new):
        start = time.process_time()
        if method is Method.FULL:
            intervals.append(full_cp(data, x, spec, kind, cfg))
        else:
            intervals.append(bootstrap_interval(data, x, spec, args.alpha, args.bootstrap_b, [*seed_prefix, i]))
        cpus.append(time.process_time() - start)
    return intervals, cpus


def _cmd_predict(args) -> int:
    method = _parse_name(args.method, _member(Method), "method")
    family = _parse_name(args.model, _member(ModelFamily), "model")
    kind = _parse_name(args.score, _member(ScoreKind), "score") if args.score else _default_score(family)
    if not kind.valid_for(family):
        raise UsageError(f"the {kind.value} score is not defined for {family.value}")
    rescale = tuple(args.rescale) if args.rescale else None
    names, y, X = _read_table(args.input, rescale)
    X_new = _read_new_covariates(args.new, names)

    intervals, _ = _intervals(method, Dataset(y, X), X_new, ModelSpec(family), kind, args, args.seed, [args.seed])
    score_name = "-" if method is Method.BOOTSTRAP else kind.value
    rows = [_interval_row(args.seed, family.value, score_name, method.value, i, iv) for i, iv in enumerate(intervals)]
    meta = {"alpha": args.alpha, "input": args.input, "rows": len(rows)}
    _write_atomic(args.output, _render_csv(INTERVALS_SCHEMA, INTERVAL_COLUMNS, rows, meta))
    return 0


def _cmd_simulate(args) -> int:
    scenarios = _parse_list(args.scenario, _member(Scenario), "scenario")
    methods = _parse_list(args.method, _member(Method), "method")
    if Method.BOOTSTRAP in methods:
        raise UsageError("simulate supports split and full methods")
    combos = _battery(args.model, args.score)
    sizes = _parse_list(args.n, int, "sample size")

    rows = []
    for scenario in scenarios:
        level = args.dispersion if scenario.has_dispersion_level else None
        for n in sizes:
            try:
                cfg = ScenarioConfig(scenario, n, level, rng_seed=args.seed)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            for family, kind in combos:
                for method in methods:
                    reps = args.replications_split if method is Method.SPLIT else args.replications_full
                    report = run_coverage(
                        cfg, ModelSpec(family), kind, method, args.alpha, reps, workers=args.workers
                    )
                    rows.append(
                        _results_row(scenario.value, family.value, kind.value, method.value, n, args.alpha, report)
                    )
    meta = {
        "replications-split": args.replications_split,
        "replications-full": args.replications_full,
        "seed": args.seed,
    }
    _write_atomic(args.output, _render_csv(RESULTS_SCHEMA, RESULTS_COLUMNS, rows, meta))
    return 0


def _cmd_analyze(args) -> int:
    combos = _battery(args.model, args.score)
    methods = _parse_list(args.method, _member(Method), "method")
    rescale = tuple(args.rescale) if args.rescale else None
    path = args.input if args.input else bodyfat_path()
    data = load_csv(path, rescale)
    n_test = max(1, round(args.test_fraction * data.n))
    n_cons = data.n - n_test
    for method in methods:
        # split CP fits its training half, full CP and the bootstrap every construction row
        rows = n_cons - n_cons // 2 if method is Method.SPLIT else n_cons
        if rows < data.p + 2:
            raise UsageError(
                f"--test-fraction {args.test_fraction} leaves {n_cons} construction rows; {method.value} "
                f"fits {rows} of them, and p = {data.p} covariates need at least {data.p + 2}"
            )

    interval_rows = []
    outcomes: dict[tuple, list] = {}  # (model, score, method) -> (covered, width, cpu, failures)

    def record(key, s, i, iv, truth, cpu):
        outcomes.setdefault(key, []).append((iv.contains(truth), iv.width, cpu, 0))
        interval_rows.append(_interval_row(s, *key, i, iv, truth))

    for s in range(args.seeds):
        rng = np.random.default_rng([args.seed, s])
        perm = rng.permutation(data.n)
        test_idx, cons_idx = perm[:n_test], perm[n_test:]
        cons = Dataset(data.y[cons_idx], data.X[cons_idx])
        X_test, y_test = data.X[test_idx], data.y[test_idx]
        split_seed = int(rng.integers(0, 2**63 - 1))

        for method in methods:
            if method is Method.BOOTSTRAP:  # one interval per family: it uses no score
                pairs = [(fam, None) for fam in dict.fromkeys(fam for fam, _ in combos)]
            else:
                pairs = combos
            per_point: list[list] = [[] for _ in range(n_test)]
            for fam, kind in pairs:
                ivs, cpus = _intervals(method, cons, X_test, ModelSpec(fam), kind, args, split_seed, [args.seed, s])
                key = (fam.value, kind.value if kind else "-", method.value)
                for i, iv in enumerate(ivs):
                    record(key, s, i, iv, y_test[i], cpus[i])
                    per_point[i].append(iv)
            if method is not Method.BOOTSTRAP and len(combos) >= 2:
                for i, ivs in enumerate(per_point):
                    for model, iv in zip(("union", "intersection"), union_intersection(ivs)):
                        record((model, "-", method.value), s, i, iv, y_test[i], 0.0)

    result_rows = [
        _results_row("analyze", *key, data.n, args.alpha, summarize(cell)) for key, cell in outcomes.items()
    ]
    meta = {
        "input": str(path),
        "seeds": args.seeds,
        "test-fraction": args.test_fraction,
        "test-points": n_test,
        "seed": args.seed,
    }
    out = Path(args.output)
    _write_atomic(out / "results.csv", _render_csv(RESULTS_SCHEMA, RESULTS_COLUMNS, result_rows, meta))
    _write_atomic(out / "intervals.csv", _render_csv(INTERVALS_SCHEMA, INTERVAL_COLUMNS, interval_rows, meta))
    return 0


def _interval_row(seed, model, score_name, method_name, index, iv, truth=None):
    """One intervals-CSV row; without a ``truth`` (predict) the truth is nan
    and ``covered`` is empty."""
    return {
        "seed": seed,
        "model": model,
        "score": score_name,
        "method": method_name,
        "test_index": index,
        "lower": iv.lower,
        "upper": iv.upper,
        "truth": float("nan") if truth is None else float(truth),
        "covered": "" if truth is None else int(iv.contains(truth)),
    }


def _results_row(scenario, model, score_name, method_name, n, alpha, report):
    """One results-CSV row from a ``CoverageReport``."""
    return {
        "scenario": scenario,
        "model": model,
        "score": score_name,
        "method": method_name,
        "n": n,
        "alpha": alpha,
        "replications": report.replications,
        "coverage": report.coverage,
        "avg_width": report.avg_width,
        "cpu_mean": report.avg_cpu_seconds,
        "cpu_sd": report.cpu_sd,
        "failures": report.failures_replaced,
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "fit": _cmd_fit,
            "predict": _cmd_predict,
            "simulate": _cmd_simulate,
            "analyze": _cmd_analyze,
        }[args.subcommand]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'unitcp --help' for usage", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (FitError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
