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
from .conformal import (
    FullConfig,
    Method,
    SplitConfig,
    full_cp,
    split_cp_batch,
)
from .datasets import bodyfat_path
from .models import Dataset, FitError, ModelFamily, ModelSpec, fit
from .scores import ScoreKind
from .simlab import (
    Scenario,
    ScenarioConfig,
    bootstrap_interval,
    run_coverage,
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

WORKERS_ENV = "UNITCP_WORKERS"


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


def _add_common(p):
    p.add_argument("--alpha", type=float, default=0.1, help="miscoverage level (default 0.1)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")


def _add_rho(p):
    help_ = "full CP searches m1/m2 over the classical interval plus rho widths per side (default %(default)s)"
    p.add_argument("--rho", type=float, default=FullConfig.rho, help=help_)


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
    p_pred.add_argument("--method", default="split", choices=["split", "full", "bootstrap"])
    _add_rho(p_pred)
    p_pred.add_argument("--bootstrap-b", type=int, default=500)
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
    p_sim.add_argument("--replications-split", type=int, default=1000)
    p_sim.add_argument("--replications-full", type=int, default=200)
    p_sim.add_argument("--workers", type=int, default=None, help=f"default ${WORKERS_ENV} or 1")
    p_sim.add_argument("--output", required=True)
    _add_common(p_sim)

    p_an = sub.add_parser("analyze", help="real-data interval analysis")
    p_an.add_argument("--input", default=None, help="CSV path (default: bundled body-fat data)")
    p_an.add_argument("--model", default=None, help="restrict families (comma list)")
    p_an.add_argument("--score", default=None, help="restrict scores (comma list)")
    p_an.add_argument("--method", default="split,full", help="comma list of split,full,bootstrap")
    p_an.add_argument("--seeds", type=int, default=1, help="number of random construction/test splits")
    p_an.add_argument("--test-fraction", type=float, default=0.1, help="test share, in (0, 1) (default %(default)s)")
    _add_rho(p_an)
    p_an.add_argument("--bootstrap-b", type=int, default=500)
    p_an.add_argument("--rescale", nargs=2, type=float, metavar=("A", "B"))
    p_an.add_argument("--output", required=True, help="output directory")
    _add_common(p_an)

    return parser


def _parse_list(raw: str, convert, label: str):
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(convert(token))
        except ValueError as exc:
            raise UsageError(f"bad {label} {token!r}: {exc}") from exc
    if not out:
        raise UsageError(f"empty {label} list")
    return out


def _battery(model_filter, score_filter):
    models = None if model_filter is None else _parse_list(model_filter, ModelFamily.from_name, "model")
    scores = None if score_filter is None else _parse_list(score_filter, ScoreKind.from_name, "score")
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
    data = load_csv(args.input, rescale=tuple(args.rescale) if args.rescale else None)
    family = ModelFamily.from_name(args.model)
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


def _cmd_predict(args) -> int:
    rescale = tuple(args.rescale) if args.rescale else None
    names, y, X = _read_table(args.input, rescale)
    data = Dataset(y, X)
    family = ModelFamily.from_name(args.model)
    spec = ModelSpec(family)
    kind = ScoreKind.from_name(args.score) if args.score else _default_score(family)
    X_new = _read_new_covariates(args.new, names)

    if args.method == "split":
        intervals = split_cp_batch(data, X_new, spec, kind, SplitConfig(args.alpha, rng_seed=args.seed))
    elif args.method == "full":
        cfg = FullConfig(args.alpha, rho=args.rho)
        intervals = [full_cp(data, x, spec, kind, cfg) for x in X_new]
    else:
        intervals = [
            bootstrap_interval(data, x, spec, args.alpha, args.bootstrap_b, [args.seed, i])
            for i, x in enumerate(X_new)
        ]

    rows = [
        {
            "seed": args.seed,
            "model": family.value,
            "score": kind.value if args.method != "bootstrap" else "-",
            "method": args.method,
            "test_index": i,
            "lower": iv.lower,
            "upper": iv.upper,
            "truth": float("nan"),
            "covered": "",
        }
        for i, iv in enumerate(intervals)
    ]
    meta = {"alpha": args.alpha, "input": args.input, "rows": len(rows)}
    _write_atomic(args.output, _render_csv(INTERVALS_SCHEMA, INTERVAL_COLUMNS, rows, meta))
    return 0


def _cmd_simulate(args) -> int:
    scenarios = _parse_list(args.scenario, Scenario.from_name, "scenario")
    methods = _parse_list(args.method, Method, "method")
    if Method.BOOTSTRAP in methods:
        raise UsageError("simulate supports split and full methods")
    combos = _battery(args.model, args.score)
    sizes = _parse_list(args.n, int, "sample size")
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))

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
                        cfg, ModelSpec(family), kind, method, args.alpha, reps, workers=workers
                    )
                    rows.append(
                        {
                            "scenario": scenario.value,
                            "model": family.value,
                            "score": kind.value,
                            "method": method.value,
                            "n": n,
                            "alpha": args.alpha,
                            "replications": reps,
                            "coverage": report.coverage,
                            "avg_width": report.avg_width,
                            "cpu_mean": report.avg_cpu_seconds,
                            "cpu_sd": report.cpu_sd,
                            "failures": report.failures_replaced,
                        }
                    )
    meta = {
        "replications-split": args.replications_split,
        "replications-full": args.replications_full,
        "seed": args.seed,
    }
    _write_atomic(args.output, _render_csv(RESULTS_SCHEMA, RESULTS_COLUMNS, rows, meta))
    return 0


def _cmd_analyze(args) -> int:
    if not 0.0 < args.test_fraction < 1.0:
        raise UsageError(f"--test-fraction must lie strictly in (0, 1), got {args.test_fraction}")
    rescale = tuple(args.rescale) if args.rescale else None
    path = args.input if args.input else bodyfat_path()
    data = load_csv(path, rescale)
    combos = _battery(args.model, args.score)
    methods = _parse_list(args.method, Method, "method")
    if args.seeds < 1:
        raise UsageError("--seeds must be positive")
    n_test = max(1, round(args.test_fraction * data.n))

    interval_rows = []
    agg: dict[tuple, dict] = {}

    def record(key, iv, truth, cpu):
        slot = agg.setdefault(key, {"covered": 0, "width": 0.0, "count": 0, "cpu": []})
        slot["count"] += 1
        slot["covered"] += int(iv.contains(truth))
        slot["width"] += iv.width
        slot["cpu"].append(cpu)

    for s in range(args.seeds):
        rng = np.random.default_rng([args.seed, s])
        perm = rng.permutation(data.n)
        test_idx, cons_idx = perm[:n_test], perm[n_test:]
        cons = Dataset(data.y[cons_idx], data.X[cons_idx])
        X_test, y_test = data.X[test_idx], data.y[test_idx]
        split_seed = int(rng.integers(0, 2**63 - 1))

        for method in methods:
            per_point: list[list] = [[] for _ in range(n_test)]
            if method is Method.BOOTSTRAP:
                for fam in dict.fromkeys(fam for fam, _ in combos):
                    spec = ModelSpec(fam)
                    for i in range(n_test):
                        start = time.process_time()
                        iv = bootstrap_interval(
                            cons, X_test[i], spec, args.alpha, args.bootstrap_b, [args.seed, s, i]
                        )
                        cpu = time.process_time() - start
                        record((fam.value, "-", method.value), iv, y_test[i], cpu)
                        interval_rows.append(
                            _interval_row(s, fam.value, "-", method.value, i, iv, y_test[i])
                        )
                continue
            for fam, kind in combos:
                spec = ModelSpec(fam)
                if method is Method.SPLIT:
                    cfg = SplitConfig(args.alpha, rng_seed=split_seed)
                    start = time.process_time()
                    ivs = split_cp_batch(cons, X_test, spec, kind, cfg)
                    cpu = (time.process_time() - start) / n_test
                    cpus = [cpu] * n_test
                else:
                    cfg = FullConfig(args.alpha, rho=args.rho)
                    ivs, cpus = [], []
                    for i in range(n_test):
                        start = time.process_time()
                        ivs.append(full_cp(cons, X_test[i], spec, kind, cfg))
                        cpus.append(time.process_time() - start)
                for i, iv in enumerate(ivs):
                    record((fam.value, kind.value, method.value), iv, y_test[i], cpus[i])
                    interval_rows.append(_interval_row(s, fam.value, kind.value, method.value, i, iv, y_test[i]))
                    per_point[i].append(iv)
            if len(combos) >= 2:
                for i, ivs in enumerate(per_point):
                    union, inter = union_intersection(ivs)
                    record(("union", "-", method.value), union, y_test[i], 0.0)
                    record(("intersection", "-", method.value), inter, y_test[i], 0.0)
                    interval_rows.append(_interval_row(s, "union", "-", method.value, i, union, y_test[i]))
                    interval_rows.append(
                        _interval_row(s, "intersection", "-", method.value, i, inter, y_test[i])
                    )

    result_rows = []
    for (model, score_name, method_name), slot in agg.items():
        cpus = np.array(slot["cpu"])
        result_rows.append(
            {
                "scenario": "analyze",
                "model": model,
                "score": score_name,
                "method": method_name,
                "n": data.n,
                "alpha": args.alpha,
                "replications": slot["count"],
                "coverage": slot["covered"] / slot["count"],
                "avg_width": slot["width"] / slot["count"],
                "cpu_mean": float(cpus.mean()),
                "cpu_sd": float(cpus.std(ddof=1)) if len(cpus) > 1 else 0.0,
                "failures": 0,
            }
        )
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


def _interval_row(seed, model, score_name, method_name, index, iv, truth):
    return {
        "seed": seed,
        "model": model,
        "score": score_name,
        "method": method_name,
        "test_index": index,
        "lower": iv.lower,
        "upper": iv.upper,
        "truth": float(truth),
        "covered": int(iv.contains(truth)),
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0.0 < getattr(args, "alpha", 0.5) < 1.0:
            raise UsageError(f"--alpha must lie strictly in (0, 1), got {args.alpha}")
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
