"""CLI behavior: ingestion, subcommands, exit codes, file handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unitcp.cli import (
    MissingResponseColumn,
    OutOfRangeResponse,
    ParseError,
    load_csv,
    main,
    read_results_csv,
    _render_csv,
    INTERVAL_COLUMNS,
    INTERVALS_SCHEMA,
)
from unitcp import Method, ModelFamily, ModelSpec, Scenario, ScoreKind, cli, fit
from unitcp.datasets import bodyfat_path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def small_csv(tmp_path, name="train.csv", n=40, seed=0):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    y = 1.0 / (1.0 + np.exp(-(0.3 + 0.4 * x1 - 0.2 * x2 + 0.4 * rng.normal(size=n))))
    lines = ["y,x1,x2"] + [f"{y[i]:.6f},{x1[i]:.6f},{x2[i]:.6f}" for i in range(n)]
    return write(tmp_path, name, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# load_csv


def test_load_small_file(tmp_path):
    path = write(tmp_path, "ok.csv", "y,a,b\n0.2,1,2\n0.5,3,4\n0.7,5,6\n")
    data = load_csv(path)
    assert data.n == 3 and data.p == 2
    assert np.allclose(data.y, [0.2, 0.5, 0.7])


def test_boundary_response_rejected_with_row(tmp_path):
    path = write(tmp_path, "bad.csv", "y,a\n0.5,1\n1.0,2\n0.3,3\n")
    with pytest.raises(OutOfRangeResponse) as err:
        load_csv(path)
    assert "rows [2]" in str(err.value)


def test_missing_response_column(tmp_path):
    path = write(tmp_path, "noy.csv", "z,a\n0.5,1\n")
    with pytest.raises(MissingResponseColumn):
        load_csv(path)


def test_parse_error_lists_rows(tmp_path):
    path = write(tmp_path, "junk.csv", "y,a\n0.5,1\noops,2\n0.4,\n0.6,4\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "[2, 3]" in str(err.value)


def test_rescale_maps_general_interval(tmp_path):
    path = write(tmp_path, "wide.csv", "y,a\n2.0,1\n5.0,2\n8.5,3\n")
    with pytest.raises(OutOfRangeResponse):
        load_csv(path)
    data = load_csv(path, rescale=(0.0, 10.0))
    assert np.allclose(data.y, [0.2, 0.5, 0.85])


def test_bundled_bodyfat_loads():
    data = load_csv(bodyfat_path())
    assert data.n == 183
    assert data.p == 8
    assert data.y.min() == pytest.approx(0.0747, abs=1e-12)
    assert data.y.max() == pytest.approx(0.3849, abs=1e-12)


# ---------------------------------------------------------------------------
# subcommands through main()


def test_fit_subcommand(tmp_path):
    train = small_csv(tmp_path)
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", train, "--model", "m3", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["family"] == "m3"
    assert payload["converged"] is True
    assert len(payload["mean_coef"]) == 2


@pytest.mark.parametrize("family", list(ModelFamily), ids=lambda f: f.value)
def test_fit_json_coefficients_pack_to_the_fitted_params(tmp_path, family):
    train = small_csv(tmp_path)
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", train, "--model", family.value, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    packed = [payload["mean_intercept"], *payload["mean_coef"], payload["disp_intercept"]]
    if family.models_dispersion:
        packed += payload["disp_coef"]
    want = fit(load_csv(train), ModelSpec(family)).params
    np.testing.assert_array_equal(np.array(packed), want)


def test_predict_split_subcommand(tmp_path):
    train = small_csv(tmp_path)
    new = write(tmp_path, "new.csv", "x1,x2\n0.0,0.0\n1.0,-1.0\n")
    out = tmp_path / "pred.csv"
    code = main([
        "predict", "--input", train, "--new", new, "--model", "m3",
        "--score", "quantile", "--method", "split", "--alpha", "0.2",
        "--seed", "3", "--output", str(out),
    ])
    assert code == 0
    meta, rows = read_results_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row["lower"] <= row["upper"] <= 1.0


def test_predict_rejects_mismatched_columns(tmp_path):
    train = small_csv(tmp_path)
    new = write(tmp_path, "new.csv", "x2,x1\n0.0,0.0\n")
    code = main([
        "predict", "--input", train, "--new", new, "--model", "m1",
        "--output", str(tmp_path / "p.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("bad_row", ["nan,0.5", "0.5,inf", "0.5", "0.5,0.5,0.5"])
def test_predict_rejects_bad_covariate_rows(tmp_path, capsys, bad_row):
    # non-finite cells and ragged rows fail like the training file does:
    # a data error naming the row, not a numeric error or a silent interval
    train = small_csv(tmp_path, n=60)
    new = write(tmp_path, "new.csv", f"x1,x2\n0.0,0.0\n{bad_row}\n")
    out = tmp_path / "p.csv"
    code = main([
        "predict", "--input", train, "--new", new, "--model", "m1",
        "--method", "full", "--output", str(out),
    ])
    assert code == 2
    assert "non-numeric cells in rows [2]" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_single_cell(tmp_path):
    out = tmp_path / "sim.csv"
    code = main([
        "simulate", "--scenario", "s1", "--model", "m1", "--method", "split",
        "--n", "100", "--replications-split", "1000", "--seed", "1",
        "--output", str(out),
    ])
    assert code == 0
    meta, rows = read_results_csv(out)
    assert meta["replications-split"] == "1000"
    assert len(rows) == 1
    row = rows[0]
    assert (row["scenario"], row["model"], row["method"]) == ("s1", "m1", "split")
    assert 0.883 <= row["coverage"] <= 0.943
    assert row["failures"] == 0


def test_simulate_deterministic_except_cpu(tmp_path):
    argv = [
        "simulate", "--scenario", "s3", "--model", "m3", "--score", "quantile",
        "--method", "split", "--n", "60", "--replications-split", "120", "--seed", "5",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    _, rows1 = read_results_csv(out1)
    _, rows2 = read_results_csv(out2)
    for a, b in zip(rows1, rows2):
        for key in a:
            if key in ("cpu_mean", "cpu_sd"):
                continue
            assert a[key] == b[key]


def test_simulate_empty_grid_is_usage_error(tmp_path, capsys):
    code = main([
        "simulate", "--scenario", "s1", "--model", "m1", "--score", "quantile",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_rejects_bootstrap_before_any_cell(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_coverage", lambda *a, **k: calls.append(a))
    code = main([
        "simulate", "--scenario", "s1", "--model", "m1", "--method", "split,bootstrap",
        "--n", "30", "--replications-split", "2", "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert calls == []
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("fraction", ["1.5", "0", "-0.5"])
def test_analyze_test_fraction_outside_unit_interval_is_usage_error(tmp_path, capsys, fraction):
    train = small_csv(tmp_path, n=40, seed=2)
    outdir = tmp_path / "an"
    code = main([
        "analyze", "--input", train, "--method", "split", f"--test-fraction={fraction}",
        "--output", str(outdir),
    ])
    assert code == 1
    assert "test-fraction" in capsys.readouterr().err
    assert not outdir.exists()


# each case's own values come after these, so they win
_SMALL_RUN = {
    "fit": ["--input", "{train}"],
    "predict": ["--input", "{train}", "--new", "{new}"],
    "analyze": ["--input", "{train}"],
    "simulate": ["--scenario", "s1", "--model", "m1", "--n", "30", "--replications-split", "2",
                 "--replications-full", "2"],
}


@pytest.mark.parametrize("argv", [
    pytest.param(
        ["predict", "--model", "m1", "--method", "bootstrap", "--bootstrap-b", "50"], id="predict-bootstrap-b"
    ),
    pytest.param(["predict", "--model", "m1", "--seed", "-1"], id="predict-seed"),
    pytest.param(["predict", "--model", "m9"], id="predict-model"),
    pytest.param(["predict", "--model", "m1", "--score", "foo"], id="predict-score"),
    pytest.param(["predict", "--model", "m3", "--score", "raw"], id="predict-model-score-pair"),
    pytest.param(["fit", "--model", "m9"], id="fit-model"),
    pytest.param(["predict", "--model", "m1", "--method", "jackknife"], id="predict-method"),
    pytest.param(["simulate", "--scenario", "s1,s9"], id="simulate-scenario"),
    pytest.param(["analyze", "--method", "split,jackknife"], id="analyze-method"),
    pytest.param(["simulate", "--replications-split", "0"], id="simulate-replications-split"),
    pytest.param(["simulate", "--method", "full", "--replications-full", "0"], id="simulate-replications-full"),
    pytest.param(["simulate", "--workers", "0"], id="simulate-workers"),
    pytest.param(["analyze", "--seeds", "0"], id="analyze-seeds"),
    pytest.param(["simulate", "--n", "30,0"], id="simulate-later-n"),
    pytest.param(["simulate", "--scenario", "s2,s1", "--dispersion", "0.7"], id="simulate-later-dispersion"),
    pytest.param(["fit", "--model", "m1", "--rescale", "1", "0"], id="fit-rescale"),
    pytest.param(["predict", "--model", "m1", "--rescale", "1", "0"], id="predict-rescale"),
    pytest.param(["analyze", "--rescale", "1", "0"], id="analyze-rescale"),
])
def test_bad_option_values_are_usage_errors_before_any_work(tmp_path, capsys, monkeypatch, argv):
    """A bad value or name exits 1 before data are read or any interval is built."""
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapped(*a, **k):
            calls.append(name)
            return real(*a, **k)
        return wrapped

    for name in ("_read_table", "split_cp_batch", "run_coverage"):
        monkeypatch.setattr(cli, name, spy(name))
    paths = {"train": small_csv(tmp_path), "new": write(tmp_path, "new.csv", "x1,x2\n0.0,0.0\n")}
    out = tmp_path / "out"
    command, *values = argv
    run = [arg.format(**paths) for arg in _SMALL_RUN[command]]
    code = main([command, *run, *values, "--output", str(out)])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["fit", "--input", "in.csv", "--model", "m9"], "bad model 'm9': expected one of m1, m2, m3, m4"),
    (["predict", "--input", "in.csv", "--new", "new.csv", "--model", "m2", "--score", "foo"],
     "bad score 'foo': expected one of raw, pearson, quantile"),
    (["predict", "--input", "in.csv", "--new", "new.csv", "--model", "m1", "--method", "jackknife"],
     "bad method 'jackknife': expected one of split, full, bootstrap"),
    (["simulate", "--scenario", "s1,s9"], "bad scenario 's9': expected one of s1, s2, s3, s4"),
])
def test_bad_names_list_the_choices(tmp_path, capsys, argv, message):
    assert main([*argv, "--output", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_names_match_value_or_member_name_in_any_case():
    assert cli._member(ModelFamily, "model")(" Transform_Hetero ") is ModelFamily.TRANSFORM_HETERO
    assert cli._member(ModelFamily, "model")("M3") is ModelFamily.BETA_MEAN
    assert cli._member(Scenario, "scenario")("beta_mean_disp") is Scenario.BETA_MEAN_DISP
    assert cli._member(ScoreKind, "score")("Pearson") is ScoreKind.PEARSON
    assert cli._member(Method, "method")("FULL") is Method.FULL


@pytest.mark.parametrize("values", [
    pytest.param(["--method", "split", "--test-fraction", "0.9"], id="split-training-half-of-4"),
    pytest.param(["--test-fraction", "0.99"], id="no-construction-rows"),
    pytest.param(["--method", "bootstrap", "--bootstrap-b", "100", "--test-fraction", "0.95"], id="bootstrap-2-rows"),
])
def test_analyze_test_fraction_leaving_too_few_rows_is_usage_error(tmp_path, capsys, monkeypatch, values):
    """40 rows and p = 2: each method must be able to fit p + 2 = 4 rows."""
    calls = []
    for name in ("split_cp_batch", "full_cp", "bootstrap_interval"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
    out = tmp_path / "out"
    code = main(["analyze", "--input", small_csv(tmp_path), *values, "--output", str(out)])
    assert code == 1
    assert "--test-fraction" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_analyze_full_runs_on_the_fewest_rows_it_can_fit(tmp_path):
    # --test-fraction 0.9 leaves 4 construction rows: enough for full CP, not for split.
    # At alpha 0.1 the conformal rank exceeds 4, so every family's set is (0, 1)
    # with no fit, although the iterative fits of 4 rows would not converge
    out = tmp_path / "out"
    code = main(["analyze", "--input", small_csv(tmp_path), "--method", "full", "--test-fraction", "0.9",
                 "--output", str(out)])
    assert code == 0
    _, rows = read_results_csv(out / "results.csv")
    assert {r["method"] for r in rows} == {"full"}


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_data_error_exit_code(tmp_path):
    bad = write(tmp_path, "bad.csv", "y,a\n0.5,1\n1.5,2\n")
    code = main(["fit", "--input", bad, "--model", "m1", "--output", str(tmp_path / "f.json")])
    assert code == 2
    assert not (tmp_path / "f.json").exists()


def test_alpha_out_of_range_is_usage_error(tmp_path):
    train = small_csv(tmp_path)
    new = write(tmp_path, "new.csv", "x1,x2\n0.0,0.0\n")
    code = main([
        "predict", "--input", train, "--new", new, "--model", "m1",
        "--alpha", "1.5", "--output", str(tmp_path / "p.csv"),
    ])
    assert code == 1


def test_numeric_error_exit_code(tmp_path):
    # duplicated covariate column makes the design singular: fit error
    rng = np.random.default_rng(0)
    x = rng.normal(size=12)
    y = 1.0 / (1.0 + np.exp(-0.3 * x))
    lines = ["y,x1,x2"] + [f"{y[i]:.6f},{x[i]:.6f},{x[i]:.6f}" for i in range(12)]
    train = write(tmp_path, "singular.csv", "\n".join(lines) + "\n")
    code = main(["fit", "--input", train, "--model", "m1", "--output", str(tmp_path / "f.json")])
    assert code == 3
    assert not (tmp_path / "f.json").exists()


def test_analyze_outputs_and_level_monotonicity(tmp_path):
    train = small_csv(tmp_path, n=60, seed=3)
    outdirs = {}
    for alpha in ("0.1", "0.5"):
        outdir = tmp_path / f"an{alpha}"
        code = main([
            "analyze", "--input", train, "--model", "m3", "--score", "quantile",
            "--method", "split", "--seeds", "2", "--alpha", alpha,
            "--seed", "11", "--output", str(outdir),
        ])
        assert code == 0
        outdirs[alpha] = outdir
    widths = {}
    for alpha, outdir in outdirs.items():
        _, rows = read_results_csv(outdir / "results.csv")
        row = next(r for r in rows if r["model"] == "m3")
        widths[alpha] = row["avg_width"]
        assert row["replications"] == 12  # 2 seeds x 6 test points
    assert widths["0.5"] < widths["0.1"]
    _, intervals = read_results_csv(outdirs["0.1"] / "intervals.csv")
    assert len(intervals) == 12
    assert all(r["covered"] in (0, 1) for r in intervals)


def test_analyze_union_intersection_rows(tmp_path):
    outdir = tmp_path / "an"
    code = main([
        "analyze", "--method", "split", "--seeds", "1", "--seed", "2",
        "--output", str(outdir),
    ])
    assert code == 0
    _, rows = read_results_csv(outdir / "results.csv")
    models = {r["model"] for r in rows}
    assert {"m1", "m2", "m3", "m4", "union", "intersection"} <= models
    union = next(r for r in rows if r["model"] == "union")
    inter = next(r for r in rows if r["model"] == "intersection")
    assert union.get("avg_width") >= inter.get("avg_width")
    assert union["coverage"] >= inter["coverage"]


def test_analyze_deterministic(tmp_path):
    train = small_csv(tmp_path, n=50, seed=9)
    argv = [
        "analyze", "--input", train, "--model", "m1", "--method", "split,full,bootstrap",
        "--bootstrap-b", "100", "--seeds", "2", "--seed", "4",
    ]
    assert main(argv + ["--output", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--output", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "intervals.csv").read_text()
    b = (tmp_path / "r2" / "intervals.csv").read_text()
    assert a == b
    _, rows = read_results_csv(tmp_path / "r1" / "intervals.csv")
    assert {r["method"] for r in rows} == {"split", "full", "bootstrap"}


def test_analyze_bootstrap_rows_per_family(tmp_path):
    """Bootstrap gives one row per family with score '-', and no
    union/intersection rows; split gives one per model/score pair plus both."""
    train = small_csv(tmp_path, n=40, seed=6)
    outdir = tmp_path / "an"
    code = main([
        "analyze", "--input", train, "--model", "m1,m3", "--method", "split,bootstrap",
        "--bootstrap-b", "100", "--seeds", "2", "--seed", "7", "--output", str(outdir),
    ])
    assert code == 0
    _, results = read_results_csv(outdir / "results.csv")
    keys = [(r["model"], r["score"], r["method"]) for r in results]
    assert keys == [
        ("m1", "raw", "split"), ("m3", "pearson", "split"), ("m3", "quantile", "split"),
        ("union", "-", "split"), ("intersection", "-", "split"),
        ("m1", "-", "bootstrap"), ("m3", "-", "bootstrap"),
    ]
    assert all(r["replications"] == 8 for r in results)  # 2 seeds x 4 test points
    _, intervals = read_results_csv(outdir / "intervals.csv")
    assert len(intervals) == 2 * 4 * len(keys)
    assert sum(r["method"] == "bootstrap" for r in intervals) == 2 * 4 * 2


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_bit_identical(tmp_path):
    rows = [
        {
            "seed": 1,
            "model": "m3",
            "score": "quantile",
            "method": "full",
            "test_index": 0,
            "lower": 0.1,
            "upper": 1.0 / 3.0,
            "truth": 0.123456789123456789,
            "covered": 1,
        },
        {
            "seed": 2,
            "model": "m1",
            "score": "raw",
            "method": "split",
            "test_index": 5,
            "lower": 1e-17,
            "upper": 0.9999999999999999,
            "truth": 0.2,
            "covered": 0,
        },
    ]
    path = tmp_path / "iv.csv"
    path.write_text(_render_csv(INTERVALS_SCHEMA, INTERVAL_COLUMNS, rows, {"k": "v"}), encoding="utf-8")
    meta, back = read_results_csv(path)
    assert meta["k"] == "v"
    for orig, reread in zip(rows, back):
        for key, value in orig.items():
            if isinstance(value, float):
                assert reread[key] == value and repr(reread[key]) == repr(value)
            else:
                assert reread[key] == value


def test_no_partial_file_on_failure(tmp_path):
    code = main(["analyze", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
    leftovers = list(tmp_path.glob("**/*.tmp"))
    assert leftovers == []


def test_predict_full_and_bootstrap_methods(tmp_path):
    train = small_csv(tmp_path, n=50, seed=5)
    new = write(tmp_path, "new.csv", "x1,x2\n0.1,-0.2\n0.1,-0.2\n")  # one row twice
    for method in ("split", "full", "bootstrap"):
        out = tmp_path / f"pred_{method}.csv"
        code = main([
            "predict", "--input", train, "--new", new, "--model", "m3",
            "--score", "quantile", "--method", method, "--alpha", "0.2",
            "--seed", "1", "--bootstrap-b", "150", "--output", str(out),
        ])
        assert code == 0
        _, rows = read_results_csv(out)
        assert [row["test_index"] for row in rows] == [0, 1]
        for row in rows:
            assert 0.0 <= row["lower"] <= row["upper"] <= 1.0
            assert (row["model"], row["method"], row["seed"]) == ("m3", method, 1)
            assert row["score"] == ("-" if method == "bootstrap" else "quantile")
            assert np.isnan(row["truth"]) and row["covered"] == ""
        # each bootstrap row draws from its own seed; the conformal methods are deterministic
        same = (rows[0]["lower"], rows[0]["upper"]) == (rows[1]["lower"], rows[1]["upper"])
        assert same == (method != "bootstrap")


def test_simulate_full_method_cell(tmp_path):
    out = tmp_path / "simfull.csv"
    code = main([
        "simulate", "--scenario", "s3", "--model", "m3", "--score", "quantile",
        "--method", "full", "--n", "40", "--replications-full", "3",
        "--seed", "2", "--output", str(out),
    ])
    assert code == 0
    _, rows = read_results_csv(out)
    assert rows[0]["method"] == "full"
    assert rows[0]["replications"] == 3


def _loaded_by_cli_import(module: str) -> bool:
    """Whether ``import unitcp.cli`` in a fresh interpreter loads ``module``."""
    import unitcp

    env = dict(os.environ, PYTHONPATH=str(Path(unitcp.__file__).resolve().parents[1]))
    probe = f"import sys, unitcp.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy_optimize():
    """scipy.optimize dominated start-up time; the package no longer needs it."""
    assert not _loaded_by_cli_import("scipy.optimize")


def test_cli_import_does_not_load_scipy_linalg():
    """scipy.linalg adds start-up time; factorizations and solves use np.linalg."""
    assert not _loaded_by_cli_import("scipy.linalg")
