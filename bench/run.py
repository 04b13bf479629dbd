"""Closed-loop benchmark driver for unitcp.

    python3 bench/run.py --workload full-bodyfat --seed 1 --seconds 20 --trace 0

One client issues one request at a time from a single process.  Inputs are
made from ``--seed`` during set-up; the timed loop then runs whole rounds of
requests until ``--seconds`` of request time have passed and at least the
deterministic prefix of rounds is done.  Every result is checked, untimed,
right after its request.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` the first rounds run once untraced and once
traced, and the per-layer metrics are printed.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Details and
the environment go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
PROBE_TIMEOUT_S = 120
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import unitcp from this checkout's ``src`` and nowhere else, then the
    benchmark's own modules, which use it."""
    global unitcp, checks, speed, tracing, workloads
    if not (SRC / "unitcp" / "__init__.py").is_file():
        fail(f"no unitcp sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import unitcp

    if Path(unitcp.__file__).resolve().parent != SRC / "unitcp":
        fail(f"imported unitcp from {unitcp.__file__}, not from {SRC}")
    import checks
    import speed
    import tracing
    import workloads


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# ---------------------------------------------------------------------------
# set-up probes


def _importtime_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def setup_probes(workload: str, seed: int, seconds: int, importtime: bool) -> list[dict]:
    """Set up in fresh interpreters; ``setup_s`` runs from launch to ready.

    Each probe follows a few bare interpreter starts (``speed.reference_starts_s``).
    """
    flags = ["-X", "importtime"] if importtime else []
    runs = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, *flags, str(HERE / "probe.py"), str(SRC), workload, str(seed), str(seconds)]
        reference_s = speed.reference_starts_s()
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec.pop("ready") - t0
        rec["reference_start_s"] = reference_s
        if importtime:
            rec["import_scipy_optimize_s"] = _importtime_s(proc.stderr, "scipy.optimize")
        runs.append(rec)
    return runs


# ---------------------------------------------------------------------------
# issuing requests


class Record:
    __slots__ = ("request", "family", "result", "error", "start", "wall", "cpu", "warnings", "errors", "outcome")

    def __init__(self, request):
        self.request = request
        self.family = request.family
        self.result = None
        self.error = None
        self.errors: list[str] = []


def issue(req, tracer=None) -> Record:
    """One timed call; wall and CPU (own plus reaped children) around it."""
    rec = Record(req)
    call = req.call if tracer is None else (lambda: tracer.record("bench.request", req.call))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", unitcp.IntervalSearchWarning)
        c0, k0 = time.process_time(), os.times()
        t0 = time.perf_counter()
        try:
            rec.result = call()
        except Exception as exc:  # a failed request is counted, and the run goes on
            rec.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        c1, k1 = time.process_time(), os.times()
    rec.start, rec.wall = t0, t1 - t0
    # os.times() ticks at 10 ms, so only the rare child process time comes from it
    rec.cpu = c1 - c0 + (k1.children_user + k1.children_system) - (k0.children_user + k0.children_system)
    rec.warnings = sum(issubclass(w.category, unitcp.IntervalSearchWarning) for w in caught)
    return rec


def signature(result):
    """What must not change when the program is traced."""
    if hasattr(result, "replications"):
        return (result.coverage, result.avg_width, result.replications, result.failures_replaced)
    return repr((result.lower, result.upper, result.level, result.empty))


def tail(latencies_ms: list[float], prefix_samples: int) -> tuple[float, float]:
    """Highest ladder percentile with >= 10 samples beyond it in the prefix.

    The level depends on the deterministic prefix only, so it is the same
    percentile on every run of a workload.
    """
    level = max([q for q in TAIL_LADDER if (1.0 - q / 100.0) * prefix_samples >= 10.0] or [50.0])
    return level, float(np.percentile(latencies_ms, level))


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, inputs, seconds: int):
    prefix = workload.prefix_rounds(seconds)
    recs: list[Record] = []
    prefix_len = 0
    busy = 0.0
    calibration = speed.Calibration()
    for r, requests in enumerate(workload.rounds(inputs)):
        for req in requests:
            rec = issue(req)
            busy += rec.wall
            calibration.after(rec.wall)
            if rec.result is not None:
                rec.errors = req.check(rec.result)
                rec.outcome = workloads.outcome(req, rec.result)
            rec.request = None  # frees its inputs, so memory does not grow with the run
            recs.append(rec)
        if r + 1 == prefix:
            prefix_len = len(recs)
        if r + 1 >= prefix and busy >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [rec for rec in recs if rec.result is not None]
    done = len(ok)
    redraws = sum(rec.outcome.redraws for rec in ok)
    raised = sum(1 for rec in recs if rec.error)
    bad = sum(1 for rec in recs if rec.errors)
    attempts = len(recs) + redraws
    failure_rate = (raised + redraws + bad) / attempts

    prefix_ok = [rec for rec in recs[:prefix_len] if rec.result is not None]
    prefix_outs = [rec.outcome for rec in prefix_ok]
    pooled_errors = checks.check_pooled([(rec.family, rec.outcome) for rec in prefix_ok], workloads.ALPHA)
    raw_ms = np.array([rec.wall for rec in ok]) * 1e3
    raw_cpu_ms = np.array([rec.cpu for rec in ok]) * 1e3
    scale = calibration.scales([rec.start for rec in ok], [rec.wall for rec in ok])
    level, tail_ms = tail(raw_ms * scale, prefix_len)
    metrics = {
        "intervals_per_s": (1e3 * done / (raw_ms * scale).sum(), "1/s"),
        "interval_p50_ms": (float(np.median(raw_ms * scale)), "ms"),
        "interval_tail_ms": (tail_ms, "ms"),
        "cpu_per_interval_ms": (float((raw_cpu_ms * scale).sum()) / done, "ms"),
        "success_rate": (1.0 - failure_rate, "ratio"),
        "coverage": (sum(o.covered for o in prefix_outs) / len(prefix_outs), "ratio"),
        "mean_width": (sum(o.width for o in prefix_outs) / len(prefix_outs), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    errors = [e for rec in recs for e in rec.errors] + pooled_errors + [rec.error for rec in recs if rec.error]
    details = {
        "rounds": r + 1,
        "prefix_rounds": prefix,
        "requests": len(recs),
        "intervals": done,
        "request_seconds": busy,
        "tail_percentile": level,
        "speed_scale_p50": float(np.median(scale)),
        "raw_intervals_per_s": 1e3 * done / raw_ms.sum(),
        "raw_interval_p50_ms": float(np.median(raw_ms)),
        "raw_interval_tail_ms": tail(raw_ms, prefix_len)[1],
        "raw_cpu_per_interval_ms": float(raw_cpu_ms.sum()) / done,
        "failure_rate": failure_rate,
        "raised_intervals": raised,
        "redraws": redraws,
        "failed_check_intervals": bad,
        "search_warnings": sum(rec.warnings for rec in recs),
        "errors": errors[:50],
    }
    failed = sum(1 for rec in recs if rec.error or rec.errors) + len(pooled_errors)
    return metrics, details, len(recs), failed


def traced_run(workload, inputs, seconds: int):
    rounds = max(1, round(0.5 * seconds * workload.rounds_per_s))
    requests = [req for rnd in islice(workload.rounds(inputs), rounds) for req in rnd]

    # each request runs once untraced and once traced, alternating which goes
    # first, so slow drifts of machine speed and warm caches fall on both alike
    tracer = tracing.Tracer()
    plain, traced = [], []
    plain_ns, traced_ns = [], []
    for i, req in enumerate(requests):
        for with_tracer in (False, True) if i % 2 == 0 else (True, False):
            if with_tracer:
                tracer.install()
                tracer.interval, tracer.family = i, req.family
            try:
                t0 = time.perf_counter_ns()
                rec = issue(req, tracer if with_tracer else None)
                dt = time.perf_counter_ns() - t0
            finally:
                tracer.uninstall()
            (traced if with_tracer else plain).append(rec)
            (traced_ns if with_tracer else plain_ns).append(dt)

    errors = []
    by_family: dict[str, int] = {}
    edges = redraws = warned = 0
    for a, b in zip(plain, traced):
        if a.error or b.error:
            errors.append(a.error or b.error)
            continue
        if signature(a.result) != signature(b.result):
            errors.append(f"traced result {signature(b.result)} != untraced {signature(a.result)}")
        errors += checks.check_structure(b.result, workloads.ALPHA)
        out = workloads.outcome(b.request, b.result)
        by_family[b.request.family] = by_family.get(b.request.family, 0) + 1
        edges += out.finite_edges
        redraws += out.redraws
        warned += b.warnings

    metrics = tracing.layer_metrics(tracer, sum(traced_ns), by_family, edges)
    intervals = sum(by_family.values())
    metrics["conformal.search_warnings"] = float(warned)
    metrics["simlab.redraws_per_rep"] = redraws / intervals if intervals else 0.0
    # the median ratio within back-to-back pairs; a ratio of sums would follow
    # the machine's slow phases, which last longer than one pair
    metrics["bench.tracing_overhead"] = float(np.median(np.array(traced_ns) / np.array(plain_ns)))
    details = {
        "traced_rounds": rounds,
        "requests": len(requests),
        "intervals": intervals,
        "spans": len(tracer.spans),
        "untraced_s": sum(plain_ns) / 1e9,
        "traced_s": sum(traced_ns) / 1e9,
        "errors": errors[:50],
    }
    return metrics, details, tracer, len(requests), len(errors)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be positive")

    import_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    inputs, _ = workload.make_inputs(args.seed, args.seconds)

    if args.trace:
        metrics, details, tracer, attempted, failed = traced_run(workload, inputs, args.seconds)
        probes = setup_probes(args.workload, args.seed, args.seconds, importtime=True)
        for key in ("import_cli_s", "import_scipy_optimize_s", "load_bodyfat_s", "make_inputs_s"):
            metrics[f"setup.{key}"] = statistics.median(p[key] for p in probes)
        metrics = {name: (value, unit_of(name)) for name, value in metrics.items()}
    else:
        metrics, details, attempted, failed = timed_run(workload, inputs, args.seconds)
        probes = setup_probes(args.workload, args.seed, args.seconds, importtime=False)
        raw = statistics.median(p["setup_s"] for p in probes)
        reference = statistics.median(t for p in probes for t in p["reference_start_s"])
        metrics["setup_s"] = (raw * speed.REFERENCE_START_S / reference, "s")
        details["raw_setup_s"], details["reference_start_s"] = raw, reference
        tracer = None
    details["setup_probes"] = probes

    correct = failed == 0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    print(f"details: {json.dumps({k: v for k, v in details.items() if k != 'setup_probes'})}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if not correct:
        print(f"{failed} failed request(s) or check(s); see details.errors", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def unit_of(name: str) -> str:
    if name[-3:] in (".m1", ".m2", ".m3", ".m4"):
        name = name[:-3]
    if name.endswith("_ms_p50") or name.endswith(".ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith(".share") or name == "bench.tracing_overhead":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
