"""In-memory span tracer that wraps unitcp's layer entry points from outside.

Each layer's public function is replaced wherever callers look it up: every
module attribute in the ``unitcp`` package that refers to it, plus
``Dataset.augmented`` on its class and ``scipy.optimize.minimize``, which
``unitcp.models`` reaches through the ``scipy.optimize`` module.  A wrapper
records one span (name, start, end, parent, interval id, detail) per call.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize

LAYERS = (
    "bench.request",
    "models.fit",
    "models.optimizer",
    "models.loglik",
    "models.augment",
    "conformal.full_cp",
    "conformal.indicator",
    "conformal.split_cp",
    "scores.score",
    "numeric.beta_quantile",
    "simlab.run_coverage",
    "simlab.generate",
)


def _fit_detail(args, kwargs, out):
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    warm = opts is not None and opts.init is not None
    return (warm, None if out is None else bool(out.converged))


def _optimizer_detail(args, kwargs, out):
    return None if out is None else (int(getattr(out, "nit", 0)), int(getattr(out, "nfev", 0)))


def _targets():
    """(owner, attribute, layer name, detail function) for every wrapped entry point."""
    from unitcp import conformal, models, numeric, scores, simlab

    return [
        (models, "fit", "models.fit", _fit_detail),
        (models, "loglik", "models.loglik", None),
        (models.Dataset, "augmented", "models.augment", None),
        (scipy.optimize, "minimize", "models.optimizer", _optimizer_detail),
        (conformal, "full_cp", "conformal.full_cp", None),
        (conformal, "indicator", "conformal.indicator", None),
        (conformal, "split_cp", "conformal.split_cp", None),
        (scores, "score", "scores.score", None),
        (numeric, "beta_quantile", "numeric.beta_quantile", None),
        (simlab, "run_coverage", "simlab.run_coverage", None),
        (simlab, "gen_covariates", "simlab.generate", None),
        (simlab, "gen_response", "simlab.generate", None),
    ]


class Tracer:
    """Records spans while installed; ``interval`` and ``family`` tag them."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index, interval id, family, detail]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.interval = -1
        self.family = ""

    def _wrap(self, func, name, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = func(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                info = detail(args, kwargs, out) if detail else None
                spans[idx] = [name, start, end, parent, self.interval, self.family, info]

        traced.__wrapped__ = func
        return traced

    def record(self, name, func):
        """Call ``func()`` of the benchmark's own inside a span."""
        return self._wrap(func, name, None)()

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "unitcp" or key.startswith("unitcp.")]
        for owner, attr, name, detail in _targets():
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, detail)
            places = [(owner, attr)] + [
                (m, key) for m in modules for key, val in vars(m).items() if val is orig and m is not owner
            ]
            for obj, key in places:
                self._undo.append((obj, key, getattr(obj, key)))
                setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, interval, family, detail."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _p50_ms(ns) -> float:
    return float(np.median(ns)) / 1e6 if len(ns) else 0.0


def layer_metrics(tracer: Tracer, wall_ns: int, intervals_by_family: dict[str, int], edges: int) -> dict:
    """Per-layer metrics from the recorded spans of one traced pass.

    Self time is a span's duration minus its direct children's durations, so
    the self times of all layers plus the time outside every request span
    (``bench.unattributed_share``) add up to the traced wall time.
    """
    spans = tracer.spans
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    child = np.zeros(n, dtype=np.int64)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    self_ns = dur - child

    names = [s[0] for s in spans]
    by_layer = defaultdict(list)
    for i, name in enumerate(names):
        by_layer[name].append(i)
    # fits nested in a fit (m4's m3 start) are part of the outer fit's cost
    in_fit = np.zeros(n, dtype=bool)
    for i in range(n):
        p = parent[i]
        in_fit[i] = p >= 0 and (in_fit[p] or names[p] == "models.fit")

    intervals = sum(intervals_by_family.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        key = "models.loglik.share" if layer == "models.loglik" else f"{layer}.self_share"
        out[key] = float(self_ns[by_layer[layer]].sum()) / wall_ns
    out["bench.unattributed_share"] = 1.0 - float(self_ns.sum()) / wall_ns

    def family_metrics(fam: str | None, suffix: str) -> None:
        def pick(layer, extra=None):
            return [
                i
                for i in by_layer[layer]
                if (fam is None or spans[i][5] == fam) and (extra is None or extra(i))
            ]

        count = intervals if fam is None else intervals_by_family.get(fam, 0)
        per = 1.0 / count if count else 0.0
        fits = pick("models.fit", lambda i: not in_fit[i])
        warm = [i for i in fits if spans[i][6][0]]
        cold = [i for i in fits if not spans[i][6][0]]
        bad = [i for i in fits if not spans[i][6][1]]  # converged False, or raised
        opt = [spans[i][6] or (0, 0) for i in pick("models.optimizer")]
        ind = pick("conformal.indicator")
        req = pick("bench.request")
        per_fit = 1.0 / len(fits) if fits else 0.0
        out[f"models.fit.calls_per_interval{suffix}"] = len(fits) * per
        out[f"models.fit.warm_ms_p50{suffix}"] = _p50_ms(dur[warm])
        out[f"models.fit.cold_ms_p50{suffix}"] = _p50_ms(dur[cold])
        out[f"models.fit.nonconverged_share{suffix}"] = len(bad) * per_fit
        out[f"models.optimizer.calls_per_fit{suffix}"] = len(opt) * per_fit
        out[f"models.optimizer.nit_per_fit{suffix}"] = sum(o[0] for o in opt) * per_fit
        out[f"models.optimizer.nfev_per_fit{suffix}"] = sum(o[1] for o in opt) * per_fit
        out[f"conformal.indicator.calls_per_interval{suffix}"] = len(ind) * per
        out[f"conformal.indicator.self_ms_p50{suffix}"] = _p50_ms(self_ns[ind])
        out[f"bench.request_ms_p50{suffix}"] = _p50_ms(dur[req])

    family_metrics(None, "")
    for fam in ("m1", "m2", "m3", "m4"):
        family_metrics(fam, f".{fam}")

    n_ind = len(by_layer["conformal.indicator"])
    out["conformal.indicator.calls_per_edge"] = n_ind / edges if edges else 0.0
    out["conformal.split_cp.self_ms_p50"] = _p50_ms(self_ns[by_layer["conformal.split_cp"]])
    out["numeric.beta_quantile.calls"] = float(len(by_layer["numeric.beta_quantile"]))
    out["numeric.beta_quantile.ms_p50"] = _p50_ms(dur[by_layer["numeric.beta_quantile"]])
    out["scores.score.calls_per_interval"] = len(by_layer["scores.score"]) / intervals
    out["models.augment.ms_p50"] = _p50_ms(dur[by_layer["models.augment"]])
    return out
