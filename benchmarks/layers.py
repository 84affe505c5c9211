"""Traced in-process run of germgrain's layers, for the per-layer metrics.

Spans are recorded from the benchmark's side of each layer boundary: for
the length of a traced run, the public functions that the CLI's work goes
through are replaced, in the module that looks them up, by a wrapper that
records a span (name, start, end, parent, count).  Nothing inside the
program is changed.  Layers without a public boundary of their own are
timed inside their caller: `rng` inside `process.sample`, `cells` and
`geometry` inside `union` and `covariance`, `quadrature` inside
`covariance`.

Each workload's in-process work repeats what its CLI command does, on the
same config, so `cli.overhead_s` is the CLI's wall time minus this time.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc

import numpy as np

from germgrain import cltstats, covariance, moments, process, union
from germgrain.covariance import covariogram_functions as _profiles
from germgrain.process import GrainDistribution, ModelConfig


class Tracer:
    """Spans in memory: [name, start, end, parent index or -1, count or None]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, count=None):
        idx = self._open(name, count)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name, count):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, count])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            idx = self._open(name, count(*args) if count else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextlib.contextmanager
    def instrument(self, targets):
        """Replace owner.attr by a traced wrapper for each (owner, attr, name, count).

        A target the program no longer has is skipped, and the metrics built
        from its spans read NaN.
        """
        saved = []
        try:
            for owner, attr, name, count in targets:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, count))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self, lo=0, hi=None):
        """Per span index in [lo, hi): duration minus the durations of its children."""
        spans = self.spans[lo:hi]
        out = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= lo:
                out[s[3] - lo] -= s[2] - s[1]
        return out

    def summary(self):
        """{name: (count, inclusive seconds, self seconds)} over all spans."""
        agg = {}
        for s, own in zip(self.spans, self.self_times()):
            c, inc, slf = agg.get(s[0], (0, 0.0, 0.0))
            agg[s[0]] = (c + 1, inc + s[2] - s[1], slf + own)
        return agg


def span_cost(calls=20000):
    """Seconds a traced call costs over a plain one, measured on a no-op."""
    def noop():
        return None
    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _n_grains(grains, *rest):
    return len(grains)


TARGETS = [
    (process, "sample", "process.sample", None),
    (cltstats, "sample", "process.sample", None),
    (GrainDistribution, "sample_shapes", "process.sample_shapes", None),
    (cltstats, "arrangement_measure", "union.arrangement_measure", _n_grains),
    (union, "arrangement_measure", "union.arrangement_measure", _n_grains),
    (moments, "estimate_densities", "moments.estimate_densities", None),
    (moments, "edge_corrected_measure", "union.edge_corrected_measure", _n_grains),
    (cltstats, "normality_report", "cltstats.normality_report", None),
    (covariance, "covariogram_functions", "covariance.profiles", None),
    (covariance, "rho_22", "covariance.rho_22", None),
    (covariance, "rho_12", "covariance.rho_12", None),
    (covariance, "rho_11", "covariance.rho_11", None),
]


def _spans_named(tr, lo, hi, name):
    return [(s, own) for s, own in zip(tr.spans[lo:hi], tr.self_times(lo, hi)) if s[0] == name]


def _mean(xs):
    return float(np.mean(xs)) if xs else float("nan")


def _ratio(a, b):
    return a / b if b else float("nan")


def disk_clt(tr, rec, scales, reps):
    """run_batch at parallelism 1 (per-scale layer times) and 2 (as the CLI runs it).

    Returns (metrics, in-process seconds of the CLI's work, errors).
    """
    cfg = ModelConfig.from_record(rec)
    metrics, errs = {}, []
    serial = parallel = 0.0
    batches = {}
    for scale in scales:
        lo = len(tr.spans)
        t0 = time.perf_counter()
        with tr.span("cltstats.run_batch[parallelism=1]"):
            b1 = cltstats.run_batch(cfg, scale, reps, 1)
        serial += time.perf_counter() - t0
        hi = len(tr.spans)
        arr = _spans_named(tr, lo, hi, "union.arrangement_measure")
        grains = [s[4] for s, _ in arr]
        arr_s = sum(s[2] - s[1] for s, _ in arr)
        key = f"scale{int(scale)}"
        metrics[f"union.{key}.grains_in_window"] = _mean(grains)
        metrics[f"union.{key}.arrangement_ms"] = 1e3 * _ratio(arr_s, len(arr))
        metrics[f"union.{key}.arrangement_us_per_grain"] = 1e6 * _ratio(arr_s, sum(grains))
        if scale == max(scales):
            smp = _spans_named(tr, lo, hi, "process.sample")
            metrics[f"process.{key}.sample_ms"] = 1e3 * _mean([s[2] - s[1] for s, _ in smp])
        t0 = time.perf_counter()
        with tr.span("cltstats.run_batch"):
            b2 = cltstats.run_batch(cfg, scale, reps, 2)
        parallel += time.perf_counter() - t0
        if b1.functionals.tobytes() != b2.functionals.tobytes():
            errs.append(f"run_batch at scale {scale}: parallelism 1 and 2 differ")
        batches[scale] = b2
    lo = len(tr.spans)
    t0 = time.perf_counter()
    with tr.span("cltstats.clt_experiment"):
        cltstats.clt_experiment(cfg, scales, reps, functional="v2", parallelism=2,
                                batches=batches)
    report_s = time.perf_counter() - t0
    rep = _spans_named(tr, lo, len(tr.spans), "cltstats.normality_report")
    metrics["cltstats.run_batch_s"] = parallel
    metrics["cltstats.pool_speedup"] = _ratio(serial, parallel)
    metrics["cltstats.normality_report_ms"] = 1e3 * _mean([s[2] - s[1] for s, _ in rep])
    return metrics, parallel + report_s, errs


def _estimate(rec, reps):
    """What `estimate --threads 1` computes: every sample, the densities, the inversion."""
    cfg = ModelConfig.from_record(rec)
    samples = [process.sample(cfg, k) for k in range(reps)]
    dv, _, rows = moments.estimate_densities(samples)
    moments.invert_intensity(dv)
    moments.invert_intensity_se(dv, np.cov(rows.T), len(rows))
    return samples


def squares_estimate(tr, rec, reps):
    """The estimate command's single-worker path: draw every sample, then estimate."""
    lo = len(tr.spans)
    t0 = time.perf_counter()
    with tr.span("bench.estimate"):
        samples = _estimate(rec, reps)
    work_s = time.perf_counter() - t0
    hi = len(tr.spans)
    smp = _spans_named(tr, lo, hi, "process.sample")
    shp = _spans_named(tr, lo, hi, "process.sample_shapes")
    arr = _spans_named(tr, lo, hi, "union.arrangement_measure")
    edge = _spans_named(tr, lo, hi, "union.edge_corrected_measure")
    est = [s for s in tr.spans[lo:hi] if s[0] == "moments.estimate_densities"]
    grains = [s[4] for s, _ in arr]
    arr_s = sum(s[2] - s[1] for s, _ in arr)
    metrics = {
        "process.sample_ms": 1e3 * _mean([s[2] - s[1] for s, _ in smp]),
        "process.sample_shapes_ms": 1e3 * _mean([s[2] - s[1] for s, _ in shp]),
        "process.grains_per_replicate": _mean([len(s.placed) for s in samples]),
        "union.grains_in_window": _mean(grains),
        "union.arrangement_ms": 1e3 * _ratio(arr_s, len(arr)),
        "union.arrangement_us_per_grain": 1e6 * _ratio(arr_s, sum(grains)),
        "union.edge_corrected_ms": 1e3 * _mean([own for _, own in edge]),
        "moments.estimate_densities_s": sum(s[2] - s[1] for s in est),
    }
    return metrics, work_s


def peak_alloc_mb(rec, reps):
    """tracemalloc peak while `reps` samples are drawn and estimated (run untraced).

    tracemalloc slows this path about tenfold, so callers pass fewer
    replicates than the workload runs; the peak grows linearly with them,
    because every sample is held until the estimate.
    """
    tracemalloc.start()
    try:
        _estimate(rec, reps)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def theory(tr, recs):
    """sigma_matrix per law, each with the profile cache cleared first."""
    metrics = {}
    work_s = 0.0
    for law, rec in recs.items():
        cfg = ModelConfig.from_record(rec)
        _profiles.cache_clear()
        lo = len(tr.spans)
        t0 = time.perf_counter()
        with tr.span("covariance.sigma_matrix"):
            covariance.sigma_matrix(cfg.gamma, cfg.grains)
        dt = time.perf_counter() - t0
        work_s += dt
        hi = len(tr.spans)
        metrics[f"covariance.{law}.profiles_s"] = sum(
            s[2] - s[1] for s, _ in _spans_named(tr, lo, hi, "covariance.profiles"))
        for rho in ("rho_22", "rho_12", "rho_11"):
            metrics[f"covariance.{law}.{rho}_s"] = sum(
                own for _, own in _spans_named(tr, lo, hi, f"covariance.{rho}"))
        metrics[f"covariance.{law}.sigma_matrix_s"] = dt
    return metrics, work_s
