#!/usr/bin/env python3
"""Seeded benchmark of the germgrain CLI: end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload disk-clt --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from anywhere; the program is taken from `src/` next to this directory
and run as its users run it, one CLI process per command.  The workload seed
only shapes the generated configs: the program receives nothing but them.

--trace 0 repeats whole rounds of the workload's CLI commands for --seconds
and reports the end-to-end metrics (medians over rounds).  --trace 1 runs
one round of the CLI commands, then the traced in-process run of every
layer (see layers.py), and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object; outputs, configs, results
and span dumps go to benchmarks/out/.  The exit code is 1 when a command
fails or an output fails its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CLI_MAIN = "import sys; from germgrain.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 150.0
SETUP_REPEATS = 3

CLT_SCALES = (16, 32, 64)
CLT_REPS = 300
ESTIMATE_REPS = 60
PEAK_ALLOC_REPS = 16
UNIFORM_RADIUS = (0.5, 1.5)


def _window(side):
    return {"lo": [0.0, 0.0], "hi": [float(side), float(side)]}


DISK = {"family": "disk", "radius": {"law": "constant", "value": 1.0}, "rotate": False}
UNIFORM_DISK = {"family": "disk", "rotate": False,
                "radius": {"law": "uniform", "a": UNIFORM_RADIUS[0], "b": UNIFORM_RADIUS[1]}}
ROTATED_SQUARE = {"family": "rect", "rotate": True,
                  "halfwidth": {"law": "constant", "value": 0.5},
                  "halfheight": {"law": "constant", "value": 0.5}}


def configs(workload, seed):
    """The workload's model configs; the seed picks the program's master seed."""
    s = random.Random(f"{workload}/{seed}").randrange(2 ** 31)
    if workload == "disk-clt":
        # the CLI scales this unit window by 16, 32 and 64
        return {"disk": {"gamma": 0.3, "grains": DISK, "window": _window(1), "seed": s}}
    if workload == "squares-estimate":
        return {"squares": {"gamma": 0.5, "grains": ROTATED_SQUARE, "window": _window(16),
                            "seed": s}}
    return {"disk_uniform": {"gamma": 0.3, "grains": UNIFORM_DISK, "window": _window(16),
                             "seed": s},
            "squares_iso": {"gamma": 0.3, "grains": ROTATED_SQUARE, "window": _window(16),
                            "seed": s}}


# ---------------------------------------------------------------------------
# Running CLI commands
# ---------------------------------------------------------------------------


class Command:
    """One finished CLI process: wall, CPU of its process tree, peak RSS."""

    def __init__(self, args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        with open(cwd / "cli.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *args], cwd=cwd, env=env,
                                    stdout=log, stderr=log, start_new_session=True)
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        # wait4 folds in every descendant the child reaped (its pool workers)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def read_csv(path):
    """Data rows of a germgrain CSV as dicts (numbers where they parse)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = {}
        for c, v in zip(cols, ln.split(",")):
            try:
                row[c] = float(v)
            except ValueError:
                row[c] = v
        rows.append(row)
    return rows


class Workload:
    """Config files, one round of CLI commands and the checks of their outputs."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.dir = name, seed, workdir
        self.configs = configs(name, seed)
        for key, rec in self.configs.items():
            (workdir / f"{key}.json").write_text(json.dumps(rec, indent=1))
        self._refs = None

    def commands(self):
        """(args, replicates, check) per CLI command of one round."""
        if self.name == "disk-clt":
            scales = [str(s) for s in CLT_SCALES]
            return [(["clt", "--config", "disk.json", "--scales", *scales, "--reps",
                      str(CLT_REPS), "--functional", "v2", "--threads", "2",
                      "--out", "clt.csv"], len(CLT_SCALES) * CLT_REPS, self._check_clt)]
        if self.name == "squares-estimate":
            return [(["estimate", "--config", "squares.json", "--reps", str(ESTIMATE_REPS),
                      "--threads", "1", "--out", "estimate.csv"], ESTIMATE_REPS,
                     self._check_estimate)]
        # on theory a "replicate" is one covariance matrix
        return [(["covariance", "--config", f"{law}.json", "--out", f"{law}.csv"], 1,
                 lambda law=law: self._check_covariance(law)) for law in self.configs]

    def _check_clt(self):
        return checks.check_disk_clt(read_csv(self.dir / "clt.csv"), gamma=0.3, radius=1.0,
                                     base_area=1.0)

    def _check_estimate(self):
        return checks.check_estimate(read_csv(self.dir / "estimate.csv")[0], gamma=0.5,
                                     ev1=2.0, ev2=1.0)

    def _check_covariance(self, law):
        if self._refs is None:
            a, b = UNIFORM_RADIUS
            r12, r11 = checks.rho12_rho11_uniform_disks(0.3, a, b)
            self._refs = {
                "disk_uniform": dict(ev2=math.pi * (b ** 3 - a ** 3) / (3.0 * (b - a)),
                                     rho22_ref=checks.rho22_uniform_disks(0.3, a, b),
                                     tol22=checks.RHO22_DISK_TOL, rho12_ref=r12,
                                     rho11_ref=r11, tol1x=checks.RHO1X_DISK_TOL),
                "squares_iso": dict(ev2=1.0, rho22_ref=checks.rho22_rotated_squares(0.3),
                                    tol22=checks.RHO22_SQUARE_TOL),
            }
        rows = read_csv(self.dir / f"{law}.csv")
        block = {b: [[r["c0"], r["c1"], r["c2"]] for r in rows if r["block"] == b]
                 for b in ("sigma", "rho")}
        return checks.check_covariance(block["sigma"], block["rho"], gamma=0.3,
                                       **self._refs[law])

    def run_round(self):
        """Run every command once; returns (commands, replicates, failed, messages).

        A command fails when it exits non-zero or its output fails a check.
        """
        done, reps, failed, messages = [], 0, 0, []
        for args, n, check in self.commands():
            cmd = Command(args, self.dir)
            done.append(cmd)
            reps += n
            if cmd.returncode != 0:
                errs = [f"exit code {cmd.returncode} (see cli.log)"]
            else:
                try:
                    errs = check()
                except (OSError, KeyError, IndexError, ValueError) as exc:
                    errs = [f"unreadable output: {exc!r}"]
            failed += bool(errs)
            messages += [f"{args[0]}: {e}" for e in errs]
        return done, reps, failed, messages


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def machine():
    model = "unknown"
    try:
        for ln in Path("/proc/cpuinfo").read_text().splitlines():
            if ln.startswith("model name"):
                model = ln.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_seconds(workdir):
    walls = []
    for _ in range(SETUP_REPEATS):
        cmd = Command(["--version"], workdir)
        if cmd.returncode != 0:
            raise SystemExit(f"germgrain --version failed with exit code {cmd.returncode}")
        walls.append(cmd.wall_s)
    return statistics.median(walls)


def end_to_end(wl, seconds):
    """Whole rounds until `seconds` have passed; medians over rounds."""
    setup_s = setup_seconds(wl.dir)
    rounds, attempted, failed, messages = [], 0, 0, []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        cmds, reps, n_failed, msgs = wl.run_round()
        wall = sum(c.wall_s for c in cmds)
        rounds.append({"wall_s": wall, "cpu_s": sum(c.cpu_s for c in cmds),
                       "replicates_per_s": reps / wall,
                       "peak_rss_mb": max(c.rss_mb for c in cmds)})
        attempted += len(cmds)
        failed += n_failed
        messages += msgs
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "replicates_per_s": "1/s",
             "peak_rss_mb": "MB"}
    values = {k: statistics.median(r[k] for r in rounds) for k in units if k != "setup_s"}
    values["setup_s"] = setup_s
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return metrics, attempted, failed, messages, {"rounds": rounds}


PER_LAYER_UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB", "_us_per_grain": "us",
                   "grains_per_replicate": "count", "grains_in_window": "count",
                   "pool_speedup": "ratio"}


def _unit(name):
    return next(u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix))


def per_layer(wl, tag):
    """One CLI round of this workload, then the traced in-process run of every layer.

    Every workload's layers are measured, each on its own workload's configs
    for this seed, so a traced run reports every per-layer metric;
    cli.overhead_s is this workload's CLI wall time minus its in-process time.
    """
    sys.path.insert(0, str(SRC))
    import layers

    cmds, _, failed, messages = wl.run_round()
    cli_wall = sum(c.wall_s for c in cmds)
    tr = layers.Tracer()
    work = {}
    squares = configs("squares-estimate", wl.seed)["squares"]
    with tr.instrument(layers.TARGETS):
        m_clt, work["disk-clt"], errs = layers.disk_clt(
            tr, configs("disk-clt", wl.seed)["disk"], CLT_SCALES, CLT_REPS)
        messages += errs
        m_sq, work["squares-estimate"] = layers.squares_estimate(tr, squares, ESTIMATE_REPS)
        m_th, work["theory"] = layers.theory(tr, configs("theory", wl.seed))
    values = {**m_clt, **m_sq, **m_th}
    values["moments.peak_alloc_mb"] = layers.peak_alloc_mb(squares, PEAK_ALLOC_REPS)
    values["cli.overhead_s"] = cli_wall - work[wl.name]
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}

    span_cost = layers.span_cost()
    summary = tr.summary()
    print(f"{'span':<40} {'count':>7} {'self s':>10} {'total s':>10}", file=sys.stderr)
    for name, (count, inc, own) in sorted(summary.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<40} {count:>7} {own:>10.4f} {inc:>10.4f}", file=sys.stderr)
    overhead = span_cost * len(tr.spans)
    print(f"tracing: {len(tr.spans)} spans, about {1e6 * span_cost:.2f} us each, "
          f"{overhead:.4f} s in all", file=sys.stderr)
    dump = {"workload": wl.name, "seed": wl.seed, "fields": ["name", "start", "end",
                                                            "parent", "count"],
            "spans": tr.spans}
    (OUT / f"spans-{tag}.json").write_text(json.dumps(dump))
    extra = {"cli_wall_s": cli_wall, "in_process_s": work, "span_count": len(tr.spans),
             "tracing_overhead_s": overhead}
    return metrics, len(cmds), failed, messages, extra


def run(workload, seed, seconds, trace):
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(workload, seed, workdir)
    t0 = time.perf_counter()
    if trace:
        metrics, attempted, failed, failures, extra = per_layer(wl, tag)
    else:
        metrics, attempted, failed, failures, extra = end_to_end(wl, seconds)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "configs": wl.configs, "failures": failures,
              "run_wall_s": time.perf_counter() - t0, **extra, "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    for msg in failures:
        print(f"FAILED {workload}: {msg}", file=sys.stderr)
    return result, record["machine"]


WORKLOADS = ("disk-clt", "squares-estimate", "theory")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "germgrain" / "__init__.py").is_file():
        print(f"error: no germgrain sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, mach = run(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}  [{mach['nproc']} x {mach['cpu_model']}, "
              f"python {mach['python']}, numpy {mach['numpy']}, scipy {mach['scipy']}]")
        for k, m in result["metrics"].items():
            print(f"  {k:<48} {m['value']:>14.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
