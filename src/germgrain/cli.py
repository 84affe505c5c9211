"""Command-line entry point.

Subcommands: simulate, measure, predict, estimate, covariance, clt, capacity,
render.  A run is described by a JSON config file (--config) whose fields can
be overridden by flags; every output file starts with header lines echoing
the exact config, master seed and tool version, and is written atomically
(temp file + rename) so a crashed run leaves no truncated results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cltstats import clt_experiment
from .covariance import sigma_matrix
from .geometry import shape_from_record
from .moments import (DensityVector, EstimationError, invert_intensity,
                      invert_intensity_se, miles_densities_2d)
from .process import (GrainDistribution, ModelConfig, empirical_capacity,
                      read_sample, replicate_rows, sample, theory_capacity,
                      write_sample)
from .union import (arrangement_measure, edge_corrected_measure,
                    inclusion_exclusion_measure, pixel_measure, rasterize,
                    write_pgm)

FORMAT_VERSION = "germgrain-csv-1"


class CliError(Exception):
    pass


def _atomic_write(path, write):
    """Create path atomically: write(tmp) fills a temporary file in the same
    directory, which then replaces path."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-germgrain-")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_lines(config: ModelConfig | None, extra=None):
    lines = [f"# format: {FORMAT_VERSION}", f"# version: {__version__}"]
    if config is not None:
        lines.append(f"# config: {json.dumps(config.to_record(), sort_keys=True)}")
        lines.append(f"# seed: {config.seed}")
    for k, v in (extra or {}).items():
        lines.append(f"# {k}: {v}")
    return lines


def _write_csv(path, config, columns, rows, extra=None):
    lines = _header_lines(config, extra)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, (int, float, np.floating))
                              else str(x) for x in row))
    data = ("\n".join(lines) + "\n").encode()
    _atomic_write(path, lambda tmp: Path(tmp).write_bytes(data))


def _load_config(args) -> ModelConfig:
    rec = {}
    if args.config:
        with open(args.config) as f:
            rec = json.load(f)
    if getattr(args, "gamma", None) is not None:
        rec["gamma"] = args.gamma
    if getattr(args, "seed", None) is not None:
        rec["seed"] = args.seed
    if getattr(args, "window", None) is not None:
        x0, y0, x1, y1 = args.window
        rec["window"] = {"lo": [x0, y0], "hi": [x1, y1]}
    if getattr(args, "grains", None) is not None:
        rec["grains"] = json.loads(args.grains)
    missing = [k for k in ("gamma", "grains", "window") if k not in rec]
    if missing:
        raise CliError(f"config incomplete: missing {', '.join(missing)} "
                       f"(give --config or flags)")
    rec.setdefault("seed", 0)
    return ModelConfig.from_record(rec)


def _add_model_flags(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--gamma", type=float, help="intensity (overrides config)")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--window", type=float, nargs=4, metavar=("X0", "Y0", "X1", "Y1"),
                   help="window corners (overrides config)")
    p.add_argument("--grains", help="grain distribution record as JSON (overrides config)")


def _cmd_simulate(args):
    cfg = _load_config(args)
    s = sample(cfg, args.replicate)
    _atomic_write(args.out, lambda tmp: write_sample(tmp, s))
    print(f"wrote {len(s.placed)} grains to {args.out}")
    return 0


def _cmd_measure(args):
    s = read_sample(args.infile)
    if args.engine == "arrangement":
        fv = arrangement_measure(s.placed, s.config.window)
    elif args.engine == "inclusion-exclusion":
        fv = inclusion_exclusion_measure(s.placed, s.config.window)
    else:
        fv = pixel_measure(s.placed, s.config.window, args.resolution)
    _write_csv(args.out, s.config, ["engine", "replicate", "v0", "v1", "v2"],
               [[args.engine, s.replicate, fv.v0, fv.v1, fv.v2]])
    print(f"v0={fv.v0} v1={fv.v1} v2={fv.v2}")
    return 0


def _cmd_predict(args):
    # gamma = 0 is a legal prediction input (all densities vanish) even
    # though a simulation config requires gamma > 0.
    if args.gamma == 0.0:
        rec = {}
        if args.config:
            with open(args.config) as f:
                rec = json.load(f)
        if getattr(args, "grains", None) is not None:
            rec["grains"] = json.loads(args.grains)
        grains = GrainDistribution.from_record(rec["grains"])
        m = grains.moments()
        _write_csv(args.out, None, ["gamma", "ev1", "ev2", "d0", "d1", "d2"],
                   [[0.0, m.ev1, m.ev2, 0.0, 0.0, 0.0]],
                   extra={"isotropic": grains.isotropic})
        print("d0=0.0 d1=0.0 d2=0.0")
        return 0
    cfg = _load_config(args)
    m = cfg.grains.moments()
    dv = miles_densities_2d(cfg.gamma, m, isotropic=cfg.grains.isotropic)
    _write_csv(args.out, cfg, ["gamma", "ev1", "ev2", "d0", "d1", "d2"],
               [[cfg.gamma, m.ev1, m.ev2, dv.d0, dv.d1, dv.d2]],
               extra={"isotropic": cfg.grains.isotropic})
    print(f"d0={dv.d0} d1={dv.d1} d2={dv.d2}")
    return 0


def _density_row(s):
    """Edge-corrected densities of one sample."""
    return edge_corrected_measure(s.placed, s.config.window).as_array() / s.config.window.area()


def _cmd_estimate(args):
    cfg = _load_config(args)
    if args.reps < 2:
        raise EstimationError("estimate needs at least 2 replicates")
    t0 = time.time()
    rows = replicate_rows(cfg, _density_row, args.reps, args.threads)
    dv = DensityVector(*rows.mean(axis=0))
    se = rows.std(axis=0, ddof=1) / np.sqrt(len(rows))
    gamma_hat, ev1_hat, ev2_hat = invert_intensity(dv)
    g_se = invert_intensity_se(dv, np.cov(rows.T), len(rows))
    _write_csv(args.out, cfg,
               ["d0", "d1", "d2", "se0", "se1", "se2",
                "gamma_hat", "gamma_se", "ev1_hat", "ev2_hat"],
               [[dv.d0, dv.d1, dv.d2, se[0], se[1], se[2],
                 gamma_hat, g_se, ev1_hat, ev2_hat]],
               extra={"reps": args.reps, "wallclock_s": round(time.time() - t0, 3)})
    print(f"gamma_hat={gamma_hat} +- {g_se} (ev1={ev1_hat}, ev2={ev2_hat})")
    return 0


def _cmd_covariance(args):
    cfg = _load_config(args)
    cm = sigma_matrix(cfg.gamma, cfg.grains)
    rows = [["sigma", i] + list(cm.matrix[i]) for i in range(3)]
    rows += [["rho", i] + list(cm.rho.values[i]) for i in range(3)]
    _write_csv(args.out, cfg, ["block", "row", "c0", "c1", "c2"], rows,
               extra={"quadrature_errors": json.dumps(cm.rho.errors)})
    print(cm.matrix)
    return 0


def _cmd_clt(args):
    cfg = _load_config(args)
    t0 = time.time()
    reports, slope, rho = clt_experiment(cfg, args.scales, args.reps,
                                         functional=args.functional,
                                         parallelism=args.threads)
    rows = [[r.scale, r.reps, r.mean, r.var_per_area, r.w1, r.ks, slope]
            for r in reports]
    _write_csv(args.out, cfg, ["scale", "reps", "mean", "var_per_area", "w1", "ks", "slope"],
               rows, extra={"functional": args.functional})
    summary = {"functional": args.functional, "slope": slope, "spearman": rho,
               "scales": list(args.scales), "reps": args.reps,
               "w1": [r.w1 for r in reports], "ks": [r.ks for r in reports],
               "wallclock_s": round(time.time() - t0, 3),
               "config": cfg.to_record(), "version": __version__}
    if args.json_out:
        data = json.dumps(summary, indent=2).encode()
        _atomic_write(args.json_out, lambda tmp: Path(tmp).write_bytes(data))
    print(f"slope={slope:.3f} spearman={rho:.3f} w1={[round(r.w1, 4) for r in reports]}")
    return 0


def _cmd_capacity(args):
    cfg = _load_config(args)
    probe = shape_from_record(json.loads(args.probe))
    center = args.at
    theory = theory_capacity(cfg, probe)
    est, se = empirical_capacity(cfg, probe, center, args.reps)
    _write_csv(args.out, cfg, ["theory", "estimate", "se", "reps"],
               [[theory, est, se, args.reps]],
               extra={"probe": args.probe, "at": list(center)})
    print(f"theory={theory} empirical={est} +- {se}")
    return 0


def _cmd_render(args):
    cfg = _load_config(args)
    s = sample(cfg, args.replicate)
    img = rasterize(s.placed, cfg.window, args.resolution)
    _atomic_write(args.out, lambda tmp: write_pgm(tmp, img))
    print(f"wrote {img.shape[1]}x{img.shape[0]} PGM to {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="germgrain",
                                description="Boolean-model simulation and verification lab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="sample one realization to a grain dump")
    _add_model_flags(sp)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("measure", help="measure (v0, v1, v2) of a grain dump")
    sp.add_argument("infile")
    sp.add_argument("--engine", choices=["arrangement", "inclusion-exclusion", "pixel"],
                    default="arrangement")
    sp.add_argument("--resolution", type=float, default=16.0,
                    help="pixels per unit length (pixel engine)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_measure)

    sp = sub.add_parser("predict", help="closed-form density predictions")
    _add_model_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("estimate", help="estimate densities and invert the intensity")
    _add_model_flags(sp)
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--threads", type=int,
                    default=int(os.environ.get("GERMGRAIN_THREADS", "1")),
                    help="process-pool width (env GERMGRAIN_THREADS)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("covariance", help="asymptotic covariance matrix")
    _add_model_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_covariance)

    sp = sub.add_parser("clt", help="central-limit experiment over window scales")
    _add_model_flags(sp)
    sp.add_argument("--scales", type=float, nargs="+", default=[8, 16, 32])
    sp.add_argument("--reps", type=int, default=500)
    sp.add_argument("--functional", choices=["v0", "v1", "v2"], default="v2")
    sp.add_argument("--threads", type=int,
                    default=int(os.environ.get("GERMGRAIN_THREADS", "1")),
                    help="process-pool width (env GERMGRAIN_THREADS)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--json-out")
    sp.set_defaults(func=_cmd_clt)

    sp = sub.add_parser("capacity", help="capacity functional: theory vs empirical")
    _add_model_flags(sp)
    sp.add_argument("--probe", required=True, help="probe shape record as JSON")
    sp.add_argument("--at", type=float, nargs=2, required=True, metavar=("X", "Y"))
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_capacity)

    sp = sub.add_parser("render", help="rasterize a realization to PGM")
    _add_model_flags(sp)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--resolution", type=float, default=8.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_render)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
