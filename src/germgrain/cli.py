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

from . import __version__

FORMAT_VERSION = "germgrain-csv-1"


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


def _write_csv(path, config, columns, rows, extra=None):
    lines = [f"# format: {FORMAT_VERSION}", f"# version: {__version__}"]
    if config is not None:
        lines.append(f"# config: {json.dumps(config.to_record(), sort_keys=True)}")
        lines.append(f"# seed: {config.seed}")
    lines += [f"# {k}: {v}" for k, v in (extra or {}).items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else repr(float(x)) for x in row))
    data = ("\n".join(lines) + "\n").encode()
    _atomic_write(path, lambda tmp: Path(tmp).write_bytes(data))


def _config_record(args, needs=("gamma", "grains", "window")):
    """The --config record, flags put over it; a ValueError names the needs neither gives."""
    rec = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(rec, dict):
        raise ValueError(f"config: expected a JSON object, got {type(rec).__name__}")
    flags = {"gamma": args.gamma, "seed": args.seed,
             "window": args.window and {"lo": args.window[:2], "hi": args.window[2:]}}
    rec.update((k, v) for k, v in flags.items() if v is not None)
    if args.grains is not None:  # a JSON null too, which the record reader refuses
        rec["grains"] = json.loads(args.grains)
    missing = [k for k in needs if k not in rec]
    if missing:
        raise ValueError(f"config incomplete: missing {', '.join(missing)} (use --config or flags)")
    return rec


def _load_config(args):
    from . import ModelConfig
    return ModelConfig.from_record(_config_record(args))


def _number(cast, above, kind):
    """An argparse type: cast(text), refused unless above it and finite."""
    def parse(text):
        try:
            x = cast(text)
        except ValueError:
            x = above
        if not above < x < float("inf"):
            raise argparse.ArgumentTypeError(f"expected a {kind}, got {text!r}")
        return x
    return parse


_positive_int = _number(int, 0, "positive integer")
_nonnegative_int = _number(int, -1, "non-negative integer")
_positive_float = _number(float, 0.0, "positive finite number")
_finite_float = _number(float, -float("inf"), "finite number")


def _cmd_simulate(args):
    from . import sample, write_sample
    cfg = _load_config(args)
    s = sample(cfg, args.replicate)
    _atomic_write(args.out, lambda tmp: write_sample(tmp, s))
    print(f"wrote {len(s.grains)} grains to {args.out}")
    return 0


def _cmd_measure(args):
    from . import arrangement_measure, inclusion_exclusion_measure, pixel_measure, read_sample
    s = read_sample(args.infile)
    if args.engine == "arrangement":
        fv = arrangement_measure(s.grains, s.config.window)
    elif args.engine == "inclusion-exclusion":
        fv = inclusion_exclusion_measure(s.grains, s.config.window)
    else:
        fv = pixel_measure(s.grains, s.config.window, args.resolution)
    _write_csv(args.out, s.config, ["engine", "replicate", "v0", "v1", "v2"],
               [[args.engine, s.replicate, fv.v0, fv.v1, fv.v2]])
    print(f"v0={fv.v0} v1={fv.v1} v2={fv.v2}")
    return 0


def _cmd_predict(args):
    from . import ModelConfig, miles_densities_2d
    # gamma = 0 is a legal prediction input (all densities vanish), though a config
    # needs gamma > 0: the record is read with gamma, and a window not given, stood in for.
    if args.gamma == 0.0:
        rec = {"window": {"lo": [0, 0], "hi": [1, 1]}, **_config_record(args, ("grains",))}
        cfg, gamma, grains = None, 0.0, ModelConfig.from_record({**rec, "gamma": 1.0}).grains
    else:
        cfg = _load_config(args)
        gamma, grains = cfg.gamma, cfg.grains
    m = grains.moments()
    dv = miles_densities_2d(gamma, m, isotropic=grains.isotropic)
    _write_csv(args.out, cfg, ["gamma", "ev1", "ev2", "d0", "d1", "d2"],
               [[gamma, m.ev1, m.ev2, dv.d0, dv.d1, dv.d2]], extra={"isotropic": grains.isotropic})
    print(f"d0={dv.d0} d1={dv.d1} d2={dv.d2}")
    return 0


def _cmd_estimate(args):
    import numpy as np
    from .moments import density_estimate, density_rows, invert_intensity, invert_intensity_se
    from .process import replicate_rows
    cfg = _load_config(args)
    t0 = time.time()
    rows = replicate_rows(cfg, density_rows, args.reps, args.threads)
    dv, se = density_estimate(rows)
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
    from . import sigma_matrix
    cfg = _load_config(args)
    cm = sigma_matrix(cfg.gamma, cfg.grains)
    rows = [["sigma", i] + list(cm.matrix[i]) for i in range(3)]
    rows += [["rho", i] + list(cm.rho.values[i]) for i in range(3)]
    _write_csv(args.out, cfg, ["block", "row", "c0", "c1", "c2"], rows,
               extra={"quadrature_errors": json.dumps(cm.rho.errors)})
    print(cm.matrix)
    return 0


def _cmd_clt(args):
    from . import clt_experiment
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
    from . import empirical_capacity, shape_from_record, theory_capacity
    cfg = _load_config(args)
    probe = shape_from_record(json.loads(args.probe), "probe")
    theory = theory_capacity(cfg, probe)
    est, se = empirical_capacity(cfg, probe, args.at, args.reps, args.threads)
    _write_csv(args.out, cfg, ["theory", "estimate", "se", "reps"],
               [[theory, est, se, args.reps]],
               extra={"probe": args.probe, "at": list(args.at)})
    print(f"theory={theory} empirical={est} +- {se}")
    return 0


def _cmd_render(args):
    from . import rasterize, sample, write_pgm
    cfg = _load_config(args)
    s = sample(cfg, args.replicate)
    img = rasterize(s.grains, cfg.window, args.resolution)
    _atomic_write(args.out, lambda tmp: write_pgm(tmp, img))
    print(f"wrote {img.shape[1]}x{img.shape[0]} PGM to {args.out}")
    return 0


def _command(sub, name, func, help, model=True, threads=False):
    """A subcommand's parser: the model flags if it runs a model, --threads if
    it runs a pool, --out and func."""
    sp = sub.add_parser(name, help=help)
    if model:
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--gamma", type=float, help="intensity (overrides config)")
        sp.add_argument("--seed", type=_nonnegative_int, help="master seed (overrides config)")
        sp.add_argument("--window", type=_finite_float, nargs=4, metavar=("X0", "Y0", "X1", "Y1"),
                        help="window corners (overrides config)")
        sp.add_argument("--grains", help="grain distribution record as JSON (overrides config)")
    if threads:
        # A string default goes through type too, so a bad GERMGRAIN_THREADS
        # is a usage error like a bad --threads.
        sp.add_argument("--threads", type=_positive_int,
                        default=os.environ.get("GERMGRAIN_THREADS", "1"),
                        help="process-pool width, at least 1 (env GERMGRAIN_THREADS)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=func)
    return sp


def build_parser():
    p = argparse.ArgumentParser(prog="germgrain",
                                description="Boolean-model simulation and verification lab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = _command(sub, "simulate", _cmd_simulate, "sample one realization to a grain dump")
    sp.add_argument("--replicate", type=_nonnegative_int, default=0)

    sp = _command(sub, "measure", _cmd_measure, "measure (v0, v1, v2) of a grain dump", model=False)
    sp.add_argument("infile")
    sp.add_argument("--engine", choices=["arrangement", "inclusion-exclusion", "pixel"],
                    default="arrangement")
    sp.add_argument("--resolution", type=_positive_float, default=16.0,
                    help="pixels per unit length (pixel engine)")

    _command(sub, "predict", _cmd_predict, "closed-form density predictions")

    sp = _command(sub, "estimate", _cmd_estimate, "estimate densities and invert the intensity",
                  threads=True)
    sp.add_argument("--reps", type=_positive_int, default=100)

    _command(sub, "covariance", _cmd_covariance, "asymptotic covariance matrix")

    sp = _command(sub, "clt", _cmd_clt, "central-limit experiment over window scales", threads=True)
    sp.add_argument("--scales", type=_positive_float, nargs="+", default=[8, 16, 32])
    sp.add_argument("--reps", type=_positive_int, default=500)
    sp.add_argument("--functional", choices=["v0", "v1", "v2"], default="v2")
    sp.add_argument("--json-out")

    sp = _command(sub, "capacity", _cmd_capacity, "capacity functional: theory vs empirical",
                  threads=True)
    sp.add_argument("--probe", required=True, help="probe shape record as JSON")
    sp.add_argument("--at", type=_finite_float, nargs=2, required=True, metavar=("X", "Y"))
    sp.add_argument("--reps", type=_positive_int, default=1000)

    sp = _command(sub, "render", _cmd_render, "rasterize a realization to PGM")
    sp.add_argument("--replicate", type=_nonnegative_int, default=0)
    sp.add_argument("--resolution", type=_positive_float, default=8.0)
    return p


def main(argv=None):
    # --threads is germgrain's only parallelism: no command does BLAS work
    # worth threading, and an idle OpenBLAS pool costs each process CPU time.
    # Set before any command imports numpy; an explicit setting still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
