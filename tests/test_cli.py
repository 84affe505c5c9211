import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import germgrain
from germgrain.cli import main

CFG = {
    "gamma": 0.3,
    "grains": {"family": "disk", "radius": {"law": "constant", "value": 1.0},
               "rotate": False},
    "window": {"lo": [0.0, 0.0], "hi": [12.0, 12.0]},
    "seed": 5,
}


@pytest.fixture(autouse=True)
def _blas_env_restored(monkeypatch):
    """main() sets OPENBLAS_NUM_THREADS when it is unset; undo that after each test."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CFG))
    return str(p)


def read_rows(path):
    headers = {}
    rows = []
    cols = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("#"):
                k, _, v = line[1:].partition(":")
                headers[k.strip()] = v.strip()
            elif cols is None:
                cols = line.split(",")
            else:
                rows.append(dict(zip(cols, line.split(","))))
    return headers, rows


class TestPredict:
    def test_gamma_zero_row(self, tmp_path, cfg_file):
        out = tmp_path / "p.csv"
        assert main(["predict", "--config", cfg_file, "--gamma", "0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [float(rows[0][k]) for k in ("d0", "d1", "d2")] == [0.0, 0.0, 0.0]

    def test_header_echoes_config(self, tmp_path, cfg_file):
        out = tmp_path / "p.csv"
        assert main(["predict", "--config", cfg_file, "--out", str(out)]) == 0
        headers, rows = read_rows(out)
        echoed = json.loads(headers["config"])
        assert echoed["gamma"] == 0.3 and echoed["seed"] == 5
        assert headers["format"].startswith("germgrain-csv")
        assert float(rows[0]["d2"]) == pytest.approx(1.0 - math.exp(-0.3 * math.pi))

    def test_flag_overrides(self, tmp_path, cfg_file):
        out = tmp_path / "p.csv"
        assert main(["predict", "--config", cfg_file, "--gamma", "0.5",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[0]["gamma"]) == 0.5


class TestSimulateMeasure:
    def test_roundtrip_matches_library(self, tmp_path, cfg_file):
        dump = tmp_path / "dump.txt"
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", cfg_file, "--replicate", "3",
                     "--out", str(dump)]) == 0
        assert main(["measure", str(dump), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        from germgrain.model import ModelConfig
        from germgrain.process import sample
        from germgrain.union import arrangement_measure
        cfg = ModelConfig.from_record(CFG)
        s = sample(cfg, 3)
        fv = arrangement_measure(s.placed, cfg.window)
        assert float(rows[0]["v0"]) == pytest.approx(fv.v0)
        assert float(rows[0]["v1"]) == pytest.approx(fv.v1, rel=1e-9)
        assert float(rows[0]["v2"]) == pytest.approx(fv.v2, rel=1e-9)

    def test_engines_agree(self, tmp_path, cfg_file):
        dump = tmp_path / "dump.txt"
        assert main(["simulate", "--config", cfg_file, "--gamma", "0.1",
                     "--window", "0", "0", "5", "5", "--out", str(dump)]) == 0
        vals = {}
        for engine in ("arrangement", "inclusion-exclusion"):
            out = tmp_path / f"{engine}.csv"
            assert main(["measure", str(dump), "--engine", engine, "--out", str(out)]) == 0
            _, rows = read_rows(out)
            vals[engine] = [float(rows[0][k]) for k in ("v0", "v1", "v2")]
        assert vals["arrangement"] == pytest.approx(vals["inclusion-exclusion"], abs=1e-9)

    def test_engines_agree_on_a_window_scaled_by_2_to_the_minus_40(self, tmp_path):
        # both exact engines measure on the window scaled to a side in
        # [1/2, 1), so the oracle's tolerances do not swallow a tiny window
        from germgrain.geometry import Grains, Window
        from germgrain.model import GrainDistribution, ModelConfig, ParamLaw, fixed_disk
        from germgrain.process import GermGrainSample, sample, write_sample

        def squares(h):
            return GrainDistribution("rect", halfwidth=ParamLaw.constant(h),
                                     halfheight=ParamLaw.constant(h), rotate=True)
        win = Window((0.0, 0.0), (4.0, 4.0))
        tiny = Window(np.ldexp(win.lo, -40), np.ldexp(win.hi, -40))
        dump = tmp_path / "dump.txt"
        for law, tiny_law in ((fixed_disk(1.0), fixed_disk(2.0 ** -40)),
                              (squares(0.5), squares(2.0 ** -41))):
            g = sample(ModelConfig(0.3, law, win, seed=3), 0).grains
            write_sample(dump, GermGrainSample(
                Grains(np.ldexp(g.centres, -40), np.ldexp(g.radius, -40), g.count,
                       np.ldexp(g.loc, -40)),
                ModelConfig(0.3 * 4.0 ** 40, tiny_law, tiny, seed=3), 0))
            vals = {}
            for engine in ("arrangement", "inclusion-exclusion"):
                out = tmp_path / f"{engine}.csv"
                assert main(["measure", str(dump), "--engine", engine, "--out", str(out)]) == 0
                _, rows = read_rows(out)
                vals[engine] = [float(rows[0][k]) for k in ("v0", "v1", "v2")]
            ar, ie = vals["arrangement"], vals["inclusion-exclusion"]
            assert ar[2] > 0.0
            assert ie[0] == ar[0]
            assert ie[1:] == pytest.approx(ar[1:], rel=1e-12, abs=0.0)


class TestErrorPaths:
    def test_malformed_config_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"gamma\": -1.0, \"grains\": " +
                       json.dumps(CFG["grains"]) + ", \"window\": " +
                       json.dumps(CFG["window"]) + "}")
        out = tmp_path / "never.csv"
        assert main(["predict", "--config", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]

    def test_missing_fields_named(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["predict", "--config", str(empty), "--out",
                     str(tmp_path / "o.csv")]) == 1
        assert "missing" in capsys.readouterr().err

    def test_capacity_edge_precondition_surfaced(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "c.csv"
        code = main(["capacity", "--config", cfg_file,
                     "--probe", json.dumps({"kind": "disk", "radius": 1.0}),
                     "--at", "0.5", "6", "--reps", "10", "--out", str(out)])
        assert code == 1
        assert "rmax" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_capacity_reps_must_be_positive(self, tmp_path, cfg_file, capsys, reps):
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--config", cfg_file,
                  "--probe", json.dumps({"kind": "disk", "radius": 1.0}),
                  "--at", "4", "4", "--reps", reps, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--reps" in err and "positive integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "clt", "capacity"])
    @pytest.mark.parametrize("env, flag", [("abc", None), ("0", None), ("1", "0"),
                                           ("2", "-1"), ("1", "two")])
    def test_bad_threads_is_a_usage_error(self, tmp_path, cfg_file, capsys, monkeypatch,
                                          command, env, flag):
        monkeypatch.setenv("GERMGRAIN_THREADS", env)
        out = tmp_path / "o.csv"
        argv = [command, "--config", cfg_file, "--reps", "2", "--out", str(out)]
        if command == "capacity":
            argv += ["--probe", json.dumps({"kind": "disk", "radius": 1.0}), "--at", "4", "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ([] if flag is None else ["--threads", flag]))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "positive integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_threads_flag_overrides_bad_env(self, tmp_path, cfg_file, monkeypatch):
        monkeypatch.setenv("GERMGRAIN_THREADS", "abc")
        out = tmp_path / "e.csv"
        assert main(["estimate", "--config", cfg_file, "--reps", "2", "--threads", "1",
                     "--out", str(out)]) == 0
        assert out.exists()


def _run(argv):
    """(exit status, standard error, whether --out was written) of main(argv)
    with --out in a fresh directory; an exception escaping main fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = os.path.join(tmp, "o.csv"), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", out])
        return code, err.getvalue(), os.path.exists(out)


def _refused(argv, field):
    code, err, wrote = _run(argv)
    assert (code, wrote) == (1, False), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert field in err and "Traceback" not in err, err


DISK = {"family": "disk", "rotate": False, "radius": {"law": "constant", "value": 1.0}}
RECT = {"family": "rect", "rotate": False, "halfwidth": {"law": "constant", "value": 0.5},
        "halfheight": {"law": "constant", "value": 0.25}}
ROTATED_SQUARES = {"family": "rect", "rotate": True,
                   "halfwidth": {"law": "constant", "value": 0.5},
                   "halfheight": {"law": "constant", "value": 0.5}}
PREDICT = ["predict", "--gamma", "0.5", "--window", "0", "0", "8", "8", "--grains"]


def _with(rec, path, value):
    """A copy of rec with the field at path (a tuple of keys) set to value."""
    rec = copy.deepcopy(rec)
    *parents, last = path
    functools.reduce(dict.__getitem__, parents, rec)[last] = value
    return rec


class TestMalformedRecords:
    """Records the CLI once crashed on, or ran as a silently wrong model."""

    @pytest.mark.parametrize("grains, field", [
        ({"family": "disk"}, "grains.radius"),
        ({"family": "disk", "radius": {"law": "constant"}}, "grains.radius.value"),
        ({"family": "disk", "radius": {"law": "uniform", "b": 2.0}}, "grains.radius.a"),
        ({"family": "fixed", "shape": {"kind": "disk"}}, "grains.shape.radius"),
        ({"radius": {"law": "constant", "value": 1.0}}, "grains.family"),
        ([DISK], "grains"),
        (_with(DISK, ("radius", "value"), "a"), "grains.radius.value"),
        (_with(DISK, ("radius", "value"), 1e308), "grains.radius"),
        (_with(RECT, ("rotate",), "false"), "grains.rotate"),
        (_with(DISK, ("rotat",), True), "grains.rotat"),
        (_with(DISK, ("radius", "value"), True), "grains.radius.value"),
        (_with(DISK, ("radius",), {"law": "discrete", "values": [1.0, math.inf],
                                  "probs": [0.5, 0.5]}), "grains.radius.values[1]"),
        (_with(DISK, ("radius",), {"law": "discrete", "values": [1.0, 2.0],
                                  "probs": [math.nan, 1.0]}), "grains.radius.probs[0]"),
        (_with(RECT, ("halfwidth", "law"), "gauss"), "grains.halfwidth.law"),
        # a shape whose moments overflow, rotated or not
        ({"family": "fixed", "shape": {"kind": "disk", "radius": 1e200}}, "grains.shape"),
        ({"family": "fixed", "rotate": True,
          "shape": {"kind": "rect", "halfwidth": 1e200, "halfheight": 1.0}}, "grains.shape"),
        ({"family": "fixed", "shape": {"kind": "polygon",
                                       "vertices": [[0, 0], [1e160, 0], [0, 1e160]]}},
         "grains.shape")])
    def test_grain_record(self, grains, field):
        # A warning would print ahead of the one error line: here it raises instead.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _refused(PREDICT + [json.dumps(grains)], field)

    @pytest.mark.parametrize("gamma, count", [("1e300", "9.91416e+301"), ("1e308", "inf")])
    def test_huge_intensity_names_gamma_area_and_count(self, gamma, count):
        # Both fail before any allocation is tried: numpy cannot index the count, and
        # at 1e308 gamma times the area overflows before a count is drawn.
        argv = ["simulate", "--gamma", gamma, "--window", "0", "0", "8", "8",
                "--grains", json.dumps(DISK)]
        _refused(argv, f"gamma {float(gamma)}")
        err = _run(argv)[1]
        assert "dilated window area 99.1416" in err and f"draws {count} grains" in err, err

    @pytest.mark.parametrize("grains, gamma, refused", [
        (DISK, "110", False), (DISK, "120", True), (DISK, "225", True), (DISK, "230", True),
        (ROTATED_SQUARES, "230", False), (ROTATED_SQUARES, "400", True)],
        ids=["disks-110", "disks-120", "disks-225", "disks-230", "squares-230", "squares-400"])
    def test_covariance_refuses_a_mean_coverage_past_its_limit(self, grains, gamma, refused):
        # Past gamma E v2 = 354 the uncovered fraction squared is no normal double
        # (unit disks: E v2 = pi; unit squares: 1), and the integrals underflow to
        # 0, to NaN or overflow: one error line, no warning, and no output file.
        argv = ["covariance", "--gamma", gamma, "--window", "0", "0", "8", "8",
                "--grains", json.dumps(grains)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                ev2 = math.pi if grains is DISK else 1.0
                _refused(argv, f"gamma {float(gamma)} and E v2 {ev2!r}")
                assert "limit 354" in _run(argv)[1]
            else:
                assert _run(argv) == (0, "", True)

    @pytest.mark.parametrize("change, field", [
        ({"seed": 1.5}, "seed"), ({"seed": True}, "seed"),
        ({"window": {"lo": [0, 0, 5], "hi": [8, 8]}}, "window.lo"),
        ({"window": {"lo": [0], "hi": [8, 8]}}, "window.lo"),
        ({"window": {"lo": [0, 0], "hi": [8, "8"]}}, "window.hi[1]"),
        ({"window": [0, 0, 8, 8]}, "window"), ({"gamma": "0.3"}, "gamma"),
        ({"extra": 1}, "extra")])
    def test_config_record(self, tmp_path, change, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG, **change)))
        _refused(["predict", "--config", str(cfg)], field)

    def test_config_that_is_not_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([CFG]))
        _refused(["predict", "--config", str(cfg), "--gamma", "0.3"], "config")

    def test_probe_record(self, cfg_file):
        _refused(["capacity", "--config", cfg_file, "--probe", '{"kind": "disk"}',
                  "--at", "6", "6", "--reps", "2"], "probe.radius")

    def test_gamma_zero_needs_grains(self):
        # --gamma 0 stays legal, but it goes through the same missing-field check
        _refused(["predict", "--gamma", "0"], "config incomplete: missing grains")
        assert _run(["predict", "--gamma", "0", "--grains", json.dumps(DISK)])[0] == 0

    @pytest.mark.parametrize("change, field", [
        ({"seed": 1.5}, "seed"), ({"bogus": 1}, "bogus"),
        ({"window": {"lo": [0, 0, 5], "hi": [8, 8]}}, "window.lo"),
        ({"grains": dict(DISK, rotat=True)}, "grains.rotat")])
    def test_gamma_zero_reads_the_whole_config(self, tmp_path, change, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG, **change)))
        _refused(["predict", "--config", str(cfg), "--gamma", "0"], field)

    def test_null_grains_flag(self, cfg_file):
        # a JSON null is a malformed record, not an absent flag
        _refused(["predict", "--config", cfg_file, "--grains", "null"], "grains: expected a JSON object")
        _refused(PREDICT + ["null"], "grains: expected a JSON object, got None")


# Valid configs, one per record kind and variant: each parameter law under a
# disk and a rect grain law, each shape under a fixed one.
LAWS = {"constant": {"law": "constant", "value": 1.0},
        "uniform": {"law": "uniform", "a": 0.5, "b": 1.0},
        "discrete": {"law": "discrete", "values": [0.5, 1.0], "probs": [0.25, 0.75]}}
SHAPES = {"disk": {"kind": "disk", "radius": 1.0},
          "rect": {"kind": "rect", "halfwidth": 0.5, "halfheight": 0.25},
          "polygon": {"kind": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}}
BASES = json.loads(json.dumps(  # no two fields share a dict
    [dict(CFG, grains={"family": "disk", "rotate": False, "radius": law}) for law in LAWS.values()]
    + [dict(CFG, grains={"family": "rect", "rotate": True, "halfwidth": law,
                         "halfheight": LAWS["constant"]}) for law in LAWS.values()]
    + [dict(CFG, grains={"family": "fixed", "rotate": True, "shape": shape})
       for shape in SHAPES.values()]))

# Per record kind, each field's JSON type, whether it is required, and values
# of the right type that its constructor refuses.
FIELDS = {
    "config": {"gamma": ("number", True, [0.0, -1.0]), "grains": ("record", True, []),
               "window": ("record", True, []), "seed": ("integer", False, [-1])},
    "window": {"lo": ("pair", True, [[20.0, 0.0]]), "hi": ("pair", True, [[0.0, 8.0]])},
    "grains": {"family": ("tag", True, []), "rotate": ("boolean", False, []),
               "radius": ("record", True, []), "halfwidth": ("record", True, []),
               "halfheight": ("record", True, []), "shape": ("record", True, [])},
    "law": {"law": ("tag", True, []), "value": ("number", True, [0.0, -1.0, 1e300]),
            "a": ("number", True, [-1.0, 5.0]), "b": ("number", True, [0.1]),
            "values": ("numbers", True, [[0.5, -1.0], [0.5]]),
            "probs": ("numbers", True, [[0.5, 0.6], [1.25, -0.25]])},
    "shape": {"kind": ("tag", True, []), "radius": ("number", True, [0.0, -2.0, 1e200]),
              "halfwidth": ("number", True, [0.0, 1e200]), "halfheight": ("number", True, [-1.0]),
              "vertices": ("pairs", True, [[[0, 0], [1, 0], [2, 0]], [[0, 0], [1, 0]]])},
}
WRONG_TYPE = {
    "number": ["1", True, None, [1.0], {"v": 1}, math.nan, math.inf],
    "integer": [1.5, "3", True, None],
    "boolean": ["false", 0, 1, None],
    "pair": [[0.0], [0.0, 0.0, 5.0], "0 0", [0.0, "a"], [0.0, True], None],
    "numbers": ["0.5", [0.5, "a"], [True, 0.5], None, 0.5],
    "pairs": ["x", [[0, 0], [1, 0], [1]], [[0, 0], [1, 0], "a"], None],
    "record": [[], "x", 1, None],
    "tag": ["blob", 1, None, True],
}


def _kind(rec):
    return next((k for key, k in (("law", "law"), ("kind", "shape"), ("family", "grains"),
                                  ("lo", "window")) if key in rec), "config")


def _sites(rec, path=()):
    """(path, JSON type, required, refused values) of every field of rec."""
    for key, value in rec.items():
        yield (path + (key,), *FIELDS[_kind(rec)][key])
        if isinstance(value, dict):
            yield from _sites(value, path + (key,))


# Every field of every record kind and variant once: the config's and the
# window's from the first config, the grain law's and below from each.
SITES = [(cfg, *site) for i, cfg in enumerate(BASES) for site in _sites(cfg)
         if i == 0 or site[0][0] == "grains"]


@pytest.mark.parametrize("cfg, path, type_, required, out_of_range", SITES,
                         ids=[f"{c['grains']['family']}-{'.'.join(p)}" for c, p, *_ in SITES])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_malformed_record_is_one_error_line_naming_its_field(
        cfg, path, type_, required, out_of_range, data):
    """Drop a required field, retype a field, push one out of range or add an
    unknown one next to it: predict exits 1 with one error line naming the
    field's path (the refusing record's, for a range), and writes nothing."""
    ways = ["retype", "unknown"] + ["drop"] * required + ["range"] * bool(out_of_range)
    way = data.draw(st.sampled_from(ways))
    field = ".".join(path)
    if way == "drop":
        *parents, last = path
        bad = copy.deepcopy(cfg)
        del functools.reduce(dict.__getitem__, parents, bad)[last]
    elif way == "retype":
        bad = _with(cfg, path, data.draw(st.sampled_from(WRONG_TYPE[type_])))
    elif way == "unknown":
        bad, field = _with(cfg, path[:-1] + ("extra",), 1), ".".join(path[:-1] + ("extra",))
    else:
        bad = _with(cfg, path, data.draw(st.sampled_from(out_of_range)))
        field = ".".join(path[:-1]) or path[0]
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "cfg.json")
        with open(p, "w") as f:
            json.dump(bad, f)
        _refused(["predict", "--config", p], field)


class TestOtherSubcommands:
    def test_capacity_matches_theory(self, tmp_path, cfg_file):
        out = tmp_path / "c.csv"
        code = main(["capacity", "--config", cfg_file, "--gamma", "0.05",
                     "--probe", json.dumps({"kind": "disk", "radius": 0.5}),
                     "--at", "6", "6", "--reps", "400", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        theory = float(rows[0]["theory"])
        est = float(rows[0]["estimate"])
        se = float(rows[0]["se"])
        assert abs(est - theory) < 4.0 * se

    def test_capacity_does_not_depend_on_threads(self, tmp_path, cfg_file):
        rows = []
        for threads in ("1", "2"):
            out = tmp_path / f"c{threads}.csv"
            assert main(["capacity", "--config", cfg_file, "--gamma", "0.2",
                         "--probe", json.dumps({"kind": "disk", "radius": 0.5}),
                         "--at", "6", "6", "--reps", "60", "--threads", threads,
                         "--out", str(out)]) == 0
            rows.append(read_rows(out)[1])
        assert rows[0] == rows[1]
        assert 0.0 < float(rows[0][0]["estimate"]) < 1.0

    def test_estimate_subcommand(self, tmp_path, cfg_file):
        out = tmp_path / "e.csv"
        assert main(["estimate", "--config", cfg_file, "--reps", "60",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        g = float(rows[0]["gamma_hat"])
        g_se = float(rows[0]["gamma_se"])
        assert abs(g - 0.3) < 5.0 * g_se

    def test_covariance_subcommand(self, tmp_path, cfg_file):
        out = tmp_path / "cov.csv"
        assert main(["covariance", "--config", cfg_file, "--out", str(out)]) == 0
        headers, rows = read_rows(out)
        sigma = np.array([[float(r[c]) for c in ("c0", "c1", "c2")]
                          for r in rows if r["block"] == "sigma"])
        assert sigma.shape == (3, 3)
        np.linalg.cholesky(sigma)
        errors = json.loads(headers["quadrature_errors"])
        for key in ("rho22_quadrature", "rho12_quadrature", "rho11_quadrature"):
            assert 0.0 <= errors[key] < 1e-6

    @pytest.mark.parametrize("rotate", [True, False])
    def test_covariance_of_a_fixed_disk_is_the_disk_law(self, tmp_path, cfg_file, rotate):
        # a fixed disk law takes the closed-form disk path, rotated or not
        disk = tmp_path / "disk.csv"
        fixed = tmp_path / "fixed.csv"
        assert main(["covariance", "--config", cfg_file, "--out", str(disk)]) == 0
        grains = json.dumps({"family": "fixed", "rotate": rotate,
                             "shape": {"kind": "disk", "radius": 1.0}})
        assert main(["covariance", "--config", cfg_file, "--grains", grains,
                     "--out", str(fixed)]) == 0
        assert read_rows(fixed)[1] == read_rows(disk)[1]

    def test_clt_subcommand_small(self, tmp_path, cfg_file):
        out = tmp_path / "clt.csv"
        js = tmp_path / "clt.json"
        assert main(["clt", "--config", cfg_file, "--scales", "2", "4",
                     "--reps", "120", "--functional", "v2",
                     "--out", str(out), "--json-out", str(js)]) == 0
        summary = json.loads(js.read_text())
        assert len(summary["w1"]) == 2
        assert summary["config"]["seed"] == 5

    @pytest.mark.parametrize("scales", [["2"], ["1", "1"], ["2", "2", "4"]])
    def test_clt_needs_two_distinct_scales(self, tmp_path, cfg_file, capsys, scales):
        out, js = tmp_path / "clt.csv", tmp_path / "clt.json"
        assert main(["clt", "--config", cfg_file, "--scales", *scales, "--reps", "100",
                     "--out", str(out), "--json-out", str(js)]) == 1
        assert "at least two distinct scales" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--replicate", "-1"), ("render", "--replicate", "-2"),
        ("simulate", "--seed", "-3"), ("estimate", "--seed", "-1"),
        ("clt", "--reps", "0"), ("clt", "--reps", "-5")])
    def test_negative_seed_or_index_is_a_usage_error(self, tmp_path, cfg_file, capsys,
                                                     command, flag, value):
        out = tmp_path / "o.txt"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_file, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "integer" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("render", "--resolution", "inf"), ("render", "--resolution", "nan"),
        ("render", "--resolution", "0"), ("measure", "--resolution", "-2"),
        ("measure", "--resolution", "abc"), ("clt", "--scales", "-8"),
        ("clt", "--scales", "inf"), ("clt", "--scales", "nan"), ("clt", "--scales", "0")])
    def test_bad_scale_or_resolution_is_a_usage_error(self, tmp_path, cfg_file, capsys,
                                                      command, flag, value):
        out = tmp_path / "o.txt"
        if command == "measure":
            argv = [command, str(tmp_path / "dump.txt"), "--engine", "pixel"]
        else:
            argv = [command, "--config", cfg_file]
        values = ["4", value] if command == "clt" else [value]  # clt needs two scales
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, *values, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "positive finite number" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, values", [
        ("capacity", "--at", ["nan", "4"]), ("capacity", "--at", ["4", "inf"]),
        ("capacity", "--at", ["4", "x"]), ("predict", "--window", ["0", "0", "nan", "8"]),
        ("predict", "--window", ["0", "0", "8", "1e999"])])
    def test_bad_position_or_window_is_a_usage_error(self, tmp_path, cfg_file, capsys,
                                                     command, flag, values):
        # a NaN centre used to pass the capacity probe's edge check
        out = tmp_path / "o.csv"
        argv = [command, "--config", cfg_file, flag, *values, "--out", str(out)]
        if command == "capacity":
            argv += ["--probe", json.dumps({"kind": "disk", "radius": 1.0}), "--reps", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "finite number" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_in_config_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CFG, seed=-3)))
        out = tmp_path / "dump.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_needs_two_replicates(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "e.csv"
        assert main(["estimate", "--config", cfg_file, "--reps", "1", "--out", str(out)]) == 1
        assert "at least 2 replicates" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--config", cfg_file, "--reps", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_render_pgm(self, tmp_path, cfg_file):
        out = tmp_path / "img.pgm"
        assert main(["render", "--config", cfg_file, "--resolution", "4",
                     "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n48 48\n255\n")


def _fresh_python(code, cwd=None):
    """Standard output of code run in a fresh interpreter on this germgrain."""
    src = os.path.dirname(os.path.dirname(germgrain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120, cwd=cwd)
    return out.stdout.strip()


def _modules_after(code, cwd=None):
    """Names in sys.modules once code has run in a fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    return set(json.loads(_fresh_python(code, cwd).splitlines()[-1]))


def _scipy_loaded_after(code, cwd=None):
    return [m for m in _modules_after(code, cwd) if m.split('.')[0] == 'scipy']


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # no command needs scipy, so none may load any of it
    out = _fresh_python("import sys, germgrain.cli; print('scipy.stats' in sys.modules)")
    assert out == "False"
    assert _scipy_loaded_after("import germgrain.cli") == []

    cfg = dict(CFG, gamma=0.5, window={"lo": [0.0, 0.0], "hi": [6.0, 6.0]},
               grains={"family": "rect", "rotate": True,
                       "halfwidth": {"law": "constant", "value": 0.5},
                       "halfheight": {"law": "constant", "value": 0.5}})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    run = "from germgrain.cli import main\nassert main(['{}', '--config', 'cfg.json', {}]) == 0"
    estimate = run.format("estimate", "'--reps', '4', '--threads', '1', '--out', 'e.csv'")
    assert _scipy_loaded_after(estimate, tmp_path) == []
    assert _scipy_loaded_after(run.format("covariance", "'--out', 'c.csv'"), tmp_path) == []
    clt = run.format("clt", "'--scales', '1', '2', '--reps', '100', '--out', 'clt.csv'")
    assert _scipy_loaded_after(clt, tmp_path) == []
    assert all((tmp_path / f).exists() for f in ("e.csv", "c.csv", "clt.csv"))


def test_each_command_loads_only_what_it_runs(tmp_path):
    version = ("from germgrain.cli import main\n"
               "try:\n    main(['--version'])\nexcept SystemExit:\n    pass")
    loaded = _modules_after(version)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("germgrain")} == {"germgrain", "germgrain.cli"}

    # rotated squares: the covariance takes the adaptive rule and Gauss-Legendre tensors
    cfg = dict(CFG, gamma=0.5, window={"lo": [0.0, 0.0], "hi": [6.0, 6.0]},
               grains={"family": "rect", "rotate": True,
                       "halfwidth": {"law": "constant", "value": 0.5},
                       "halfheight": {"law": "constant", "value": 0.5}})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    run = "from germgrain.cli import main\nassert main(['{}', '--config', 'cfg.json', {}]) == 0"
    loaded = _modules_after(run.format("covariance", "'--out', 'c.csv'"), tmp_path)
    # the theory layer alone: no sampler, engine or oracle
    assert {m for m in loaded if m.startswith("germgrain")} == {
        "germgrain", "germgrain.cli", "germgrain.covariance", "germgrain.geometry",
        "germgrain.model", "germgrain.quadrature", "germgrain.records"}
    assert not loaded & {"germgrain.cells", "germgrain.rng", "germgrain.process",
                         "germgrain.union", "germgrain.moments", "germgrain.cltstats",
                         "concurrent.futures.process", "numpy.ma", "numpy.polynomial"}
    estimate = run.format("estimate", "'--reps', '4', '--threads', '1', '--out', 'e.csv'")
    loaded = _modules_after(estimate, tmp_path)
    assert "germgrain.moments" in loaded
    assert not loaded & {"germgrain.covariance", "germgrain.cells", "concurrent.futures.process"}
    clt = run.format("clt", "'--scales', '1', '2', '--reps', '100', '--out', 'clt.csv'")
    loaded = _modules_after(clt, tmp_path)
    assert "germgrain.cltstats" in loaded and "germgrain.cells" not in loaded


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_cli_runs_blas_single_threaded_unless_set(tmp_path, monkeypatch, preset, want):
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    (tmp_path / "cfg.json").write_text(json.dumps(CFG))
    code = ("import os\nfrom germgrain.cli import main\n"
            "assert main(['predict', '--config', 'cfg.json', '--out', 'p.csv']) == 0\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert _fresh_python(code, tmp_path).splitlines()[-1] == want


def test_import_leaves_blas_threads_unset():
    code = ("import os, germgrain, germgrain.cli, germgrain.process\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _fresh_python(code) == "None"
