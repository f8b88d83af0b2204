"""End-to-end runs of the command-line front end.

Tests call main() in process with artifact directories under tmp_path;
two subprocess tests run the `python -m skewdyn.cli` entry point.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import test_pins as pins
from conftest import AIRPLANEISH, BASILICA, CHEB, CHEB_GENERAL, GENERAL3, NEARFIXED
from skewdyn import binding as B
from skewdyn import cli, fatou
from skewdyn.cli import main
from skewdyn.core import _CHUNK, iterate, map_from_config, trace_to_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"



def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    return main([command, "--config", cfg_path, "--out", str(out), *extra]), out


def tree_digest(outdir):
    h = {}
    for path in sorted(outdir.iterdir()):
        h[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return h


def assert_same_text(got: str, want: str) -> None:
    """Equal texts.  A difference reports its first line only: pytest's
    diff of two long artifacts takes minutes."""
    a, b = got.splitlines(), want.splitlines()
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
    assert first is None, (first, a[first], b[first])
    assert (len(a), got == want) == (len(b), True)


def orbit_rows_csv(trace) -> str:
    """A trace's orbit.csv formatted row by row."""
    lines = ["n,z_re,z_im,w_re,w_im,log_vder,tame,escaped\n"]
    for i, (z, w, lv, tame) in enumerate(zip(trace.zs, trace.ws, trace.log_vder,
                                             trace.tame_flags)):
        lines.append(f"{i},{z.real:.17g},{z.imag:.17g},{w.real:.17g},"
                     f"{w.imag:.17g},{lv:.17g},{int(tame)},"
                     f"{int(i == trace.escape_step)}\n")
    return "".join(lines)


class TestValidation:
    def test_expanding_multiplier_exits_two(self, tmp_path, capsys):
        bad = dict(CHEB, **{"lambda": [1.1, 0.0]})
        code, _ = run(tmp_path, "orbit",
                      {"map": bad, "params": {"z0": [0, 0], "w0": [0, 0], "n": 5}})
        assert code == 2
        assert "MultiplierNotContracting" in capsys.readouterr().err

    def test_unknown_top_level_field(self, tmp_path, capsys):
        code, _ = run(tmp_path, "orbit",
                      {"map": CHEB, "params": {"z0": [0, 0], "w0": [0, 0], "n": 5},
                       "extra": 1})
        assert code == 2
        assert "extra" in capsys.readouterr().err

    def test_unknown_param_field(self, tmp_path, capsys):
        code, _ = run(tmp_path, "slow",
                      {"map": NEARFIXED, "seed": 1,
                       "params": {"alpha": 0.05, "burn_in": 5, "horizon": 20,
                                  "samples": 10, "alhpa": 1}})
        assert code == 2
        assert "alhpa" in capsys.readouterr().err

    def test_missing_required_param(self, tmp_path, capsys):
        code, _ = run(tmp_path, "orbit",
                      {"map": CHEB, "params": {"z0": [0, 0], "w0": [0, 0]}})
        assert code == 2
        assert "n" in capsys.readouterr().err

    def test_stochastic_needs_seed(self, tmp_path, capsys):
        cfg = {"map": NEARFIXED,
               "params": {"alpha": 0.05, "burn_in": 5, "horizon": 20,
                          "samples": 10}}
        code, _ = run(tmp_path, "slow", cfg)
        assert code == 2
        assert "seed" in capsys.readouterr().err
        code, _ = run(tmp_path, "slow", cfg, "--seed", "7")
        assert code == 0

    def test_command_mismatch(self, tmp_path):
        code, _ = run(tmp_path, "slow",
                      {"command": "orbit", "map": NEARFIXED, "seed": 1,
                       "params": {"alpha": 0.05, "burn_in": 5, "horizon": 20,
                                  "samples": 10}})
        assert code == 2

    def test_config_required_except_selftest(self, capsys):
        assert main(["orbit"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_selftest_rejects_map(self, tmp_path):
        code, _ = run(tmp_path, "selftest", {"map": CHEB})
        assert code == 2

    def test_bool_not_an_integer(self, tmp_path):
        code, _ = run(tmp_path, "slow",
                      {"map": NEARFIXED, "seed": 1,
                       "params": {"alpha": 0.05, "burn_in": 5, "horizon": 20,
                                  "samples": True}})
        assert code == 2

    def test_grid_object_strict(self, tmp_path, capsys):
        code, _ = run(tmp_path, "exclusion",
                      {"map": AIRPLANEISH, "seed": 1,
                       "params": {"alpha": 0.1, "m": 8, "samples": 100,
                                  "l_grid": {"start": 1, "stop": 9}}})
        assert code == 2
        assert "step" in capsys.readouterr().err

    def test_seed_range(self, tmp_path):
        code, _ = run(tmp_path, "slow",
                      {"map": NEARFIXED, "seed": 2**64,
                       "params": {"alpha": 0.05, "burn_in": 5, "horizon": 20,
                                  "samples": 10}})
        assert code == 2

    def test_unknown_format_flag(self, tmp_path, capsys):
        # there is no format block: any one is an unknown config field
        for block in ({"xml": True}, {"csv": False}):
            code, out = run(tmp_path, "orbit",
                            {"map": CHEB, "format": block,
                             "params": {"z0": [0, 0], "w0": [0, 0], "n": 5}})
            assert code == 2
            assert "unknown config fields: ['format']" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["orbit", "--config", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [
        ("0", None), (None, True), (None, -1)])
    def test_invalid_threads(self, tmp_path, capsys, flag, field):
        # --threads is ignored but still validated
        cfg = {"map": CHEB, "params": {"z0": [0, 0], "w0": [0, 0], "n": 5}}
        if field is not None:
            cfg["threads"] = field
        extra = () if flag is None else ("--threads", flag)
        code, out = run(tmp_path, "orbit", cfg, *extra)
        assert code == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,params", [
        ("binding", {"count": 0}),
        ("audit-bounds", {"suite": "tame", "count": -3, "n": 10,
                          "lambda0": 0.8}),
        ("audit-bounds", {"suite": "onedim", "count": 0, "n_max": 10,
                          "lambda0": 0.8, "delta": 0.5}),
        ("audit-bounds", {"suite": "departure", "count": 0, "lambda0": 0.8}),
    ])
    def test_nonpositive_count(self, tmp_path, capsys, command, params):
        code, out = run(tmp_path, command,
                        {"map": CHEB, "seed": 1, "params": params})
        assert code == 2
        assert "EmptySample" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("per_axis", [-2, 0])
    def test_przytycki_nonpositive_per_axis(self, tmp_path, capsys, per_axis):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "params": {"suite": "przytycki",
                                                 "epsilons": [0.05],
                                                 "per_axis": per_axis}})
        assert code == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite, params", [
        ("onedim", {"n_max": 0, "delta": 0.1}),
        ("onedim", {"n_max": -2, "delta": 0.1}),
        ("tame", {"n": 0}),
        ("tame", {"n": -1}),
        ("return", {"n": 0, "delta0": 0.1}),
        ("side", {"n": 0, "delta": 0.1}),
    ])
    def test_horizon_below_one_exits_two(self, tmp_path, capsys, suite, params):
        # a horizon of 0 scanned no (start, n) pair and exited 3 as if an
        # audit had failed; a negative one crashed the trace allocation
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 1,
                         "params": {"suite": suite, "count": 50, "lambda0": 0.9,
                                    **params}})
        assert code == 2
        err = capsys.readouterr().err
        assert "PreconditionViolated" in err or "HorizonNonPositive" in err
        assert not out.exists()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "disk"])
    @pytest.mark.parametrize("suite, params", [
        ("onedim", {"n_max": 20, "delta": 0.5, "w_radius": -0.1}),
        ("onedim", {"n_max": 20, "delta": 0.5, "w_radius": 0.0}),
        ("tame", {"n": 20, "z_radius": -0.1}),
        ("tame", {"n": 20, "w_radius": -0.1}),
        ("tame", {"n": 20, "w_radius": 0.0}),
        ("return", {"n": 20, "delta0": 0.05, "z_radius": -0.1}),
        ("side", {"n": 20, "delta": 0.5, "w_radius": 0.0}),
    ])
    def test_bad_draw_radius_exits_two(self, tmp_path, capsys, suite, params, real):
        # real draws crashed on a negative radius (exit 1), disk draws
        # reflected it (exit 0), and w_radius 0 drew only critical starts
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 1,
                         "params": {"suite": suite, "count": 50, "lambda0": 0.8,
                                    "real": real, **params}})
        assert code == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite, params", [
        ("onedim", {"n_max": 20, "delta": 0.5, "w_radius": 1.5e308}),
        ("tame", {"n": 20, "z_radius": 1.5e308}),
        ("return", {"n": 20, "delta0": 0.05, "z_radius": 1.5e308}),
        ("side", {"n": 20, "delta": 0.5, "z_radius": 1.5e308}),
    ])
    def test_real_interval_of_infinite_width_exits_two(self, tmp_path, capsys,
                                                       suite, params):
        # a finite radius r whose width 2r overflows: the uniform draw on
        # [-r, r] raised OverflowError, exit 1 with a traceback
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 1,
                         "params": {"suite": suite, "count": 50, "lambda0": 0.8,
                                    "real": True, **params}})
        assert code == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_nondegeneracy_horizon_below_one_exits_two(self, tmp_path, capsys,
                                                        horizon):
        # the critical value -0.1 lies in a basin; classified with no step
        # it was "undecided", and the series reported a near-zero verdict
        shifted = {"lambda": [0.5, 0.0], "degree": 2, "mode": "general",
                   "fiber_coeffs": [[[-0.1, 0.0], [1.0, 0.0]]]}
        code, out = run(tmp_path, "series",
                        {"map": shifted, "params": {"which": "nondegeneracy",
                                                    "horizon": horizon}})
        assert code == 2
        assert "horizon >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_over_long_int_literal_exits_two(self, tmp_path, capsys):
        # json.load raises a plain ValueError past 4300 digits
        path = tmp_path / "run.json"
        path.write_text('{"map": %s, "params": {"z0": [0, 0], "w0": [0.3, 0], '
                        '"n": %s}}' % (json.dumps(CHEB), "1" * 5000))
        out = tmp_path / "out"
        assert main(["orbit", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("map_cfg, field", [
        (dict(CHEB, fiber_coeffs=[[[math.nan, 0.0], [1.0, 0.0]]]), "fiber_coeffs[0][0]"),
        (dict(CHEB, fiber_coeffs=[[[-2.0, 0.0], [math.inf, 0.0]]]), "fiber_coeffs[0][1]"),
        (dict(CHEB_GENERAL, fiber_coeffs=[[[-2.0, 0.0], [1.0, 0.0]], [[math.nan, 0.0]]]),
         "fiber_coeffs[1][0]"),
        (dict(CHEB, **{"lambda": [0.5, -math.inf]}), "lambda"),
        (dict(CHEB, fiber_coeffs=[[[-2 * 10**400, 0.0], [1.0, 0.0]]]), "fiber_coeffs[0][0]"),
    ], ids=["nan-constant", "inf-linear", "general-nan-c1", "inf-lambda", "int-past-float"])
    def test_non_finite_map_number_exits_two(self, tmp_path, capsys, map_cfg, field):
        # these reached build_map, which failed with DegenerateFiber, an
        # escape radius search that did not terminate, or an OverflowError
        code, out = run(tmp_path, "orbit",
                        {"map": map_cfg, "params": {"z0": [0, 0], "w0": [0.3, 0], "n": 5}})
        assert code == 2
        assert f"ConfigInvalid: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_string_lambda_exits_two(self, tmp_path, capsys):
        # complex("0.5", 0) raised an uncaught TypeError (exit 1)
        code, out = run(tmp_path, "orbit",
                        {"map": dict(CHEB, **{"lambda": ["0.5", 0.0]}),
                         "params": {"z0": [0, 0], "w0": [0.3, 0], "n": 5}})
        assert code == 2
        assert "ConfigInvalid: lambda must be a [re, im] pair" in capsys.readouterr().err
        assert not out.exists()


# Every accepted params field of every command, audit-bounds suite and
# series kind: its kind ("?" when optional) and a valid value.  Each entry
# runs as given in a fraction of a second and exits 0.
CONTRACT = {
    ("orbit", None): (CHEB, None, {
        "z0": ("complex", [0.01, 0.0]), "w0": ("complex", [0.1, 0.1]),
        "n": ("int", 20)}),
    ("binding", None): (CHEB, 1, {
        "count": ("int", 20), "mu": ("float?", 0.03), "horizon": ("int?", 50)}),
    ("audit-bounds", "onedim"): (CHEB, 1, {
        "count": ("int", 50), "n_max": ("int", 20), "lambda0": ("float", 0.8),
        "delta": ("float", 0.5), "w_radius": ("float?", 1.8),
        "real": ("bool?", True)}),
    ("audit-bounds", "tame"): (CHEB, 1, {
        "count": ("int", 50), "n": ("int", 20), "lambda0": ("float", 0.8),
        "z_radius": ("float?", 0.1), "w_radius": ("float?", 1.8),
        "real": ("bool?", True)}),
    ("audit-bounds", "return"): (CHEB, 5, {
        "count": ("int", 400), "n": ("int", 60), "lambda0": ("float", 0.8),
        "delta0": ("float", 0.05), "eta0": ("float?", 0.01),
        "z_radius": ("float?", 1e-7), "w_radius": ("float?", 0.05),
        "real": ("bool?", True)}),
    ("audit-bounds", "side"): (CHEB, 5, {
        "count": ("int", 200), "n": ("int", 30), "lambda0": ("float", 0.8),
        "delta": ("float", 0.5), "eta": ("float?", 0.05),
        "z_radius": ("float?", 0.0), "w_radius": ("float?", 0.9),
        "real": ("bool?", True)}),
    ("audit-bounds", "departure"): (CHEB, 1, {
        "count": ("int", 50), "lambda0": ("float", 0.8), "mu": ("float?", 0.03),
        "horizon": ("int?", 100)}),
    ("audit-bounds", "przytycki"): (CHEB, None, {
        "epsilons": ("floats", [0.1]), "per_axis": ("int?", 5),
        "horizon": ("int?", 50)}),
    ("slow", None): (NEARFIXED, 1, {
        "alpha": ("float", 0.05), "burn_in": ("int", 5), "horizon": ("int", 20),
        "samples": ("int", 100)}),
    ("exclusion", None): (AIRPLANEISH, 1, {
        "alpha": ("float", 0.1), "m": ("int", 2), "l_grid": ("grid", [3, 6, 9]),
        "samples": ("int", 200), "horizon": ("int?", 50)}),
    ("xl", None): (CHEB, None, {
        "z0": ("complex", [0.001, 0.0]), "l": ("int", 10),
        "x0_terms": ("int?", 40)}),
    ("render", None): (BASILICA, None, {
        "plane": ("str", "fiber"), "center": ("complex", [0.0, 0.0]),
        "extent": ("float", 1.6), "resolution": ("int", 8),
        "at": ("complex", [0.0, 0.0]), "horizon": ("int?", 50)}),
    ("expand", None): (CHEB, None, {
        "z0": ("complex", [0.0, 0.0]), "w0": ("complex", [0.3, 0.0]),
        "delta": ("float", 1e-3), "lambda0": ("float", 0.9), "n_max": ("int", 5),
        "rho": ("float?", 1e-2), "fit_n": ("int?", 3), "link_max": ("int?", 12),
        "boundary_samples": ("int?", 4096)}),
    ("series", "levin"): (CHEB, None, {
        "points": ("points", [[0.5, 0.0]]), "n_terms": ("int?", 20)}),
    ("series", "x0"): (CHEB, None, {"n_terms": ("int?", 20)}),
    ("series", "lyapunov"): (CHEB, None, {
        "c": ("complex?", [-2.0, 0.0]), "horizon": ("int?", 50)}),
    ("series", "nondegeneracy"): (CHEB_GENERAL, None, {
        "n_terms": ("int?", 20), "horizon": ("int?", 100)}),
    ("selftest", None): (None, None, {"criteria": ("ints?", [9])}),
}

WRONG_TYPE = {"int": 1.5, "float": "1", "complex": 1.0, "str": 1, "bool": 1,
              "ints": [1.5], "floats": ["1"], "points": [1.0], "grid": "1"}


def numeric_edges(kind):
    """0 and -1 in the shape of a numeric kind; none for other kinds."""
    shape = {"int": lambda v: v, "float": lambda v: v,
             "complex": lambda v: [v, 0.0], "ints": lambda v: [v],
             "floats": lambda v: [v], "points": lambda v: [[v, 0.0]],
             "grid": lambda v: [v]}.get(kind.rstrip("?"))
    return [] if shape is None else [("zero", shape(0)), ("minus_one", shape(-1))]


def non_finite(kind):
    """NaN, Infinity and an integer past float range in the shape of a
    float or complex kind; none for other kinds."""
    shape = {"float": lambda v: v, "complex": lambda v: [0.0, v],
             "floats": lambda v: [v], "points": lambda v: [[v, 0.0]]}.get(
                 kind.rstrip("?"))
    return [] if shape is None else [("nan", shape(math.nan)),
                                     ("inf", shape(math.inf)),
                                     ("huge_int", shape(10**400))]


def table_entries():
    """(command, variant, spec) for every spec in the command table."""
    for command, (_, schema) in cli._COMMANDS.items():
        if isinstance(schema, cli._Spec):
            yield command, None, schema
        else:
            for variant, spec in schema.specs.items():
                yield command, variant, spec


def contract_cases():
    """Per table entry: its fields' kinds, with the variant key as one more
    str field, and the CONTRACT example that runs it."""
    for command, variant, spec in table_entries():
        map_cfg, seed, fields = CONTRACT[command, variant]
        params = {name: value for name, (_, value) in fields.items()}
        kinds = dict(spec.fields)
        tag = command
        if variant is not None:
            key = cli._COMMANDS[command][1].key
            params = {key: variant, **params}
            kinds[key] = "str"
            tag = f"{command}-{variant}"
        yield tag, command, map_cfg, seed, params, kinds


def config(map_cfg, seed, params):
    cfg = {"params": params}
    if map_cfg is not None:
        cfg["map"] = map_cfg
    if seed is not None:
        cfg["seed"] = seed
    return cfg


MISSING = object()


def edited(edits):
    """Every example with one field changed: edits(kind) lists (label,
    value) pairs for a field of that kind, and MISSING drops the field."""
    out = []
    for tag, command, map_cfg, seed, params, kinds in contract_cases():
        for field, kind in kinds.items():
            for label, value in edits(kind):
                bad = {k: v for k, v in params.items() if k != field}
                if value is not MISSING:
                    bad[field] = value
                out.append(pytest.param(command, config(map_cfg, seed, bad),
                                        id=f"{tag}-{field}-{label}"))
    return out


class TestCommandTable:
    """Checks generated from the command table, run on the CONTRACT
    examples."""

    def test_table_is_the_contract(self):
        table = {(command, variant): spec.fields
                 for command, variant, spec in table_entries()}
        assert table == {key: {name: kind for name, (kind, _) in fields.items()}
                         for key, (_, _, fields) in CONTRACT.items()}

    @pytest.mark.parametrize("tag, command, map_cfg, seed, params, kinds",
                             list(contract_cases()),
                             ids=[c[0] for c in contract_cases()])
    def test_contract_example_runs(self, tmp_path, tag, command, map_cfg, seed,
                                   params, kinds):
        code, out = run(tmp_path, command, config(map_cfg, seed, params))
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("command, cfg", edited(
        lambda kind: [("wrong_type", WRONG_TYPE[kind.rstrip("?")])]))
    def test_wrong_type_exits_two(self, tmp_path, capsys, command, cfg):
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg", edited(
        lambda kind: [] if kind.endswith("?") else [("missing", MISSING)]))
    def test_missing_required_exits_two(self, tmp_path, capsys, command, cfg):
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg", edited(non_finite))
    def test_non_finite_exits_two(self, tmp_path, capsys, command, cfg):
        # json.load parses NaN, Infinity and integers of any size; no
        # number that is not a finite float reaches a handler
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg", edited(numeric_edges))
    def test_numeric_edge_is_an_outcome(self, tmp_path, command, cfg):
        # 0 and -1 either run, fail a gate (2, nothing written) or fail an
        # audit (3); an uncaught exception fails the test
        code, out = run(tmp_path, command, cfg)
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()


class TestOrbit:
    def test_artifacts_and_roundtrip(self, tmp_path):
        out = pins.outcome(tmp_path, "orbit/shipped").out
        csv_lines = (out / "orbit.csv").read_text().splitlines()
        assert csv_lines[0] == "n,z_re,z_im,w_re,w_im,log_vder,tame,escaped"
        report = json.loads((out / "orbit.json").read_text())
        assert report["command"] == "orbit"
        rebuilt = map_from_config(report["map"])  # report embeds the map schema
        assert rebuilt.degree == 2
        assert report["escape_step"] == len(csv_lines) - 2

    def test_shipped_config_artifact_digests(self, tmp_path):
        pins.check(tmp_path, "orbit/shipped")

    def test_long_orbit_csv_digest(self, tmp_path):
        pins.check(tmp_path, "orbit/long")

    @pytest.mark.parametrize("fiber_c, w0, n, escape_step", [
        (-2.0, 0.3, 0, None),
        (-2.0, 0.3, 1, None),
        (-2.0, 0.3, _CHUNK - 1, None),
        (-2.0, 0.3, _CHUNK, None),
        (-2.0, 0.3, _CHUNK + 1, None),
        (-2.0, 0.3, 3 * _CHUNK, None),
        (0.25 + 3e-7, 0.0, 20000, 5734),             # mid-chunk
        (0.25 + 5.88e-7, 0.0, 20000, _CHUNK - 1),    # the last row of a chunk
        (0.25 + 5.878e-7, 0.0, 20000, _CHUNK),       # the first row of a chunk
        (0.25 + 3e-7, 0.0, 5734, 5734),              # at step n, mid-chunk
        (0.25 + 5.88e-7, 0.0, _CHUNK - 1, _CHUNK - 1),  # at step n, chunk end
    ], ids=["n-0", "n-1", "n-chunk-1", "n-chunk", "n-chunk+1", "n-3chunks",
            "escape-mid-chunk", "escape-chunk-end", "escape-chunk-start",
            "escape-at-n", "escape-at-n-chunk-end"])
    def test_streamed_artifacts_match_the_joined_trace(self, tmp_path, fiber_c,
                                                       w0, n, escape_step):
        # the CLI writes each chunk as it leaves the stepping loop; the bytes
        # must be those of the whole trace formatted at once
        map_cfg = dict(CHEB, fiber_coeffs=[[[fiber_c, 0.0], [1.0, 0.0]]])
        code, out = run(tmp_path, "orbit", {
            "map": map_cfg, "params": {"z0": [0.0, 0.0], "w0": [w0, 0.0], "n": n}})
        assert code == 0
        trace = iterate(map_from_config(map_cfg), (0j, complex(w0)), n)
        assert trace.escape_step == escape_step
        got = (out / "orbit.csv").read_text()
        assert_same_text(got, trace_to_csv(trace))
        assert_same_text(got, orbit_rows_csv(trace))
        report = json.loads((out / "orbit.json").read_text())
        last = len(trace) - 1
        assert (report["steps"], report["escape_step"]) == (last, escape_step)
        assert report["final"] == [trace.zs[last].real, trace.zs[last].imag,
                                   trace.ws[last].real, trace.ws[last].imag]
        assert report["final_log_vder"] == trace.log_vder[last]


class TestBinding:
    def test_chebyshev_batch_passes(self, tmp_path):
        out = pins.outcome(tmp_path, "binding/shipped").out
        lines = (out / "binding.csv").read_text().splitlines()
        assert lines[0].startswith("pair_id,mu,binding_time,censored")
        assert len(lines) == 201
        report = json.loads((out / "binding.json").read_text())
        assert report["pairs"] == 200
        assert report["ratio_failures"] == []
        assert report["expansion_failures"] == []
        assert report["min_margin_lemma23"] > 0
        assert report["mu_constants"]["series_ok"] is True

    def test_shipped_config_artifact_digests(self, tmp_path):
        pins.check(tmp_path, "binding/shipped")

    @pytest.mark.parametrize("seed, digests", pins.recorded_by_seed("pair_audits/binding"))
    def test_several_block_digests(self, tmp_path, seed, digests):
        # 5000 pairs over three blocks of binding.BLOCK_PAIRS
        assert pins.outcome(tmp_path, f"pair_audits/binding@{seed}")[:2] == (0, digests)

    @staticmethod
    def fold_rows(rows: list) -> dict:
        """binding.json's summary folded from audit_pair_batch's rows, one
        row at a time."""
        summary = {"censored": 0, "ratio_failures": [], "expansion_failures": [],
                   "min_margin_lemma23": None, "min_margin_lemma24": None}
        for r in rows:
            summary["censored"] += r["censored"]
            for key, audit in (("ratio_failures", r["ratio_audit"]),
                               ("expansion_failures", r["expansion_audit"])):
                if not audit.skipped and not audit.passed:
                    summary[key].append(r["pair_id"])
            for col in ("min_margin_lemma23", "min_margin_lemma24"):
                low = summary[col]
                if not math.isnan(r[col]) and (low is None or r[col] < low):
                    summary[col] = r[col]
        return summary

    # degree 3: 3 w^2 underflows to zero at w = 1e-170, so a pair started
    # there fails the ratio audit and skips the expansion audit
    CUBIC = {"lambda": [0.5, 0.0], "degree": 3, "mode": "unicritical",
             "fiber_coeffs": [[[0.3, 0.0], [1.0, 0.0]]]}

    @pytest.mark.parametrize("map_cfg", [CUBIC, GENERAL3],
                             ids=["unicritical", "general-no-W"])
    def test_column_artifacts_match_the_rows(self, tmp_path, monkeypatch, map_cfg):
        # three blocks, with critical hits and shadowing pairs on both sides
        # of each block boundary and a horizon short enough to censor
        count, horizon = 2 * B.BLOCK_PAIRS + 100, 6
        map = map_from_config(map_cfg)
        pts = B._draw_bound_pairs(map, count, 7)
        hit = [0.0, 1e-170, 0.0, 1e-170 * (1 + 1e-12)]
        for j in (5, B.BLOCK_PAIRS - 1, B.BLOCK_PAIRS, 2 * B.BLOCK_PAIRS + 3):
            pts[j] = hit
            pts[j + 1] = [pts[j + 1, 0], pts[j + 1, 1]] * 2  # shadowing
        monkeypatch.setattr(B, "_draw_bound_pairs",
                            lambda map, n, seed, **kw: pts[:n])
        code, out = run(tmp_path, "binding", {
            "map": map_cfg, "seed": 7, "params": {"count": count, "horizon": horizon}})

        rows = B.audit_pair_batch(map, pts, horizon=horizon)
        assert_same_text((out / "binding.csv").read_text(), B.binding_rows_to_csv(rows))
        report = json.loads((out / "binding.json").read_text())
        expected = self.fold_rows(rows)
        assert json.dumps({k: report[k] for k in expected}) == json.dumps(expected)
        assert code == (3 if expected["ratio_failures"] else 0)
        # the cases this is meant to cover are there
        assert 0 < expected["censored"] < count
        assert any(math.isnan(r["min_margin_lemma23"]) for r in rows)
        assert any(math.isnan(r["min_margin_lemma24"]) for r in rows)
        if map.mode == "unicritical":
            assert expected["ratio_failures"] == [
                5, B.BLOCK_PAIRS - 1, B.BLOCK_PAIRS, 2 * B.BLOCK_PAIRS + 3]
        else:
            assert expected["min_margin_lemma24"] is None

    def test_fold_ties_go_to_the_earliest_pair(self):
        # -0.0 and 0.0 compare equal, so the first of them is kept, inside a
        # block and across blocks; NaN (skipped) never counts
        nan = math.nan
        blocks = [
            B.PairBlock(0, np.array([3, -1, 2]), np.array([False, True, False]),
                        np.array([1.0, nan, 2.0]),
                        np.array([nan, 0.0, -0.0]), np.array([-0.0, nan, 0.0]),
                        np.array([False, True, False]),
                        np.array([False, False, True])),
            B.PairBlock(3, np.array([-1, 4]), np.array([True, False]),
                        np.array([nan, 1.5]),
                        np.array([-0.0, 0.25]), np.array([0.0, nan]),
                        np.array([True, False]), np.array([False, True])),
        ]
        rows = []
        for b in blocks:
            for j in range(len(b.binding_time)):
                rows.append({
                    "pair_id": b.first_id + j, "censored": bool(b.censored[j]),
                    "min_margin_lemma23": float(b.least_lemma23[j]),
                    "min_margin_lemma24": float(b.least_lemma24[j]),
                    "ratio_audit": SimpleNamespace(
                        skipped=False, passed=not b.failed_lemma23[j]),
                    "expansion_audit": SimpleNamespace(
                        skipped=False, passed=not b.failed_lemma24[j])})
        summary = {"censored": 0, "ratio_failures": [], "expansion_failures": [],
                   "min_margin_lemma23": None, "min_margin_lemma24": None}
        for b in blocks:
            assert cli._fold_pairs(summary, b) is b
        expected = self.fold_rows(rows)
        assert json.dumps(summary) == json.dumps(expected)
        assert (json.dumps(summary["min_margin_lemma23"]),
                json.dumps(summary["min_margin_lemma24"])) == ("0.0", "-0.0")
        assert summary["ratio_failures"] == [1, 3]
        assert summary["expansion_failures"] == [2, 4]


class TestAuditBounds:
    def test_tame_suite(self, tmp_path):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 202,
                         "params": {"suite": "tame", "count": 200, "n": 100,
                                    "lambda0": 0.8}})
        assert code == 0
        report = json.loads((out / "bounds_tame.json").read_text())
        audits = report["audits"]
        assert set(audits) == {"thm12_main", "thm12_min"}
        for audit in audits.values():
            assert set(audit) == {"statement", "lambda0", "delta", "samples",
                                  "fitted_constant", "min_ratio_location",
                                  "violations"}
            assert audit["violations"] == 0

    def test_return_suite_real_window(self, tmp_path):
        lem34 = pins.report(tmp_path, "radii/return_real",
                            "bounds_return.json")["audits"]["lem34"]
        assert lem34["samples"] > 100 and lem34["violations"] == 0

    def test_side_suite_on_line(self, tmp_path):
        audits = pins.report(tmp_path, "radii/side_line", "bounds_side.json")["audits"]
        assert all(audits[k]["samples"] > 0 for k in ("lem31", "lem32", "lem33"))

    def test_vacuous_audit_exits_three(self, tmp_path, capsys):
        # off-line starts cannot feed the invariant-line floor, and a
        # suite that checked nothing must not report success
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 5,
                         "params": {"suite": "side", "count": 100, "n": 60,
                                    "lambda0": 0.8, "delta": 0.5,
                                    "z_radius": 0.04, "w_radius": 2.0,
                                    "real": True}})
        assert code == 3
        assert "no admissible samples" in capsys.readouterr().out
        report = json.loads((out / "bounds_side.json").read_text())
        assert report["passed"] is False
        assert report["audits"]["lem33"]["samples"] == 0

    @pytest.mark.parametrize("name", ["tame", "onedim"])
    def test_benchmark_config_digests(self, tmp_path, name):
        pins.check(tmp_path, f"escape_sweep/{name}@3")

    @pytest.mark.parametrize("seed, digest",
                             pins.recorded_by_seed("escape_sweep/onedim", "bounds_onedim.json"))
    def test_onedim_several_batch_digests(self, tmp_path, seed, digest):
        # 20000 starts span three scan batches
        assert pins.outcome(tmp_path, f"escape_sweep/onedim@{seed}")[:2] == (
            0, {"bounds_onedim.json": digest})

    @pytest.mark.parametrize("name", pins.group("radii"))
    def test_explicit_radii_digests(self, tmp_path, name):
        pins.check(tmp_path, f"radii/{name}")

    def test_return_draws_its_admissible_region_by_default(self, tmp_path):
        # over 0.9 r0 x 0.9 R (the draws before) lem34 admitted no pair here
        lem34 = pins.report(tmp_path, "default/return_real",
                            "bounds_return.json")["audits"]["lem34"]
        assert lem34["samples"] > 0 and lem34["violations"] == 0

    def test_onedim_suite_real_window(self, tmp_path):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 5,
                         "params": {"suite": "onedim", "count": 300, "n_max": 50,
                                    "lambda0": 0.8, "delta": 0.5,
                                    "w_radius": 2.0, "real": True}})
        assert code == 0
        report = json.loads((out / "bounds_onedim.json").read_text())
        assert set(report["audits"]) == {"eq_1dim_der", "prop21i", "prop21ii",
                                         "prop21iii"}
        assert report["audits"]["prop21ii"]["samples"] > 0

    def test_departure_suite(self, tmp_path):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 5,
                         "params": {"suite": "departure", "count": 100,
                                    "lambda0": 0.8}})
        assert code == 0
        report = json.loads((out / "bounds_departure.json").read_text())
        assert report["audits"]["lem25"]["samples"] == 100
        assert report["audits"]["lem25"]["violations"] == 0

    def test_departure_artifact_digest(self, tmp_path):
        pins.check(tmp_path, "departure")

    @pytest.mark.parametrize("seed, digest", pins.recorded_by_seed(
        "pair_audits/departure", "bounds_departure.json"))
    def test_departure_several_block_digests(self, tmp_path, seed, digest):
        # 20000 starts over ten blocks
        assert pins.outcome(tmp_path, f"pair_audits/departure@{seed}")[:2] == (
            0, {"bounds_departure.json": digest})

    def test_departure_on_attracting_cycle_map(self, tmp_path, capsys):
        # the fiber map has an attracting cycle, where the departure bound
        # does not apply: rejected like tame, onedim and przytycki
        code, out = run(tmp_path, "audit-bounds",
                        {"map": {"lambda": [0.6, -0.1], "degree": 2,
                                 "mode": "unicritical",
                                 "fiber_coeffs": [[[-0.12, 0.75], [1.0, 0.0],
                                                   [0.0, 0.3]]]},
                         "seed": 0,
                         "params": {"suite": "departure", "count": 5000,
                                    "lambda0": 0.8}})
        assert code == 2
        err = capsys.readouterr().err
        assert "AttractingCyclePresent" in err and "Traceback" not in err
        assert not (out / "bounds_departure.json").exists()

    def test_departure_rejects_general_mode(self, tmp_path, capsys):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": {"lambda": [0.5, 0.2], "degree": 3,
                                 "mode": "general",
                                 "fiber_coeffs": [[[0.1, 0.0], [1.0, 0.0]],
                                                  [[0.0, 0.2], [0.3, 0.0]],
                                                  [[-0.4, 0.0]]]},
                         "seed": 0,
                         "params": {"suite": "departure", "count": 2000,
                                    "lambda0": 0.8}})
        assert code == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not (out / "bounds_departure.json").exists()

    def test_przytycki_suite_needs_no_seed(self, tmp_path):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB,
                         "params": {"suite": "przytycki",
                                    "epsilons": [1e-2, 1e-3],
                                    "per_axis": 40}})
        assert code == 0
        report = json.loads((out / "bounds_przytycki.json").read_text())
        n_mins = [r["min_ratio_location"]["n"] for r in report["reports"]]
        assert n_mins[0] < n_mins[1]  # smaller ball, later first return

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_przytycki_horizon_below_one(self, tmp_path, capsys, horizon):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "params": {"suite": "przytycki",
                                                 "epsilons": [0.05],
                                                 "per_axis": 3,
                                                 "horizon": horizon}})
        assert code == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not out.exists()

    def test_przytycki_no_return_exits_three(self, tmp_path, capsys):
        # within 20 steps the 3 x 3 grid returns to the 0.1-ball (at n = 5)
        # but not to the 0.05-ball: that scale measured nothing
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "params": {"suite": "przytycki",
                                                 "epsilons": [0.1, 0.05],
                                                 "per_axis": 3,
                                                 "horizon": 20}})
        assert code == 3
        assert "eps=0.05: n_min=None constant=none" in capsys.readouterr().out
        reports = json.loads((out / "bounds_przytycki.json").read_text())["reports"]
        assert reports[0]["min_ratio_location"]["n"] == 5
        assert reports[1]["min_ratio_location"] is None
        assert reports[1]["fitted_constant"] is None

    def test_unknown_suite(self, tmp_path, capsys):
        code, _ = run(tmp_path, "audit-bounds",
                      {"map": CHEB, "seed": 1, "params": {"suite": "nope"}})
        assert code == 2
        assert "nope" in capsys.readouterr().err


class TestMeasureCommands:
    def test_slow(self, tmp_path):
        # burn-in 50 puts the threshold below the attracting fixed point
        code, out = run(tmp_path, "slow",
                        {"map": NEARFIXED, "seed": 11,
                         "params": {"alpha": 0.05, "burn_in": 50,
                                    "horizon": 150, "samples": 2000}})
        assert code == 0
        report = json.loads((out / "slow.json").read_text())
        assert report["report"]["quantity"] == "slow_fraction"
        assert report["report"]["estimate"] >= 0.99
        lines = (out / "slow.csv").read_text().splitlines()
        assert lines[0].startswith("quantity,samples,estimate")

    def test_slow_benchmark_digests(self, tmp_path):
        pins.check(tmp_path, "escape_sweep/slow@3")

    def test_exclusion_outermost_annulus(self, tmp_path):
        # m = 0 is the annulus |lambda| r0 <= |z| < r0, a legal cell
        code, out = run(tmp_path, "exclusion",
                        {"map": AIRPLANEISH, "seed": 21,
                         "params": {"alpha": 0.1, "m": 0,
                                    "l_grid": {"start": 3, "stop": 30, "step": 3},
                                    "samples": 4000}})
        assert code == 0
        reports = json.loads((out / "exclusion.json").read_text())["reports"]
        assert {r["parameters"]["m"] for r in reports} == {0}
        assert reports[-1]["quantity"] == "decay_fit"

    def test_exclusion(self, tmp_path):
        code, out = run(tmp_path, "exclusion",
                        {"map": AIRPLANEISH, "seed": 21,
                         "params": {"alpha": 0.1, "m": 8,
                                    "l_grid": {"start": 12, "stop": 42, "step": 3},
                                    "samples": 20000}})
        assert code == 0
        report = json.loads((out / "exclusion.json").read_text())
        assert report["reports"][-1]["quantity"] == "decay_fit"
        assert report["reports"][-1]["fitted_exponent"] > 0
        decay = (out / "exclusion_decay.csv").read_text().splitlines()
        assert decay[0] == "l,log_fraction"
        assert len(decay) > 3

    @pytest.mark.parametrize("seed, digests", pins.recorded_by_seed("bounded_sweep/exclusion"))
    def test_exclusion_benchmark_digests(self, tmp_path, seed, digests):
        # all 50000 starts stepped to the horizon
        assert pins.outcome(tmp_path, f"bounded_sweep/exclusion@{seed}")[:2] == (0, digests)

    def test_xl_within_bound(self, tmp_path):
        report = pins.report(tmp_path, "default/xl", "xl.json")["report"]
        assert report["within_bound"] is True
        assert report["fd_rel_deviation"] <= 1e-5

    @pytest.mark.parametrize("l, dps, deviation", [(5, 0, 0.5541), (12, 60, 0.5509)],
                             ids=["doubles", "mpmath"])
    def test_xl_outside_bound_exits_three(self, tmp_path, l, dps, deviation):
        # the negative control: on c(z) = -2 + z + z^2 the ratio at z0 = 0.405
        # is off the leading term k X0 by more than half of it, in doubles
        # and at extended precision alike
        quadratic = dict(CHEB, fiber_coeffs=[[[-2.0, 0.0], [1.0, 0.0], [1.0, 0.0]]])
        code, out = run(tmp_path, "xl", {"map": quadratic,
                                         "params": {"z0": [0.405, 0.0], "l": l}})
        assert code == 3
        report = json.loads((out / "xl.json").read_text())["report"]
        assert report["within_bound"] is False
        assert report["fd_dps"] == dps
        assert report["deviation"] == pytest.approx(deviation, abs=1e-4)
        assert report["bound"] == pytest.approx(3 / 7)
        assert report["fd_rel_deviation"] <= 1e-5

    @pytest.mark.parametrize("z0, l", [([1e-5, 0.0], 60), ([0.01, 0.003], 200),
                                       ([1e-5, 0.0], 5)],
                             ids=["tiny-l60", "l200", "l5"])
    def test_xl_attracting_cycle_exits_two(self, tmp_path, capsys, z0, l):
        # the basilica fiber's superattracting denominators underflow in
        # doubles, so the cycle gate has to stop the run before the ratio
        basilica = dict(CHEB, fiber_coeffs=[[[-1.0, 0.0], [1.0, 0.0]]])
        code, out = run(tmp_path, "xl", {"map": basilica,
                                         "params": {"z0": z0, "l": l}})
        assert code == 2
        assert "AttractingCyclePresent" in capsys.readouterr().err
        assert not (out / "xl.json").exists()


    def test_xl_escaping_critical_orbit_writes_finite_report(self, tmp_path):
        # X0's step derivative overflows on the escaping critical orbit of
        # w^3 + 1.2i; the report must still carry finite numbers
        cubic = {"lambda": [0.6, -0.1], "degree": 3, "mode": "unicritical",
                 "fiber_coeffs": [[[0.0, 1.2], [1.0, 0.0]]]}
        code, out = run(tmp_path, "xl", {"map": cubic,
                                         "params": {"z0": [0.01, 0.0], "l": 8}})
        assert code == 0
        report = json.loads((out / "xl.json").read_text())["report"]
        assert report["within_bound"] is True
        assert all(math.isfinite(v) for v in report.values())

    def test_xl_double_overflow_exits_two(self, tmp_path, capsys):
        cubic = {"lambda": [0.6, -0.1], "degree": 3, "mode": "unicritical",
                 "fiber_coeffs": [[[0.0, 1.2], [1.0, 0.0], [0.0, 0.3]]]}
        code, out = run(tmp_path, "xl", {"map": cubic,
                                         "params": {"z0": [-0.17517, 0.46736],
                                                    "l": 8}})
        assert code == 2
        err = capsys.readouterr().err
        assert "OrbitOverflow" in err and "step" in err
        assert not (out / "xl.json").exists()


class TestRender:
    def test_p5_artifact_and_rerun_identical(self, tmp_path):
        cfg = {"map": dict(CHEB, fiber_coeffs=[[[-1.0, 0.0], [1.0, 0.0]]]),
               "params": {"plane": "fiber", "center": [0.0, 0.0],
                          "extent": 1.6, "resolution": 64, "at": [0.0, 0.0],
                          "horizon": 200}}
        code, out = run(tmp_path, "render", cfg)
        assert code == 0
        blob = (out / "slice.p5").read_bytes()
        assert blob.startswith(b"P5\n64 64\n255\n")
        assert len(blob) == len(b"P5\n64 64\n255\n") + 64 * 64
        sidecar = json.loads((out / "slice.p5.json").read_text())
        assert sidecar["resolution"] == 64
        first = tree_digest(out)
        code, out = run(tmp_path, "render", cfg)
        assert code == 0
        assert tree_digest(out) == first


    def test_shipped_config_artifact_digests(self, tmp_path):
        pins.check(tmp_path, "render/shipped")

    def test_bounded_parabolic_digests(self, tmp_path):
        pins.check(tmp_path, "render/parabolic")

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_exits_two(self, tmp_path, capsys, horizon):
        # a slice that steps nothing is no result: exit 2, nothing written
        code, out = run(tmp_path, "render",
                        {"map": CHEB,
                         "params": {"plane": "fiber", "center": [0.0, 0.0],
                                    "extent": 1.0, "resolution": 8, "at": [0.0, 0.0],
                                    "horizon": horizon}})
        assert code == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not out.exists()


class TestExpand:
    @pytest.mark.parametrize("field", ["fit_n", "link_max"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_fit_or_link_below_one_exits_two(self, tmp_path, capsys, field, value):
        # fit_n 0 took min([]) and crashed; link_max 0 tried no link and
        # reported every step unverified
        code, out = run(tmp_path, "expand",
                        {"map": CHEB,
                         "params": {"z0": [0.0, 0.0], "w0": [0.3, 0.0],
                                    "delta": 1e-3, "lambda0": 0.9, "n_max": 3,
                                    field: value}})
        assert code == 2
        assert "PreconditionViolated" in capsys.readouterr().err
        assert not out.exists()

    def test_escaping_start_exits_two(self, tmp_path, capsys):
        # c = i: the fiber orbit of 0.3 escapes, and its centers overflowed
        # into NaN and -Infinity in expand.json
        cfg = {"map": {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
                       "fiber_coeffs": [[[0.0, 1.0], [1.0, 0.0]]]},
               "params": {"z0": [0.0, 0.0], "w0": [0.3, 0.0], "delta": 1e-3,
                          "lambda0": 0.9, "n_max": 15, "fit_n": 5}}
        code, out = run(tmp_path, "expand", cfg)
        assert code == 2
        assert "escapes" in capsys.readouterr().err
        assert not out.exists()

    def test_verified_run(self, tmp_path):
        code, out = run(tmp_path, "expand",
                        {"map": CHEB,
                         "params": {"z0": [5e-13, 0.0], "w0": [0.3, 0.0],
                                    "delta": 1e-3, "lambda0": 0.9, "n_max": 20}})
        assert code == 0
        report = json.loads((out / "expand.json").read_text())
        assert all(s["verified"] for s in report["report"]["steps"])

    def test_shipped_config_artifact_digest(self, tmp_path):
        pins.check(tmp_path, "expand/shipped")

    @pytest.mark.parametrize("name", ["expand_onedim", "expand_skew"])
    def test_benchmark_config_digests(self, tmp_path, name):
        pins.check(tmp_path, f"disk_certify/{name}@*")


class TestSeries:
    def test_x0_closed_form(self, tmp_path):
        ev = pins.report(tmp_path, "default/x0", "series.json")["evaluations"][0]
        assert ev["kind"] == "X0"
        assert abs(ev["value_re"] - 6.0 / 7.0) < 1e-10

    def test_levin_points(self, tmp_path):
        code, out = run(tmp_path, "series",
                        {"map": CHEB,
                         "params": {"which": "levin", "points": [[0.5, 0.0]],
                                    "n_terms": 80}})
        assert code == 0
        ev = json.loads((out / "series.json").read_text())["evaluations"][0]
        assert abs(ev["value_re"] - 6.0 / 7.0) < 1e-10
        assert ev["verdict"] == "nonvanishing on samples"

    def test_lyapunov_default_start(self, tmp_path):
        ev = pins.report(tmp_path, "default/lyapunov", "series.json")["evaluations"][0]
        assert abs(ev["value_re"] - 1.3862943611198906) < 1e-12

    def test_levin_requires_points(self, tmp_path):
        code, _ = run(tmp_path, "series",
                      {"map": CHEB, "params": {"which": "levin"}})
        assert code == 2

    def test_lyapunov_escaping_critical_orbit_exits_two(self, tmp_path, capsys):
        escaping = {"lambda": [0.6, -0.1], "degree": 3, "mode": "unicritical",
                    "fiber_coeffs": [[[0.0, 1.2], [1.0, 0.0]]]}
        code, out = run(tmp_path, "series",
                        {"map": escaping, "params": {"which": "lyapunov"}})
        assert code == 2
        assert "OrbitOverflow" in capsys.readouterr().err
        assert not (out / "series.json").exists()

    def test_nondegeneracy_escaping_critical_value_exits_two(self, tmp_path, capsys):
        # the critical value 0.3 of w^2 + 0.3 escapes after the 5 classifier
        # steps but within the 60 terms; the series used to come out NaN
        # with verdict "near-zero"
        escaping = {"lambda": [0.5, 0.0], "degree": 2, "mode": "general",
                    "fiber_coeffs": [[[0.3, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]}
        code, out = run(tmp_path, "series",
                        {"map": escaping, "params": {"which": "nondegeneracy",
                                                     "n_terms": 60, "horizon": 5}})
        assert code == 2
        assert "OrbitOverflow" in capsys.readouterr().err
        assert not (out / "series.json").exists()

    @pytest.mark.parametrize("name", pins.group("series"))
    def test_series_pins(self, tmp_path, name):
        pins.check(tmp_path, f"series/{name}")

    @pytest.mark.parametrize("map_cfg, params", [
        (CHEB, {"which": "x0", "n_terms": 0}),
        (CHEB, {"which": "levin", "points": [[0.5, 0.0]], "n_terms": 0}),
        (CHEB, {"which": "levin", "points": [[0.5, 0.0]], "n_terms": -4}),
        (GENERAL3, {"which": "nondegeneracy", "n_terms": 0}),
    ], ids=["x0", "levin", "levin-negative", "nondegeneracy"])
    def test_empty_series_exits_two(self, tmp_path, capsys, map_cfg, params):
        # an empty series has a zero tail, so its verdict would check nothing
        code, out = run(tmp_path, "series", {"map": map_cfg, "params": params})
        assert code == 2
        err = capsys.readouterr().err
        assert "PreconditionViolated" in err and "n_terms >= 1" in err
        assert not out.exists()

    def test_xl_empty_x0_series_exits_two(self, tmp_path, capsys):
        code, out = run(tmp_path, "xl",
                        {"map": CHEB, "params": {"z0": [0.001, 0.0], "l": 3,
                                                 "x0_terms": 0}})
        assert code == 2
        assert "n_terms >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestDefaultPins:
    @pytest.mark.parametrize("name", pins.group("default"))
    def test_digests(self, tmp_path, name):
        pins.check(tmp_path, f"default/{name}")


class TestPeakMemory:
    """tracemalloc peaks of benchmark runs, in process.  Holding each whole
    batch, they peaked at 18.6 MiB (orbit), 14.8 MiB (departure), 8.3 MiB
    (binding), 7.3 MiB (exclusion) and 3.7 MiB (onedim); in fixed blocks,
    batches and streamed chunks they measured 6.4, 2.4, 5.2, 2.0 and
    1.7 MiB.  With the orbit CSV written from the stepping loop and the
    binding blocks folded as columns, orbit and binding measure 2.4 and
    2.8 MiB in a fresh process, against 6.4 and 6.1 before (x86-64,
    numpy 2.4)."""

    @staticmethod
    def cli_peak(peak_mib, tmp_path, command, cfg):
        codes = []
        peak = peak_mib(lambda: codes.append(run(tmp_path, command, cfg)[0]))
        assert codes == [0]
        return peak

    def test_orbit_100k_steps(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "orbit", {
            "map": CHEB,
            "params": {"z0": [0.0, 0.0], "w0": [0.3, 0.0], "n": 100000}}) < 3.5

    def test_departure_20000_starts(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "audit-bounds", {
            "map": CHEB, "seed": 3,
            "params": {"suite": "departure", "count": 20000,
                       "lambda0": 0.8}}) < 5.0

    def test_binding_5000_pairs(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "binding", {
            "map": CHEB, "seed": 3, "params": {"count": 5000}}) < 4.0

    def test_exclusion_50000_starts(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "exclusion", {
            "map": AIRPLANEISH, "seed": 3,
            "params": {"alpha": 0.1, "m": 8,
                       "l_grid": {"start": 12, "stop": 78, "step": 3},
                       "samples": 50000}}) < 4.0

    def test_onedim_20000_starts(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "audit-bounds", {
            "map": CHEB, "seed": 3,
            "params": {"suite": "onedim", "count": 20000, "n_max": 200,
                       "lambda0": 0.8, "delta": 1.0}}) < 2.5

    # stepping batches of 2^15 starts to the horizon, the run peaked at
    # 3.3-3.4 MiB; stepping each draw batch to the burn-in and pooling its
    # survivors, at 1.2-1.3 MiB
    def test_slow_100000_starts(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "slow", {
            "map": NEARFIXED, "seed": 3,
            "params": {"alpha": 0.05, "burn_in": 50, "horizon": 500,
                       "samples": 100000}}) < 2.0

    # with complex and transposed copies of each scale's grid held while
    # stepping, the run peaked at 2.15 MiB; with views of the selection, at
    # 1.23 MiB
    def test_przytycki_three_scales(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "audit-bounds", {
            "map": CHEB,
            "params": {"suite": "przytycki", "epsilons": [0.1, 0.05, 0.02],
                       "per_axis": 100}}) < 1.6

    # a render holding the whole grid peaked at about 80 bytes per pixel:
    # 5.2 MiB for escape_sweep's 256^2 slice and 78.9 MiB at 1024^2.  In
    # bands of RENDER_BAND pixels they measure 1.9 and 7.4 MiB, of which the
    # returned codes and escape steps (6 bytes per pixel) are 0.4 and 6 MiB
    def test_render_basilica_256(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "render", {
            "map": BASILICA,
            "params": {"plane": "fiber", "center": [0.0, 0.0], "extent": 1.6,
                       "resolution": 256, "at": [0.0, 0.0], "horizon": 300}}) < 3.0

    def test_render_1024_slice(self, tmp_path, peak_mib):
        assert self.cli_peak(peak_mib, tmp_path, "render", {
            "map": BASILICA,
            "params": {"plane": "fiber", "center": [0.0, 0.0], "extent": 1.6,
                       "resolution": 1024, "at": [0.0, 0.0], "horizon": 10}}) < 10.0


PARABOLIC = dict(CHEB, fiber_coeffs=[[[0.25, 0.0], [1.0, 0.0]]])
# bounded_sweep's render_parabolic: every pixel stays live to the horizon
PARABOLIC_SLICE = {"plane": "fiber", "center": [0.0, 0.0], "extent": 0.3,
                   "resolution": 128, "at": [0.0, 0.0], "horizon": 1000}


class TestStepAllocations:
    """A kernel step writes into buffers its batch owns.  When every step
    made its own 16384-element temporaries (w**2, + c0, |w|, w - p, |w - p|),
    the parabolic render re-faulted them from the OS at every step: 53.4k
    minor faults against 5.5k for a Siegel render of the same size and an
    import floor of 4.9k (x86-64, glibc, numpy 2.4)."""

    def test_parabolic_slice_steps_allocate_no_batch_array(self, monkeypatch):
        growth = []

        class Probe(fatou._Orbits):
            def steps(self, count):
                for n in super().steps(count):
                    if n == 1:
                        start = tracemalloc.get_traced_memory()[0]
                        tracemalloc.reset_peak()
                    yield n
                growth.append(tracemalloc.get_traced_memory()[1] - start)

        monkeypatch.setattr(fatou, "_Orbits", Probe)
        m = map_from_config(PARABOLIC)
        spec = fatou.SliceSpec(plane="fiber", center=0j, extent=0.3, resolution=128, at=0j)
        tracemalloc.start()
        try:
            raster = fatou.render_slice(m, spec, horizon=200)
        finally:
            tracemalloc.stop()
        # no pixel left the batch, so every step ran on all 16384 orbits
        assert (raster.codes == 0).all()
        assert len(growth) == 1 and growth[0] < 16384 * 16

    @pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(os, "wait4"),
                        reason="counts Linux minor page faults")
    def test_parabolic_render_faults_near_the_import_floor(self, tmp_path):
        # in-place steps measured about 0.4k faults over the import floor,
        # per-step temporaries about 48k; the margin sits between them
        margin = 4096
        cfg = write_config(tmp_path, {"map": PARABOLIC, "params": PARABOLIC_SLICE})
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

        def minor_faults(*args) -> int:
            proc = subprocess.Popen([sys.executable, *args], env=env, cwd=tmp_path,
                                    stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            return usage.ru_minflt

        floor = minor_faults("-c", "import skewdyn.cli, skewdyn.fatou")
        render = minor_faults("-m", "skewdyn.cli", "render", "--config", cfg,
                              "--out", str(tmp_path / "out"))
        assert render <= floor + margin, (render, floor)


class TestDeterminism:
    def test_stochastic_artifacts_thread_invariant(self, tmp_path):
        cfg = {"map": NEARFIXED, "seed": 9,
               "params": {"alpha": 0.05, "burn_in": 10, "horizon": 80,
                          "samples": 3000}}
        digests = []
        for i, t in enumerate(("1", "3", "8")):
            cfg_path = write_config(tmp_path, cfg, f"c{i}.json")
            out = tmp_path / f"out{i}"
            assert main(["slow", "--config", cfg_path, "--out", str(out),
                         "--threads", t]) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1] == digests[2]

    def test_flag_overrides_config_seed(self, tmp_path):
        cfg = {"map": NEARFIXED, "seed": 9,
               "params": {"alpha": 0.05, "burn_in": 10, "horizon": 80,
                          "samples": 500}}
        _, out_a = run(tmp_path, "slow", cfg)
        a = json.loads((out_a / "slow.json").read_text())
        cfg_path = write_config(tmp_path, cfg, "override.json")
        out_b = tmp_path / "out_b"
        main(["slow", "--config", cfg_path, "--out", str(out_b), "--seed", "10"])
        b = json.loads((out_b / "slow.json").read_text())
        assert a["seed"] == 9 and b["seed"] == 10
        # the CSV rows carry the seed, so the artifacts must differ
        assert (out_a / "slow.csv").read_text() != (out_b / "slow.csv").read_text()


class TestShippedConfigs:
    def test_series_config_via_subprocess(self, tmp_path):
        cfg = CONFIG_DIR / "series_x0.json"
        r = subprocess.run([sys.executable, "-m", "skewdyn.cli", "series",
                            "--config", str(cfg), "--out", str(tmp_path)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert "wrote" in r.stdout

    def test_cli_process_spends_no_cpu_beyond_its_wall_time(self, tmp_path):
        # one thread cannot spend more CPU than wall time; numpy's default
        # OpenBLAS pool did (0.30 s of CPU in 0.19 s for the import alone,
        # 2 cores).  The pytest process has the package's variable set, so
        # the child goes without it to see the package's own default.
        cfg = write_config(tmp_path, {
            "command": "orbit", "map": CHEB,
            "params": {"z0": [0.01, 0.0], "w0": [0.1, 0.1], "n": 2000}})
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(CONFIG_DIR.parent / "src")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "skewdyn.cli", "orbit", "--config", cfg,
             "--out", str(tmp_path / "out")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert usage.ru_utime + usage.ru_stime <= wall + 0.05

    def test_every_shipped_config_parses(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            cfg = json.loads(path.read_text())
            assert "command" in cfg
            if cfg["command"] != "selftest":
                map_from_config(cfg["map"])
            cli._parse_params(cfg["command"], cfg.get("params", {}))
