"""End-to-end runs of the command-line front end.

Tests call main() in process with artifact directories under tmp_path;
one subprocess test exercises the installed entry point path.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from skewdyn.cli import main
from skewdyn.core import map_from_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CHEB = {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
        "fiber_coeffs": [[[-2.0, 0.0], [1.0, 0.0]]]}
NEARFIXED = {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
             "fiber_coeffs": [[[0.2, 0.0], [1.0, 0.0]]]}
GENERAL3 = {"lambda": [0.5, 0.0], "degree": 3, "mode": "general",
            "fiber_coeffs": [[[-0.5, 0.0], [1.0, 0.0]], [[-1.2, 0.0], [0.3, 0.0]],
                             [[0.0, 0.2]]]}
AIRPLANEISH = {"lambda": [0.65, 0.0], "degree": 2, "mode": "unicritical",
               "fiber_coeffs": [[[-1.749, 0.0], [1.0, 0.0]]]}


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

    def test_unknown_format_flag(self, tmp_path):
        code, _ = run(tmp_path, "orbit",
                      {"map": CHEB, "format": {"xml": True},
                       "params": {"z0": [0, 0], "w0": [0, 0], "n": 5}})
        assert code == 2

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


class TestOrbit:
    def test_artifacts_and_roundtrip(self, tmp_path):
        code, out = run(tmp_path, "orbit",
                        {"map": CHEB,
                         "params": {"z0": [0.01, 0.0], "w0": [0.1, 0.1],
                                    "n": 50}})
        assert code == 0
        csv_lines = (out / "orbit.csv").read_text().splitlines()
        assert csv_lines[0] == "n,z_re,z_im,w_re,w_im,log_vder,tame,escaped"
        report = json.loads((out / "orbit.json").read_text())
        assert report["command"] == "orbit"
        rebuilt = map_from_config(report["map"])  # report embeds the map schema
        assert rebuilt.degree == 2
        assert report["escape_step"] == len(csv_lines) - 2

    def test_format_flags_suppress_csv(self, tmp_path):
        code, out = run(tmp_path, "orbit",
                        {"map": CHEB, "format": {"csv": False},
                         "params": {"z0": [0.0, 0.0], "w0": [0.1, 0.0], "n": 5}})
        assert code == 0
        assert not (out / "orbit.csv").exists()
        assert (out / "orbit.json").exists()


    def test_shipped_config_artifact_digests(self, tmp_path):
        # sha256 recorded on x86-64, numpy 2.4, before trace_to_csv
        # formatted rows in chunks
        out = tmp_path / "out"
        assert main(["orbit", "--config", str(CONFIG_DIR / "orbit.json"),
                     "--out", str(out)]) == 0
        assert tree_digest(out) == {
            "orbit.csv":
                "5c6228c1d115d6c620830ada2e80ed6af5b19debd4c45359ec1dc59844d0a5a5",
            "orbit.json":
                "59f121f6fdb7e62c7a0b352d7e2344496a28806efcf0b781a9b89642ea59a81b"}

    def test_long_orbit_csv_digest(self, tmp_path):
        # 20001 rows, not a multiple of the 4096-row chunk; recorded as above
        code, out = run(tmp_path, "orbit",
                        {"map": CHEB,
                         "params": {"z0": [0.0, 0.0], "w0": [0.3, 0.0], "n": 20000}})
        assert code == 0
        blob = (out / "orbit.csv").read_bytes()
        assert len(blob) == 1081863
        assert blob.count(b"\n") == 20002
        assert hashlib.sha256(blob).hexdigest() == (
            "ce8468ddfaeeff2fd712919c590b2dfd93af85e1a5b7b6a494ff379a4a9562be")

class TestBinding:
    def test_chebyshev_batch_passes(self, tmp_path):
        code, out = run(tmp_path, "binding",
                        {"map": CHEB, "params": {"count": 200}, "seed": 101})
        assert code == 0
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
        # sha256 recorded on x86-64, numpy 2.4, with the per-pair scalar
        # binding loop that the batch kernel replaced
        out = tmp_path / "out"
        assert main(["binding", "--config", str(CONFIG_DIR / "binding.json"),
                     "--out", str(out)]) == 0
        assert tree_digest(out) == {
            "binding.csv":
                "d24428e6abe584a01394d660729d30ceb4bf3830881ee6a3403b4ca4cc294a40",
            "binding.json":
                "33e2a37b1ff0a25cfae727fa2581ab16d8513b16807cc3e03414a69e05956fd8"}


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
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 5,
                         "params": {"suite": "return", "count": 400, "n": 250,
                                    "lambda0": 0.8, "delta0": 0.05,
                                    "z_radius": 1e-7, "w_radius": 0.05,
                                    "real": True}})
        assert code == 0
        report = json.loads((out / "bounds_return.json").read_text())
        assert report["audits"]["lem34"]["samples"] > 100
        assert report["audits"]["lem34"]["violations"] == 0

    def test_side_suite_on_line(self, tmp_path):
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 5,
                         "params": {"suite": "side", "count": 200, "n": 60,
                                    "lambda0": 0.8, "delta": 0.5,
                                    "z_radius": 0.0, "w_radius": 0.9,
                                    "real": True}})
        assert code == 0
        report = json.loads((out / "bounds_side.json").read_text())
        assert all(report["audits"][k]["samples"] > 0
                   for k in ("lem31", "lem32", "lem33"))

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

    @pytest.mark.parametrize("params, digest", [
        ({"suite": "tame", "count": 5000, "n": 100, "lambda0": 0.8},
         "ae91b45240cbb002ad0ba6cd34a7bef14732a5186605e6f61f9f9580adb5b31a"),
        ({"suite": "onedim", "count": 20000, "n_max": 200, "lambda0": 0.8,
          "delta": 1.0},
         "bd56531fef9bd3b09ae2a6658433fd1f0ce2de960530f75436f56d62ac9ddfc9"),
    ], ids=["tame", "onedim"])
    def test_benchmark_config_digests(self, tmp_path, params, digest):
        # the escape_sweep benchmark's audits at input seed 3; sha256
        # recorded on x86-64, numpy 2.4, while the audits scanned stored
        # (n+1) x count histories
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 3, "params": params})
        assert code == 0
        assert tree_digest(out) == {f"bounds_{params['suite']}.json": digest}

    @pytest.mark.parametrize("seed, params, code, digest", [
        (5, {"suite": "return", "count": 400, "n": 250, "lambda0": 0.8,
             "delta0": 0.05, "z_radius": 1e-7, "w_radius": 0.05, "real": True},
         0, "d5381eee11e98980d1ba29f9f5eb9434787fe5dc3fd5cbb35288c6cd48bece8f"),
        (7, {"suite": "return", "count": 3000, "n": 80, "lambda0": 0.8,
             "delta0": 0.05, "z_radius": 0.005, "w_radius": 0.05},
         0, "c27b1fb1ef0462e8ad5b1ad937c451b01756a72a350fec5313b8cd7872ba7d64"),
        (5, {"suite": "side", "count": 200, "n": 60, "lambda0": 0.8,
             "delta": 0.5, "z_radius": 0.0, "w_radius": 0.9, "real": True},
         0, "a1c536902d395908c82058582bfd37566615efcd55a6a39c52a9d06d69e19506"),
        (5, {"suite": "side", "count": 3000, "n": 60, "lambda0": 0.8,
             "delta": 0.5, "z_radius": 0.01, "w_radius": 1.0},
         3, "a7725acc4be88420e9b693ae000e502c7f77b63a9d5617318e95f72382f4ad09"),
    ], ids=["return_real", "return_disk", "side_line", "side_disk"])
    def test_explicit_radii_digests(self, tmp_path, seed, params, code, digest):
        # sha256 recorded on x86-64, numpy 2.4, while the audits scanned the
        # stored TraceBlock; explicit radii keep the draws off the defaults
        got, out = run(tmp_path, "audit-bounds",
                       {"map": CHEB, "seed": seed, "params": params})
        assert got == code
        assert tree_digest(out) == {f"bounds_{params['suite']}.json": digest}

    def test_return_draws_its_admissible_region_by_default(self, tmp_path):
        # over 0.9 r0 x 0.9 R (the draws before) lem34 admitted no pair here
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 3,
                         "params": {"suite": "return", "count": 3000, "n": 80,
                                    "lambda0": 0.8, "delta0": 0.05,
                                    "real": True}})
        assert code == 0
        lem34 = json.loads((out / "bounds_return.json").read_text())["audits"]["lem34"]
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
        # sha256 recorded on x86-64, numpy 2.4, with the per-start scalar
        # loop that the batch kernel replaced; one start misses the bound
        code, out = run(tmp_path, "audit-bounds",
                        {"map": CHEB, "seed": 7,
                         "params": {"suite": "departure", "count": 2000,
                                    "lambda0": 0.8}})
        assert code == 0
        assert json.loads((out / "bounds_departure.json").read_text())[
            "audits"]["lem25"]["violations"] == 1
        assert tree_digest(out) == {
            "bounds_departure.json":
                "6bc80370d809394f00a722de8fa0d330d7117610bb66f8fe6c785e78409e9c9a"}

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
        # the escape_sweep benchmark's slow run at input seed 3; sha256
        # recorded on x86-64, numpy 2.4, while every start was stepped in one batch
        code, out = run(tmp_path, "slow",
                        {"map": NEARFIXED, "seed": 3,
                         "params": {"alpha": 0.05, "burn_in": 50,
                                    "horizon": 500, "samples": 100000}})
        assert code == 0
        assert tree_digest(out) == {
            "slow.csv": "66194e24cab58c7861c11703e73b6f36167933c6b99bd663c828bbbdac84c0bf",
            "slow.json": "b9954868f23351db3891abba6de06f79584845707f4a53b383a5146455ab24f7",
        }

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

    def test_xl_within_bound(self, tmp_path):
        code, out = run(tmp_path, "xl",
                        {"map": CHEB, "params": {"z0": [0.001, 0.0], "l": 40}})
        assert code == 0
        report = json.loads((out / "xl.json").read_text())
        assert report["report"]["within_bound"] is True
        assert report["report"]["fd_rel_deviation"] <= 1e-5

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
        # sha256 recorded on x86-64, numpy 2.4, when render stepped one z
        # per pixel
        out = tmp_path / "out"
        assert main(["render", "--config", str(CONFIG_DIR / "render.json"),
                     "--out", str(out)]) == 0
        assert tree_digest(out) == {
            "slice.p5":
                "b8955fcb8be5f7fc7bf16facb65e08d6b9146f706a5263d061f6f5a88958ab3e",
            "slice.p5.json":
                "d6d87d23818aab455d336777b6ac50aa779116663dbd891b092d7a835721f171"}

    def test_bounded_parabolic_digests(self, tmp_path):
        # c = 1/4 around its parabolic basin over a complex base point: most
        # pixels stay live to the horizon; recorded as above
        cfg = {"map": dict(CHEB, fiber_coeffs=[[[0.25, 0.0], [1.0, 0.0]]]),
               "params": {"plane": "fiber", "center": [0.0, 0.0],
                          "extent": 1.0, "resolution": 32, "at": [0.001, 0.0002],
                          "horizon": 400}}
        code, out = run(tmp_path, "render", cfg)
        assert code == 0
        assert tree_digest(out) == {
            "slice.p5":
                "43b32ee400626b785727efbb666c67eb4874e00fe683a025f6ef80addd83bcbc",
            "slice.p5.json":
                "1f713363bcdf63fdadd19aa001b914702fcf8117f39008bab97b2fc372c78658"}

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
        # sha256 recorded on x86-64, numpy 2.4, before the verifier certified
        # with one winding; the boundary samples come from numpy's exp
        out = tmp_path / "out"
        assert main(["expand", "--config", str(CONFIG_DIR / "expand.json"),
                     "--out", str(out)]) == 0
        assert tree_digest(out) == {
            "expand.json":
                "fa463f8bb8fe6222d79c341790eb55386e017a5861349fb3d4014d43eb0d77ab"}

    @pytest.mark.parametrize("z0, extra, digest", [
        ([0.0, 0.0], {"fit_n": 4, "n_max": 60},
         "765267346e57b6f80f1a9cad4f9cad7f21f15f370d2808a561b636e28b118e95"),
        ([5e-13, 0.0], {"n_max": 100},
         "73c35d51dc06ee7cadabb37a888ef576be5862e446f0357c87758420cc7596ea"),
    ], ids=["expand_onedim", "expand_skew"])
    def test_benchmark_config_digests(self, tmp_path, z0, extra, digest):
        # the disk_certify benchmark's two runs; sha256 recorded on x86-64,
        # numpy 2.4, while the fit's search still started at the radius law
        code, out = run(tmp_path, "expand",
                        {"command": "expand", "map": CHEB,
                         "params": {"z0": z0, "w0": [0.3, 0.0], "delta": 0.001,
                                    "lambda0": 0.9, **extra}})
        assert code == 0
        assert tree_digest(out) == {"expand.json": digest}


class TestSeries:
    def test_x0_closed_form(self, tmp_path):
        code, out = run(tmp_path, "series",
                        {"map": CHEB, "params": {"which": "x0"}})
        assert code == 0
        report = json.loads((out / "series.json").read_text())
        ev = report["evaluations"][0]
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
        code, out = run(tmp_path, "series",
                        {"map": CHEB, "params": {"which": "lyapunov"}})
        assert code == 0
        ev = json.loads((out / "series.json").read_text())["evaluations"][0]
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

    def test_every_shipped_config_parses(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            cfg = json.loads(path.read_text())
            assert "command" in cfg
            if cfg["command"] != "selftest":
                map_from_config(cfg["map"])
