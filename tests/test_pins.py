"""Every sha256 of a CLI artifact the suite asserts, from one table.

RUNS maps a key to a CLI run (command, config: a configs/ file name or a
{map, params} dict, seed, exit); tests/pins.json maps it to {artifact:
sha256}.  BENCH names benchmark runs as (workload, invocation, seed), with
configs from perfbench/workloads.py and pins from perfbench/reference.json.
FACTS adds values read from artifacts; CYCLES holds the maps of pins.json's
"cycles" (test_core.cycle_digest).  Each run executes once per session.  A
mismatch lists every key/artifact: recorded → got, and the `recorded` host
beside this one.  Re-record by editing tests/pins.json; benchmark pins move
only with `perfbench/run.py --record-reference`.
"""

import copy
import hashlib
import importlib.util
import json
import os
import platform
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import (AIRPLANEISH, BASILICA, CHEB, CHEB_GENERAL, ESCAPING_CUBIC,
                      GENERAL3, QUARTIC)
from skewdyn.cli import main
from skewdyn.core import build_map
from skewdyn.gallery import basilica_map, chebyshev_map, nearfixed_map, siegel_map

ROOT = Path(__file__).resolve().parent.parent
PINS_FILE = ROOT / "tests" / "pins.json"
PINS = json.loads(PINS_FILE.read_text())
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
_spec = importlib.util.spec_from_file_location("workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class Run(NamedTuple):
    command: str
    config: str | dict
    seed: int | None = None
    exit: int = 0


def audit(suite, seed, exit=0, **params):
    return Run("audit-bounds", {"map": CHEB, "params": {"suite": suite, **params}},
               seed, exit)


def series(map_cfg, **params):
    return Run("series", {"map": map_cfg, "params": params})


RUNS = {
    "orbit/shipped": Run("orbit", "orbit.json"),
    "binding/shipped": Run("binding", "binding.json"),
    "render/shipped": Run("render", "render.json"),
    "expand/shipped": Run("expand", "expand.json"),
    # 20001 rows, not a multiple of the 4096-row chunk
    "orbit/long": Run("orbit", {"map": CHEB, "params": {
        "z0": [0.0, 0.0], "w0": [0.3, 0.0], "n": 20000}}),
    # c = 1/4 around its parabolic basin over a complex base point: most
    # pixels stay live to the horizon
    "render/parabolic": Run("render", {
        "map": dict(CHEB, fiber_coeffs=[[[0.25, 0.0], [1.0, 0.0]]]),
        "params": {"plane": "fiber", "center": [0.0, 0.0], "extent": 1.0,
                   "resolution": 32, "at": [0.001, 0.0002], "horizon": 400}}),
    "departure": audit("departure", 7, count=2000, lambda0=0.8),
    # explicit radii keep the draws off the defaults
    "radii/return_real": audit("return", 5, count=400, n=250, lambda0=0.8,
                               delta0=0.05, z_radius=1e-7, w_radius=0.05, real=True),
    "radii/return_disk": audit("return", 7, count=3000, n=80, lambda0=0.8,
                               delta0=0.05, z_radius=0.005, w_radius=0.05),
    "radii/side_line": audit("side", 5, count=200, n=60, lambda0=0.8, delta=0.5,
                             z_radius=0.0, w_radius=0.9, real=True),
    "radii/side_disk": audit("side", 5, 3, count=3000, n=60, lambda0=0.8,
                             delta=0.5, z_radius=0.01, w_radius=1.0),
    # the cubic's critical orbit escapes within the levin and x0 terms
    "series/cheb-levin": series(CHEB, which="levin", n_terms=80,
                                points=[[0.5, 0.0], [-0.3, 0.7], [0.0, -0.9]]),
    "series/cheb-x0": series(CHEB, which="x0", n_terms=120),
    "series/cheb-lyapunov": series(CHEB, which="lyapunov", c=[0.5, 0.0], horizon=300),
    "series/cubic-levin": series(ESCAPING_CUBIC, which="levin", n_terms=120,
                                 points=[[0.5, 0.0], [0.1, -0.6]]),
    "series/cubic-x0": series(ESCAPING_CUBIC, which="x0", n_terms=120),
    "series/cubic-lyapunov": series(ESCAPING_CUBIC, which="lyapunov", horizon=8),
    "series/general3-lyapunov": series(GENERAL3, which="lyapunov", c=[0.2, -0.1],
                                       horizon=200),
    "series/cheb-nondegeneracy": series(CHEB_GENERAL, which="nondegeneracy",
                                        n_terms=90),
    "series/quartic-nondegeneracy": series(QUARTIC, which="nondegeneracy",
                                           n_terms=40, horizon=400),
    # optional fields left out, so each run takes the library's default
    "default/exclusion": Run("exclusion", {"map": AIRPLANEISH, "params": {
        "alpha": 0.1, "m": 8, "l_grid": {"start": 12, "stop": 42, "step": 3},
        "samples": 4000}}, 21),
    "default/xl": Run("xl", {"map": CHEB, "params": {"z0": [0.001, 0.0], "l": 40}}),
    "default/levin": series(CHEB, which="levin", points=[[0.5, 0.0], [0.2, 0.1]]),
    "default/x0": series(CHEB, which="x0"),
    "default/lyapunov": series(CHEB, which="lyapunov"),
    "default/nondegeneracy": series(CHEB_GENERAL, which="nondegeneracy"),
    "default/nondegeneracy_basins": series(GENERAL3, which="nondegeneracy"),
    "default/return_real": audit("return", 3, count=3000, n=80, lambda0=0.8,
                                 delta0=0.05, real=True),
    "default/return_disk": audit("return", 3, count=3000, n=80, lambda0=0.8,
                                 delta0=0.3),
    "default/return_eta0": audit("return", 3, count=3000, n=80, lambda0=0.8,
                                 delta0=0.3, eta0=0.01, real=True),
    "default/side_disk": audit("side", 5, 3, count=3000, n=60, lambda0=0.8, delta=0.5),
    "default/side_real": audit("side", 5, 3, count=3000, n=60, lambda0=0.8, delta=0.5,
                               real=True),
    "default/render": Run("render", {"map": BASILICA, "params": {
        "plane": "fiber", "center": [0.0, 0.0], "extent": 1.6, "resolution": 32,
        "at": [0.0, 0.0]}}),
    "default/przytycki": audit("przytycki", None, epsilons=[0.05]),
}

BENCH = [
    ("pair_audits", "binding", 3), ("pair_audits", "binding", 5),
    ("escape_sweep", "tame", 3), ("escape_sweep", "onedim", 3),
    ("escape_sweep", "onedim", 5), ("pair_audits", "departure", 3),
    ("pair_audits", "departure", 5), ("escape_sweep", "slow", 3),
    ("bounded_sweep", "exclusion", 3), ("bounded_sweep", "exclusion", 5),
    ("disk_certify", "expand_onedim", None), ("disk_certify", "expand_skew", None),
]
BENCH_RUNS = {}  # "workload/name@reference key" -> (workload, Invocation, seed)
for _workload, _name, _seed in BENCH:
    _inv = next(i for i in workloads.WORKLOADS[_workload] if i.name == _name)
    BENCH_RUNS[f"{_workload}/{_name}@{_inv.reference_key(_seed)}"] = (
        _workload, _inv, _seed)


def orbit_csv_shape(out):
    blob = (out / "orbit.csv").read_bytes()
    return len(blob), blob.count(b"\n")


def lem25_violations(out):
    report = json.loads((out / "bounds_departure.json").read_text())
    return report["audits"]["lem25"]["violations"]


# key -> (a reader of the run's output directory, the value it must return)
FACTS = {
    "orbit/long": (orbit_csv_shape, (1081863, 20002)),
    "departure": (lem25_violations, 1),
    "pair_audits/departure@3": (lem25_violations, 8),
    "pair_audits/departure@5": (lem25_violations, 13),
}

CYCLES = {
    "chebyshev": chebyshev_map(), "basilica": basilica_map(),
    "nearfixed": nearfixed_map(), "siegel": siegel_map(),
    "c=1/4": build_map(0.5, 2, [[0.25, 1.0]]),
    # the airplane and the rabbit: superattracting 3-cycles
    "airplane": build_map(0.5, 2, [[-1.7548776662466927, 1.0]]),
    "rabbit": build_map(0.5 + 0.1j, 2,
                        [[-0.12256116687665361 + 0.74486176661974424j, 1.0]]),
    "cubic": build_map(0.5, 3, [[0.1, 1.0], [-0.7 + 0.2j], [0.05j]], mode="general"),
    "quartic": build_map(0.5, 4, [[1.0, 1.0], [0.3], [-2.6], [0.0]], mode="general"),
}


def group(prefix: str) -> list[str]:
    """The names of RUNS' keys `prefix/name`, in table order."""
    return [key.split("/", 1)[1] for key in RUNS if key.startswith(prefix + "/")]


def reference_entry(key: str) -> dict:
    """A BENCH run's record in perfbench/reference.json, {} if it has none."""
    workload, inv, seed = BENCH_RUNS[key]
    runs = REFERENCE["entries"].get(f"{workload}/{inv.name}", {})
    return runs.get(inv.reference_key(seed), {})


def recorded_by_seed(run: str, artifact: str | None = None) -> list[tuple]:
    """(seed, recorded digests) for each of BENCH's seeds of `workload/name`;
    with artifact, (seed, that artifact's digest)."""
    pairs = [(seed, reference_entry(key)["digests"])
             for key, (_, _, seed) in BENCH_RUNS.items() if key.startswith(f"{run}@")]
    return [(seed, digests[artifact] if artifact else digests) for seed, digests in pairs]


def _config(key: str) -> tuple[str, dict]:
    """The run's command and config, with its seed."""
    if key in BENCH_RUNS:
        _, inv, seed = BENCH_RUNS[key]
        return inv.command, {**inv.config, "seed": seed}
    command, config, seed, _ = RUNS[key]
    if isinstance(config, str):
        return command, json.loads((ROOT / "configs" / config).read_text())
    return command, config if seed is None else {**config, "seed": seed}


class Outcome(NamedTuple):
    exit: int
    digests: dict
    out: Path


_OUTCOMES: dict[str, Outcome] = {}


def outcome(tmp_path: Path, key: str) -> Outcome:
    """key's exit code, artifact digests and output directory; the run
    executes on the first call and the outcome is kept for the session."""
    if key not in _OUTCOMES:
        out, path = tmp_path / "out", tmp_path / "config.json"
        if key in BENCH_RUNS:
            _, inv, seed = BENCH_RUNS[key]
            path.write_text(json.dumps(inv.config, indent=2, sort_keys=True))
            argv = inv.argv(str(path), str(out), seed)
        else:
            run = RUNS[key]
            if isinstance(run.config, str):
                path = ROOT / "configs" / run.config
            else:
                path.write_text(json.dumps(_config(key)[1]))
            argv = [run.command, "--config", str(path), "--out", str(out)]
        code = main(argv)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())} if out.is_dir() else {}
        _OUTCOMES[key] = Outcome(code, digests, out)
    return _OUTCOMES[key]


def report(tmp_path: Path, key: str, name: str) -> dict:
    """The JSON artifact `name` of key's run."""
    return json.loads((outcome(tmp_path, key).out / name).read_text())


def host() -> dict:
    """This host's values of pins.json's `recorded` fields, but the commit."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"dispatch": " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]),
            "libc": os.confstr("CS_GNU_LIBC_VERSION"),
            "machine": platform.machine(), "numpy": np.__version__,
            "python": platform.python_version()}


def _line(block: dict) -> str:
    return ", ".join(f"{k} {v}" for k, v in sorted(block.items()))


def check(tmp_path: Path, key: str, pins: dict = PINS) -> None:
    """Assert key's run against its record; the message lists every change."""
    got = outcome(tmp_path, key)
    if key in BENCH_RUNS:
        code, digests = reference_entry(key)["exit"], reference_entry(key)["digests"]
    else:
        code, digests = RUNS[key].exit, pins["cli"][key]
    changes = [f"{key}/exit: {code} → {got.exit}"] if got.exit != code else []
    for name in sorted(digests.keys() | got.digests.keys()):
        old, new = (d.get(name, "absent") for d in (digests, got.digests))
        if old != new:
            changes.append(f"{key}/{name}: {old} → {new}")
    if key in FACTS:
        reader, value = FACTS[key]
        if reader(got.out) != value:
            changes.append(f"{key}/{reader.__name__}: {value} → {reader(got.out)}")
    assert not changes, "\n".join([*changes, f"recorded on: {_line(pins['recorded'])}",
                                   f"this host:   {_line(host())}"])


@pytest.mark.parametrize("key", [*RUNS, *BENCH_RUNS])
def test_pin(tmp_path, key):
    check(tmp_path, key)


def test_every_pin_has_one_run():
    assert sorted(PINS["cli"]) == sorted(RUNS)
    assert sorted(PINS["cycles"]) == sorted(CYCLES)
    assert set(FACTS) <= RUNS.keys() | BENCH_RUNS.keys()
    runs = set()
    for key in [*RUNS, *BENCH_RUNS]:
        command, config = _config(key)
        runs.add(json.dumps([command, config["map"], config["params"],
                             config.get("seed")], sort_keys=True))
    assert len(runs) == len(RUNS) + len(BENCH), "a run is pinned under two keys"
    unrecorded = [key for key in BENCH_RUNS if not reference_entry(key).get("digests")]
    assert not unrecorded, f"no digests in perfbench/reference.json: {unrecorded}"


def test_pins_file_is_canonical():
    text = PINS_FILE.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_mismatch_message_names_the_change_and_both_hosts(tmp_path):
    key, name = "default/przytycki", "bounds_przytycki.json"
    pins = copy.deepcopy(PINS)
    digest = pins["cli"][key][name]
    pins["cli"][key][name] = changed = digest[:-1] + ("1" if digest[-1] == "0" else "0")
    with pytest.raises(AssertionError) as failure:
        check(tmp_path, key, pins)
    message = str(failure.value)
    assert f"{key}/{name}: {changed} → {outcome(tmp_path, key).digests[name]}" in message
    assert f"recorded on: {_line(PINS['recorded'])}" in message
    assert f"this host:   {_line(host())}" in message
