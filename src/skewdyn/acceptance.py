"""Acceptance checks: the toolkit's end-to-end desk-scale properties.

Each criterion is a zero-argument callable with fixed seeds and sample
sizes, returning a CriterionResult with the measured numbers in
`details`.  A criterion passes only if its substantive checks hold AND
it finishes inside its time budget.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .binding import audit_pair_batch, mu_constants, sample_bound_pairs
from .bounds import (
    audit_tame,
    critical_ball_grid,
    przytycki_return,
    sample_traces,
    trace_starts,
)
from .core import build_map, iterate
from .errors import PreconditionViolated
from .fatou import verify_radius_proposition
from .gallery import chebyshev_map, general_embedding, nearfixed_map, siegel_map
from .measure import (
    e_set_area,
    exclusion_area,
    exclusion_rate,
    fiber_base_derivative,
    slow_approach_stats,
)
from .series import levin_series, lyapunov_lower, nondegeneracy, x0_constant


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: dict = field(default_factory=dict)


def _finish(number, name, t0, budget, ok, details) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    details["within_budget"] = elapsed < budget
    return CriterionResult(number, name, ok and elapsed < budget,
                           elapsed, budget, details)


def criterion_1() -> CriterionResult:
    """Log-derivative additivity across every orbit split.

    The cocycle is `core.iterate`'s log_vder, the column `orbit` writes.
    Along each orbit, log|Df^m| - log|Df^s| must equal the one-step factors
    log|dF/dw| summed afresh from every split s, and the log_vder of an
    orbit restarted by `iterate` from the state at s.
    """
    t0 = time.perf_counter()
    map = build_map(0.5, 2, [[-1.0, 1.0]])
    n, count, tol = 200, 1000, 1e-9

    def draw(gen, m):
        z = mc.uniform_disk(gen, m, 0.9 * map.r0)
        w = mc.uniform_disk(gen, m, 0.9 * map.escape_radius)
        return np.stack([z, w], axis=1)

    pts = mc.draw_blocks(42, "cocycle", count, draw)
    traces = [iterate(map, x, n) for x in pts]

    # raw one-step factors and the cocycle, one column per orbit, NaN past
    # its end, so every split is summed afresh over all orbits at once
    steps = np.full((n, count), np.nan)
    L = np.full((n + 1, count), np.nan)
    for j, t in enumerate(traces):
        steps[:len(t) - 1, j] = np.log(np.abs(map.dfdw(t.zs[:-1], t.ws[:-1])))
        L[:len(t), j] = t.log_vder
    worst_split = 0.0
    for split in range(n):
        tail = np.nancumsum(steps[split:], axis=0)
        dev = np.abs((L[split + 1:] - L[split]) - tail)
        worst_split = max(worst_split, float(np.nanmax(dev, initial=0.0)))

    # independent restarts: iterate afresh from mid-orbit states
    worst_restart = 0.0
    for split in range(25, n, 25):
        for t in traces:
            if len(t) <= split + 1:
                continue
            restart = iterate(map, (t.zs[split], t.ws[split]), n - split)
            upto = min(len(t) - split, len(restart))
            dev = np.abs(restart.log_vder[1:upto]
                         - (t.log_vder[split + 1:split + upto] - t.log_vder[split]))
            worst_restart = max(worst_restart, float(dev.max(initial=0.0)))

    worst = max(worst_split, worst_restart)
    return _finish(1, "cocycle_additivity", t0, 10.0, worst <= tol, {
        "orbits": count, "horizon": n, "tolerance": tol,
        "worst_split_deviation": worst_split,
        "worst_restart_deviation": worst_restart,
    })


def criterion_2() -> CriterionResult:
    """Bound-pair ratio and expansion audits over a thousand pairs."""
    t0 = time.perf_counter()
    map = chebyshev_map(0.5)
    mu0 = mu_constants(map.degree)[0]
    pairs = sample_bound_pairs(map, 1000, seed=13, mu=mu0)
    rows = audit_pair_batch(map, pairs, mu0)
    max_dev, min_margin = 0.0, math.inf
    ratio_checked = expansion_checked = 0
    for row in rows:
        if not row["ratio_audit"].skipped:
            ratio_checked += 1
            max_dev = max(max_dev, row["ratio_audit"].max_deviation)
        if not row["expansion_audit"].skipped:
            expansion_checked += 1
            min_margin = min(min_margin, row["expansion_audit"].min_margin)
    ok = (ratio_checked > 0 and expansion_checked > 0
          and max_dev < 0.5 and min_margin >= -1e-9)
    return _finish(2, "binding_comparability", t0, 30.0, ok, {
        "pairs": len(rows), "mu": mu0,
        "ratio_audits": ratio_checked, "expansion_audits": expansion_checked,
        "max_ratio_deviation": max_dev, "min_expansion_margin": min_margin,
    })


def criterion_3() -> CriterionResult:
    """Tame-segment derivative floor: positive, stable fitted constants."""
    t0 = time.perf_counter()
    map = chebyshev_map(0.5)
    traces = sample_traces(map, 10_000, 200, seed=77)
    main_full, min_full = audit_tame(map, traces, 0.8)
    # orbits are independent: the first 5000 starts, iterated alone
    half = trace_starts(map, traces.z0s[:5000], traces.w0s[:5000], 200)
    main_half, min_half = audit_tame(map, half, 0.8)
    stable = all(
        full.fitted_constant > 0 and half.fitted_constant > 0
        and half.fitted_constant <= 2.0 * full.fitted_constant
        and full.fitted_constant <= 2.0 * half.fitted_constant
        for full, half in ((main_full, main_half), (min_full, min_half)))
    return _finish(3, "tame_floor_fit", t0, 120.0, stable, {
        "orbits": 10_000, "horizon": 200, "lambda0": 0.8,
        "constant_full": main_full.fitted_constant,
        "constant_half": main_half.fitted_constant,
        "minimal_step_constant_full": min_full.fitted_constant,
        "minimal_step_constant_half": min_half.fitted_constant,
        "samples_full": main_full.samples,
    })


def criterion_4() -> CriterionResult:
    """Minimal critical-ball return times grow with log(1/epsilon)."""
    t0 = time.perf_counter()
    map = chebyshev_map(0.5)
    epsilons = (1e-2, 1e-3, 1e-4, 1e-5)
    n_mins, logs = [], []
    for eps in epsilons:
        grid = critical_ball_grid(map, eps, per_axis=100)
        rep = przytycki_return(map, eps, grid, horizon=1000)
        n_mins.append(rep.n_min)
        logs.append(math.log(1.0 / eps))
    monotone = all(n_mins[i] <= n_mins[i + 1] for i in range(len(n_mins) - 1))
    slope = float(np.polyfit(logs, n_mins, 1)[0]) if None not in n_mins else 0.0
    ok = None not in n_mins and monotone and slope > 0
    return _finish(4, "return_floor", t0, 120.0, ok, {
        "epsilons": list(epsilons), "n_mins": n_mins,
        "nondecreasing": monotone, "fitted_slope": slope,
    })


def criterion_5() -> CriterionResult:
    """Slow-approach prevalence plus sublevel-set area decay."""
    t0 = time.perf_counter()
    slow = slow_approach_stats(nearfixed_map(0.5), 0.05, 50, 500, 10_000,
                               seed=11)
    reps = e_set_area(siegel_map(0.5), 0.01, 0.05, range(20, 201, 20),
                      100_000, seed=7)
    fit = reps[-1]
    gamma = fit.fitted_exponent
    r2 = fit.parameters["r_squared"]
    ok = (slow.estimate >= 0.99 and gamma is not None and gamma > 0
          and r2 is not None and r2 >= 0.9)
    return _finish(5, "slow_approach", t0, 180.0, ok, {
        "slow_fraction": slow.estimate, "slow_samples": slow.samples,
        "sublevel_exponent": gamma, "sublevel_r_squared": r2,
        "sublevel_nonzero_cells": fit.parameters["nonzero_cells"],
    })


def criterion_6() -> CriterionResult:
    """Exponential area decay of the first-failure sets."""
    t0 = time.perf_counter()
    map = build_map(0.65, 2, [[-1.749, 1.0]])
    rate = exclusion_rate(map, 0.1)
    reps = exclusion_area(map, 0.1, 8, range(12, 79, 3), 100_000, seed=21)
    fit = reps[-1]
    gamma = fit.fitted_exponent
    r2 = fit.parameters["r_squared"]
    ok = (rate < 1.0 and gamma is not None and gamma > 0
          and r2 is not None and r2 >= 0.8)
    return _finish(6, "exclusion_decay", t0, 300.0, ok, {
        "rate_hypothesis": rate, "decay_exponent": gamma, "r_squared": r2,
        "never_failing_fraction": fit.parameters["never_failing_fraction"],
        "nonzero_cells": fit.parameters["nonzero_cells"],
    })


def criterion_7() -> CriterionResult:
    """Deep base-derivative ratio against its leading-order target."""
    t0 = time.perf_counter()
    map = chebyshev_map(0.5)
    worst_rel, worst_fd = 0.0, 0.0
    all_within = True
    for z0 in np.geomspace(1e-4, 1e-2, 100):
        rep = fiber_base_derivative(map, float(z0), 40)
        all_within = all_within and rep.within_bound
        worst_rel = max(worst_rel, rep.deviation / rep.bound)
        worst_fd = max(worst_fd, rep.fd_rel_deviation)
    ok = all_within and worst_fd <= 1e-5
    return _finish(7, "base_derivative", t0, 30.0, ok, {
        "points": 100, "depth": 40,
        "worst_deviation_over_bound": worst_rel,
        "worst_fd_rel_deviation": worst_fd,
    })


def criterion_8() -> CriterionResult:
    """Certified inner radius of iterated disks, both variants."""
    t0 = time.perf_counter()
    map = chebyshev_map(0.5)
    two_dim = verify_radius_proposition(map, 0.5e-12, 0.3, 1e-3, 0.9, 100,
                                        fit_n=10)
    one_dim = verify_radius_proposition(map, 0.0, 0.3, 1e-3, 0.9, 100,
                                        fit_n=10)
    ok = (two_dim.all_verified and not two_dim.one_dimensional
          and one_dim.all_verified and one_dim.one_dimensional)
    return _finish(8, "disk_expansion", t0, 120.0, ok, {
        "two_dim_verified": two_dim.all_verified,
        "two_dim_constant": two_dim.fitted_constant,
        "one_dim_verified": one_dim.all_verified,
        "one_dim_constant": one_dim.fitted_constant,
        "steps": 100,
    })


def criterion_9() -> CriterionResult:
    """Closed-form values of the series diagnostics."""
    t0 = time.perf_counter()
    map = chebyshev_map(0.5)
    f_val = levin_series(map.f0(), [0.5]).value
    x0_val = x0_constant(map).value
    lyap = lyapunov_lower(map.f0(), map.c0_origin).value
    embedded = nondegeneracy(general_embedding(map))
    # c'(0) = 1 for c(z) = -2 + z, so the series must reproduce X0
    nd_err = max(abs(ev.value - x0_val * 1.0) for ev in embedded)
    exact = 6.0 / 7.0
    checks = {
        "disk_series_error": abs(f_val - exact),
        "x0_error": abs(x0_val - exact),
        "lyapunov_error": abs(lyap - math.log(4.0)),
        "embedded_nondegeneracy_error": nd_err,
    }
    ok = (checks["disk_series_error"] <= 1e-10
          and checks["x0_error"] <= 1e-10
          and checks["lyapunov_error"] <= 1e-12
          and checks["embedded_nondegeneracy_error"] <= 1e-10)
    return _finish(9, "series_closed_forms", t0, 5.0, ok, checks)


_DETERMINISM_RUNS = [
    ("binding", {
        "map": {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
                "fiber_coeffs": [[[-2.0, 0.0], [1.0, 0.0]]]},
        "params": {"count": 500}, "seed": 31}),
    ("audit-bounds", {
        "map": {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
                "fiber_coeffs": [[[-2.0, 0.0], [1.0, 0.0]]]},
        "params": {"suite": "tame", "count": 500, "n": 100, "lambda0": 0.8},
        "seed": 32}),
    ("slow", {
        "map": {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
                "fiber_coeffs": [[[0.2, 0.0], [1.0, 0.0]]]},
        "params": {"alpha": 0.05, "burn_in": 50, "horizon": 200,
                   "samples": 5000}, "seed": 33}),
    ("exclusion", {
        "map": {"lambda": [0.65, 0.0], "degree": 2, "mode": "unicritical",
                "fiber_coeffs": [[[-1.749, 0.0], [1.0, 0.0]]]},
        "params": {"alpha": 0.1, "m": 8,
                   "l_grid": {"start": 12, "stop": 42, "step": 3},
                   "samples": 20000}, "seed": 34}),
    ("render", {
        "map": {"lambda": [0.5, 0.0], "degree": 2, "mode": "unicritical",
                "fiber_coeffs": [[[-1.0, 0.0], [1.0, 0.0]]]},
        "params": {"plane": "fiber", "center": [0.0, 0.0], "extent": 1.6,
                   "resolution": 96, "at": [0.0, 0.0], "horizon": 200}}),
]


def _digest_tree(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# fresh `python -m skewdyn.cli` processes: one BLAS thread by the package's
# default, and two where the caller asks for them (np.polyfit in exclusion,
# np.roots in render are the BLAS users)
_CHILD_RUNS = {"child_openblas_unset": None, "child_openblas_2": "2"}


def _child_env(openblas_threads) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def criterion_10() -> CriterionResult:
    """Byte-identical artifacts across reruns and fresh processes.

    Each command runs twice in process, then once in each of two fresh CLI
    processes: one with OPENBLAS_NUM_THREADS unset, so the package's one
    BLAS thread, and one with it set to 2.
    """
    from .cli import main as cli_main

    t0 = time.perf_counter()
    runs = ["in_process_1", "in_process_2", *_CHILD_RUNS]
    mismatches = []
    commands = []
    with tempfile.TemporaryDirectory() as root:
        for command, cfg in _DETERMINISM_RUNS:
            cfg_path = os.path.join(root, f"{command}.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            digests = {}
            for tag in runs:
                outdir = os.path.join(root, f"{command}-{tag}")
                argv = [command, "--config", cfg_path, "--out", outdir]
                if tag in _CHILD_RUNS:
                    code = subprocess.run(
                        [sys.executable, "-m", "skewdyn.cli", *argv],
                        env=_child_env(_CHILD_RUNS[tag]),
                        capture_output=True).returncode
                else:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli_main(argv)
                if code != 0:
                    mismatches.append(f"{command} {tag}: exit {code}")
                    break
                digests[tag] = _digest_tree(outdir)
            else:
                first = digests[runs[0]]
                mismatches += [f"{command} {tag}: artifacts differ"
                               for tag, d in digests.items() if d != first]
            commands.append(command)
    return _finish(10, "determinism", t0, 120.0, not mismatches, {
        "commands": commands, "runs": runs, "mismatches": mismatches,
    })


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the requested criteria (default: all) in numeric order."""
    if numbers is None:
        numbers = sorted(_CRITERIA)
    else:
        bad = [n for n in numbers if n not in _CRITERIA]
        if bad:
            raise PreconditionViolated(f"unknown criteria: {bad}")
        numbers = sorted(set(numbers))
    return [_CRITERIA[n]() for n in numbers]
