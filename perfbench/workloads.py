"""The four benchmark workloads: which CLI invocations each runs, at which size.

Every invocation is one `python -m skewdyn.cli <command> --config FILE`
process.  Stochastic invocations also get `--seed`, the workload's input
seed; the others are deterministic and take no seed, so their artifacts do
not depend on it.  The driver's `--seed` picks one of `SEED_POOL` input
seeds, each of which has a recorded reference in `reference.json`.
"""

import cmath
import json
import math
import os

SEED_POOL = 16


def input_seed(seed: int) -> int:
    """The CLI seed used for a benchmark seed; the reference covers each."""
    return seed % SEED_POOL


def _unicritical(c: complex, lam: float = 0.5) -> dict:
    """f(z, w) = (lam z, w^2 + c + z)."""
    return {"lambda": [lam, 0.0], "degree": 2, "mode": "unicritical",
            "fiber_coeffs": [[[c.real, c.imag], [1.0, 0.0]]]}


CHEBYSHEV = _unicritical(-2.0)
BASILICA = _unicritical(-1.0)
NEARFIXED = _unicritical(0.2)
PARABOLIC = _unicritical(0.25)

# golden-mean Siegel fixed point p = sigma/2 with multiplier sigma, c = p - p^2
_SIGMA = cmath.exp(2j * math.pi * (math.sqrt(5.0) - 1.0) / 2.0)
_SIEGEL_P = _SIGMA / 2.0
SIEGEL = _unicritical(_SIEGEL_P - _SIEGEL_P**2)


class Invocation:
    """One CLI run: a name unique within its workload, a config, and
    whether the run is stochastic (takes the workload's input seed)."""

    def __init__(self, name: str, command: str, map_cfg: dict, params: dict,
                 seeded: bool):
        self.name = name
        self.command = command
        self.config = {"command": command, "map": map_cfg, "params": params}
        self.seeded = seeded

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        """Arguments after `python -m skewdyn.cli`."""
        args = [self.command, "--config", config_path, "--threads", "1",
                "--out", out_dir]
        if self.seeded:
            args += ["--seed", str(seed)]
        return args

    def reference_key(self, seed: int) -> str:
        """Reference entries are per input seed for stochastic runs only."""
        return str(seed) if self.seeded else "*"


WORKLOADS = {
    # masked-array kernels mostly stepping dead orbits
    "escape_sweep": [
        Invocation("slow", "slow", NEARFIXED,
                   {"alpha": 0.05, "burn_in": 50, "horizon": 500,
                    "samples": 100000}, seeded=True),
        Invocation("render_basilica", "render", BASILICA,
                   {"plane": "fiber", "center": [0.0, 0.0], "extent": 1.6,
                    "resolution": 256, "at": [0.0, 0.0], "horizon": 300},
                   seeded=False),
        Invocation("tame", "audit-bounds", CHEBYSHEV,
                   {"suite": "tame", "count": 5000, "n": 100,
                    "lambda0": 0.8}, seeded=True),
        Invocation("onedim", "audit-bounds", CHEBYSHEV,
                   {"suite": "onedim", "count": 20000, "n_max": 200,
                    "lambda0": 0.8, "delta": 1.0}, seeded=True),
        Invocation("przytycki", "audit-bounds", CHEBYSHEV,
                   {"suite": "przytycki", "epsilons": [0.1, 0.05, 0.02],
                    "per_axis": 100}, seeded=False),
    ],
    # the same kernels with every orbit live to the horizon
    "bounded_sweep": [
        Invocation("render_siegel", "render", SIEGEL,
                   {"plane": "fiber",
                    "center": [_SIEGEL_P.real, _SIEGEL_P.imag],
                    "extent": 0.1, "resolution": 128, "at": [0.0, 0.0],
                    "horizon": 1000}, seeded=False),
        Invocation("render_parabolic", "render", PARABOLIC,
                   {"plane": "fiber", "center": [0.0, 0.0], "extent": 0.3,
                    "resolution": 128, "at": [0.0, 0.0], "horizon": 1000},
                   seeded=False),
        Invocation("exclusion", "exclusion", _unicritical(-1.749, lam=0.65),
                   {"alpha": 0.1, "m": 8,
                    "l_grid": {"start": 12, "stop": 78, "step": 3},
                    "samples": 50000}, seeded=True),
    ],
    # scalar Python loops, mpmath and CSV writing
    "pair_audits": [
        Invocation("binding", "binding", CHEBYSHEV, {"count": 5000},
                   seeded=True),
        Invocation("departure", "audit-bounds", CHEBYSHEV,
                   {"suite": "departure", "count": 20000, "lambda0": 0.8},
                   seeded=True),
        Invocation("orbit", "orbit", CHEBYSHEV,
                   {"z0": [0.0, 0.0], "w0": [0.3, 0.0], "n": 100000},
                   seeded=False),
        # one depth each side of the double-overflow depth of the denominator
        Invocation("xl_1000", "xl", CHEBYSHEV,
                   {"z0": [0.001, 0.0], "l": 1000}, seeded=False),
        Invocation("xl_1100", "xl", CHEBYSHEV,
                   {"z0": [0.001, 0.0], "l": 1100}, seeded=False),
    ],
    # the winding verifier of the disk-expansion proposition
    "disk_certify": [
        Invocation("expand_onedim", "expand", CHEBYSHEV,
                   {"z0": [0.0, 0.0], "w0": [0.3, 0.0], "delta": 0.001,
                    "lambda0": 0.9, "fit_n": 4, "n_max": 60}, seeded=False),
        Invocation("expand_skew", "expand", CHEBYSHEV,
                   {"z0": [5e-13, 0.0], "w0": [0.3, 0.0], "delta": 0.001,
                    "lambda0": 0.9, "n_max": 100}, seeded=False),
    ],
}


def write_configs(workload: str, work_dir: str) -> dict[str, str]:
    """Write each invocation's config under work_dir; name -> path."""
    os.makedirs(work_dir, exist_ok=True)
    paths = {}
    for inv in WORKLOADS[workload]:
        path = os.path.join(work_dir, f"{inv.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=2, sort_keys=True)
        paths[inv.name] = path
    return paths
