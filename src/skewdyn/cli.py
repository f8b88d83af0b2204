"""Command-line front end: JSON-configured runs with artifacts on disk.

A run is a (map, command, parameters, seed) bundle read from a strict
JSON config; --seed, --threads, and --out override the file.  Parsing is
strict because a silently ignored parameter changes what is being
tested.  For a fixed config and seed the written artifacts are
byte-identical across reruns and worker counts.

Exit codes partition outcomes: 0 success, 2 configuration or
precondition error, 3 when an audited property fails.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import mc
from .binding import (
    DEFAULT_HORIZON,
    audit_pair_batch,
    binding_rows_to_csv,
    check_mu_constants,
    mu_constants,
    sample_bound_pairs,
)
from .bounds import (
    audit_critical_value_departure,
    audit_onedim,
    audit_return,
    audit_side_lemmas,
    audit_tame,
    critical_ball_grid,
    przytycki_return,
    sample_traces,
)
from .core import (
    iterate,
    iterate_block,
    map_from_config,
    map_to_config,
    trace_to_csv,
)
from .errors import ConfigInvalid, SkewdynError
from .fatou import SliceSpec, render_slice, verify_radius_proposition, write_p5
from .measure import (
    decay_cells_csv,
    exclusion_area,
    fiber_base_derivative,
    reports_to_csv,
    slow_approach_stats,
)
from .series import levin_series, lyapunov_lower, nondegeneracy, x0_constant

_STOCHASTIC = {"binding", "slow", "exclusion"}  # audit-bounds decides per suite


# ---------------------------------------------------------------------------
# strict config parsing

def _as_int(name: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"{name} must be an integer, got {v!r}")
    return v


def _as_float(name: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {v!r}")
    return float(v)


def _as_complex(name: str, v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigInvalid(f"{name} must be a [re, im] pair, got {v!r}")
    return complex(_as_float(f"{name}[0]", v[0]), _as_float(f"{name}[1]", v[1]))


def _as_str(name: str, v) -> str:
    if not isinstance(v, str):
        raise ConfigInvalid(f"{name} must be a string, got {v!r}")
    return v


def _as_bool(name: str, v) -> bool:
    if not isinstance(v, bool):
        raise ConfigInvalid(f"{name} must be a boolean, got {v!r}")
    return v


def _as_int_list(name: str, v) -> list[int]:
    if not isinstance(v, list) or not v:
        raise ConfigInvalid(f"{name} must be a non-empty list of integers")
    return [_as_int(f"{name}[{i}]", x) for i, x in enumerate(v)]


def _as_float_list(name: str, v) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ConfigInvalid(f"{name} must be a non-empty list of numbers")
    return [_as_float(f"{name}[{i}]", x) for i, x in enumerate(v)]


def _as_points(name: str, v) -> list[complex]:
    if not isinstance(v, list) or not v:
        raise ConfigInvalid(f"{name} must be a non-empty list of [re, im] pairs")
    return [_as_complex(f"{name}[{i}]", p) for i, p in enumerate(v)]


def _as_grid(name: str, v) -> list[int]:
    # either an explicit list or an inclusive {start, stop, step} range
    if isinstance(v, list):
        return _as_int_list(name, v)
    if isinstance(v, dict):
        unknown = set(v) - {"start", "stop", "step"}
        if unknown:
            raise ConfigInvalid(f"unknown {name} fields: {sorted(unknown)}")
        missing = {"start", "stop", "step"} - set(v)
        if missing:
            raise ConfigInvalid(f"missing {name} fields: {sorted(missing)}")
        start = _as_int(f"{name}.start", v["start"])
        stop = _as_int(f"{name}.stop", v["stop"])
        step = _as_int(f"{name}.step", v["step"])
        if step <= 0 or stop < start:
            raise ConfigInvalid(f"{name} range must run forward")
        return list(range(start, stop + 1, step))
    raise ConfigInvalid(f"{name} must be a list or a start/stop/step object")


_CASTERS = {
    "int": _as_int,
    "float": _as_float,
    "complex": _as_complex,
    "str": _as_str,
    "bool": _as_bool,
    "ints": _as_int_list,
    "floats": _as_float_list,
    "points": _as_points,
    "grid": _as_grid,
}


def _parse_block(block: dict, schema: dict, label: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigInvalid(f"{label} must be an object")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigInvalid(f"unknown {label} fields: {sorted(unknown)}")
    out = {}
    for field, (required, kind) in schema.items():
        if field not in block:
            if required:
                raise ConfigInvalid(f"missing {label} field: {field}")
            continue
        out[field] = _CASTERS[kind](field, block[field])
    return out


_SCHEMAS = {
    "orbit": {
        "z0": (True, "complex"), "w0": (True, "complex"),
        "n": (True, "int"), "alpha": (False, "float"),
    },
    "binding": {
        "count": (True, "int"), "mu": (False, "float"), "horizon": (False, "int"),
    },
    "audit-bounds": None,  # suite-dependent, handled below
    "slow": {
        "alpha": (True, "float"), "burn_in": (True, "int"),
        "horizon": (True, "int"), "samples": (True, "int"),
    },
    "exclusion": {
        "alpha": (True, "float"), "m": (True, "int"), "l_grid": (True, "grid"),
        "samples": (True, "int"), "horizon": (False, "int"),
    },
    "xl": {
        "z0": (True, "complex"), "l": (True, "int"), "x0_terms": (False, "int"),
    },
    "render": {
        "plane": (True, "str"), "center": (True, "complex"),
        "extent": (True, "float"), "resolution": (True, "int"),
        "at": (True, "complex"), "horizon": (False, "int"),
    },
    "expand": {
        "z0": (True, "complex"), "w0": (True, "complex"), "delta": (True, "float"),
        "lambda0": (True, "float"), "n_max": (True, "int"), "rho": (False, "float"),
        "fit_n": (False, "int"), "link_max": (False, "int"),
        "boundary_samples": (False, "int"),
    },
    "series": None,  # depends on the evaluation kind
    "selftest": {"criteria": (False, "ints")},
}

_BOUNDS_SUITES = {
    "onedim": {
        "count": (True, "int"), "n_max": (True, "int"),
        "lambda0": (True, "float"), "delta": (True, "float"),
        "w_radius": (False, "float"), "real": (False, "bool"),
    },
    "tame": {
        "count": (True, "int"), "n": (True, "int"), "lambda0": (True, "float"),
        "z_radius": (False, "float"), "w_radius": (False, "float"),
        "real": (False, "bool"),
    },
    "return": {
        "count": (True, "int"), "n": (True, "int"), "lambda0": (True, "float"),
        "delta0": (True, "float"), "eta0": (False, "float"),
        "z_radius": (False, "float"), "w_radius": (False, "float"),
        "real": (False, "bool"),
    },
    "side": {
        "count": (True, "int"), "n": (True, "int"), "lambda0": (True, "float"),
        "delta": (True, "float"), "eta": (False, "float"),
        "z_radius": (False, "float"), "w_radius": (False, "float"),
        "real": (False, "bool"),
    },
    "departure": {
        "count": (True, "int"), "lambda0": (True, "float"),
        "mu": (False, "float"), "horizon": (False, "int"),
    },
    "przytycki": {
        "epsilons": (True, "floats"), "per_axis": (False, "int"),
        "horizon": (False, "int"),
    },
}

_SERIES_KINDS = {
    "levin": {"points": (True, "points"), "n_terms": (False, "int")},
    "x0": {"n_terms": (False, "int")},
    "lyapunov": {"c": (False, "complex"), "horizon": (False, "int")},
    "nondegeneracy": {"n_terms": (False, "int"), "horizon": (False, "int")},
}


# ---------------------------------------------------------------------------
# artifact writers

def _plain(obj):
    # deterministic JSON for the occasional numpy scalar or complex leak
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def _write(outdir: str, name: str, text: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")
    return path


class _Run:
    """Resolved inputs for one command invocation."""

    def __init__(self, command, map, params, seed, threads, outdir, fmt):
        self.command = command
        self.map = map
        self.params = params
        self.seed = seed
        self.threads = threads
        self.outdir = outdir
        self.fmt = fmt

    def header(self) -> dict:
        # threads deliberately excluded: artifacts must not depend on it
        head = {"command": self.command, "params": _echo(self.params)}
        if self.map is not None:
            head["map"] = map_to_config(self.map)
        if self.seed is not None:
            head["seed"] = self.seed
        return head

    def emit_json(self, name: str, body: dict) -> None:
        if self.fmt["json"]:
            _write(self.outdir, name, _json_text({**self.header(), **body}))

    def emit_csv(self, name: str, text: str) -> None:
        if self.fmt["csv"]:
            _write(self.outdir, name, text)


def _echo(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if isinstance(val, complex):
            out[key] = [val.real, val.imag]
        elif isinstance(val, list) and val and isinstance(val[0], complex):
            out[key] = [[p.real, p.imag] for p in val]
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# command handlers; each returns the exit code

def _cmd_orbit(run: _Run) -> int:
    p = run.params
    trace = iterate(run.map, (p["z0"], p["w0"]), p["n"], p.get("alpha"))
    run.emit_csv("orbit.csv", trace_to_csv(trace))
    last = len(trace) - 1
    run.emit_json("orbit.json", {
        "steps": last,
        "escape_step": trace.escape_step,
        "final": [trace.zs[last].real, trace.zs[last].imag,
                  trace.ws[last].real, trace.ws[last].imag],
        "final_log_vder": trace.log_vder[last],
    })
    print(f"orbit: {last} steps, "
          + ("no escape" if trace.escape_step is None
             else f"escaped at n={trace.escape_step}"))
    return 0


def _cmd_binding(run: _Run) -> int:
    p = run.params
    mu = p.get("mu", mu_constants(run.map.degree)[0])
    horizon = p.get("horizon", DEFAULT_HORIZON)
    pairs = sample_bound_pairs(run.map, p["count"], run.seed, mu,
                               threads=run.threads)
    rows = audit_pair_batch(run.map, pairs, mu, horizon, threads=run.threads)
    run.emit_csv("binding.csv", binding_rows_to_csv(rows))

    ratio_fail = [r["pair_id"] for r in rows
                  if not r["ratio_audit"].skipped and not r["ratio_audit"].passed]
    expansion_fail = [r["pair_id"] for r in rows
                      if not r["expansion_audit"].skipped
                      and not r["expansion_audit"].passed]

    def _margin(col: str):
        vals = [r[col] for r in rows if not math.isnan(r[col])]
        return min(vals) if vals else None

    run.emit_json("binding.json", {
        "mu": mu,
        "horizon": horizon,
        "pairs": len(rows),
        "censored": sum(1 for r in rows if r["censored"]),
        "ratio_failures": ratio_fail,
        "expansion_failures": expansion_fail,
        "min_margin_lemma23": _margin("min_margin_lemma23"),
        "min_margin_lemma24": _margin("min_margin_lemma24"),
        "mu_constants": check_mu_constants(run.map.degree),
    })
    failed = len(ratio_fail) + len(expansion_fail)
    print(f"binding: {len(rows)} pairs, {failed} audit failures")
    return 3 if failed else 0


def _bounds_onedim(run: _Run, p: dict):
    radius = p.get("w_radius", 0.9 * run.map.escape_radius)

    if p.get("real", False):
        def draw(gen: np.random.Generator, m: int) -> np.ndarray:
            return gen.uniform(-radius, radius, m).astype(complex)
    else:
        def draw(gen: np.random.Generator, m: int) -> np.ndarray:
            return mc.uniform_disk(gen, m, radius)

    ws = mc.draw_blocks(run.seed, "bounds_onedim", p["count"], draw, run.threads)
    return audit_onedim(run.map.f0(), ws, n_max=p["n_max"],
                        lambda0=p["lambda0"], delta=p["delta"])


def _bounds_departure(run: _Run, p: dict):
    d = run.map.degree
    c0 = run.map.c0_origin

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        # offsets whose d-th roots span three decades keep the implied
        # scale inside the audit's admissible window
        dw = 10.0 ** gen.uniform(-4.0, -2.0, m)
        dz = 10.0 ** gen.uniform(-4.0, -2.0, m)
        pw = np.exp(2j * np.pi * gen.random(m))
        pz = np.exp(2j * np.pi * gen.random(m))
        return np.column_stack([dz**d * pz, c0 + dw**d * pw])

    rows = mc.draw_blocks(run.seed, "bounds_departure", p["count"], draw,
                          run.threads)
    starts = [(row[0], row[1]) for row in rows]
    audit = audit_critical_value_departure(run.map, starts, p["lambda0"],
                                           mu=p.get("mu"),
                                           horizon=p.get("horizon", 1000))
    return {"lem25": audit}


def _suite_traces(run: _Run, p: dict) -> list:
    """Sampled orbit traces; real-interval draws can target hypothesis
    sets that carry no area (returns and on-line floors only happen
    along the non-escaping locus)."""
    z_radius = p.get("z_radius", 0.9 * run.map.r0)
    w_radius = p.get("w_radius", 0.9 * run.map.escape_radius)
    if not p.get("real", False):
        return sample_traces(run.map, p["count"], p["n"], run.seed,
                             z_radius=z_radius, w_radius=w_radius,
                             threads=run.threads)

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        z = gen.uniform(-z_radius, z_radius, m)
        w = gen.uniform(-w_radius, w_radius, m)
        return np.column_stack([z, w])

    rows = mc.draw_blocks(run.seed, "bounds_real_traces", p["count"], draw,
                          run.threads)
    block = iterate_block(run.map, rows[:, 0].astype(complex),
                          rows[:, 1].astype(complex), p["n"])
    return list(block.to_traces(run.map))


def _cmd_audit_bounds(run: _Run) -> int:
    suite = run.params["suite"]
    p = run.params["suite_params"]

    if suite == "przytycki":
        reports = []
        for eps in p["epsilons"]:
            grid = critical_ball_grid(run.map, eps, p.get("per_axis", 100))
            reports.append(przytycki_return(run.map, eps, grid,
                                            p.get("horizon", 1000)))
        run.emit_json(f"bounds_{suite}.json",
                      {"suite": suite, "reports": [r.to_json() for r in reports]})
        for rep in reports:
            const = ("none" if rep.fitted_constant is None
                     else f"{rep.fitted_constant:.4g}")
            print(f"przytycki eps={rep.epsilon:g}: n_min={rep.n_min} "
                  f"constant={const}")
        return 0

    if suite == "onedim":
        audits = _bounds_onedim(run, p)
    elif suite == "departure":
        audits = _bounds_departure(run, p)
    else:
        traces = _suite_traces(run, p)
        if suite == "tame":
            main, mins = audit_tame(run.map, traces, p["lambda0"])
            audits = {main.statement: main, mins.statement: mins}
        elif suite == "return":
            audit = audit_return(run.map, traces, p["lambda0"], p["delta0"],
                                 p.get("eta0"))
            audits = {audit.statement: audit}
        else:  # side
            audits = audit_side_lemmas(run.map, traces, p["lambda0"],
                                       p["delta"], p.get("eta"))

    run.emit_json(f"bounds_{suite}.json", {
        "suite": suite,
        "audits": {name: a.to_json() for name, a in audits.items()},
        "passed": all(a.passed for a in audits.values()),
    })
    for name, a in sorted(audits.items()):
        status = "ok" if a.passed else (
            "FAILED (no admissible samples)" if a.samples == 0 else "FAILED")
        print(f"{name}: {status} samples={a.samples} violations={a.violations} "
              f"constant={a.fitted_constant:.4g}")
    return 0 if all(a.passed for a in audits.values()) else 3


def _cmd_slow(run: _Run) -> int:
    p = run.params
    rep = slow_approach_stats(run.map, p["alpha"], p["burn_in"], p["horizon"],
                              p["samples"], run.seed, threads=run.threads)
    run.emit_csv("slow.csv", reports_to_csv([rep]))
    run.emit_json("slow.json", {"report": rep.to_json()})
    print(f"slow: fraction {rep.estimate:.6g} +- {rep.std_error:.2g} "
          f"over {rep.samples} retained starts")
    return 0


def _cmd_exclusion(run: _Run) -> int:
    p = run.params
    kwargs = {"threads": run.threads}
    if "horizon" in p:
        kwargs["horizon"] = p["horizon"]
    reps = exclusion_area(run.map, p["alpha"], p["m"], p["l_grid"],
                          p["samples"], run.seed, **kwargs)
    run.emit_csv("exclusion.csv", reports_to_csv(reps))
    run.emit_csv("exclusion_decay.csv", decay_cells_csv(reps))
    run.emit_json("exclusion.json", {"reports": [r.to_json() for r in reps]})
    fit = reps[-1]
    gamma = fit.fitted_exponent
    print("exclusion: decay exponent "
          + ("not fitted" if gamma is None else f"{gamma:.4g}")
          + f", never-failing fraction {fit.parameters['never_failing_fraction']:.4g}")
    return 0


def _cmd_xl(run: _Run) -> int:
    p = run.params
    kwargs = {"x0_terms": p["x0_terms"]} if "x0_terms" in p else {}
    rep = fiber_base_derivative(run.map, p["z0"], p["l"], **kwargs)
    run.emit_json("xl.json", {"report": rep.to_json()})
    print(f"xl: l={rep.l} deviation {rep.deviation:.4g} vs bound "
          f"{rep.bound:.4g} ({'within' if rep.within_bound else 'OUTSIDE'}), "
          f"fd rel {rep.fd_rel_deviation:.2g}")
    return 0 if rep.within_bound else 3


def _cmd_render(run: _Run) -> int:
    p = run.params
    spec = SliceSpec(plane=p["plane"], center=p["center"], extent=p["extent"],
                     resolution=p["resolution"], at=p["at"])
    raster = render_slice(run.map, spec, p.get("horizon", 1000))
    os.makedirs(run.outdir, exist_ok=True)
    pix_path, side_path = write_p5(raster, os.path.join(run.outdir, "slice.p5"))
    print(f"wrote {pix_path}")
    print(f"wrote {side_path}")
    counts = {label: int((raster.codes == i).sum())
              for i, label in enumerate(raster.labels)}
    print("render: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v))
    return 0


def _cmd_expand(run: _Run) -> int:
    p = run.params
    kwargs = {}
    for field in ("rho", "fit_n", "link_max", "boundary_samples"):
        if field in p:
            kwargs[field] = p[field]
    report = verify_radius_proposition(run.map, p["z0"], p["w0"], p["delta"],
                                       p["lambda0"], p["n_max"], **kwargs)
    run.emit_json("expand.json", {"report": report.to_json()})
    verified = sum(1 for s in report.steps if s.verified)
    print(f"expand: {verified}/{len(report.steps)} steps verified, "
          f"C={report.fitted_constant:.6g}")
    return 0 if report.all_verified else 3


def _cmd_series(run: _Run) -> int:
    which = run.params["which"]
    p = run.params["kind_params"]
    if which == "levin":
        evals = [levin_series(run.map.f0(), p["points"],
                              **({"n_terms": p["n_terms"]} if "n_terms" in p else {}))]
    elif which == "x0":
        evals = [x0_constant(run.map,
                             **({"n_terms": p["n_terms"]} if "n_terms" in p else {}))]
    elif which == "lyapunov":
        c = p.get("c", complex(run.map.c0_origin))
        kwargs = {"horizon": p["horizon"]} if "horizon" in p else {}
        evals = [lyapunov_lower(run.map.f0(), c, **kwargs)]
    else:  # nondegeneracy
        kwargs = {}
        if "n_terms" in p:
            kwargs["n_terms"] = p["n_terms"]
        if "horizon" in p:
            kwargs["horizon"] = p["horizon"]
        evals = nondegeneracy(run.map, **kwargs)
    run.emit_json("series.json",
                  {"which": which, "evaluations": [e.to_json() for e in evals]})
    for ev in evals:
        val = complex(ev.value)
        shown = f"{val.real:.12g}" + (f"{val.imag:+.12g}i" if val.imag else "")
        print(f"series {ev.kind}: value {shown} "
              f"tail {ev.tail_estimate:.3g} verdict {ev.verdict}")
    return 0


def _cmd_selftest(run: _Run) -> int:
    from .acceptance import run_all

    results = run_all(run.params.get("criteria"))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number:2d} {status}  {r.name}  ({r.elapsed:.1f}s)")
    run.emit_json("selftest.json", {"results": [
        {"number": r.number, "name": r.name, "passed": r.passed,
         "details": r.details} for r in results
    ]})
    failed = sum(1 for r in results if not r.passed)
    print(f"selftest: {len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 3


_HANDLERS = {
    "orbit": _cmd_orbit,
    "binding": _cmd_binding,
    "audit-bounds": _cmd_audit_bounds,
    "slow": _cmd_slow,
    "exclusion": _cmd_exclusion,
    "xl": _cmd_xl,
    "render": _cmd_render,
    "expand": _cmd_expand,
    "series": _cmd_series,
    "selftest": _cmd_selftest,
}

_HELP = {
    "orbit": "iterate one start and write the trace CSV",
    "binding": "sample nearby pairs, bind them, audit derivative comparability",
    "audit-bounds": "run one lower-bound audit suite over sampled orbits",
    "slow": "Monte Carlo fraction of slowly approaching orbits",
    "exclusion": "first-failure area fractions on a base annulus, with decay fit",
    "xl": "base-direction fiber derivative against its leading-order target",
    "render": "classify a coordinate slice into a P5 pixmap",
    "expand": "verify the iterated-disk inner-radius lower bound by winding",
    "series": "evaluate one of the critical-orbit series diagnostics",
    "selftest": "run the acceptance checks and report pass/fail per criterion",
}


def _parse_params(command: str, block: dict) -> dict:
    if command == "audit-bounds":
        if not isinstance(block, dict):
            raise ConfigInvalid("params must be an object")
        if "suite" not in block:
            raise ConfigInvalid("missing params field: suite")
        suite = _as_str("suite", block["suite"])
        if suite not in _BOUNDS_SUITES:
            raise ConfigInvalid(
                f"unknown suite {suite!r}; expected one of "
                f"{sorted(_BOUNDS_SUITES)}")
        rest = {k: v for k, v in block.items() if k != "suite"}
        return {"suite": suite,
                "suite_params": _parse_block(rest, _BOUNDS_SUITES[suite],
                                             f"{suite} params")}
    if command == "series":
        if not isinstance(block, dict):
            raise ConfigInvalid("params must be an object")
        if "which" not in block:
            raise ConfigInvalid("missing params field: which")
        which = _as_str("which", block["which"])
        if which not in _SERIES_KINDS:
            raise ConfigInvalid(
                f"unknown series kind {which!r}; expected one of "
                f"{sorted(_SERIES_KINDS)}")
        rest = {k: v for k, v in block.items() if k != "which"}
        return {"which": which,
                "kind_params": _parse_block(rest, _SERIES_KINDS[which],
                                            f"{which} params")}
    return _parse_block(block, _SCHEMAS[command], "params")


def _needs_seed(command: str, params: dict) -> bool:
    if command in _STOCHASTIC:
        return True
    if command == "audit-bounds":
        return params["suite"] != "przytycki"
    return False


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    allowed = {"map", "command", "params", "seed", "output_dir", "threads",
               "format"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    return cfg


def _resolve_format(cfg: dict) -> dict:
    fmt = {"csv": True, "json": True}
    if "format" in cfg:
        block = cfg["format"]
        if not isinstance(block, dict):
            raise ConfigInvalid("format must be an object")
        unknown = set(block) - set(fmt)
        if unknown:
            raise ConfigInvalid(f"unknown format fields: {sorted(unknown)}")
        for key, val in block.items():
            fmt[key] = _as_bool(f"format.{key}", val)
    return fmt


def _run(args) -> int:
    command = args.command
    if args.config is None:
        if command != "selftest":
            raise ConfigInvalid(f"{command} requires --config")
        cfg = {}
    else:
        cfg = _load_config(args.config)

    if "command" in cfg and cfg["command"] != command:
        raise ConfigInvalid(
            f"config is for {cfg['command']!r} but {command!r} was requested")

    map = None
    if command != "selftest":
        if "map" not in cfg:
            raise ConfigInvalid("missing config field: map")
        map = map_from_config(cfg["map"])
    elif "map" in cfg:
        raise ConfigInvalid("selftest takes no map")

    params = _parse_params(command, cfg.get("params", {}))

    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        seed = _as_int("seed", seed)
        if not 0 <= seed < 2**64:
            raise ConfigInvalid(f"seed must fit in 64 bits, got {seed}")
    if seed is None and _needs_seed(command, params):
        raise ConfigInvalid(
            f"{command} is stochastic and requires a seed "
            "(config field or --seed)")

    threads = args.threads if args.threads is not None else cfg.get("threads", 1)
    threads = _as_int("threads", threads)
    if threads < 1:
        raise ConfigInvalid(f"threads must be positive, got {threads}")

    outdir = args.out if args.out is not None else cfg.get("output_dir", ".")
    if not isinstance(outdir, str):
        raise ConfigInvalid("output_dir must be a string")

    run = _Run(command, map, params, seed, threads, outdir, _resolve_format(cfg))
    return _HANDLERS[command](run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewdyn",
        description="Numerical experiments on contracting polynomial "
                    "skew products, driven by JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; overrides the config")
        p.add_argument("--threads", type=int, default=None,
                       help="worker cap; never changes outputs")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="artifact directory; overrides the config")
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except SkewdynError as exc:
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
