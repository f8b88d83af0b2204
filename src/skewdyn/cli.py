"""Command-line front end: JSON-configured runs with artifacts on disk.

A run is a (map, command, parameters, seed) bundle read from a strict
JSON config; --seed and --out override the file.  Parsing is strict
because a silently ignored parameter changes what is being tested.
Everything runs in one thread, BLAS included: unless the caller has set
OPENBLAS_NUM_THREADS, the package sets it to 1 for numpy's import and
removes it again afterwards.  --threads and the config field "threads"
are still parsed and validated (a positive integer) for compatibility,
then ignored.  For a fixed config and seed the written artifacts are
byte-identical across reruns.

Every subcommand, audit-bounds suite and series kind is declared once,
in the command table `_COMMANDS`: its fields, seed rule and handler.  A
handler passes only the fields the config gives to the library, so an
omitted field takes the library function's default.

Exit codes partition outcomes: 0 success, 2 configuration or
precondition error, 3 when an audited property fails.
"""

import argparse
import importlib
import json
import math
import os
import sys
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .core import (
    map_from_config,
    map_to_config,
    orbit_chunks,
    orbit_csv_chunks,
)
from .errors import ConfigInvalid, SkewdynError

# ---------------------------------------------------------------------------
# strict config parsing

def _as_int(name: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"{name} must be an integer, got {v!r}")
    return v


def _as_float(name: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {v!r}")
    # json.load parses NaN and Infinity, and an int can exceed float range
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigInvalid(f"{name} must be finite, got {v!r}")
    return x


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
    for field, kind in schema.items():
        if field in block:
            out[field] = _CASTERS[kind.rstrip("?")](field, block[field])
        elif not kind.endswith("?"):
            raise ConfigInvalid(f"missing {label} field: {field}")
    return out


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


def _write(outdir: str, name: str, chunks: Iterable[str]) -> str:
    """Write an artifact from an iterable of text chunks (a bare str would
    be written character by character)."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
    print(f"wrote {path}")
    return path


class _Run:
    """Resolved inputs for one command invocation."""

    def __init__(self, command, map, params, seed, outdir):
        self.command = command
        self.map = map
        self.params = params
        self.seed = seed
        self.outdir = outdir

    def header(self) -> dict:
        head = {"command": self.command, "params": self.params}
        if self.map is not None:
            head["map"] = map_to_config(self.map)
        if self.seed is not None:
            head["seed"] = self.seed
        return head

    def emit_json(self, name: str, body: dict) -> None:
        _write(self.outdir, name, [_json_text({**self.header(), **body})])

    def emit_csv(self, name: str, chunks: Iterable[str]) -> None:
        _write(self.outdir, name, chunks)


# ---------------------------------------------------------------------------
# command handlers: each takes the run and the given fields, keyed by the
# library's keyword names, and returns the exit code.  A field left out of
# the config is left out of the call, so the library's default applies.
# Each handler imports the layers it runs (binding, bounds, fatou, measure,
# series, mc) when it runs: a process that runs one subcommand compiles and
# loads only those.

def _pick(kw: dict, *names: str) -> dict:
    return {name: kw[name] for name in names if name in kw}


def _cmd_orbit(run: _Run, kw: dict) -> int:
    final = []

    def keep(chunk):
        final[:] = [chunk]  # the last chunk holds orbit.json's final row
        return chunk

    # each chunk is written as it leaves the stepping loop
    chunks = orbit_chunks(run.map, (kw["z0"], kw["w0"]), kw["n"])
    run.emit_csv("orbit.csv", orbit_csv_chunks(keep(c) for c in chunks))
    tail = final[0]
    last = tail.first + len(tail.ws) - 1
    run.emit_json("orbit.json", {
        "steps": last,
        "escape_step": tail.escape_step,
        "final": [tail.zs[-1].real, tail.zs[-1].imag,
                  tail.ws[-1].real, tail.ws[-1].imag],
        "final_log_vder": tail.log_vder[-1],
    })
    print(f"orbit: {last} steps, "
          + ("no escape" if tail.escape_step is None
             else f"escaped at n={tail.escape_step}"))
    return 0


def _fold_pairs(summary: dict, block):
    """Fold one binding PairBlock into the summary, which keeps no row, and
    return the block.  A block's least margin is the first of its least
    values, and it replaces the summary's only when strictly smaller, so
    ties (-0.0 against 0.0 too) go to the earliest pair."""
    summary["censored"] += int(block.censored.sum())
    for key, failed in (("ratio_failures", block.failed_lemma23),
                        ("expansion_failures", block.failed_lemma24)):
        summary[key] += (block.first_id + np.flatnonzero(failed)).tolist()
    for key, least in (("min_margin_lemma23", block.least_lemma23),
                       ("min_margin_lemma24", block.least_lemma24)):
        values = least[~np.isnan(least)]
        if len(values):
            low = float(values[np.argmin(values)])
            if summary[key] is None or low < summary[key]:
                summary[key] = low
    return block


def _cmd_binding(run: _Run, kw: dict) -> int:
    from .binding import (
        _draw_bound_pairs,
        audit_pair_blocks,
        binding_csv_chunks,
        check_mu_constants,
    )

    pairs = _draw_bound_pairs(run.map, kw["count"], run.seed, **_pick(kw, "mu"))
    audits = audit_pair_blocks(run.map, pairs, **_pick(kw, "mu", "horizon"))
    summary = {"censored": 0, "ratio_failures": [], "expansion_failures": [],
               "min_margin_lemma23": None, "min_margin_lemma24": None}
    # writing the CSV folds every block into the summary
    run.emit_csv("binding.csv", binding_csv_chunks(
        (_fold_pairs(summary, block) for block in audits), audits.mu))

    run.emit_json("binding.json", {
        "mu": audits.mu,
        "horizon": audits.horizon,
        "pairs": len(audits),
        **summary,
        "mu_constants": check_mu_constants(run.map.degree),
    })
    failed = len(summary["ratio_failures"]) + len(summary["expansion_failures"])
    print(f"binding: {len(audits)} pairs, {failed} audit failures")
    return 3 if failed else 0


def _emit_audits(run: _Run, audits: dict) -> int:
    suite = run.params["suite"]
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


def _suite_onedim(run: _Run, kw: dict) -> int:
    from .bounds import audit_onedim, sample_fiber_starts

    ws = sample_fiber_starts(run.map, seed=run.seed,
                             **_pick(kw, "count", "w_radius", "real"))
    return _emit_audits(run, audit_onedim(
        run.map.f0(), ws, **_pick(kw, "n_max", "lambda0", "delta")))


def _traces(run: _Run, kw: dict):
    # tame, return and side; delta0 and eta0 set `return`'s default region
    from .bounds import sample_traces

    return sample_traces(run.map, seed=run.seed, **_pick(
        kw, "count", "n", *_TRACE_RADII, "delta0", "eta0"))


def _suite_tame(run: _Run, kw: dict) -> int:
    from .bounds import audit_tame

    audits = audit_tame(run.map, _traces(run, kw), kw["lambda0"])
    return _emit_audits(run, {a.statement: a for a in audits})


def _suite_return(run: _Run, kw: dict) -> int:
    from .bounds import audit_return

    audit = audit_return(run.map, _traces(run, kw),
                         **_pick(kw, "lambda0", "delta0", "eta0"))
    return _emit_audits(run, {audit.statement: audit})


def _suite_side(run: _Run, kw: dict) -> int:
    from .bounds import audit_side_lemmas

    return _emit_audits(run, audit_side_lemmas(
        run.map, _traces(run, kw), **_pick(kw, "lambda0", "delta", "eta")))


def _suite_departure(run: _Run, kw: dict) -> int:
    from . import mc
    from .bounds import audit_critical_value_departure

    # the audit loads binding when it runs; loading it here, before the
    # starts are drawn, compiles the module on the smaller heap
    importlib.import_module(".binding", __package__)

    d = run.map.degree
    c0 = run.map.c0_origin

    def draw(gen, m: int) -> np.ndarray:
        # offsets whose d-th roots span three decades keep the implied
        # scale inside the audit's admissible window
        dw = 10.0 ** gen.uniform(-4.0, -2.0, m)
        dz = 10.0 ** gen.uniform(-4.0, -2.0, m)
        pw = np.exp(2j * np.pi * gen.random(m))
        pz = np.exp(2j * np.pi * gen.random(m))
        return np.column_stack([dz**d * pz, c0 + dw**d * pw])

    rows = mc.draw_blocks(run.seed, "bounds_departure", kw["count"], draw)
    audit = audit_critical_value_departure(
        run.map, rows, **_pick(kw, "lambda0", "mu", "horizon"))
    return _emit_audits(run, {audit.statement: audit})


def _suite_przytycki(run: _Run, kw: dict) -> int:
    from .bounds import critical_ball_grid, przytycki_return

    reports = []
    for eps in kw["epsilons"]:
        grid = critical_ball_grid(run.map, eps, **_pick(kw, "per_axis"))
        reports.append(przytycki_return(run.map, eps, grid, **_pick(kw, "horizon")))
    run.emit_json("bounds_przytycki.json", {
        "suite": "przytycki", "reports": [r.to_json() for r in reports]})
    for rep in reports:
        const = ("none" if rep.fitted_constant is None
                 else f"{rep.fitted_constant:.4g}")
        print(f"przytycki eps={rep.epsilon:g}: n_min={rep.n_min} "
              f"constant={const}")
    # a scale with no return within the horizon measured nothing
    return 3 if any(rep.n_min is None for rep in reports) else 0


def _cmd_slow(run: _Run, kw: dict) -> int:
    from .measure import reports_to_csv, slow_approach_stats

    rep = slow_approach_stats(run.map, seed=run.seed, **kw)
    run.emit_csv("slow.csv", [reports_to_csv([rep])])
    run.emit_json("slow.json", {"report": rep.to_json()})
    print(f"slow: fraction {rep.estimate:.6g} +- {rep.std_error:.2g} "
          f"over {rep.samples} retained starts")
    return 0


def _cmd_exclusion(run: _Run, kw: dict) -> int:
    from .measure import decay_cells_csv, exclusion_area, reports_to_csv

    reps = exclusion_area(run.map, seed=run.seed, **kw)
    run.emit_csv("exclusion.csv", [reports_to_csv(reps)])
    run.emit_csv("exclusion_decay.csv", [decay_cells_csv(reps)])
    run.emit_json("exclusion.json", {"reports": [r.to_json() for r in reps]})
    fit = reps[-1]
    gamma = fit.fitted_exponent
    print("exclusion: decay exponent "
          + ("not fitted" if gamma is None else f"{gamma:.4g}")
          + f", never-failing fraction {fit.parameters['never_failing_fraction']:.4g}")
    return 0


def _cmd_xl(run: _Run, kw: dict) -> int:
    from .measure import fiber_base_derivative

    rep = fiber_base_derivative(run.map, **kw)
    run.emit_json("xl.json", {"report": rep.to_json()})
    print(f"xl: l={rep.l} deviation {rep.deviation:.4g} vs bound "
          f"{rep.bound:.4g} ({'within' if rep.within_bound else 'OUTSIDE'}), "
          f"fd rel {rep.fd_rel_deviation:.2g}")
    return 0 if rep.within_bound else 3


def _cmd_render(run: _Run, kw: dict) -> int:
    from .fatou import SliceSpec, render_slice, write_p5

    spec = SliceSpec(**_pick(kw, "plane", "center", "extent", "resolution", "at"))
    raster = render_slice(run.map, spec, **_pick(kw, "horizon"))
    os.makedirs(run.outdir, exist_ok=True)
    pix_path, side_path = write_p5(raster, os.path.join(run.outdir, "slice.p5"))
    print(f"wrote {pix_path}")
    print(f"wrote {side_path}")
    counts = {label: int((raster.codes == i).sum())
              for i, label in enumerate(raster.labels)}
    print("render: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v))
    return 0


def _cmd_expand(run: _Run, kw: dict) -> int:
    from .fatou import verify_radius_proposition

    report = verify_radius_proposition(run.map, **kw)
    run.emit_json("expand.json", {"report": report.to_json()})
    verified = sum(1 for s in report.steps if s.verified)
    print(f"expand: {verified}/{len(report.steps)} steps verified, "
          f"C={report.fitted_constant:.6g}")
    return 0 if report.all_verified else 3


def _emit_series(run: _Run, evals: list) -> int:
    run.emit_json("series.json", {"which": run.params["which"],
                                  "evaluations": [e.to_json() for e in evals]})
    for ev in evals:
        val = complex(ev.value)
        shown = f"{val.real:.12g}" + (f"{val.imag:+.12g}i" if val.imag else "")
        print(f"series {ev.kind}: value {shown} "
              f"tail {ev.tail_estimate:.3g} verdict {ev.verdict}")
    return 0


def _series_levin(run: _Run, kw: dict) -> int:
    from .series import levin_series

    return _emit_series(run, [levin_series(run.map.f0(), **kw)])


def _series_x0(run: _Run, kw: dict) -> int:
    from .series import x0_constant

    return _emit_series(run, [x0_constant(run.map, **kw)])


def _series_lyapunov(run: _Run, kw: dict) -> int:
    from .series import lyapunov_lower

    return _emit_series(run, [lyapunov_lower(run.map.f0(), **kw)])


def _series_nondegeneracy(run: _Run, kw: dict) -> int:
    from .series import nondegeneracy

    return _emit_series(run, nondegeneracy(run.map, **kw))


def _cmd_selftest(run: _Run, kw: dict) -> int:
    from .acceptance import run_all

    results = run_all(**kw)
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


# ---------------------------------------------------------------------------
# the command table: every subcommand's contract, declared once


class _Spec(NamedTuple):
    """The params of one subcommand, or of one audit-bounds suite or series
    kind: field -> kind (a trailing "?" marks an optional field), the
    handler, whether a seed is required, and the library keyword of each
    field whose config name differs from it."""

    fields: dict
    handler: Callable
    seeded: bool = False
    keywords: dict = {}


class _Choice(NamedTuple):
    """Params whose field `key` picks one of several specs; the parsed
    params hold the pick under `key` and its own fields under `nest`."""

    key: str
    nest: str
    specs: dict


_TRACE_RADII = {"z_radius": "float?", "w_radius": "float?", "real": "bool?"}

_COMMANDS = {
    "orbit": (
        "iterate one start and write the trace CSV",
        _Spec({"z0": "complex", "w0": "complex", "n": "int"}, _cmd_orbit)),
    "binding": (
        "sample nearby pairs, bind them, audit derivative comparability",
        _Spec({"count": "int", "mu": "float?", "horizon": "int?"},
              _cmd_binding, seeded=True)),
    "audit-bounds": (
        "run one lower-bound audit suite over sampled orbits",
        _Choice("suite", "suite_params", {
            "onedim": _Spec({"count": "int", "n_max": "int", "lambda0": "float",
                             "delta": "float", "w_radius": "float?",
                             "real": "bool?"}, _suite_onedim, seeded=True),
            "tame": _Spec({"count": "int", "n": "int", "lambda0": "float",
                           **_TRACE_RADII}, _suite_tame, seeded=True),
            "return": _Spec({"count": "int", "n": "int", "lambda0": "float",
                             "delta0": "float", "eta0": "float?", **_TRACE_RADII},
                            _suite_return, seeded=True),
            "side": _Spec({"count": "int", "n": "int", "lambda0": "float",
                           "delta": "float", "eta": "float?", **_TRACE_RADII},
                          _suite_side, seeded=True),
            "departure": _Spec({"count": "int", "lambda0": "float",
                                "mu": "float?", "horizon": "int?"},
                               _suite_departure, seeded=True),
            "przytycki": _Spec({"epsilons": "floats", "per_axis": "int?",
                                "horizon": "int?"}, _suite_przytycki),
        })),
    "slow": (
        "Monte Carlo fraction of slowly approaching orbits",
        _Spec({"alpha": "float", "burn_in": "int", "horizon": "int",
               "samples": "int"}, _cmd_slow, seeded=True)),
    "exclusion": (
        "first-failure area fractions on a base annulus, with decay fit",
        _Spec({"alpha": "float", "m": "int", "l_grid": "grid", "samples": "int",
               "horizon": "int?"}, _cmd_exclusion, seeded=True,
              keywords={"l_grid": "l_values"})),
    "xl": (
        "base-direction fiber derivative against its leading-order target",
        _Spec({"z0": "complex", "l": "int", "x0_terms": "int?"}, _cmd_xl)),
    "render": (
        "classify a coordinate slice into a P5 pixmap",
        _Spec({"plane": "str", "center": "complex", "extent": "float",
               "resolution": "int", "at": "complex", "horizon": "int?"},
              _cmd_render)),
    "expand": (
        "verify the iterated-disk inner-radius lower bound by winding",
        _Spec({"z0": "complex", "w0": "complex", "delta": "float",
               "lambda0": "float", "n_max": "int", "rho": "float?",
               "fit_n": "int?", "link_max": "int?", "boundary_samples": "int?"},
              _cmd_expand)),
    "series": (
        "evaluate one of the critical-orbit series diagnostics",
        _Choice("which", "kind_params", {
            "levin": _Spec({"points": "points", "n_terms": "int?"},
                           _series_levin),
            "x0": _Spec({"n_terms": "int?"}, _series_x0),
            "lyapunov": _Spec({"c": "complex?", "horizon": "int?"},
                              _series_lyapunov),
            "nondegeneracy": _Spec({"n_terms": "int?", "horizon": "int?"},
                                   _series_nondegeneracy),
        })),
    "selftest": (
        "run the acceptance checks and report pass/fail per criterion",
        _Spec({"criteria": "ints?"}, _cmd_selftest,
              keywords={"criteria": "numbers"})),
}


def _parse_params(command: str, block) -> tuple[dict, _Spec, dict]:
    """The params as echoed into artifacts, the spec that runs them, and
    that spec's own fields."""
    schema = _COMMANDS[command][1]
    if isinstance(schema, _Spec):
        params = _parse_block(block, schema.fields, "params")
        return params, schema, params
    if not isinstance(block, dict):
        raise ConfigInvalid("params must be an object")
    if schema.key not in block:
        raise ConfigInvalid(f"missing params field: {schema.key}")
    name = _as_str(schema.key, block[schema.key])
    if name not in schema.specs:
        raise ConfigInvalid(f"unknown {schema.key} {name!r}; expected one of "
                            f"{sorted(schema.specs)}")
    spec = schema.specs[name]
    rest = {k: v for k, v in block.items() if k != schema.key}
    fields = _parse_block(rest, spec.fields, f"{name} params")
    return {schema.key: name, schema.nest: fields}, spec, fields


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or an int literal past 4300 digits
        raise ConfigInvalid(f"config {path} cannot be parsed as JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    allowed = {"map", "command", "params", "seed", "output_dir", "threads"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
    return cfg


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

    params, spec, fields = _parse_params(command, cfg.get("params", {}))

    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        seed = _as_int("seed", seed)
        if not 0 <= seed < 2**64:
            raise ConfigInvalid(f"seed must fit in 64 bits, got {seed}")
    if seed is None and spec.seeded:
        raise ConfigInvalid(
            f"{command} is stochastic and requires a seed "
            "(config field or --seed)")

    # validated for compatibility, then ignored: everything runs in one thread
    threads = args.threads if args.threads is not None else cfg.get("threads", 1)
    if _as_int("threads", threads) < 1:
        raise ConfigInvalid(f"threads must be positive, got {threads}")

    outdir = args.out if args.out is not None else cfg.get("output_dir", ".")
    if not isinstance(outdir, str):
        raise ConfigInvalid("output_dir must be a string")

    run = _Run(command, map, params, seed, outdir)
    return spec.handler(run, {spec.keywords.get(k, k): v for k, v in fields.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewdyn",
        description="Numerical experiments on contracting polynomial "
                    "skew products, driven by JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; overrides the config")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and validated for compatibility; "
                            "everything runs in one thread, BLAS included")
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
