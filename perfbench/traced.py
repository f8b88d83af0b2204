"""One in-process pass over a workload's CLI invocations, traced or plain.

Run as a child of run.py with PYTHONPATH pointing at the package sources:

    python3 perfbench/traced.py --workload NAME --seed N --configs DIR \
        --out DIR --mode traced|plain --result FILE [--spans FILE] [--speedup]

Each invocation calls `skewdyn.cli.main(argv)` with the arguments the CLI
process would get.  In traced mode the public functions of every skewdyn
layer are wrapped in spans, at every module attribute that names them, so
calls through `from .x import f` are caught where the caller looks them up.
Spans (name, start, end, parent, invocation, shared run id) stay in memory
and are written when the pass ends.  The plain pass runs the same
invocations unwrapped; the wall-time gap between the two is the tracing
overhead.  With --speedup the plain pass afterwards times mc.draw_blocks
and mc.map_blocks at one thread and at os.cpu_count() threads.
"""

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("core", "fiber", "mc", "measure", "fatou", "binding", "bounds",
          "series", "cli")


class Tracer:
    """Span recorder plus exact work counters at the same boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, layer, start_ns, end_ns, parent, invocation]
        self.stack = []
        self.invocation = None
        self.counts = defaultdict(lambda: defaultdict(int))
        self.keys = defaultdict(set)

    def wrap(self, name: str, layer: str, fn, counter=None):
        sig = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0, 0, stack[-1] if stack else -1,
                    self.invocation]
            spans.append(span)
            stack.append(idx)
            result, exc = None, None
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
                if counter is not None:
                    call = None
                    if counter not in RESULT_ONLY:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        call = bound.arguments
                    counter(self, name, call, result, exc)

        return traced


# -- exact work counters -------------------------------------------------------


def _count_iterate(t, name, a, result, exc):
    if result is not None:
        t.counts[name]["steps"] += len(result) - 1


def _count_iterate_block(t, name, a, result, exc):
    c = t.counts[name]
    c["nominal"] += len(a["w0s"]) * a["n"]
    if result is not None:
        c["live"] += int((result.lengths - 1).sum())


def _count_draw_blocks(t, name, a, result, exc):
    t.counts[name]["draws"] += a["total"]


def _count_slow(t, name, a, result, exc):
    c = t.counts[name]
    c["orbit_steps"] += a["samples"] * a["horizon"]
    c["requested"] += a["samples"]
    if result is not None:
        c["retained"] += result.samples


def _count_exclusion(t, name, a, result, exc):
    t.counts[name]["orbit_steps"] += a["samples"] * a["horizon"]


def _count_render(t, name, a, result, exc):
    if result is None:
        return
    c = t.counts[name]
    horizon = a["horizon"]
    codes, esc = result.codes, result.escape_steps
    c["pixel_steps"] += codes.size * horizon
    # escaping pixels are live until their escape step; every other pixel
    # is counted live to the horizon (cycle-basin pixels stop earlier)
    c["live"] += int(esc[codes == 1].sum()) + int((codes != 1).sum()) * horizon


def _count_disk(t, name, a, result, exc):
    c = t.counts[name]
    t.keys[name].add((complex(a["z0"]), complex(a["w0"]), float(a["delta"]),
                      int(a["n"]), int(a["boundary_samples"])))
    c["distinct"] = len(t.keys[name])
    if exc is not None:
        if type(exc).__name__ == "SamplingCapExceeded":
            c["cap_raised"] += 1
        return
    c["returned"] += 1
    c["point_steps"] += result.samples * a["n"]
    c["distance_rejected"] += int(result.distance_margin <= 0.0)


def _count_binding_time(t, name, a, result, exc):
    if result is None:
        return
    c = t.counts[name]
    c["records"] += 1
    c["pair_steps"] += result.n_last
    c["overflow"] += int(bool(result.overflow))


def _count_sample_traces(t, name, a, result, exc):
    t.counts[name]["orbit_steps"] += a["count"] * a["n"]


def _count_audit_tame(t, name, a, result, exc):
    t.counts[name]["traces"] += len(a["traces"])


def _count_onedim(t, name, a, result, exc):
    t.counts[name]["orbit_steps"] += len(a["samples"]) * a["n_max"]


def _count_przytycki(t, name, a, result, exc):
    if result is not None:
        t.counts[name]["orbit_steps"] += result.admitted * a["horizon"]


def _count_departure(t, name, a, result, exc):
    t.counts[name]["starts"] += len(a["starts"])


def _count_serialized(t, name, a, result, exc):
    if isinstance(result, str):
        t.counts[name]["bytes"] += len(result.encode("utf-8"))
    elif isinstance(result, tuple):  # write_p5 returns the written paths
        t.counts[name]["bytes"] += sum(os.path.getsize(p) for p in result)


COUNTERS = {
    "core.iterate": _count_iterate,
    "core.iterate_block": _count_iterate_block,
    "mc.draw_blocks": _count_draw_blocks,
    "measure.slow_approach_stats": _count_slow,
    "measure.exclusion_area": _count_exclusion,
    "fatou.render_slice": _count_render,
    "fatou.disk_image_contains_ball": _count_disk,
    "binding.binding_time": _count_binding_time,
    "bounds.sample_traces": _count_sample_traces,
    "bounds.audit_tame": _count_audit_tame,
    "bounds.audit_onedim": _count_onedim,
    "bounds.przytycki_return": _count_przytycki,
    "bounds.audit_critical_value_departure": _count_departure,
}


# counters that read only the result skip binding the call's arguments
RESULT_ONLY = {_count_iterate, _count_binding_time, _count_serialized}


def _is_serializer(name: str) -> bool:
    """The artifact text producers: *_csv writers, write_p5, JSON text."""
    return name.endswith("_csv") or name in ("fatou.write_p5", "cli._json_text")


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layers, plus the JSON writer and
    the uncached cycle search."""
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"skewdyn.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                targets.append((f"{layer}.{attr}", layer, obj))
    cli = sys.modules["skewdyn.cli"]
    if hasattr(cli, "_json_text"):
        targets.append(("cli._json_text", "cli", cli._json_text))
    wrappers = {}
    for name, layer, fn in targets:
        counter = COUNTERS.get(name)
        if counter is None and _is_serializer(name):
            counter = _count_serialized
        wrappers[id(fn)] = (fn, tracer.wrap(name, layer, fn, counter))
    # rebind at every name a caller can look the function up by
    for modname, mod in list(sys.modules.items()):
        if modname != "skewdyn" and not modname.startswith("skewdyn."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    fiber_map = sys.modules["skewdyn.fiber"].FiberMap
    fiber_map.attracting_cycles = tracer.wrap(
        "fiber.FiberMap.attracting_cycles", "fiber",
        fiber_map.attracting_cycles)


# -- span arithmetic -----------------------------------------------------------


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_totals(spans):
    """Per name: calls, total and self ns; per layer: self and busy ns.

    Self time is a span's duration minus the part its children cover.  A
    layer is busy while at least one of its spans is open, so nested spans
    of the same layer count once.
    """
    children = defaultdict(list)
    for idx, sp in enumerate(spans):
        if sp[4] >= 0:
            children[sp[4]].append((sp[2], sp[3]))
    by_name = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    layer_self = defaultdict(int)
    layer_busy = defaultdict(int)
    for idx, (name, layer, start, end, parent, _) in enumerate(spans):
        dur = end - start
        own = dur - _covered(children.get(idx, ()))
        agg = by_name[name]
        agg["calls"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += own
        layer_self[layer] += own
        p = parent
        while p >= 0 and spans[p][1] != layer:
            p = spans[p][4]
        if p < 0:
            layer_busy[layer] += dur
    return by_name, layer_self, layer_busy


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_ns: int) -> dict:
    """Per-layer metric name -> [value, unit]; rates read 0 where the
    workload does no such work."""
    by_name, layer_self, layer_busy = span_totals(tracer.spans)
    c = tracer.counts

    def tot(name):
        return by_name[name]["total_ns"] if name in by_name else 0

    def calls(name):
        return by_name[name]["calls"] if name in by_name else 0

    def per_call(name, scale):
        return _ratio(tot(name) / scale, calls(name))

    def per_unit(name, counter, scale=1.0):
        return _ratio(tot(name) / scale, c[name][counter])

    def share(name, part, whole):
        return _ratio(c[name][part], c[name][whole])

    def self_s(name):
        return by_name[name]["self_ns"] / 1e9 if name in by_name else 0.0

    disk = "fatou.disk_image_contains_ball"
    slow = "measure.slow_approach_stats"
    ser = [n for n in by_name if _is_serializer(n)]
    m = {
        "core.map_from_config.ms": [per_call("core.map_from_config", 1e6), "ms"],
        "core.iterate.ns_per_step": [per_unit("core.iterate", "steps"), "ns"],
        "core.iterate_block.ns_per_orbit_step": [per_unit("core.iterate_block", "nominal"), "ns"],
        "core.iterate_block.live_ratio": [share("core.iterate_block", "live", "nominal"), "ratio"],
        "fiber.attracting_cycles.ms": [per_call("fiber.FiberMap.attracting_cycles", 1e6), "ms"],
        "mc.draw_blocks.ns_per_draw": [per_unit("mc.draw_blocks", "draws"), "ns"],
        f"{slow}.ns_per_orbit_step": [per_unit(slow, "orbit_steps"), "ns"],
        f"{slow}.retained_ratio": [share(slow, "retained", "requested"), "ratio"],
        "measure.exclusion_area.ns_per_orbit_step": [per_unit("measure.exclusion_area", "orbit_steps"), "ns"],
        "measure.fiber_base_derivative.ms_per_call": [per_call("measure.fiber_base_derivative", 1e6), "ms"],
        "fatou.render_slice.ns_per_pixel_step": [per_unit("fatou.render_slice", "pixel_steps"), "ns"],
        "fatou.render_slice.live_ratio": [share("fatou.render_slice", "live", "pixel_steps"), "ratio"],
        f"{disk}.calls": [calls(disk), "count"],
        f"{disk}.us_per_call": [per_call(disk, 1e3), "us"],
        f"{disk}.point_steps": [c[disk]["point_steps"], "count"],
        f"{disk}.distinct_key_ratio": [_ratio(c[disk]["distinct"], calls(disk)), "ratio"],
        f"{disk}.distance_rejected_ratio": [share(disk, "distance_rejected", "returned"), "ratio"],
        f"{disk}.cap_raised": [c[disk]["cap_raised"], "count"],
        "fatou.verify_radius_proposition.self_s": [self_s("fatou.verify_radius_proposition"), "s"],
        "binding.binding_time.us_per_pair_step": [per_unit("binding.binding_time", "pair_steps", 1e3), "us"],
        "binding.binding_time.overflow_ratio": [share("binding.binding_time", "overflow", "records"), "ratio"],
        "binding.audit_lemma_ratio.us_per_call": [per_call("binding.audit_lemma_ratio", 1e3), "us"],
        "binding.audit_lemma_expansion.us_per_call": [per_call("binding.audit_lemma_expansion", 1e3), "us"],
        "bounds.sample_traces.ns_per_orbit_step": [per_unit("bounds.sample_traces", "orbit_steps"), "ns"],
        "bounds.audit_tame.us_per_trace": [per_unit("bounds.audit_tame", "traces", 1e3), "us"],
        "bounds.audit_onedim.ns_per_orbit_step": [per_unit("bounds.audit_onedim", "orbit_steps"), "ns"],
        "bounds.przytycki_return.ns_per_orbit_step": [per_unit("bounds.przytycki_return", "orbit_steps"), "ns"],
        "bounds.audit_critical_value_departure.us_per_start": [
            per_unit("bounds.audit_critical_value_departure", "starts", 1e3), "us"],
        "series.x0_constant.ms": [per_call("series.x0_constant", 1e6), "ms"],
        "cli.serialize.ms": [sum(tot(n) for n in ser) / 1e6, "ms"],
        "cli.serialize.bytes": [sum(c[n]["bytes"] for n in ser), "B"],
        "cli.main.self_s": [self_s("cli.main"), "s"],
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = [layer_self.get(layer, 0) / 1e9, "s"]
        m[f"layer.{layer}.busy_s"] = [layer_busy.get(layer, 0) / 1e9, "s"]
    m["layer.setup.self_s"] = [(wall_ns - sum(layer_self.values())) / 1e9, "s"]
    m["trace.spans"] = [len(tracer.spans), "count"]
    return m


def exact_counts(tracer: Tracer) -> dict:
    """Counts that must repeat exactly between traced passes."""
    by_name, _, _ = span_totals(tracer.spans)
    out = {f"{n}.calls": agg["calls"] for n, agg in by_name.items()}
    for name, counters in tracer.counts.items():
        for k, v in counters.items():
            out[f"{name}.{k}"] = v
    return dict(sorted(out.items()))


# -- thread-count comparison ---------------------------------------------------


def threads_speedup(seed: int, repeats: int = 3) -> dict:
    """Time draw_blocks and map_blocks at 1 and cpu_count threads on the
    same inputs; results must not depend on the thread count."""
    import numpy as np
    from skewdyn import binding, mc
    from skewdyn.gallery import chebyshev_map

    many = max(1, os.cpu_count() or 1)
    fmap = chebyshev_map()
    mu = binding.mu_constants(fmap.degree)[0]

    def draw(gen, count):
        return np.stack([mc.uniform_disk(gen, count, 0.9 * fmap.r0),
                         mc.uniform_disk(gen, count, fmap.escape_radius)],
                        axis=1)

    pairs = binding.sample_bound_pairs(fmap, 1500, seed, mu)

    def work(pair):
        rec = binding.binding_time(fmap, pair[0], pair[1], mu)
        return (rec.binding_time, binding.audit_lemma_ratio(rec).min_margin,
                binding.audit_lemma_expansion(rec).min_margin)

    jobs = {
        "mc.draw_blocks": lambda t: mc.draw_blocks(seed, "perfbench", 1 << 18,
                                                   draw, threads=t),
        "mc.map_blocks": lambda t: mc.map_blocks(pairs, work, threads=t),
    }
    out = {"threads": many, "same_outputs": True}
    for name, job in jobs.items():
        times = {1: [], many: []}
        results = {}
        for _ in range(repeats):
            for t in (1, many):
                t0 = time.perf_counter()
                results[t] = job(t)
                times[t].append(time.perf_counter() - t0)
        same = (np.array_equal(results[1], results[many])
                if isinstance(results[1], np.ndarray)
                else repr(results[1]) == repr(results[many]))
        out["same_outputs"] = out["same_outputs"] and bool(same)
        out[name] = statistics.median(times[1]) / statistics.median(times[many])
    return out


# -- the pass ------------------------------------------------------------------


def _clear_caches():
    # each CLI run is a fresh process, so per-process caches start empty
    core = sys.modules["skewdyn.core"]
    cached = getattr(core, "_cached_cycles", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()


def run_pass(args) -> dict:
    t0 = time.perf_counter_ns()
    import skewdyn.cli  # noqa: F401  (timed: part of what every run pays)

    tracer = None
    if args.mode == "traced":
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}-{t0}")
        install(tracer)
    cli = sys.modules["skewdyn.cli"]
    invocations = []
    for inv in WORKLOADS[args.workload]:
        out_dir = os.path.join(args.out, inv.name)
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = inv.argv(os.path.join(args.configs, f"{inv.name}.json"),
                        out_dir, args.seed)
        _clear_caches()
        if tracer is not None:
            tracer.invocation = inv.name
        error = None
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught error is a failed invocation
                code, error = 1, traceback.format_exc()
        invocations.append({"name": inv.name, "exit": code, "error": error,
                            "wall_s": (time.perf_counter_ns() - start) / 1e9})
    wall_ns = time.perf_counter_ns() - t0
    result = {"mode": args.mode, "wall_s": wall_ns / 1e9,
              "invocations": invocations}
    if tracer is not None:
        result["metrics"] = layer_metrics(tracer, wall_ns)
        result["counts"] = exact_counts(tracer)
        result["run_id"] = tracer.run_id
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for idx, (name, layer, s, e, parent, inv) in enumerate(tracer.spans):
                    fh.write(json.dumps({"run": tracer.run_id, "id": idx,
                                         "name": name, "layer": layer,
                                         "start_ns": s - t0, "end_ns": e - t0,
                                         "parent": parent,
                                         "invocation": inv}) + "\n")
    if args.speedup:
        result["speedup"] = threads_speedup(args.seed)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--configs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("traced", "plain"), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--speedup", action="store_true")
    args = p.parse_args(argv)
    result = run_pass(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
