"""skewdyn CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from `src/`
through PYTHONPATH, never installed.

--trace 0 runs the workload's CLI invocations as fresh child processes, one
at a time, repeating the whole list while another repetition is expected to
end within S seconds, and reads each child's wall time, CPU time and peak
RSS with os.wait4.  Every
invocation is checked against `reference.json`.  Set-up time is timed
separately by children that only import the CLI and build the maps.

--trace 1 alternates plain and traced in-process passes (traced.py) for S
seconds and reports per-layer metrics from the traced pass.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A run record with the machine, seeds, source version, per
invocation samples and every metric goes to `.perfbench_out/`.

    python3 perfbench/run.py --workload all --seed N --seconds S

runs every workload in both modes and prints every metric by name and unit.

    python3 perfbench/run.py --record-reference

re-records `reference.json` from the current sources.  Do that only when a
change is meant to alter outputs, and say so in the change.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import check  # noqa: E402
from workloads import SEED_POOL, WORKLOADS, input_seed, write_configs  # noqa: E402

REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORK_ROOT = ".perfbench_work"
OUT_ROOT = ".perfbench_out"
HARD_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "ok_fraction": "ratio"}

SETUP_CODE = (
    "import json, sys\n"
    "import skewdyn.cli\n"
    "from skewdyn.core import map_from_config\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path) as fh:\n"
    "        map_from_config(json.load(fh)['map'])\n"
)


class Child:
    """Runs child processes one at a time and reads their resource use."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ,
                    "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def run(self, argv: list[str], log_path: str) -> dict:
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def cli_argv(inv, configs: dict, out_dir: str, seed: int) -> list[str]:
    return [sys.executable, "-m", "skewdyn.cli",
            *inv.argv(configs[inv.name], out_dir, seed)]


def summary(values: list[float]) -> dict:
    """Median and the highest percentile with ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals) if vals else None}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = vals[n - 11]
    return out


def machine() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "platform": platform.platform()}


def source_version(root: str) -> dict:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


class Judge:
    """Checks invocations against the reference and tallies the outcome."""

    def __init__(self, reference: dict, workload: str, seed: int):
        self.reference = reference
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.failures = {}
        self.digest_changed = 0

    def judge(self, inv, out_dir: str, exit_code: int) -> None:
        obs = check.observe(inv, out_dir, exit_code)
        entry = self.reference[f"{self.workload}/{inv.name}"]
        verdict = check.compare(obs, entry[inv.reference_key(self.seed)])
        self.attempted += 1
        if verdict["failures"]:
            self.failed += 1
            self.failures.setdefault(inv.name, verdict["failures"])
        self.unexpected += [f"{inv.name}: {f}" for f in verdict["unexpected"]]
        self.digest_changed += verdict["digest_changed"]


def run_end_to_end(workload, seed, seconds, work, child, judge):
    configs = write_configs(workload, work)
    invs = WORKLOADS[workload]
    log = os.path.join(work, "child.log")
    setup_argv = [sys.executable, "-c", SETUP_CODE,
                  *(configs[inv.name] for inv in invs)]
    setup = []

    def time_setup():
        res = child.run(setup_argv, log)
        if res["exit"] != 0:
            raise RuntimeError(f"set-up child exited {res['exit']}")
        setup.append(res["wall_s"])

    start = time.monotonic()
    child.run(setup_argv, log)  # warm-up: bytecode caches, page cache
    reps = []
    per_inv = {inv.name: {"wall_s": [], "cpu_s": [], "rss_mb": []}
               for inv in invs}
    # start another repetition only while it is expected to end in time
    while not reps or (time.monotonic() - start + reps[-1]["elapsed"] <= seconds
                       and time.monotonic() < child.deadline):
        rep_start = time.monotonic()
        rep = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0}
        # set-up samples are spread over the run, twice per repetition
        time_setup()
        for i, inv in enumerate(invs):
            if i == len(invs) // 2:
                time_setup()
            out_dir = os.path.join(work, "out", inv.name)
            shutil.rmtree(out_dir, ignore_errors=True)
            res = child.run(cli_argv(inv, configs, out_dir, seed), log)
            judge.judge(inv, out_dir, res["exit"])
            rep["wall_s"] += res["wall_s"]
            rep["cpu_s"] += res["cpu_s"]
            rep["rss_mb"] = max(rep["rss_mb"], res["rss_mb"])
            for k in per_inv[inv.name]:
                per_inv[inv.name][k].append(res[k])
        rep["elapsed"] = time.monotonic() - rep_start
        reps.append(rep)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "ok_fraction": (judge.attempted - judge.failed) / judge.attempted,
    }
    samples = {
        "repetition": {k: summary([r[k] for r in reps])
                       for k in ("wall_s", "cpu_s", "rss_mb")},
        "setup_s": summary(setup),
        "invocations": {name: {k: summary(v) for k, v in d.items()}
                        for name, d in per_inv.items()},
    }
    return {k: [v, END_TO_END_UNITS[k]] for k, v in metrics.items()}, samples


def run_traced(root, workload, seed, seconds, work, child, judge, out_tag):
    write_configs(workload, work)
    script = os.path.join(BENCH_DIR, "traced.py")
    start = time.monotonic()
    plain, traced = [], []
    pair_s = 0.0
    while not traced or (time.monotonic() - start + pair_s <= seconds
                         and time.monotonic() < child.deadline):
        pair_start = time.monotonic()
        for mode in ("plain", "traced"):
            k = len(traced)
            result_path = os.path.join(work, f"{mode}-{k}.json")
            argv = [sys.executable, script, "--workload", workload,
                    "--seed", str(seed), "--configs", work,
                    "--out", os.path.join(work, "out"), "--mode", mode,
                    "--result", result_path]
            if mode == "plain" and k == 0:
                argv.append("--speedup")
            if mode == "traced":
                argv += ["--spans", os.path.join(
                    root, OUT_ROOT, f"{out_tag}-spans-{k}.jsonl")]
            res = child.run(argv, os.path.join(work, "child.log"))
            if res["exit"] != 0:
                with open(os.path.join(work, "child.log"), encoding="utf-8",
                          errors="replace") as fh:
                    sys.stderr.write(fh.read())
                raise RuntimeError(f"{mode} pass exited {res['exit']}")
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            changed_before = judge.digest_changed
            for inv, rec in zip(WORKLOADS[workload], result["invocations"]):
                if rec["error"]:
                    sys.stderr.write(rec["error"])
                judge.judge(inv, os.path.join(work, "out", inv.name),
                            rec["exit"])
            result["digest_changed"] = judge.digest_changed - changed_before
            (plain if mode == "plain" else traced).append(result)
        pair_s = time.monotonic() - pair_start
    counts = traced[0]["counts"]
    for other in traced[1:]:
        if other["counts"] != counts:
            judge.unexpected.append("traced passes disagree on exact counts")
    speed = plain[0]["speedup"]
    if not speed["same_outputs"]:
        judge.unexpected.append("thread count changed mc outputs")
    # every timing comes from one traced pass, so self times add up to its wall
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    untraced = statistics.median(r["wall_s"] for r in plain)
    metrics = dict(chosen["metrics"])
    metrics["mc.draw_blocks.threads_speedup"] = [speed["mc.draw_blocks"], "ratio"]
    metrics["mc.map_blocks.threads_speedup"] = [speed["mc.map_blocks"], "ratio"]
    metrics["cli.digest_changed"] = [chosen["digest_changed"], "count"]
    # each traced pass runs right after a plain one, so the pairwise gap
    # is less exposed to drifts in machine speed than a gap of medians
    overhead = statistics.median(t["wall_s"] - p["wall_s"]
                                 for p, t in zip(plain, traced))
    metrics["trace.wall_s"] = [chosen["wall_s"], "s"]
    metrics["trace.untraced_wall_s"] = [untraced, "s"]
    metrics["trace.overhead_s"] = [overhead, "s"]
    metrics["trace.overhead_ratio"] = [overhead / untraced, "ratio"]
    samples = {"traced_wall_s": summary([r["wall_s"] for r in traced]),
               "plain_wall_s": summary([r["wall_s"] for r in plain]),
               "speedup_threads": speed["threads"],
               "run_ids": [r["run_id"] for r in traced],
               "exact_counts": counts}
    return dict(sorted(metrics.items())), samples


def run_workload(root, workload, seed, seconds, trace, reference):
    deadline = time.monotonic() + HARD_LIMIT_S
    child = Child(root, deadline)
    cli_seed = input_seed(seed)
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(root, WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(root, OUT_ROOT), exist_ok=True)
    judge = Judge(reference, workload, cli_seed)
    try:
        if trace:
            metrics, samples = run_traced(root, workload, cli_seed, seconds,
                                          work, child, judge, tag)
        else:
            metrics, samples = run_end_to_end(workload, cli_seed, seconds,
                                              work, child, judge)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only if another run uses it
            os.rmdir(os.path.join(root, WORK_ROOT))
    record = {
        "workload": workload, "seed": seed, "input_seed": cli_seed,
        "trace": trace, "seconds": seconds, "machine": machine(),
        "source": source_version(root),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "attempted": judge.attempted, "failed": judge.failed,
        "failures": judge.failures, "unexpected_failures": judge.unexpected,
        "digest_changed": judge.digest_changed,
    }
    with open(os.path.join(root, OUT_ROOT, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric, sample counts, failures."""
    w = record["workload"]
    print(f"# {w} seed={record['seed']} (input seed {record['input_seed']}) "
          f"trace={record['trace']}")
    for name, m in record["metrics"].items():
        print(f"{w}  {name} = {m['value']!r} {m['unit']}")
    s = record["samples"]

    def show(label, summ):
        extra = "".join(f", {k} {v:.4f}" for k, v in summ.items()
                        if k.startswith("p"))
        print(f"{w}  {label}: median {summ['median']:.4f} s over {summ['n']} "
              f"samples{extra or ' (too few for a percentile with 10 beyond it)'}")

    if "repetition" in s:
        show("repetition wall", s["repetition"]["wall_s"])
        show("set-up child", s["setup_s"])
        for name, d in s["invocations"].items():
            show(f"invocation {name}", d["wall_s"])
    else:
        show("traced pass", s["traced_wall_s"])
        show("plain pass", s["plain_wall_s"])
    print(f"{w}  failed {record['failed']}/{record['attempted']} invocations; "
          f"artifact digests changed: {record['digest_changed']}")
    for name, reasons in record["failures"].items():
        print(f"{w}  failing {name}: {'; '.join(reasons)}")
    for reason in record["unexpected_failures"]:
        print(f"{w}  NOT IN REFERENCE: {reason}")


def record_reference(root: str) -> int:
    """Run every invocation once per input seed and store what it gives."""
    child = Child(root, time.monotonic() + 24 * 3600)
    work = os.path.join(root, WORK_ROOT, f"reference-{os.getpid()}")
    entries = {}
    try:
        for workload, invs in WORKLOADS.items():
            configs = write_configs(workload, os.path.join(work, workload))
            for inv in invs:
                seeds = range(SEED_POOL) if inv.seeded else [0]
                entry = {}
                for s in seeds:
                    out_dir = os.path.join(work, "out", workload, inv.name)
                    shutil.rmtree(out_dir, ignore_errors=True)
                    res = child.run(cli_argv(inv, configs, out_dir, s),
                                    os.path.join(work, "child.log"))
                    entry[inv.reference_key(s)] = check.observe(
                        inv, out_dir, res["exit"])
                    print(f"{workload}/{inv.name} seed {s}: exit {res['exit']} "
                          f"{entry[inv.reference_key(s)]['failures']}",
                          flush=True)
                entries[f"{workload}/{inv.name}"] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"machine": machine(), "source": source_version(root),
           "seed_pool": SEED_POOL, "entries": entries}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="skewdyn CLI benchmark")
    p.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skewdyn", "cli.py")):
        print("error: run from a skewdyn checkout (src/skewdyn/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(root)
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["entries"]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    records = []
    for workload, trace in runs:
        records.append(run_workload(root, workload, args.seed, args.seconds,
                                    trace, reference))
        report(records[-1])
    single = len(records) == 1
    metrics = {(k if single else f"{r['workload']}.{k}"): m
               for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": not any(r["unexpected_failures"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
