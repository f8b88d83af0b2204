"""Correctness check of one CLI invocation against the recorded reference.

An invocation fails when
  - its exit code differs from the reference, or is neither 0 nor 3;
  - an artifact is missing;
  - a key output (estimates, retained counts, verdict counts, label counts,
    violations) differs from the reference;
  - a key output is NaN;
  - an audit reports violations > 0 but the run exits 0 (exit 3 means "a
    checked inequality is violated").
The reference records the failures the baseline itself has.  A failure the
reference does not list is a regression and makes the run incorrect.
Artifact digests that differ from the reference are counted, not failed.
"""

import hashlib
import json
import math
import os

REL_TOL = 1e-9

_ARTIFACTS = {
    "orbit": ["orbit.csv", "orbit.json"],
    "binding": ["binding.csv", "binding.json"],
    "slow": ["slow.csv", "slow.json"],
    "exclusion": ["exclusion.csv", "exclusion_decay.csv", "exclusion.json"],
    "xl": ["xl.json"],
    "render": ["slice.p5", "slice.p5.json"],
    "expand": ["expand.json"],
}


def artifact_names(inv) -> list[str]:
    if inv.command == "audit-bounds":
        return [f"bounds_{inv.config['params']['suite']}.json"]
    return _ARTIFACTS[inv.command]


def _load(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _p5_counts(path: str) -> dict:
    # pixel encoding: 0 undecided, 1..254 escaping, 255 any cycle basin
    with open(path, "rb") as fh:
        data = fh.read()
    header_end = 0
    for _ in range(3):  # "P5", "<w> <h>", "255" lines
        header_end = data.index(b"\n", header_end) + 1
    px = data[header_end:]
    undecided = px.count(0)
    basin = px.count(255)
    return {"pixels": len(px), "undecided": undecided, "basin": basin,
            "escaping": len(px) - undecided - basin}


def key_outputs(inv, out_dir: str) -> dict:
    """The values a speed-up must not change, flattened to name -> value."""
    cmd = inv.command
    keys = {}
    if cmd == "orbit":
        j = _load(out_dir, "orbit.json")
        keys = {"steps": j["steps"], "escape_step": j["escape_step"],
                "final_log_vder": j["final_log_vder"]}
        for i, v in enumerate(j["final"]):
            keys[f"final.{i}"] = v
    elif cmd == "binding":
        j = _load(out_dir, "binding.json")
        keys = {"pairs": j["pairs"], "censored": j["censored"],
                "violations.ratio": len(j["ratio_failures"]),
                "violations.expansion": len(j["expansion_failures"]),
                "min_margin_lemma23": j["min_margin_lemma23"],
                "min_margin_lemma24": j["min_margin_lemma24"]}
    elif cmd == "audit-bounds":
        j = _load(out_dir, artifact_names(inv)[0])
        if "reports" in j:
            for i, r in enumerate(j["reports"]):
                keys[f"{i}.samples"] = r["samples"]
                keys[f"{i}.fitted_constant"] = r["fitted_constant"]
                keys[f"{i}.n_min"] = (r["min_ratio_location"] or {}).get("n")
                keys[f"{i}.violations"] = r["violations"]
        else:
            keys["passed"] = j["passed"]
            for name, a in sorted(j["audits"].items()):
                keys[f"{name}.samples"] = a["samples"]
                keys[f"{name}.fitted_constant"] = a["fitted_constant"]
                keys[f"{name}.violations"] = a["violations"]
    elif cmd == "slow":
        r = _load(out_dir, "slow.json")["report"]
        keys = {"estimate": r["estimate"], "std_error": r["std_error"],
                "retained": r["samples"]}
    elif cmd == "exclusion":
        reports = _load(out_dir, "exclusion.json")["reports"]
        for r in reports[:-1]:
            keys[f"K_area.{r['parameters']['l']}"] = r["estimate"]
        fit = reports[-1]
        keys["fitted_exponent"] = fit["fitted_exponent"]
        keys["never_failing_fraction"] = fit["parameters"]["never_failing_fraction"]
    elif cmd == "xl":
        r = _load(out_dir, "xl.json")["report"]
        for k in ("deviation", "bound", "within_bound", "x_l_re", "x_l_im",
                  "ratio_re", "ratio_im", "fd_rel_deviation"):
            keys[k] = r[k]
    elif cmd == "render":
        keys = _p5_counts(os.path.join(out_dir, "slice.p5"))
        keys["labels"] = ",".join(_load(out_dir, "slice.p5.json")["labels"])
    elif cmd == "expand":
        r = _load(out_dir, "expand.json")["report"]
        keys = {"steps": len(r["steps"]),
                "verified": sum(1 for s in r["steps"] if s["verified"]),
                "fitted_constant": r["fitted_constant"],
                "all_verified": r["all_verified"]}
    else:
        raise ValueError(f"no key outputs defined for {cmd!r}")
    return keys


def digests(inv, out_dir: str) -> dict:
    out = {}
    for name in artifact_names(inv):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[name] = h.hexdigest()
    return out


def _same(a, b) -> bool:
    if type(a) is type(b) and a == b:  # also equal infinities
        return True
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return False


def observe(inv, out_dir: str, exit_code: int) -> dict:
    """Exit code, key outputs, digests and the reference-free failures."""
    failures = []
    if exit_code not in (0, 3):
        failures.append(f"exit {exit_code} is an error exit")
    missing = [n for n in artifact_names(inv)
               if not os.path.exists(os.path.join(out_dir, n))]
    failures += [f"missing {n}" for n in missing]
    keys = {}
    if not missing:
        try:
            keys = key_outputs(inv, out_dir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            failures.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    for k, v in sorted(keys.items()):
        if isinstance(v, float) and math.isnan(v):
            failures.append(f"nan {k}")
        if exit_code == 0 and v and (k.endswith(".violations")
                                     or k.startswith("violations.")):
            failures.append(f"{k}={v} but exit 0")
    return {"exit": exit_code, "keys": keys, "digests": digests(inv, out_dir),
            "failures": failures}


def compare(obs: dict, ref: dict) -> dict:
    """Judge an observation against its reference entry.

    Returns the failures (reference-free ones plus differences), the ones
    the reference does not list, and the count of changed digests.
    """
    failures = list(obs["failures"])
    if obs["exit"] != ref["exit"]:
        failures.append(f"exit {obs['exit']} != reference {ref['exit']}")
    if obs["keys"]:  # empty only when artifacts are missing or unreadable
        for k, v in sorted(ref["keys"].items()):
            if k not in obs["keys"]:
                failures.append(f"{k} absent")
            elif not _same(obs["keys"][k], v):
                failures.append(f"{k}={obs['keys'][k]!r} != reference {v!r}")
    known = set(ref["failures"])
    changed = sum(1 for n, d in ref["digests"].items()
                  if obs["digests"].get(n) != d)
    return {"failures": failures,
            "unexpected": [f for f in failures if f not in known],
            "digest_changed": changed}
