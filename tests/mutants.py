"""Single-line mutants of the kernel arithmetic and the verdict code, each
run against the tier-1 suite on a scratch copy of the tree.

    python tests/mutants.py [--only TEXT ...] [SCRATCH_DIR]

The git-tracked files of this checkout (as they are in the working tree)
are copied into SCRATCH_DIR, a new temporary directory by default.  For each
mutant one line of one source file is replaced, `python -m pytest -q -x`
runs there with PYTHONPATH=src, and the file is restored.  The mutated
module's own test files run first (tests/test_pins.py, whose artifact pins
catch any mutant that moves an output, then tests/test_<stem>.py and
tests/test_<stem>_*.py, so binding.py also gets test_binding_kernel.py),
and the whole suite runs only if they pass.  A mutant is caught when
either run fails.  One line per mutant is printed, and the exit status is
1 if any mutant survives.  Run it on a tree whose suite passes.  pytest
does not collect this file: its name does not start with test_.  A mutant
its own tests catch takes seconds; a survivor takes a full run.

--only TEXT runs just the mutants whose source path or name contains TEXT
(say `--only fatou.py` after a change to that module); given several
times, a mutant matching any of them runs.  Without it every mutant runs.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, the line's text, its replacement); the text must occur once
MUTANTS = [
    ("split __rmul__ takes its operands in swapped order",
     "src/skewdyn/binding.py",
     "return _prod(*_parts(other), self.re, self.im)",
     "return _prod(self.re, self.im, *_parts(other))"),
    ("split int * x scales the parts, without the int's 0j",
     "src/skewdyn/binding.py",
     "return _prod(*_parts(other), self.re, self.im)",
     "return _Split(other * self.re, other * self.im) if isinstance(other, int) "
     "else _prod(*_parts(other), self.re, self.im)"),
    ("split ** n never raises OverflowError",
     "src/skewdyn/binding.py",
     "if np.isinf(r.re).any() or np.isinf(r.im).any():",
     "if False:"),
    ("FiberMap.walk yields the pre-step w",
     "src/skewdyn/fiber.py",
     "yield self.deriv(prev), w",
     "yield self.deriv(prev), prev"),
    ("FiberMap passes monic=None",
     "src/skewdyn/fiber.py",
     "return _poly_eval(self._polys[0], w, True, out)",
     "return _poly_eval(self._polys[0], w, None, out)"),
    ("the out form drops its np.multiply(z, 0)",
     "src/skewdyn/fiber.py",
     "        np.multiply(z, 0, out=out)",
     "        pass"),
    ("f0'' is built by applying _poly_deriv twice",
     "src/skewdyn/fiber.py",
     "return f, _poly_deriv(f), tuple(i * (i - 1) * f[i] for i in range(2, len(f)))",
     "return f, _poly_deriv(f), _poly_deriv(_poly_deriv(f))"),
    ("_newton returns the point after the step it tested",
     "src/skewdyn/fiber.py",
     "return w, True",
     "return w - g / gp, True"),
    ("the critical walk lets a non-finite f0' through",
     "src/skewdyn/series.py",
     "if not cmath.isfinite(der):",
     "if False:"),
    ("nondegeneracy sums a last term past double range",
     "src/skewdyn/series.py",
     "if not cmath.isfinite(w):  # the walk checks w only at the next step",
     "if False:"),
    ("the expansion audit never fails a pair",
     "src/skewdyn/binding.py",
     "failed=(n_lim > 0) & ~(least >= -EXPANSION_SLACK))",
     "failed=np.zeros(len(n_lim), dtype=bool))"),
    ("the winding check accepts image points within (r/2, r] of the center",
     "src/skewdyn/fatou.py",
     "distance_ok = dmin > radius",
     "distance_ok = dmin > 0.5 * radius"),
    ("a refined ladder curve is left without the previous level's points",
     "src/skewdyn/fatou.py",
     "curve[::2] = self.finest",
     "pass"),
    ("every render band ends one row early",
     "src/skewdyn/fatou.py",
     "yield lo, min(lo + rows, res)",
     "yield lo, min(lo + rows, res) - 1"),
    ("the base-plane domain check skips every band after the first",
     "src/skewdyn/fatou.py",
     "if np.any(~(np.abs(band(lo, hi)) < map.r0)):",
     "if lo == 0 and np.any(~(np.abs(band(lo, hi)) < map.r0)):"),
    ("the Philox key schedule's first Weyl constant has a bit flipped",
     "src/skewdyn/mc.py",
     "_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)",
     "_WEYL = (0x9E3779B97F4A7C14, 0xBB67AE8584CAA73B)"),
    ("the Philox counter is not incremented before its first block",
     "src/skewdyn/mc.py",
     "words = _philox(self._counter + 1, blocks, self._keys)",
     "words = _philox(self._counter, blocks, self._keys)"),
    ("the words a call leaves unused are dropped",
     "src/skewdyn/mc.py",
     "self._spare = words[n - len(spare):].copy()",
     "self._spare = words[:0].copy()"),
    ("slow's tail starts one step after the burn-in",
     "src/skewdyn/measure.py",
     "head = max(burn_in, 1) - 1  # steps before the first threshold test",
     "head = max(burn_in, 1)"),
    ("xl exits 0 outside its bound",
     "src/skewdyn/cli.py",
     "return 0 if rep.within_bound else 3",
     "return 0"),
    ("every JSON artifact ends in one more byte",
     "src/skewdyn/cli.py",
     'return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\\n"',
     'return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + " \\n"'),
    ("lem34's constant rule is fitted in the statement table",
     "src/skewdyn/bounds.py",
     '"lem34": Statement("1",',
     '"lem34": Statement("fitted",'),
    ("lem34 admits only returns strictly below every middle",
     "src/skewdyn/bounds.py",
     "& (r.lw_n <= r.log_delta) & (r.mids >= r.lw_n)),",
     "& (r.lw_n <= r.log_delta) & (r.mids > r.lw_n)),"),
    ("prop21ii's ratio is the plain exponential",
     "src/skewdyn/bounds.py",
     '"exp_clamp", lambda r: (r.lw_0 < r.log_delta)',
     '"exp", lambda r: (r.lw_0 < r.log_delta)'),
    ("thm12_min admits every tame pair",
     "src/skewdyn/bounds.py",
     '"exp", lambda r: r.near & (r.lw_n <= r.pm0)),',
     '"exp", lambda r: r.near),'),
    ("the accumulator's tie goes to the later (start, n)",
     "src/skewdyn/bounds.py",
     'and (start, n) < (self.loc["start"], self.loc["n"])):',
     'and (start, n) > (self.loc["start"], self.loc["n"])):'),
    ("the tag key is a 16-byte digest",
     "src/skewdyn/mc.py",
     'return int.from_bytes(blake2s(tag.encode("utf-8"), digest_size=8).digest(), "little")',
     'return int.from_bytes(blake2s(tag.encode("utf-8"), digest_size=16).digest(), "little")'),
]


def copy_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def own_tests(dest: Path, path: str) -> list[str]:
    """tests/test_pins.py, then the test files written for the module at
    path, in name order."""
    stem = Path(path).stem
    found = [*dest.glob(f"tests/test_{stem}.py"), *dest.glob(f"tests/test_{stem}_*.py")]
    return ["tests/test_pins.py", *sorted(str(p.relative_to(dest)) for p in found)]


def run_mutant(dest: Path, path: str, old: str, new: str) -> int:
    """The exit status of the module's own tests with old replaced by new
    in path, or of the whole suite if those pass."""
    target = dest / path
    original = target.read_text()
    if original.count(old) != 1:
        raise SystemExit(f"{path}: expected one {old!r}, found {original.count(old)}")
    target.write_text(original.replace(old, new))
    try:
        for selection in (own_tests(dest, path), []):  # [] runs the whole suite
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *selection],
                cwd=dest, env={**os.environ, "PYTHONPATH": "src"},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            if code:
                return code
        return 0
    finally:
        target.write_text(original)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scratch", nargs="?", help="directory to run in")
    parser.add_argument("--only", action="append", metavar="TEXT",
                        help="run the mutants whose path or name contains TEXT")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS
              if not args.only or any(t in m[0] or t in m[1] for t in args.only)]
    if not chosen:
        parser.error(f"no mutant matches {args.only}")
    dest = Path(args.scratch or tempfile.mkdtemp(prefix="mutants-"))
    dest.mkdir(parents=True, exist_ok=True)
    copy_tree(dest)
    survivors = 0
    for name, path, old, new in chosen:
        start = time.monotonic()
        code = run_mutant(dest, path, old, new)
        survivors += code == 0
        verdict = "SURVIVED" if code == 0 else f"caught (pytest exit {code})"
        print(f"{verdict:24s} {time.monotonic() - start:6.1f}s  {name}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
