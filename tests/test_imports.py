"""Every import in the package and in the tests is used, every private
module-level name of the package is read by the package, the command line
loads a layer only for the subcommand that runs it, the audit and measure
layers leave the binding layer unloaded, the sampling commands load
neither numpy.random nor hashlib (so no OpenSSL), the samplers and `xl`
leave series and fatou unloaded, and importing the package starts no
second thread.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the same file, or be
re-exported through __all__; a function, class or constant whose name has
one leading underscore must be read somewhere in src outside its own
definition, so no private helper survives for the tests alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHEB, NEARFIXED

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/skewdyn/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return sorted(imported - used)


def test_checker_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "def f():\n    from mpmath import mp, mpc\n    return np.pi * mp.pi\n")
    assert unused_imports(source) == ["dumps", "math", "mpc", "os"]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text())
             for p in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


def _reads(node: ast.AST) -> set[str]:
    """Names read under node: loaded names and attribute names."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each module-level private function, class or
    constant of the sources that no source reads outside its definition."""
    defined = []  # (module, name, defining statement)
    readers = {}  # name -> the top-level statements that read it
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            for name in _reads(stmt):
                readers.setdefault(name, []).append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                names = []
            defined += [(module, name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted(f"{module}:{name}" for module, name, stmt in defined
                  if all(r is stmt for r in readers.get(name, [])))


def test_private_checker_flags_unread():
    sources = {
        "a": ("_LIMIT = 3\n_unused = 1\n"
              "def _rec(n):\n    return _rec(n - 1)\n"
              "class _Box:\n    pass\n"
              "def _helper():\n    pass\n"
              "def public():\n    return _LIMIT\n"),
        "b": "from a import _Box\nimport a\nbox = _Box()\nhelp = a._helper\n",
    }
    assert unread_private_names(sources) == ["a:_rec", "a:_unused"]


def test_every_private_name_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_private_names(sources) == []


def _fresh_interpreter(code: str, **env_changes) -> str:
    """stdout of code in a new interpreter that finds the package; an
    env_changes value of None removes that variable."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, value in env_changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_no_subcommand_layer():
    # a fresh interpreter, so modules other tests imported do not count
    code = ("import json, sys\n"
            "import skewdyn.cli\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    loaded = set(json.loads(_fresh_interpreter(code)))
    assert "skewdyn.cli" in loaded
    lazy = {f"skewdyn.{m}" for m in ("binding", "bounds", "fatou", "measure",
                                     "series", "mc", "acceptance")}
    assert loaded & lazy == set()
    # deterministic commands such as expand and render need none of these;
    # hashlib maps OpenSSL's libcrypto (about 3.3 MiB of peak RSS), and
    # numpy.random adds 2-3 MiB more and loads libcrypto again via secrets
    assert loaded & {"mpmath", "hashlib", "numpy.random"} == set()


SAMPLING_RUNS = [
    ("slow", NEARFIXED, {"alpha": 0.05, "burn_in": 5, "horizon": 40, "samples": 300}),
    ("exclusion", NEARFIXED, {"alpha": 0.1, "m": 3, "samples": 300, "horizon": 60,
                              "l_grid": {"start": 2, "stop": 8, "step": 2}}),
    ("binding", CHEB, {"count": 40, "horizon": 60}),
    ("audit-bounds", CHEB, {"suite": "departure", "count": 40, "lambda0": 0.8}),
    *[("audit-bounds", CHEB, {"suite": "onedim", "count": 60, "n_max": 20,
                              "lambda0": 0.8, "delta": 0.5, "real": real})
      for real in (False, True)],
    *[("audit-bounds", CHEB, {"suite": "tame", "count": 60, "n": 20,
                              "lambda0": 0.8, "real": real})
      for real in (False, True)],
]


def test_sampling_commands_load_no_openssl_or_numpy_random(tmp_path):
    # the draws run on mc's own Philox stream and its tags are keyed by
    # _blake2, so no sampling run maps libcrypto or loads numpy.random
    runs = []
    for i, (command, map_cfg, params) in enumerate(SAMPLING_RUNS):
        config = tmp_path / f"run{i}.json"
        config.write_text(json.dumps({"command": command, "map": map_cfg,
                                      "params": params, "seed": 3}))
        runs.append([command, "--config", str(config), "--out", str(tmp_path / f"out{i}")])
    code = ("import json, sys\n"
            "from skewdyn.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(json.dumps([codes, sorted(sys.modules)]))\n")
    codes, loaded = json.loads(_fresh_interpreter(code).splitlines()[-1])
    assert all(c in (0, 3) for c in codes), codes
    assert {"skewdyn.mc", "skewdyn.binding", "skewdyn.bounds", "skewdyn.measure"} <= set(loaded)
    assert set(loaded) & {"numpy.random", "secrets", "hashlib", "_hashlib"} == set()


def test_samplers_and_xl_leave_series_and_fatou_unloaded(tmp_path):
    # measure needs series only in fiber_base_derivative (xl), and series
    # needs fatou only in nondegeneracy; each imports the other when it runs
    runs = [*(r for r in SAMPLING_RUNS if r[0] in ("slow", "exclusion")),
            ("xl", CHEB, {"z0": [0.001, 0.0], "l": 12})]
    loaded = []
    for i, (command, map_cfg, params) in enumerate(runs):
        config = tmp_path / f"run{i}.json"
        config.write_text(json.dumps({"command": command, "map": map_cfg,
                                      "params": params, "seed": 3}))
        argv = [command, "--config", str(config), "--out", str(tmp_path / f"out{i}")]
        code = ("import json, sys\n"
                "from skewdyn.cli import main\n"
                f"code = main({argv!r})\n"
                "print(json.dumps([code, sorted(sys.modules)]))\n")
        exit_code, modules = json.loads(_fresh_interpreter(code).splitlines()[-1])
        assert exit_code in (0, 3), (command, exit_code)
        loaded.append(set(modules))
    slow, exclusion, xl = loaded
    assert "skewdyn.measure" in slow & exclusion & xl
    assert (slow | exclusion) & {"skewdyn.series", "skewdyn.fatou"} == set()
    assert "skewdyn.series" in xl and "skewdyn.fatou" not in xl


@pytest.mark.parametrize("module", ["skewdyn.bounds", "skewdyn.measure"])
def test_layer_import_leaves_binding_unloaded(module):
    # binding is the largest module; of the bounds audits only the
    # departure audit binds pairs, and it imports binding when it runs
    code = ("import json, sys\n"
            f"import {module}\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    loaded = set(json.loads(_fresh_interpreter(code)))
    assert module in loaded
    assert "skewdyn.binding" not in loaded


TASKS = Path("/proc/self/task")


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task")
def test_package_import_leaves_one_thread():
    # the pytest process has imported skewdyn, so it has the variable set:
    # remove it to see the package's own default
    code = ("import os\n"
            "import skewdyn\n"
            "print(len(os.listdir('/proc/self/task')),"
            " os.environ['OPENBLAS_NUM_THREADS'])\n")
    assert _fresh_interpreter(code, OPENBLAS_NUM_THREADS=None).split() == ["1", "1"]


def test_package_import_keeps_the_callers_blas_threads():
    code = "import os\nimport skewdyn\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert _fresh_interpreter(code, OPENBLAS_NUM_THREADS="2").strip() == "2"
