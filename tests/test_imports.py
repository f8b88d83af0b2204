"""Every import in the package and in the tests is used.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the same file, or be
re-exported through __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/skewdyn/*.py"), *ROOT.glob("tests/*.py")])


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
