"""No dead imports in src/qisog: every name a module imports at module level
is used in that module, apart from the allowlisted ones below."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qisog"

# (module, name): why the import stays although the module does not use it
ALLOWED = {
    ("bass", "frac_inverse"): "perfbench's tracer self-test resolves bass.frac_inverse",
    ("orient", "integer_kernel"): "perfbench's tracer self-test resolves orient.integer_kernel",
}


def unused_imports(path: Path) -> set[str]:
    """Names bound by the module-level imports of the file that no Name
    node of the file reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_every_import_is_used():
    dead = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
            for name in unused_imports(path)}
    assert dead == set(ALLOWED)


def test_a_dead_import_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import math\nimport os.path\nfrom dataclasses import dataclass, field\n"
                    "from fractions import Fraction as Frac\n\n"
                    "@dataclass\nclass A:\n    x: Frac\n\n\ndef f():\n    return os.path.sep\n")
    assert unused_imports(path) == {"math", "field"}
