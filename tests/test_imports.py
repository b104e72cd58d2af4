"""No dead imports in src/qisog: every name a module imports at module level
is used in that module, apart from the allowlisted ones below.  And one
element representation: src/ computes on integer rows over a denominator,
so no module defines or imports the tests' Fraction element type, and
qisog.quat holds the algebra alone."""

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


# the tests' Fraction element type (tests/test_quat.py)
ELEMENT_API = {"QuatElement", "split_den"}


def bound_names(path: Path) -> set[str]:
    """Every name the file binds, at any depth: classes, functions,
    assignments and imports (the imported name and its alias)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {a.name for a in node.names} | {a.asname for a in node.names if a.asname}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out


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


def test_no_element_type_in_src():
    found = {path.stem: bound_names(path) & ELEMENT_API for path in sorted(SRC.glob("*.py"))}
    assert {mod: names for mod, names in found.items() if names} == {}
    classes = [n.name for n in ast.walk(ast.parse((SRC / "quat.py").read_text()))
               if isinstance(n, ast.ClassDef)]
    assert classes == ["QuatAlgebra"]


def test_an_element_type_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .quat import QuatAlgebra, QuatElement as Q\n\n"
                    "def f():\n    split_den = 1\n    return split_den\n")
    assert bound_names(path) & ELEMENT_API == {"QuatElement", "split_den"}
