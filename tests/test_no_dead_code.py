"""Every function in src/ runs on a CLI path, or is named below with the
reason it stays.  The grid run is slow, so deselected by default; run it with
`pytest -m slow`.  That every entry below names a function src/ defines is
checked in the default run: it only compiles src/.

The CLI runs are those of scripts/cli_digest.py's grid (every subcommand,
over every prime p <= 500), in a fresh interpreter under sys.setprofile,
which records every Python call.  The functions are the module-level
functions and the methods of module-level classes in src/qisog, read off
the compiled source; nested functions, lambdas and class bodies are not
counted.  A function the grid never calls fails the test unless ALLOWED
names it, and so does an ALLOWED entry that the grid does call: its reason
no longer holds.
"""

import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qisog

SRC = Path(qisog.__file__).resolve().parent
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"

TRACER = "spanned by perfbench/tracer.py, which resolves it by name"
ORACLE = "the tests' second path"
FEATURE = "no subcommand exposes it yet"

ALLOWED = {
    "brandt.ell_neighbors": f"{TRACER}; the tests' former class BFS",
    "brandt.brandt_matrix": f"{TRACER}; the Brandt counting cross-check, run by the sweeps",
    "brandt.type_involution": f"{FEATURE}; the type graph's involution, which reads j",
    "brandt.type_graph": f"{FEATURE}; the sweeps check it against the reduced curve graph",
    "ideals.ideals_of_norm_ell": f"{TRACER}; the tests' random walks",
    "ideals.inverse": f"{TRACER}; brandt_matrix's counting formula",
    "ideals.reduce_ideal": f"{TRACER}; {ORACLE}",
    "ideals.connecting_ideal": ORACLE,
    "ideals.content": "reduce_ideal's and connecting_ideal's primitive part",
    "ideals.primitive_part": "reduce_ideal's and connecting_ideal's primitive part",
    "ideals._coordinate_matrix": "content's coordinates",
    "lattice.frac_inverse": TRACER,
    "lattice.integer_kernel": f"{TRACER}; intersect, and the tests' kernel oracle",
    "lattice.QLattice.__mul__": f"{TRACER}; the trace-duality orders and the counting formula",
    "lattice.QLattice.left_order": f"{TRACER}; {ORACLE}",
    "lattice.QLattice.right_order": f"{TRACER}; {ORACLE}",
    "lattice.QLattice.intersect": f"{TRACER}; connecting_ideal's norm check",
    "lattice.QLattice.dual": "left_order's and right_order's trace duality",
    "lattice.QLattice.index_in": "connecting_ideal's norm check",
    "lattice.QLattice.covolume": "index_in's ratio",
    "lattice.QLattice.scale": "inverse's and primitive_part's scaling",
    "lattice.QLattice.conjugate": "inverse's conjugate",
    "multigraph.MultiGraph.multiplicity": "counted by perfbench/tracer.py; the tests' edge checks",
    "ideals.QOrder.__repr__": "__repr__",
}


def src_functions() -> set[str]:
    """module.qualname of every function and method defined in src/qisog."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and "<" not in const.co_qualname:
                        out.add(f"{path.stem}.{const.co_qualname}")
    return out


# Runs in a fresh interpreter, so no cache an earlier test filled (the
# j-lists, the modular polynomials) hides a call from the profile.
CHILD = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("cli_digest", sys.argv[1])
cli_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digest)
codes = set()

def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(record)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_digest.main()
finally:
    sys.setprofile(None)
json.dump({"exit": code, "calls": sorted({(c.co_filename, c.co_qualname) for c in codes})},
          sys.stdout)
"""


def grid_calls() -> set[str]:
    """module.qualname of every src/qisog function the digest grid calls."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(SCRIPT)], capture_output=True,
                          text=True, timeout=600, check=True)
    doc = json.loads(done.stdout)
    assert doc["exit"] == 0
    return {f"{Path(f).stem}.{q}" for f, q in doc["calls"] if Path(f).resolve().parent == SRC}


def test_allowed_names_defined_functions():
    assert set(ALLOWED) <= src_functions(), "ALLOWED names a function src/ no longer defines"


@pytest.mark.slow
def test_every_src_function_runs_on_a_cli_path_or_is_allowed():
    defined, called = src_functions(), grid_calls()
    assert sorted(defined - called - set(ALLOWED)) == [], "functions no CLI path calls"
    assert sorted(set(ALLOWED) & called) == [], "ALLOWED names functions the grid calls"
