"""In-memory span tracer wrapped around public qisog functions.

The tracer lives entirely in the benchmark: it replaces each traced function
with a wrapper at its definition and at every alias binding in the loaded
``qisog`` modules (``from .lattice import hnf_rows`` makes ``ideals.hnf_rows``
a second name for the same function), and restores the originals on
``uninstall``.  Spans are kept in memory as (name, start, end, parent, query)
and written out only when the run ends.  A span's self time is its duration
minus the time its direct children cover; calls are single-threaded and
properly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path): a span per call.
SPANNED = [
    ("lattice.hnf_rows", "qisog.lattice", "hnf_rows"),
    ("lattice.integer_kernel", "qisog.lattice", "integer_kernel"),
    ("lattice.frac_inverse", "qisog.lattice", "frac_inverse"),
    ("lattice.min_norm_elements", "qisog.lattice", "QLattice.min_norm_elements"),
    ("lattice.mul", "qisog.lattice", "QLattice.__mul__"),
    ("lattice.right_order", "qisog.lattice", "QLattice.right_order"),
    ("lattice.left_order", "qisog.lattice", "QLattice.left_order"),
    ("lattice.intersect", "qisog.lattice", "QLattice.intersect"),
    ("lattice.is_ring", "qisog.lattice", "QLattice.is_ring"),
    ("ideals.is_equivalent", "qisog.ideals", "is_equivalent"),
    ("ideals.reduce_ideal", "qisog.ideals", "reduce_ideal"),
    ("ideals.inverse", "qisog.ideals", "inverse"),
    ("ideals.matrix_split", "qisog.ideals", "matrix_split"),
    ("ideals.ideals_of_norm_ell", "qisog.ideals", "ideals_of_norm_ell"),
    ("ideals.QOrder_init", "qisog.ideals", "QOrder.__init__"),
    ("ideals.order_closure", "qisog.ideals", "order_closure"),
    ("ideals.root_maximal_orders", "qisog.ideals", "root_maximal_orders"),
    ("ecgraph.supersingular_j_list", "qisog.ecgraph", "supersingular_j_list"),
    ("ecgraph.build_isogeny_graph", "qisog.ecgraph", "build_isogeny_graph"),
    ("ecgraph.reduce_graph", "qisog.ecgraph", "reduce_graph"),
    ("ecgraph.load_modpoly", "qisog.ecgraph", "load_modpoly"),
    ("brandt.enumerate_classes", "qisog.brandt", "enumerate_classes"),
    ("brandt.brandt_matrix", "qisog.brandt", "brandt_matrix"),
    ("brandt.ell_neighbors", "qisog.brandt", "ell_neighbors"),
    ("brandt.check_graph_isomorphism", "qisog.brandt", "check_graph_isomorphism"),
    ("orient.walk_component", "qisog.orient", "walk_component"),
    ("orient.oriented_vertex", "qisog.orient", "oriented_vertex"),
    ("orient.classify_edge", "qisog.orient", "classify_edge"),
    ("orient.audit_component", "qisog.orient", "audit_component"),
    ("bass.bass_order", "qisog.bass", "bass_order"),
    ("bass.eichler_symbol", "qisog.bass", "eichler_symbol"),
    ("bass.enumerate_maximal_superorders", "qisog.bass", "enumerate_maximal_superorders"),
]

# Tiny, very frequent calls: counted only, since a span each would cost more
# than the call itself.
COUNTED = [
    ("multigraph.multiplicity", "qisog.multigraph", "MultiGraph.multiplicity"),
    ("multigraph.degree_signature", "qisog.multigraph", "MultiGraph.degree_signature"),
    ("multigraph.out_degree", "qisog.multigraph", "MultiGraph.out_degree"),
]


def _returned(stats, result):
    stats["lattice.min_norm_elements.returned"] += len(result)


def _hit(stats, result):
    stats["ideals.is_equivalent.hits"] += result is not None


def _iso_none(stats, result):
    stats["brandt.check_graph_isomorphism.failed"] += result is None


# Extra statistics read off a call's result, or counted when it raises.
ON_RESULT = {
    "lattice.min_norm_elements": _returned,
    "ideals.is_equivalent": _hit,
    "brandt.check_graph_isomorphism": _iso_none,
}
FAILS_ON_RAISE = {"ideals.root_maximal_orders", "brandt.check_graph_isomorphism"}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and call counts for the functions in SPANNED/COUNTED."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.stats: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.query = -1
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, object] = {}  # metric prefix -> original

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span idx and every span opened inside it that is still open.

        A timeout unwinds several frames at once and can strike between a
        wrapper's bookkeeping steps, so nested spans are closed here too."""
        now = time.perf_counter()
        while self.stack and self.stack.pop() != idx:
            pass
        for span in self.spans[idx:]:
            if not span[2]:
                span[2] = now

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, and incl_s (the time inside the
        outermost span of that name, children included)."""
        out: dict[str, dict[str, float]] = {}
        for span, st in zip(self.spans, self.self_times()):
            name, start, end, parent, _ = span
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += st
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                rec["incl_s"] += end - start
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,query\n")
            for span in self.spans:
                fh.write("%s,%r,%r,%d,%d\n" % tuple(span))

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        on_result = ON_RESULT.get(name)
        fails_on_raise = name in FAILS_ON_RAISE
        stats = self.stats
        failed = name + ".failed"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if fails_on_raise:
                    stats[failed] += 1
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(stats, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        stats = self.stats
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "qisog" or n.startswith("qisog.")]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, module, path in table:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                wrapper = make(name, original)
                self.wrapped[name] = original
                self._patch(owner, attr, original, wrapper)
                if isinstance(owner, type):
                    continue
                for mod in loaded:  # alias bindings of a module-level function
                    for alias, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._patch(mod, alias, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and incl_s for every traced name, plus the extra stats."""
        summary = self.summary()
        out: dict[str, float] = {}
        for name, _, _ in SPANNED:
            rec = summary.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for stat, value in rec.items():
                out[f"{name}.{stat}"] = value
        for name, _, _ in COUNTED:
            out[name + ".calls"] = self.stats[name + ".calls"]
        for key in ("lattice.min_norm_elements.returned", "ideals.is_equivalent.hits",
                    "ideals.root_maximal_orders.failed", "brandt.check_graph_isomorphism.failed"):
            out[key] = self.stats[key]
        calls = out["ideals.is_equivalent.calls"]
        out["ideals.is_equivalent.hit_ratio"] = out["ideals.is_equivalent.hits"] / calls if calls else 0.0
        return out
