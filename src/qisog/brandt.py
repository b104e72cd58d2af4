"""Quaternion-side graphs: left ideal class enumeration, Brandt matrices,
the type-set quotient graph, and exact directed-multigraph isomorphism.

Class representatives are kept reduced (small norm, primitive) so that the
short-vector searches inside equivalence testing stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import ideals as idl
from .errors import CapExceeded, PreconditionError
from .ideals import QIdeal, QOrder
from .multigraph import MultiGraph

ISO_VERTEX_CAP = 64


@dataclass
class ClassSet:
    order0: QOrder
    representatives: list  # primitive left O0-ideals, pairwise inequivalent
    unit_sizes: list  # a_j = |O_R(I_j)^x| / 2
    ell: int
    brandt: list  # b_ij = number of ell-neighbors of I_i equivalent to I_j

    @property
    def class_number(self) -> int:
        return len(self.representatives)


def ell_neighbors(I: QIdeal, ell: int) -> list[QIdeal]:
    """The ell+1 ideals J inside I with nrd(J) = ell * nrd(I)."""
    steps = idl.ideals_of_norm_ell(I.right_order, ell)
    return [I * s for s in steps]


def theta_prefix(J: QIdeal, K: int) -> tuple[int, ...]:
    """#{x in J : nrd(x) = k nrd(J)} for k = 1..K, one of each +-pair.

    x -> x alpha maps J onto J alpha and keeps nrd(x) / nrd(J), so this is
    an invariant of the left ideal class."""
    n = J.nrd()
    counts = [0] * K
    for e in J.lattice.min_norm_elements(K * n):
        k = e.nrd() / n
        assert k.denominator == 1, "nrd(J) divides the norm of every element"
        counts[int(k) - 1] += 1
    return tuple(counts)


def enumerate_classes(O0: QOrder, ell: int) -> ClassSet:
    """BFS over ell-neighbors from O0, collecting left ideal classes and the
    Brandt matrix in one pass: each reduced neighbor of I_i is matched to the
    equivalent representative, or becomes a new one.  Representatives are
    pairwise inequivalent, so that match is its class for good.

    Classes are bucketed by the theta prefix for k up to K = max(4, isqrt(p)),
    and a neighbor is tested only against the representatives in its bucket.
    Once sum 1/a_j reaches the mass (p-1)/12 the class list is complete, so
    when all other candidates in its bucket fail, the last one is its class
    without a test.

    The mass formula, the row sums ell+1 and the relation
    a_j b_ij = a_i b_ji are checked before returning.  The class graph is
    connected, so the BFS takes at most h <= p/12 + 2 levels, well inside
    its cap of 2 (p // 6 + 8)."""
    p = O0.algebra.p
    if ell == p:
        raise PreconditionError("ell must differ from p")
    depth_cap = 2 * (p // 6 + 8)
    K = max(4, math.isqrt(p))
    mass = Fraction(p - 1, 12)
    reps: list[QIdeal] = []
    units: list[int] = []  # a_j = |O_R(I_j)^x| / 2
    buckets: dict[tuple, list[int]] = {}  # theta prefix -> representative indices
    found = Fraction(0)  # sum 1/a_j over the representatives so far

    def add(J: QIdeal, key: tuple) -> int:
        nonlocal found
        buckets.setdefault(key, []).append(len(reps))
        reps.append(J)
        units.append(len(J.right_order.lattice.min_norm_elements(1)))
        found += Fraction(1, units[-1])
        return len(reps) - 1

    start = QIdeal(O0.lattice)
    add(start, theta_prefix(start, K))
    rows: list[list[int]] = []  # rows[i]: class index of each neighbor of I_i
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        if depth > depth_cap:
            raise CapExceeded("class-set BFS depth cap exceeded")
        new = []
        for I in frontier:
            row = []
            for J in ell_neighbors(I, ell):
                J = idl.reduce_ideal(J, O0)
                key = theta_prefix(J, K)
                bucket = buckets.get(key, [])
                complete = found == mass
                tested = bucket[:-1] if complete else bucket
                j = next((n for n in tested if idl.is_equivalent(reps[n], J) is not None), None)
                if j is None:
                    if complete:
                        assert bucket, "class list is complete, yet no class has this invariant"
                        j = bucket[-1]
                    else:
                        j = add(J, key)
                        new.append(J)
                row.append(j)
            rows.append(row)
        frontier = new
    h = len(reps)
    b = [[row.count(j) for j in range(h)] for row in rows]
    assert found == mass, "mass formula fails"
    assert all(sum(row) == ell + 1 for row in b), "Brandt row sum is not ell+1"
    assert all(units[j] * b[i][j] == units[i] * b[j][i] for i in range(h) for j in range(h)), \
        "Brandt relation a_j b_ij = a_i b_ji fails"
    return ClassSet(order0=O0, representatives=reps, unit_sizes=units, ell=ell, brandt=b)


def brandt_matrix(cs: ClassSet) -> list[list[int]]:
    """b_ij = number of ell-neighbors of I_i equivalent to I_j, as recorded by
    enumerate_classes, cross-checked entrywise by the counting formula:
    elements of I_j^{-1} I_i of the right norm, divided by twice the unit
    size.
    """
    b = cs.brandt
    for i, I in enumerate(cs.representatives):
        for j, Jrep in enumerate(cs.representatives):
            N = QIdeal(idl.inverse(Jrep).lattice * I.lattice)
            target = cs.ell * I.nrd() / Jrep.nrd()
            hits = [e for e in N.lattice.min_norm_elements(target) if e.nrd() == target]
            count, rem = divmod(len(hits), cs.unit_sizes[j])
            assert rem == 0, "norm count not divisible by the unit size"
            assert count == b[i][j], f"Brandt entry mismatch at ({i},{j})"
    return b


def brandt_graph(cs: ClassSet) -> MultiGraph:
    g = MultiGraph(meta={"p": cs.order0.algebra.p, "ell": cs.ell, "kind": "brandt"})
    for i in range(cs.class_number):
        g.add_vertex(i, nrd=str(cs.representatives[i].nrd()))
    for i, row in enumerate(cs.brandt):
        for j, m in enumerate(row):
            if m:
                g.add_edge(i, j, count=m)
    return g


def _is_principal(I: QIdeal) -> bool:
    n = I.nrd()
    return any(e.nrd() == n for e in I.lattice.min_norm_elements(n))


def right_orders_conjugate(O1: QOrder, O2: QOrder) -> bool:
    """Maximal orders are conjugate iff their primitive connecting ideal, or
    its twist by the two-sided norm-p ideal, is principal.  The twist covers
    conjugating elements whose norm carries the ramified prime."""
    if O1 == O2:
        return True
    C = idl.connecting_ideal(O1, O2)
    if _is_principal(C):
        return True
    P = idl.two_sided_p_ideal(O1)
    return _is_principal(idl.primitive_part(P * C))


def type_graph(cs: ClassSet) -> MultiGraph:
    """Quotient of the Brandt graph grouping classes with conjugate right
    orders; edges are those of one representative class per type."""
    n = cs.class_number
    orders = [R.right_order for R in cs.representatives]
    type_of = [-1] * n
    types: list[int] = []  # representative class index per type
    for i in range(n):
        for t, rep in enumerate(types):
            if right_orders_conjugate(orders[rep], orders[i]):
                type_of[i] = t
                break
        else:
            type_of[i] = len(types)
            types.append(i)
    g = MultiGraph(meta={"p": cs.order0.algebra.p, "ell": cs.ell, "kind": "type"})
    for t in range(len(types)):
        g.add_vertex(t)
    for t, rep in enumerate(types):
        for j, m in enumerate(cs.brandt[rep]):
            if m:
                g.add_edge(t, type_of[j], count=m)
    return g


# ---------------------------------------------------------------------------
# multigraph isomorphism


def check_graph_isomorphism(G: MultiGraph, H: MultiGraph):
    """Exact search for a bijection preserving directed edge multiplicities.

    Returns the mapping as a dict of vertex keys, or None.  Vertices are
    grouped by (in, out, loop) degree signature before backtracking.
    """
    gv, hv = G.vertices(), H.vertices()
    if len(gv) != len(hv) or G.num_edges() != H.num_edges():
        return None
    if len(gv) > ISO_VERTEX_CAP:
        raise PreconditionError(f"isomorphism search capped at {ISO_VERTEX_CAP} vertices")
    gsig = {v: G.degree_signature(v) for v in gv}
    hsig = {v: H.degree_signature(v) for v in hv}
    if sorted(gsig.values()) != sorted(hsig.values()):
        return None
    order = sorted(gv, key=lambda v: (sorted(hsig.values()).count(gsig[v]), str(v)))
    mapping: dict = {}
    used: set = set()

    def consistent(v, w) -> bool:
        for v2, w2 in mapping.items():
            if G.multiplicity(v, v2) != H.multiplicity(w, w2):
                return False
            if G.multiplicity(v2, v) != H.multiplicity(w2, w):
                return False
        return G.multiplicity(v, v) == H.multiplicity(w, w)

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        for w in hv:
            if w in used or hsig[w] != gsig[v]:
                continue
            if consistent(v, w):
                mapping[v] = w
                used.add(w)
                if backtrack(pos + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return dict(mapping) if backtrack(0) else None


def class_set_json(cs: ClassSet) -> dict:
    return {
        "p": cs.order0.algebra.p,
        "ell": cs.ell,
        "classes": cs.class_number,
        "brandt": cs.brandt,
        "unit_sizes": cs.unit_sizes,
    }
