"""Quaternion-side graphs: left ideal class enumeration, Brandt matrices,
the type-set quotient graph, and exact directed-multigraph isomorphism.

The classes are found by a BFS over O0's Bruhat-Tits tree, off one l-adic
frame of O0 (see enumerate_classes).  A class lookup reads the point's
ideal's minimal vectors: they give its class key, which picks the bucket,
and carry the equivalence tests and, for a new class, its unit size.  The
BFS seeds them: one Hermite-bounded short-vector search of each expanded
class's representative gives its l children theirs (seed_minimal_vectors),
so a class set runs h LLL reductions, one per representative.  A class's
representative is the tree point's ideal that founded it, of norm l^k at
founding level k, unreduced.  No lookup builds an order.  Ideals are plain
QLattices, as in ideals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from . import ideals as idl
from . import numth
from .errors import CapExceeded, PreconditionError
from .ideals import QOrder
from .lattice import QLattice
from .multigraph import MultiGraph

# Search nodes (refined colourings) per isomorphism search.  Every p < 1000,
# l in {2, 3, 5, 7} takes at most 5, so 1000 leaves a margin of 200.
ISO_NODE_CAP = 1000


@dataclass
class ClassSet:
    """Left ideal classes of O0 and, once enumerate_classes completes them,
    the Brandt matrix.

    class_of is the one class lookup.  Classes are bucketed by class_key,
    and an ideal is tested, by minimal vectors, only against the
    representatives in its bucket; in enumerate_classes the minimal
    vectors are seeded off the expanded class's search, and a lookup runs
    no LLL.  Once sum 1/a_j reaches the mass (p-1)/12 the list is complete,
    so when all other candidates in its bucket fail, the last one is its
    class without a test.  A unit group modulo +-1 has order 1, 2, 3, 4, 6
    or 12, so the sum is kept in integers, as sum 12/a_j against p - 1."""

    order0: QOrder
    ell: int
    # the founding tree points' left O0-ideals, pairwise inequivalent
    representatives: list = field(default_factory=list)
    unit_sizes: list = field(default_factory=list)  # a_j = |O_R(I_j)^x| / 2
    # b_ij = number of ell-neighbors of I_i equivalent to I_j
    brandt: list = field(default_factory=list)
    _buckets: dict = field(default_factory=dict, init=False, repr=False)  # class_key -> indices
    _found: int = field(default=0, init=False, repr=False)  # sum 12/a_j

    @property
    def class_number(self) -> int:
        return len(self.representatives)

    @property
    def complete(self) -> bool:
        return self._found == self.order0.algebra.p - 1

    def class_of(self, J: QLattice) -> int:
        """Index of the representative equivalent to J, a left O0-ideal.
        While the list is incomplete, a J equivalent to none of them becomes
        the next representative, as it is, with the unit size
        ideals.unit_count(J).

        Everything runs on J's minimal vectors: class_key reads them, and
        is_equivalent and unit_count run on them, now and whenever J is a
        representative tested later.  They come from J's own LLL and search
        unless enumerate_classes seeded them."""
        key = class_key(J)
        bucket = self._buckets.get(key, [])
        complete = self.complete
        tested = bucket[:-1] if complete else bucket
        reps = self.representatives
        j = next((n for n in tested
                  if idl.is_equivalent(reps[n], J, self.order0) is not None), None)
        if j is not None:
            return j
        if complete:
            assert bucket, f"class list is complete, yet no class has the invariant {key}"
            return bucket[-1]
        self._buckets.setdefault(key, []).append(self.class_number)
        reps.append(J)
        a = idl.unit_count(J)
        assert 12 % a == 0, f"unit size {a} does not divide 12"
        self.unit_sizes.append(a)
        self._found += 12 // a
        return self.class_number - 1


def ell_neighbors(I: QLattice, ell: int) -> list[QLattice]:
    """The ell+1 ideals J inside I with nrd(J) = ell * nrd(I), by the mod-ell
    split of I's right order (the class BFS reads them off O0's frame)."""
    steps = idl.ideals_of_norm_ell(QOrder(I.right_order()), ell)
    return [I * s for s in steps]


def class_key(J: QLattice) -> tuple[int, int]:
    """(min(J) / nrd(J), the number of +-pairs of minimal vectors of J).

    x -> x alpha maps J onto J alpha, scales every norm and nrd(J) by
    nrd(alpha) and maps minimal vectors onto minimal vectors, so this is
    an invariant of the left ideal class.  nrd(J) divides every norm in J,
    so the ratio is an integer, read off integer norms: a row v of J's
    search has nrd(v/den) / nrd(J) = nrd(v) / (den^2 nrd(J))."""
    n, vecs = J.reduced_norm, J.minimal_vectors
    k, rem = divmod(vecs[0][0], n.numerator * J.den**2 // n.denominator)
    assert rem == 0, "nrd(J) divides the norm of every element"
    return k, len(vecs)


def hermite_ratio(p: int) -> int:
    """The bound isqrt(p // 2) on the integer min(J) / nrd(J) (class_key) of a
    left O0-ideal J: the norm form on J has determinant nrd(J)^4 p^2 / 16, so
    Hermite's gamma_4 = sqrt(2) gives min(J)^2 <= nrd(J)^2 p / 2."""
    return math.isqrt(p // 2)


def seed_minimal_vectors(I: QLattice, children: list[QLattice], ell: int) -> None:
    """Seed each child J of I (J in I, nrd(J) = ell nrd(I)) with its minimal
    vectors, off one search of I bounded by min(J) <= hermite_ratio(p) nrd(J).
    Of its rows, those whose norm nrd(J) divides (the rows of I's ell + 1
    neighbours inside I) are kept; a child takes those that lie in it, up to
    its least norm, over its own denominator.  They are the rows of J's own
    search, in its order, and go in the cached property's slot, so J runs no
    LLL and no search until it is expanded itself."""
    n, den = I.reduced_norm, I.den
    step = ell * n.numerator * den**2 // n.denominator  # den^2 nrd(J)
    kept = [(m, x) for m, x in I.short_vectors(ell * hermite_ratio(I.algebra.p) * n)
            if m % step == 0]
    for J in children:
        least = []
        for m, x in kept:
            if least and m > least[0][0]:
                break
            if J.int_coords(x, den) is not None:
                least.append((m, x))
        assert least, "a child has no vector within the Hermite bound"
        if J.den != den:
            for t, (m, x) in enumerate(least):
                v = [divmod(c * J.den, den) for c in x]
                assert not any(r for _, r in v), "a row of J is integral over J's denominator"
                least[t] = (m * J.den**2 // den**2, tuple(c for c, _ in v))
        vars(J)["minimal_vectors"] = least


def enumerate_classes(O0: QOrder, ell: int) -> ClassSet:
    """BFS over O0's Bruhat-Tits tree at ell, off one ell-adic frame of O0,
    collecting the classes and the Brandt matrix in one pass.

    A point w of P^1(Z/ell^k) has the ideal frame.ball_ideal, whose
    ell-neighbours are those of its ell children and ell times its parent's.
    Only a point that founds a class is expanded, so the class that expanded
    it is a free entry of its row, and ClassSet.class_of gives the children's
    classes: h ell + 1 lookups after O0's, on minimal vectors that
    seed_minimal_vectors reads off one search of the point's ideal, the
    class's representative; only representatives are LLL-reduced.  A new
    class's unit size is counted on its ideal's minimal vectors; no order is
    built at a point.
    Classes are numbered in founding order.  The frame is built once, at
    n = h: founding levels are at most h - 1 (see below), so the deepest
    children's ideals, of norm ell^h, need n = h.

    The mass formula, the class-number formula, the row sums ell+1 and
    a_j b_ij = a_i b_ji are checked before returning, and class 0's unit
    size against the units of O0, its right order, counted by a search on
    O0's lattice, whose LLL class 0's lookup cached.  The founding level is
    capped at h - 1, h = numth.class_number(p): the BFS founds each class at
    its distance from [O0] in the Brandt graph, which is connected and has h
    vertices."""
    p = O0.algebra.p
    if ell == p:
        raise PreconditionError("ell must differ from p")
    level_cap = numth.class_number(p) - 1
    frame = idl.matrix_split(O0, ell, level_cap + 1)
    cs = ClassSet(order0=O0, ell=ell)
    cs.class_of(O0.lattice)
    founded = [(None, 0, None)]  # (point, level, class that expanded it), by class
    rows: list[list[int]] = []  # rows[i]: class index of each neighbour of I_i
    for point, k, parent in founded:
        if k > level_cap:
            raise CapExceeded("class-set founding level cap exceeded")
        row = [] if parent is None else [parent]
        points = idl.tree_children(point, k + 1, ell)
        children = [frame.ball_ideal(idl.tree_point_matrix(w, ell), k + 1) for w in points]
        seed_minimal_vectors(cs.representatives[len(rows)], children, ell)
        for w, J in zip(points, children):
            h = cs.class_number
            row.append(cs.class_of(J))
            if cs.class_number > h:
                founded.append((w, k + 1, len(rows)))
        rows.append(row)
    h, a = cs.class_number, cs.unit_sizes
    b = cs.brandt = [[row.count(j) for j in range(h)] for row in rows]
    assert cs.complete, "mass formula fails"
    assert h == numth.class_number(p), "class-number formula fails"
    assert a[0] == len(O0.lattice.min_norm_elements(1)), "class 0's unit size is not O0's"
    assert all(sum(row) == ell + 1 for row in b), "Brandt row sum is not ell+1"
    assert all(a[j] * b[i][j] == a[i] * b[j][i] for i in range(h) for j in range(h)), \
        "Brandt relation a_j b_ij = a_i b_ji fails"
    return cs


def brandt_matrix(cs: ClassSet) -> list[list[int]]:
    """b_ij = number of ell-neighbors of I_i equivalent to I_j, as recorded by
    enumerate_classes, cross-checked entrywise by the counting formula:
    elements of I_j^{-1} I_i of the right norm, divided by twice the unit
    size.
    """
    b = cs.brandt
    for i, I in enumerate(cs.representatives):
        for j, Jrep in enumerate(cs.representatives):
            N = idl.inverse(Jrep) * I
            target = cs.ell * I.reduced_norm / Jrep.reduced_norm
            m = N.den ** 2 * target
            assert m.denominator == 1, "den^2 nrd is not integral on N"
            hits = sum(n == m.numerator for n, _ in N.short_vectors(target))
            count, rem = divmod(hits, cs.unit_sizes[j])
            assert rem == 0, "norm count not divisible by the unit size"
            assert count == b[i][j], f"Brandt entry mismatch at ({i},{j})"
    return b


def brandt_graph(cs: ClassSet) -> MultiGraph:
    g = MultiGraph(meta={"p": cs.order0.algebra.p, "ell": cs.ell, "kind": "brandt"},
                   vertex_attrs={i: {} for i in range(cs.class_number)})
    for i, row in enumerate(cs.brandt):
        for j, m in enumerate(row):
            if m:
                g.add_edge(i, j, count=m)
    return g


def type_involution(cs: ClassSet) -> list[int]:
    """sigma(j) = [P I_j] for P the two-sided ideal of norm p of O0.

    O_R(P I) = O_R(I).  Conversely, if O_R(I) and O_R(J) are conjugate by
    beta, then J (I beta)^-1 is a two-sided O0-ideal, which up to Q^x is O0
    or P; so the classes whose right orders are conjugate to O_R(I_j) are
    exactly j and sigma(j).  Checked: sigma is an involution and keeps the
    unit size, and class_of finds each P I_j's class key among the
    buckets."""
    O0 = cs.order0
    P = idl.two_sided_p_ideal(O0)
    sigma = [cs.class_of(P * I) for I in cs.representatives]
    assert all(sigma[s] == j for j, s in enumerate(sigma)), "sigma is not an involution"
    assert all(cs.unit_sizes[s] == a for s, a in zip(sigma, cs.unit_sizes)), \
        "sigma does not keep the unit size"
    return sigma


def type_graph(cs: ClassSet) -> MultiGraph:
    """Quotient of the Brandt graph grouping classes with conjugate right
    orders: the types are the orbits {j, sigma(j)} of type_involution,
    numbered by their least class, and a type's edges are its least
    class's Brandt row."""
    least = [min(j, s) for j, s in enumerate(type_involution(cs))]
    types = sorted(set(least))
    type_of = {rep: t for t, rep in enumerate(types)}
    g = MultiGraph(meta={"p": cs.order0.algebra.p, "ell": cs.ell, "kind": "type"})
    for t in range(len(types)):
        g.add_vertex(t)
    for t, rep in enumerate(types):
        for j, m in enumerate(cs.brandt[rep]):
            if m:
                g.add_edge(t, type_of[least[j]], count=m)
    return g


# ---------------------------------------------------------------------------
# multigraph isomorphism


def check_graph_isomorphism(G: MultiGraph, H: MultiGraph):
    """Exact search for a bijection preserving directed edge multiplicities.

    Returns the least isomorphism as a dict, keys in the search order (G's
    vertices by the size of their degree-signature class in H, then by
    str), or None.  Both graphs are refined together by 1-WL: a vertex's
    next colour is its colour plus the sorted (colour, multiplicity) pairs
    over its out- and in-edges, numbered over both graphs.  Refinement is
    isomorphism-invariant, so unequal colour counts cut a branch.  The first
    vertex in order whose colour is not a singleton is individualized against
    each H vertex of its colour in turn; a discrete colouring is the map."""
    gv, hv = G.vertices(), H.vertices()
    if len(gv) != len(hv) or G.num_edges() != H.num_edges():
        return None
    hsize = Counter(H.degree_signature(w) for w in hv)
    order = sorted(gv, key=lambda v: (hsize[G.degree_signature(v)], str(v)))
    budget = iter(range(ISO_NODE_CAP))

    def pairs(edges, c):
        return tuple(sorted((c[u], rec["count"]) for u, rec in edges.items()))

    def refine(cols):
        while True:
            sigs = [{v: (c[v], pairs(g.out_edges(v), c), pairs(g.in_edges(v), c)) for v in c}
                    for g, c in zip((G, H), cols)]
            names = {s: n for n, s in enumerate(sorted({*sigs[0].values(), *sigs[1].values()}))}
            new = [{v: names[s] for v, s in sig.items()} for sig in sigs]
            if Counter(new[0].values()) != Counter(new[1].values()):
                return None
            if len(names) == len({*cols[0].values(), *cols[1].values()}):
                return new
            cols = new

    def search(cols):
        if next(budget, None) is None:
            raise CapExceeded(f"isomorphism search node cap {ISO_NODE_CAP} exceeded")
        if (cols := refine(cols)) is None:
            return None
        cg, ch = cols
        size = Counter(cg.values())
        v = next((v for v in order if size[cg[v]] > 1), None)
        if v is None:
            image = {c: w for w, c in ch.items()}
            return {u: image[cg[u]] for u in order}
        fresh = min(cg.values()) - 1
        found = (search([cg | {v: fresh}, ch | {w: fresh}]) for w in hv if ch[w] == cg[v])
        return next((m for m in found if m is not None), None)

    return search([dict.fromkeys(gv, 0), dict.fromkeys(hv, 0)])


def class_set_json(cs: ClassSet) -> dict:
    return {
        "p": cs.order0.algebra.p,
        "ell": cs.ell,
        "classes": cs.class_number,
        "brandt": cs.brandt,
        "unit_sizes": cs.unit_sizes,
    }
