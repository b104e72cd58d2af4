"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 has an ell = 2 sub-check
(test_criterion_6_ell2_root_formula_counts) that pins the structure formula
at the p = 7 global root to the counts the Bass order forces; its docstring
and the README carry the proof.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from qisog import bass, brandt, ecgraph, numth, orient
from qisog import ideals as idl
from qisog.lattice import QLattice
from qisog.quat import QuatAlgebra
from test_bass import local_embedding_number
from test_ideals import ideals_of_norm_ell_bruteforce, is_primitive, is_primitive_at, is_two_sided
from test_orient import load_ridge_survey, structure_audit
from test_quat import basis_elements, element, from_elements


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {verdict} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} over budget: {elapsed:.2f}s"
        return False


def test_criterion_1_root_orders():
    with Budget("1 root orders", 1.0):
        for p in (7, 11, 19, 23):
            orders = idl.root_maximal_orders(p)
            first = orders[0]
            assert first.reduced_discriminant == p and first.is_maximal
            assert all(first.lattice.int_coords(x, xden) is not None
                       for x, xden in first.algebra.maximal_quadratic_rows)
        for p in (13, 29, 17, 41):
            a, b = idl.root_maximal_orders(p)
            assert a.is_maximal and b.is_maximal
            assert a.key() != b.key()


def test_criterion_2_root_example():
    with Budget("2 embedding numbers", 10.0):
        expected = {7: (7, 1), 13: (104, 2), 17: (51, 2)}
        for p, (discrd, e) in expected.items():
            alg = QuatAlgebra.for_prime(p)
            O = bass.bass_order(alg)
            assert O.reduced_discriminant == discrd
            assert bass.embedding_numbers(O)[2] == e
            assert len(bass.enumerate_maximal_superorders(O)) == e
        assert local_embedding_number(bass.bass_order(QuatAlgebra.for_prime(13)), 2) == 2
        O17 = bass.bass_order(QuatAlgebra.for_prime(17))
        assert QuatAlgebra.for_prime(17).q == 3
        assert local_embedding_number(O17, 3) == 2


def test_criterion_3_norm_ell_ideals(walked_orders_13, walked_orders_37):
    with Budget("3 norm-l ideals", 30.0):
        orders = walked_orders_13 + walked_orders_37
        assert len(orders) >= 50
        for O in orders:
            for ell in (2, 3, 5):
                fast = idl.ideals_of_norm_ell(O, ell)
                assert len(fast) == ell + 1
                slow = ideals_of_norm_ell_bruteforce(O, ell)
                assert [I.key() for I in fast] == [I.key() for I in slow]
                assert not any(is_two_sided(I) for I in fast)


def test_criterion_4_graph_isomorphism():
    with Budget("4 graph isomorphism", 120.0):
        expected_counts = {37: 3, 101: 9}
        for p, ell in ((37, 2), (37, 3), (101, 2)):
            G = ecgraph.build_isogeny_graph(p, ell)
            assert G.num_vertices() == expected_counts[p]
            O0 = idl.root_maximal_orders(p)[0]
            cs = brandt.enumerate_classes(O0, ell)
            assert cs.class_number == expected_counts[p]
            b = brandt.brandt_matrix(cs)
            assert all(sum(row) == ell + 1 for row in b)
            Br = brandt.brandt_graph(cs)
            assert brandt.check_graph_isomorphism(G, Br) is not None


def test_criterion_5_connectivity():
    with Budget("5 connectivity", 120.0):
        for p in range(5, 201):
            if not numth.is_prime(p):
                continue
            for ell in (2, 3):
                if ell == p:
                    continue
                assert ecgraph.build_isogeny_graph(p, ell).is_connected(), (p, ell)


def test_criterion_6_structure_audit():
    with Budget("6 structure audit", 60.0):
        start = idl.root_maximal_order(7)
        root_key = start.key()
        O_bass = bass.bass_order(QuatAlgebra.for_prime(7))
        for ell in (2, 3):
            g = orient.walk_component(start, ell, depth=4)
            assert g.is_tree_undirected()
            assert all(g.loop_count(v) == 0 for v in g.vertices())
            assert all(rec["count"] == 1 for rec in g.edges.values())
            local, glob = orient.find_roots(g, ell)
            assert len(local) == local_embedding_number(O_bass, ell) == 1
            if len(local) == 2:
                assert g.multiplicity(local[0], local[1]) == 1
            reports = orient.audit_component(g, ell)
            for rep in reports:
                assert sum(rep.observed.values()) == ell + 1
                assert rep.ok, (ell, g.vertex_attrs[rep.vertex])
        # the global root at ell = 3: all four edges simultaneously descending
        g3 = orient.walk_component(start, 3, depth=1)
        rep3 = structure_audit(g3, root_key, 3, start.algebra)
        assert rep3.ok and rep3.observed["DD"] == 4
        # local roots adjacent where two exist (exercised at p = 13 and 17)
        for p, ell in ((13, 2), (17, 3)):
            gs = orient.walk_component(idl.root_maximal_order(p), ell, depth=2)
            loc, _ = orient.find_roots(gs, ell)
            assert len(loc) == 2
            assert gs.multiplicity(loc[0], loc[1]) == 1 and gs.multiplicity(loc[1], loc[0]) == 1


def test_criterion_6_ell2_root_formula_counts():
    """The structure formula at the p = 7 global root for ell = 2.

    The counts are forced.  At p = 7 the Bass order Z<i, (1+j)/2> has
    reduced discriminant d_Ki d_Kj / 4 = (-4)(-7)/4 = 7, so it is maximal,
    and the superorder oracle finds exactly one maximal order containing it
    (criterion 2).  A simultaneously horizontal edge would end at a second
    such order or be a loop, which the loop-free tree forbids: HH = 0.  At
    a local root each field K has 1 + (d_K/2) horizontal edges, 1 for Q(i)
    and 2 for Q(j), so (HH, HD, DH, DD) = (0, 1, 2, 0).

    The Kronecker form HH = 1 - (d_Ki/ell)(d_Kj/ell) gives (1, 0, 1, 1)
    here; it agrees with the Bass-order count for odd ell only.  The paper
    text is not in the repository, so whether it states the Kronecker form
    for odd ell alone is not settled here.
    """
    with Budget("6b l=2 root formula", 60.0):
        alg = QuatAlgebra.for_prime(7)
        assert len(bass.enumerate_maximal_superorders(bass.bass_order(alg))) == 1
        case, pred = orient.predicted_counts(alg, 1, 1, 2)
        want = {"+".join(b): n for b, n in pred}
        assert (want["HH"], want["HD"], want["DH"], want["DD"]) == (0, 1, 2, 0)
        start = idl.root_maximal_order(7)
        g = orient.walk_component(start, 2, depth=1)
        rep = structure_audit(g, start.key(), 2, alg)
        obs = rep.observed
        assert (obs["HH"], obs["HD"], obs["DH"], obs["DD"]) == (0, 1, 2, 0), (
            "observed root classes (HH,HD,DH,DD) = "
            f"({obs['HH']},{obs['HD']},{obs['DH']},{obs['DD']}), but e = 1 and "
            "the field counts force (0,1,2,0)"
        )
        assert rep.ok, load_ridge_survey().bucket_rows(rep)


def test_criterion_7_connecting_ideal_laws(walked_orders_13, walked_orders_37):
    with Budget("7 connecting ideals", 30.0):
        pairs = []
        for orders in (walked_orders_13, walked_orders_37):
            root = orders[0]
            pairs += [(root, O) for O in orders[1:]]
            pairs += list(zip(orders, orders[1:]))
        assert len(pairs) >= 100
        for O1, O2 in pairs:
            C = idl.connecting_ideal(O1, O2)
            index = O1.lattice.intersect(O2.lattice).index_in(O1.lattice)
            assert C.reduced_norm == index
            assert C.conjugate() == idl.connecting_ideal(O2, O1)
            assert is_primitive(C)
            n = int(C.reduced_norm)
            assert all(is_primitive_at(C, q) for q in numth.factorize(n)) or n == 1


def test_criterion_8_property_suites():
    with Budget("8 property suites", 30.0):
        rng = random.Random(8)
        A13 = QuatAlgebra.for_prime(13)

        def rand_elt(alg):
            return element(alg, *[Fraction(rng.randint(-8, 8), rng.choice((1, 2))) for _ in range(4)])

        for _ in range(200):
            x, y = rand_elt(A13), rand_elt(A13)
            assert (x * y).nrd() == x.nrd() * y.nrd()
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        # nrd(I)^2 = [O_L(I) : I] on integral translates of a maximal order
        O0 = idl.root_maximal_orders(13)[0]
        for _ in range(10):
            alpha = sum((rng.randint(-3, 3) * b for b in basis_elements(O0.lattice)),
                        element(A13))
            if alpha.nrd() == 0:
                continue
            I = from_elements([b * alpha for b in basis_elements(O0.lattice)])
            assert I.reduced_norm ** 2 == I.index_in(I.left_order())
        # HNF canonicality round-trips under unimodular row operations
        for _ in range(50):
            m = [list(r) for r in O0.lattice.mat]
            for _ in range(6):
                a, b = rng.sample(range(4), 2)
                f = rng.randint(-3, 3)
                for c in range(4):
                    m[a][c] += f * m[b][c]
            assert QLattice.from_int_rows(A13, m, O0.lattice.den) == O0.lattice
        # Hilbert product formula on a fixed-seed sample
        for _ in range(60):
            a = rng.randint(-50, 50) or 1
            b = rng.randint(-50, 50) or 1
            places = {numth.INF} | set(numth.factorize(2 * a * b))
            assert math.prod(numth.hilbert_symbol(a, b, v) for v in places) == 1
        # modular polynomials: symmetric storage and the mod-l congruence
        for ell in (2, 3, 5, 7):
            mp = ecgraph.load_modpoly(ell)  # loader enforces both properties
            assert mp.degree() == ell + 1
            assert all(mp.coefficient(a, b) == mp.coefficient(b, a)
                       for a in range(ell + 2) for b in range(ell + 2))
