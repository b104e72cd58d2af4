import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qisog import brandt, ecgraph, numth
from qisog import ideals as idl
from qisog.cli import main
from qisog.errors import CapExceeded, PreconditionError
from qisog.ideals import QOrder
from qisog.lattice import QLattice
from qisog.multigraph import MultiGraph
from test_ideals import equivalence_oracle, times
from test_quat import QuatElement, min_norm_elements


def in_degree(g: MultiGraph, v) -> int:
    return sum(rec["count"] for rec in g.in_edges(v).values())


def classes(p, ell):
    return brandt.enumerate_classes(idl.root_maximal_orders(p)[0], ell)


def first_match_classes(O0, ell):
    """The former class BFS, kept as the reference for the tree BFS: the
    ell_neighbors of each representative, reduced, are tested against every
    representative in turn, by the equivalence oracle over I^-1 J, and the
    first equivalent one is its class.  Returns the representatives, the
    Brandt rows and the unit sizes."""
    reps = [O0.lattice]
    rows = []
    frontier = list(reps)
    while frontier:
        new = []
        for I in frontier:
            row = []
            for J in brandt.ell_neighbors(I, ell):
                J = idl.reduce_ideal(J, O0)
                j = next((n for n, R in enumerate(reps) if equivalence_oracle(R, J) is not None), None)
                if j is None:
                    j = len(reps)
                    reps.append(J)
                    new.append(J)
                row.append(j)
            rows.append(row)
        frontier = new
    b = [[row.count(j) for j in range(len(reps))] for row in rows]
    units = [len(R.right_order().min_norm_elements(1)) for R in reps]
    return reps, b, units


def assert_relabels_first_match(cs) -> None:
    """B = Pi B_old Pi^T and a = Pi a_old, for B_old, a_old those of
    first_match_classes and Pi the permutation taking class i to the one
    first-match representative the equivalence oracle finds equivalent to
    I_i."""
    reps, b, units = first_match_classes(cs.order0, cs.ell)
    pi = [[n for n, R in enumerate(reps) if equivalence_oracle(R, I) is not None]
          for I in cs.representatives]
    assert all(len(hits) == 1 for hits in pi)
    pi = [n for n, in pi]
    h = len(reps)
    assert sorted(pi) == list(range(h))
    assert cs.brandt == [[b[pi[i]][pi[j]] for j in range(h)] for i in range(h)]
    assert cs.unit_sizes == [units[n] for n in pi]


def _is_principal(I: QLattice) -> bool:
    n = I.reduced_norm
    return any(e.nrd() == n for e in min_norm_elements(I, n))


def right_orders_conjugate(O1: QOrder, O2: QOrder) -> bool:
    """The former pairwise type test, kept as the oracle for the type
    involution: maximal orders are conjugate iff their primitive connecting
    ideal, or its twist by the two-sided norm-p ideal, is principal.  The
    twist covers conjugating elements whose norm carries the ramified
    prime."""
    if O1 == O2:
        return True
    C = idl.connecting_ideal(O1, O2)
    if _is_principal(C):
        return True
    P = idl.two_sided_p_ideal(O1)
    return _is_principal(idl.primitive_part(P * C, O1))


def oracle_types(cs) -> list[int]:
    """Type index of each class, by testing its right order against the
    first class of each type found so far (the former type_graph)."""
    orders = [QOrder(R.right_order()) for R in cs.representatives]
    type_of: list[int] = []
    types: list[int] = []  # first class index per type
    for i, O in enumerate(orders):
        t = next((t for t, rep in enumerate(types) if right_orders_conjugate(orders[rep], O)), None)
        if t is None:
            t = len(types)
            types.append(i)
        type_of.append(t)
    return type_of


def oracle_type_graph(cs) -> MultiGraph:
    type_of = oracle_types(cs)
    g = MultiGraph(meta={"p": cs.order0.algebra.p, "ell": cs.ell, "kind": "type"})
    for t in range(max(type_of) + 1):
        g.add_vertex(t)
    for t in range(max(type_of) + 1):
        rep = type_of.index(t)
        for j, m in enumerate(cs.brandt[rep]):
            if m:
                g.add_edge(t, type_of[j], count=m)
    return g


def sigma_types(cs) -> list[int]:
    """Type index of each class from the type involution: the orbits
    {j, sigma(j)}, numbered by their least class."""
    least = [min(j, s) for j, s in enumerate(brandt.type_involution(cs))]
    firsts = sorted(set(least))
    return [firsts.index(m) for m in least]


def backtrack_isomorphism(G: MultiGraph, H: MultiGraph):
    """The former check_graph_isomorphism, kept as the reference: vertices
    grouped by degree signature, G's taken by the size of their group in H
    and then by str, each tried against H's sorted vertices and kept when
    every multiplicity to the vertices mapped so far agrees.  The first
    mapping found is the least isomorphism in that order, keys in that
    order.  Exponential inside a large group: use it only at small p."""
    gv, hv = G.vertices(), H.vertices()
    if len(gv) != len(hv) or G.num_edges() != H.num_edges():
        return None
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


def assert_unit_sizes_match_right_orders(cs) -> None:
    """a_j, counted on I_j's minimal vectors, is the number of +-pairs of
    norm-1 elements of O_R(I_j), the right order found by trace duality."""
    assert cs.unit_sizes == [len(R.right_order().min_norm_elements(1))
                             for R in cs.representatives]


SMALL_PRIMES = [p for p in range(5, 114) if numth.is_prime(p)]


class TestClassEnumeration:
    @pytest.mark.parametrize("p,h", [(11, 2), (13, 1), (37, 3)])
    def test_class_numbers_match_curve_side(self, p, h):
        cs = classes(p, 2)
        assert cs.class_number == h
        assert len(ecgraph.supersingular_j_list(p)) == h

    @pytest.mark.parametrize("p,ell,deepest", [(101, 2, 5), (113, 2, 4), (61, 3, 3)])
    def test_founding_level_cap_is_tight(self, p, ell, deepest, monkeypatch):
        """The deepest founding level is the eccentricity of [O0] in the
        Brandt graph, which the cap h - 1 bounds; a class number one below
        it makes the cap one below the deepest level, and the BFS stops."""
        cs = classes(p, ell)
        dist, frontier = {0: 0}, [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j, m in enumerate(cs.brandt[i]):
                    if m and j not in dist:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        assert max(dist.values()) == deepest < cs.class_number
        monkeypatch.setattr(numth, "class_number", lambda p: deepest)
        with pytest.raises(CapExceeded, match="founding level"):
            classes(p, ell)

    def test_class_number_independent_of_ell(self):
        assert classes(37, 2).class_number == classes(37, 3).class_number

    def test_unit_sizes_trivial_for_p_1_mod_12(self):
        for p in (13, 37):
            assert all(a == 1 for a in classes(p, 2).unit_sizes)

    def test_unit_sizes_p11(self):
        assert sorted(classes(11, 2).unit_sizes) == [2, 3]  # j=1728 and j=0 classes

    @pytest.mark.parametrize("p,ell", [(11, 2), (13, 3), (37, 3), (101, 2), (113, 3), (211, 2)])
    def test_unit_sizes_match_right_orders(self, p, ell):
        assert_unit_sizes_match_right_orders(classes(p, ell))

    def test_unit_count_tests_membership(self):
        """At p = 11 class 1's ideal has 6 minimal vectors, one of each
        +-pair, but only 3 of the x^-1 y lie in its right order: a count of
        minimal vectors alone would give a = 6."""
        cs = classes(11, 2)
        J = cs.representatives[1]
        assert len(J.minimal_vectors) == 6
        assert cs.unit_sizes[1] == idl.unit_count(J) == 3

    @pytest.mark.parametrize("p,ell", [(p, ell) for p in SMALL_PRIMES for ell in (2, 3) if ell != p]
                             + [(211, 2), (499, 2)])
    def test_bucketed_lookup_matches_first_match(self, p, ell):
        """The tree BFS numbers the classes in founding order: the same
        class set as the former BFS up to relabelling."""
        assert_relabels_first_match(classes(p, ell))

    @pytest.mark.parametrize("p,ell", [(499, 2), (211, 3), (101, 7), (13, 2)])
    def test_one_matrix_split_per_class_set(self, p, ell, monkeypatch):
        """The frame is split once, at n = h, and no other frame is built at
        any precision: founding levels are at most h - 1, so the deepest
        children's ideals, of norm ell^h, need n = h."""
        splits, built = [], []
        matrix_split, frame_around = idl.matrix_split, idl._frame_around

        def counted(O, ell, precision=1):
            splits.append((O.key(), precision))
            return matrix_split(O, ell, precision)

        def building(O, ell, n, e):
            built.append(n)
            return frame_around(O, ell, n, e)

        monkeypatch.setattr(idl, "matrix_split", counted)
        monkeypatch.setattr(idl, "_frame_around", building)
        O0 = idl.root_maximal_orders(p)[0]
        cs = brandt.enumerate_classes(O0, ell)
        h = numth.class_number(p)
        assert splits == [(O0.key(), h)]
        assert built == [h]
        # a representative founded at level k is a ball ideal of norm ell^k
        deepest = max(next(k for k in range(64) if ell**k == R.reduced_norm)
                      for R in cs.representatives)
        assert deepest < h

    def test_representatives_have_left_order_O0(self):
        cs = classes(37, 2)
        for R in cs.representatives:
            assert R.left_order() == cs.order0.lattice


@pytest.fixture(scope="module")
def classes_101():
    return classes(101, 2)


class TestThetaPrefix:
    """The class lookup: its key, class_key, and what one lookup runs."""

    @settings(max_examples=40, deadline=None)
    @given(rep=st.integers(0, 8), coords=st.tuples(*[st.integers(-4, 4)] * 4),
           den=st.integers(1, 3))
    def test_invariant_under_right_multiplication(self, classes_101, rep, coords, den):
        """class_key(J alpha) == class_key(J), with J alpha built by times
        from Fraction products of J's basis, a path apart from the lattice
        code's integer rows."""
        assume(any(coords))
        J = classes_101.representatives[rep]
        alpha = QuatElement(J.algebra, tuple(Fraction(c, den) for c in coords))
        assert brandt.class_key(times(J, alpha)) == brandt.class_key(J)

    @pytest.mark.parametrize("p,ell", [(37, 3), (101, 2), (211, 2)])
    def test_unreduced_neighbor_has_the_reduced_key(self, p, ell):
        """Each ell-neighbour of a representative, as ell_neighbors forms it,
        has the class key of its reduction by reduce_ideal, an equivalent
        ideal of small norm; over the neighbours the keys take more than one
        value."""
        cs = classes(p, ell)
        keys = set()
        for J in [J for R in cs.representatives for J in brandt.ell_neighbors(R, ell)]:
            key = brandt.class_key(J)
            assert key == brandt.class_key(idl.reduce_ideal(J, cs.order0))
            keys.add(key)
        assert len(keys) > 1

    @pytest.mark.parametrize("p,ell", [(101, 2), (113, 3)])
    def test_one_reduction_and_one_search_per_class(self, p, ell, monkeypatch):
        """A class set runs LLL on O0 and on each representative, h in all,
        and on no other lattice.  It runs one short-vector search per class,
        on its representative when the class is expanded, besides O0's
        lookup and the unit certificate on O0: every BFS lookup after O0's
        reads the minimal vectors that its parent's search seeded.  No
        lookup forms an inverse ideal or reduces an ideal, and no
        ell_neighbors are formed.  The BFS looks up O0 and then h ell + 1
        tree points: the ell + 1 at level 1 and each founding point's ell
        children, its parent's class being known.  type_involution's
        lookups, of the unseeded P I_j, run one LLL and one search each,
        on J."""
        reduced, searched, lookups = [], [], []
        lll, search, lookup = QLattice.lll.func, QLattice.short_vectors, brandt.ClassSet.class_of

        def counted_lll(L):
            reduced.append(L)
            return lll(L)

        def counted_search(L, bound):
            searched.append(L)
            return search(L, bound)

        def no_reduction(I, O=None):
            raise AssertionError("a class lookup reduced an ideal")

        def no_inverse(I):
            raise AssertionError("a class lookup formed an inverse ideal")

        def counted_lookup(cs, J):
            n_lll, n_search, h = len(reduced), len(searched), cs.class_number
            j = lookup(cs, J)
            lookups.append((id(J), [id(L) for L in reduced[n_lll:]],
                            [id(L) for L in searched[n_search:]], cs.class_number - h))
            return j

        counted_property = functools.cached_property(counted_lll)
        counted_property.__set_name__(QLattice, "lll")
        monkeypatch.setattr(QLattice, "lll", counted_property)
        monkeypatch.setattr(QLattice, "short_vectors", counted_search)
        monkeypatch.setattr(idl, "reduce_ideal", no_reduction)
        monkeypatch.setattr(idl, "inverse", no_inverse)
        monkeypatch.setattr(brandt.ClassSet, "class_of", counted_lookup)
        monkeypatch.setattr(brandt, "ell_neighbors", None)
        O0 = idl.root_maximal_orders(p)[0]
        cs = brandt.enumerate_classes(O0, ell)
        h, reps, o0 = cs.class_number, [id(R) for R in cs.representatives], id(O0.lattice)
        assert [id(L) for L in reduced] == reps
        assert [id(L) for L in searched] == [o0] + reps + [o0]
        assert len(lookups) == 1 + h * ell + 1
        assert lookups[0][:3] == (o0, [o0], [o0])
        assert all(not lll and not search for _, lll, search, _ in lookups[1:])
        assert [new for *_, new in lookups].count(1) == h == sum(new for *_, new in lookups)
        bfs = len(lookups)
        brandt.type_involution(cs)
        assert len(lookups) == bfs + h
        assert all(lll == [J] == search for J, lll, search, _ in lookups[bfs:])

    @pytest.mark.parametrize("p,ell", [(11, 2), (101, 3), (499, 2)])
    def test_no_ball_order_is_built(self, p, ell, monkeypatch):
        """The class BFS builds no order at a tree point: unit sizes come
        from the founding ideals' minimal vectors."""
        def no_order(frame, P, k):
            raise AssertionError("the class BFS built a ball order")

        monkeypatch.setattr(idl.EllAdicFrame, "ball_order", no_order)
        assert classes(p, ell).class_number == numth.class_number(p)

    @pytest.mark.parametrize("p,ell", [(37, 3), (101, 2), (113, 3), (211, 2)])
    def test_representatives_are_founding_ball_ideals(self, p, ell, monkeypatch):
        """Each representative is the ball ideal frame.ball_ideal(P, k) of
        the tree point that founded its class, of reduced norm ell^k, as a
        frame split afresh at precision k rebuilds it; O0 founds class 0."""
        built, ball_ideal = [], idl.EllAdicFrame.ball_ideal

        def recorded(frame, P, k):
            built.append((ball_ideal(frame, P, k), P, k))
            return built[-1][0]

        monkeypatch.setattr(idl.EllAdicFrame, "ball_ideal", recorded)
        O0 = idl.root_maximal_orders(p)[0]
        cs = brandt.enumerate_classes(O0, ell)
        monkeypatch.undo()
        assert cs.representatives[0] is O0.lattice
        for R in cs.representatives[1:]:
            P, k = next((P, k) for I, P, k in built if I is R)
            assert R.reduced_norm == ell**k
            assert R == idl.matrix_split(O0, ell, k).ball_ideal(P, k)

    @pytest.mark.parametrize("p,ell", [(113, 3), (211, 2)])
    def test_few_equivalence_tests_per_neighbor(self, p, ell, monkeypatch):
        """Bucketing and the mass-certified lookup leave well under three
        equivalence tests per neighbor (the first-match loop needs about 20
        at p = 499)."""
        calls = []
        test = idl.is_equivalent

        def counted(I, J, O=None):
            calls.append(1)
            return test(I, J, O)

        monkeypatch.setattr(idl, "is_equivalent", counted)
        cs = classes(p, ell)
        assert len(calls) <= 3 * cs.class_number * (ell + 1)


SEEDED_CASES = [(p, ell) for p in range(5, 120) if numth.is_prime(p)
                for ell in (2, 3, 5, 7) if ell != p] + [(499, 2), (499, 7)]


class TestSeededMinimalVectors:
    """The BFS lookups read minimal vectors that seed_minimal_vectors took
    off one Hermite-bounded search of the expanded class's representative."""

    @pytest.mark.parametrize("p,ell", SEEDED_CASES)
    def test_seeded_vectors_are_the_lattices_own(self, p, ell, monkeypatch):
        """At every lookup after O0's, J's minimal vectors are seeded, and
        they are those a fresh copy of J finds by its own LLL and search."""
        seeded, lookup = [], brandt.ClassSet.class_of

        def checked(cs, J):
            seeded.append("minimal_vectors" in vars(J))
            assert J.minimal_vectors == QLattice(J.algebra, J.mat, J.den).minimal_vectors
            return lookup(cs, J)

        monkeypatch.setattr(brandt.ClassSet, "class_of", checked)
        cs = classes(p, ell)
        assert seeded == [False] + [True] * (cs.class_number * ell + 1)

    def test_the_hermite_bound_is_tight(self, monkeypatch):
        """At (11, 2) a child J has min(J)/nrd(J) = hermite_ratio(11) =
        isqrt(5) = 2, so the search bound cannot be lowered: one lower, a
        child finds no vector and the class set stops."""
        ratios, lookup = [], brandt.ClassSet.class_of

        def recorded(cs, J):
            ratios.append(brandt.class_key(J)[0])
            return lookup(cs, J)

        monkeypatch.setattr(brandt.ClassSet, "class_of", recorded)
        classes(11, 2)
        assert max(ratios) == brandt.hermite_ratio(11) == math.isqrt(11 // 2) == 2
        monkeypatch.setattr(brandt, "hermite_ratio", lambda p: math.isqrt(p // 2) - 1)
        with pytest.raises(AssertionError, match="Hermite bound"):
            classes(11, 2)

    @pytest.mark.parametrize("p,ell", [(101, 2), (113, 3)])
    def test_norm_filter_keeps_the_neighbours_rows(self, p, ell, monkeypatch):
        """Over the search of each expanded representative I, ell nrd(I)
        divides nrd(x) exactly for the x in one of I's ell + 1 neighbours
        inside I, as ell_neighbors forms them: I's ell children and ell
        I_parent, or at O0 its ell + 1 children."""
        expanded, seed = [], brandt.seed_minimal_vectors

        def recorded(I, children, ell):
            expanded.append((I, children))
            return seed(I, children, ell)

        monkeypatch.setattr(brandt, "seed_minimal_vectors", recorded)
        cs = classes(p, ell)
        assert [I for I, _ in expanded] == cs.representatives
        scaled = [R.scale(ell) for R in cs.representatives]
        for I, children in expanded:
            neighbours = brandt.ell_neighbors(I, ell)
            others = [N for N in neighbours if N not in children]
            assert len(neighbours) == ell + 1 and all(J in neighbours for J in children)
            assert len(others) == (0 if I is cs.order0.lattice else 1)
            assert all(N in scaled for N in others)
            n = I.reduced_norm
            step = ell * n.numerator * I.den**2 // n.denominator
            rows = I.short_vectors(ell * brandt.hermite_ratio(p) * n)
            kept = [m % step == 0 for m, _ in rows]
            assert kept == [any(N.int_coords(x, I.den) is not None for N in neighbours)
                            for _, x in rows]
            assert any(kept) and not all(kept)


class TestBrandtMatrix:
    @pytest.mark.parametrize("p,ell", [(11, 2), (37, 2), (37, 3), (101, 2), (101, 3),
                                       (109, 2), (109, 3)])
    def test_row_sums_and_cross_check(self, p, ell):
        cs = classes(p, ell)
        b = brandt.brandt_matrix(cs)
        assert all(sum(row) == ell + 1 for row in b)
        a = cs.unit_sizes
        h = cs.class_number
        assert all(a[j] * b[i][j] == a[i] * b[j][i] for i in range(h) for j in range(h))

    def test_rows_match_a_second_neighbor_pass(self):
        cs = classes(37, 3)
        for i, I in enumerate(cs.representatives):
            row = [0] * cs.class_number
            for J in brandt.ell_neighbors(I, 3):
                J = idl.reduce_ideal(J, cs.order0)
                hits = [n for n, R in enumerate(cs.representatives)
                        if idl.is_equivalent(R, J, cs.order0) is not None]
                assert len(hits) == 1
                row[hits[0]] += 1
            assert row == cs.brandt[i]

    def test_p11_l2_shape(self):
        cs = classes(11, 2)
        b = brandt.brandt_matrix(cs)
        assert len(b) == 2 and all(sum(r) == 3 for r in b)

    def test_diagonal_matches_norm_ell_units(self):
        cs = classes(37, 2)
        b = cs.brandt
        for i, R in enumerate(cs.representatives):
            has_norm_2 = any(
                e.nrd() == 2 for e in min_norm_elements(R.right_order(), 2))
            if not has_norm_2:
                assert b[i][i] == 0


class TestGraphIsomorphism:
    """The witness is the backtracking reference's, keys in the same order."""

    @pytest.mark.parametrize("p,ell", [(37, 2), (37, 3), (11, 5), (13, 7), (37, 7)])
    def test_curve_vs_brandt(self, p, ell):
        G = ecgraph.build_isogeny_graph(p, ell)
        cs = classes(p, ell)
        Br = brandt.brandt_graph(cs)
        witness = brandt.check_graph_isomorphism(G, Br)
        assert witness is not None
        # the witness really preserves multiplicities
        for (s, d), rec in G.edges.items():
            assert Br.multiplicity(witness[s], witness[d]) == rec["count"]
        assert list(witness.items()) == list(backtrack_isomorphism(G, Br).items())

    def test_permuted_self(self):
        g = MultiGraph()
        for v in "abc":
            g.add_vertex(v)
        g.add_edge("a", "b", count=2)
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        h = MultiGraph()
        for v in "xyz":
            h.add_vertex(v)
        h.add_edge("z", "x", count=2)
        h.add_edge("x", "y")
        h.add_edge("y", "z")
        witness = brandt.check_graph_isomorphism(g, h)
        assert list(witness.items()) == list(backtrack_isomorphism(g, h).items())

    def test_non_isomorphic(self):
        g = MultiGraph()
        h = MultiGraph()
        for v in (0, 1):
            g.add_vertex(v)
            h.add_vertex(v)
        g.add_edge(0, 1, count=2)
        h.add_edge(0, 1)
        h.add_edge(1, 0)
        assert brandt.check_graph_isomorphism(g, h) is None
        assert backtrack_isomorphism(g, h) is None

    @staticmethod
    def cycle(n: int, step: int) -> MultiGraph:
        """The directed n-cycle v -> v + step mod n, for step prime to n."""
        g = MultiGraph()
        for v in range(n):
            g.add_vertex(v)
        for v in range(n):
            g.add_edge(v, (v + step) % n)
        return g

    @pytest.mark.parametrize("n", [65, 100])
    def test_no_vertex_cap(self, n):
        """A directed cycle against a relabelled copy, and the empty graph
        against itself: one class of n vertices each, the automorphism group
        transitive."""
        g, h = self.cycle(n, 7), self.cycle(n, 1)
        witness = brandt.check_graph_isomorphism(g, h)
        assert sorted(witness.values()) == h.vertices()
        assert all(h.multiplicity(witness[s], witness[d]) == 1 for s, d in g.edges)
        empty = MultiGraph()
        for v in range(n):
            empty.add_vertex(v)
        witness = brandt.check_graph_isomorphism(empty, empty)
        assert list(witness.items()) == list(backtrack_isomorphism(empty, empty).items())

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(brandt, "ISO_NODE_CAP", 1)
        with pytest.raises(CapExceeded, match="node cap"):
            brandt.check_graph_isomorphism(self.cycle(5, 2), self.cycle(5, 1))
        assert main(["isocheck", "--p", "37", "--ell", "2"]) == 2


class TestMultiGraphIndex:
    """The adjacency indexes agree with a scan over every edge."""

    @staticmethod
    def scanned(g, v):
        outs = sorted(rec["count"] for (s, _), rec in g.edges.items() if s == v)
        ins = sorted(rec["count"] for (_, d), rec in g.edges.items() if d == v)
        return sum(outs), sum(ins), (tuple(outs), tuple(ins), g.loop_count(v))

    @pytest.mark.parametrize("p,ell", [(37, 2), (61, 3), (101, 2)])
    def test_degrees_match_edge_scan(self, p, ell):
        graphs = [brandt.brandt_graph(classes(p, ell)), ecgraph.build_isogeny_graph(p, ell)]
        graphs.append(ecgraph.reduce_graph(graphs[1]))
        for g in graphs:
            for v in g.vertices():
                want = self.scanned(g, v)
                assert (g.out_degree(v), in_degree(g, v), g.degree_signature(v)) == want
                assert g.out_edges(v) == {d: rec for (s, d), rec in g.edges.items() if s == v}
                assert g.in_edges(v) == {s: rec for (s, d), rec in g.edges.items() if d == v}

    def test_repeated_edges_share_one_record(self):
        g = MultiGraph()
        for v in "ab":
            g.add_vertex(v)
        g.add_edge("a", "b")
        g.add_edge("a", "b", count=2, cls="H")
        g.add_edge("a", "a")
        assert g.out_edges("a")["b"] is g.edges[("a", "b")]
        assert g.out_degree("a") == 4 and in_degree(g, "b") == 3 and in_degree(g, "a") == 1
        assert g.degree_signature("a") == ((1, 3), (1,), 1)
        assert g.edges[("a", "b")]["cls"] == "H"

    def test_missing_endpoint_raises_beside_existing_edges(self):
        """A new edge checks both ends, also where the other end has edges
        already, and leaves no record behind."""
        g = MultiGraph()
        for v in "ab":
            g.add_vertex(v)
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        for src, dst in (("a", "z"), ("z", "a"), ("b", "z"), ("z", "z")):
            with pytest.raises(PreconditionError, match="not a vertex"):
                g.add_edge(src, dst)
        assert set(g.edges) == {("a", "b"), ("b", "a")}
        assert g.out_edges("a").keys() == {"b"} and g.in_edges("a").keys() == {"b"}
        assert g.out_edges("z") == {} and g.in_edges("z") == {}


class TestTypeGraph:
    def test_vertex_count_bounded_by_classes(self):
        cs = classes(37, 2)
        t = brandt.type_graph(cs)
        assert t.num_vertices() <= cs.class_number

    @pytest.mark.parametrize("p,ell", [(11, 2), (37, 2)])
    def test_matches_reduced_curve_graph(self, p, ell):
        cs = classes(p, ell)
        t = brandt.type_graph(cs)
        r = ecgraph.reduce_graph(ecgraph.build_isogeny_graph(p, ell))
        assert t.num_vertices() == r.num_vertices()
        assert brandt.check_graph_isomorphism(r, t) is not None

    def test_singleton_when_all_right_orders_conjugate(self):
        cs = classes(13, 2)  # one class, type set is a single point
        t = brandt.type_graph(cs)
        assert t.num_vertices() == 1

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_matches_pairwise_conjugacy_oracle(self, p):
        cs = classes(p, 2)
        assert sigma_types(cs) == oracle_types(cs)
        assert brandt.type_graph(cs).to_json() == oracle_type_graph(cs).to_json()


class TestTypeInvolution:
    """Each certificate of type_involution trips on a corrupted class set."""

    def test_unknown_invariant_is_reported(self):
        cs = classes(37, 2)
        cs._buckets = {}
        with pytest.raises(AssertionError, match="no class has the invariant"):
            brandt.type_involution(cs)

    def test_non_involution_is_reported(self):
        cs = classes(37, 2)
        cs.class_of = lambda J: 0
        with pytest.raises(AssertionError, match="not an involution"):
            brandt.type_involution(cs)

    def test_unit_size_change_is_reported(self):
        cs = classes(37, 2)
        moved = next(j for j, s in enumerate(brandt.type_involution(cs)) if s != j)
        cs.unit_sizes[moved] += 1
        with pytest.raises(AssertionError, match="unit size"):
            brandt.type_involution(cs)


class TestJson:
    def test_schema(self):
        cs = classes(11, 2)
        doc = brandt.class_set_json(cs)
        assert set(doc) == {"p", "ell", "classes", "brandt", "unit_sizes"}
        assert doc["classes"] == 2
        assert len(doc["brandt"]) == 2
