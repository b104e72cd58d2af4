import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisog import brandt
from qisog import ideals as idl
from qisog.errors import CapExceeded, PreconditionError
from qisog.lattice import QLattice, hnf_rows
from qisog.quat import QuatAlgebra, QuatElement

A7 = QuatAlgebra.for_prime(7)
STD = QLattice.standard_order_lattice(A7)
O0 = idl.global_root_orders(7)[0].lattice  # Z<i, (1+j)/2>
A101 = QuatAlgebra.for_prime(101)
O101 = idl.root_maximal_orders(101)[0].lattice  # den 4
O113 = idl.root_maximal_orders(113)[0].lattice  # den 6
# I_3^{-1} I_0 for the classes I_0 = O, I_3 (nrd 4) of the p = 101, l = 2
# class set: reduced norm 1/4, den 16
Q101 = QLattice.from_int_rows(
    A101, ((2, 0, 14, 2), (0, 1, 2, 9), (0, 0, 16, 0), (0, 0, 0, 16)), 16)


def brute_short_vectors(lat, bound):
    """Box-search oracle: the diagonal norm form bounds each ambient
    coordinate of a short vector, so the box is provably complete."""
    import math

    den = lat.den
    diag = lat.algebra.norm_diag()
    limit = Fraction(bound) * den * den  # nrd(vec / den) <= bound
    ranges = []
    for coef in diag:
        m = math.isqrt(int(limit // coef)) + 1
        ranges.append(range(-m, m + 1))
    out = {}
    for vec in product(*ranges):
        if not 0 < sum(c * x * x for c, x in zip(diag, vec)) <= limit:
            continue
        e = QuatElement(lat.algebra, tuple(Fraction(x, den) for x in vec))
        if lat.contains(e):
            for x in vec:
                if x > 0:
                    break
                if x < 0:
                    vec = tuple(-v for v in vec)
                    break
            out[vec] = QuatElement(lat.algebra, tuple(Fraction(x, den) for x in vec))
    return sorted(out.values(), key=lambda e: e.key())


def random_sublattice(rng, order):
    """Random full-rank sublattice spanned by small combinations of the rows."""
    while True:
        R = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        rows = [[sum(R[r][t] * order.mat[t][c] for t in range(4)) for c in range(4)]
                for r in range(4)]
        try:
            return QLattice.from_int_rows(order.algebra, rows, order.den)
        except PreconditionError:
            continue


def random_unimodular(rng):
    m = [[int(r == c) for c in range(4)] for r in range(4)]
    for _ in range(8):
        a, b = rng.sample(range(4), 2)
        f = rng.randint(-3, 3)
        for c in range(4):
            m[a][c] += f * m[b][c]
    return m


class TestCanonicalForm:
    def test_from_generators_examples(self):
        one, i, j, k = A7.basis()
        assert STD.mat == tuple(tuple(int(r == c) for c in range(4)) for r in range(4))
        assert STD.den == 1
        L = QLattice.from_elements([one, i, (one + j) / 2, (i + k) / 2])
        assert L.den == 2
        M = QLattice.from_elements([2 * one, 2 * i, 2 * j, 2 * k, one + i])
        assert M.den == 1
        assert M.mat == ((1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))

    def test_rank_deficient_rejected(self):
        one, i, _, _ = A7.basis()
        with pytest.raises(PreconditionError):
            QLattice.from_elements([one, i, one + i])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_hnf_canonical_under_unimodular_row_ops(self, seed):
        rng = random.Random(seed)
        U = random_unimodular(rng)
        rows = [[sum(U[r][t] * O0.mat[t][c] for t in range(4)) for c in range(4)]
                for r in range(4)]
        assert QLattice.from_int_rows(A7, rows, O0.den) == O0

    def test_content_normalized(self):
        L = QLattice.from_int_rows(A7, [[6, 0, 0, 0], [0, 6, 0, 0], [0, 0, 6, 0], [0, 0, 0, 6]], 2)
        assert L == QLattice.from_int_rows(
            A7, [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]], 1)

    def test_hnf_pivot_reduction(self):
        h = hnf_rows([[2, 7, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert h[0][1] < 3  # entry above the pivot is reduced


class TestBinaryOps:
    def test_conjugation_laws(self):
        one, i, j, k = A7.basis()
        L = O0
        M = QLattice.from_elements([2 * one, 2 * i, 2 * j, 2 * k, one + i])
        assert L.conjugate().conjugate() == L
        assert (L * M).conjugate() == M.conjugate() * L.conjugate()

    def test_idempotence(self):
        assert O0 + O0 == O0
        assert O0.intersect(O0) == O0

    def test_sum_and_intersection_against_membership(self):
        L = STD.scale(2)
        S = L + O0
        assert S.contains_lattice(L) and S.contains_lattice(O0)
        I = L.intersect(O0)
        assert L.contains_lattice(I) and O0.contains_lattice(I)
        # sampled double inclusion: everything in both lattices is in I
        for c in product(range(-2, 3), repeat=4):
            e = A7.element(*[Fraction(x) for x in c])
            if L.contains(e) and O0.contains(e):
                assert I.contains(e)

    def test_index(self):
        assert STD.scale(2).index_in(STD) == 16
        assert STD.index_in(STD) == 1
        with pytest.raises(PreconditionError):
            STD.index_in(STD.scale(2))

    def test_index_multiplicative_along_chains(self):
        L, M, N = STD, STD.scale(2), STD.scale(6)
        assert N.index_in(L) == N.index_in(M) * M.index_in(L)


class TestOrders:
    def test_left_order_of_order(self):
        assert O0.left_order() == O0
        assert O0.right_order() == O0

    def test_right_order_of_principal_lattice(self):
        alpha = A7.element(1, 1, 0, 0)  # nrd 2
        L = QLattice.from_elements([b * alpha for b in O0.basis_elements()])
        conj = QLattice.from_elements(
            [alpha.inverse() * b * alpha for b in O0.basis_elements()])
        assert L.right_order() == conj
        assert L.left_order() == O0

    def test_orders_of_conjugate_lattice(self):
        alpha = A7.element(1, 0, 1, 0)
        I = QLattice.from_elements([b * alpha for b in O0.basis_elements()])
        assert I.conjugate().left_order() == I.right_order()
        assert I.conjugate().right_order() == I.left_order()

    def test_order_outputs_are_rings(self):
        alpha = A7.element(2, 1, 1, 0)
        I = QLattice.from_elements([b * alpha for b in O0.basis_elements()])
        assert I.left_order().is_ring()
        assert I.right_order().is_ring()


def piecewise_order(L, side):
    """Oracle for the orders of L: the intersection over the basis rows b of
    b^-1 L (right order) or L b^-1 (left order), with b^-1 = conj(b)/nrd(b);
    for b = r/den the piece is spanned by conj(r) m / nrd(r) over the rows m,
    resp. m conj(r) / nrd(r).  Valid for every full-rank lattice."""
    mul = L.algebra.mul_coords
    out = None
    for r in L.mat:
        rc = (r[0], -r[1], -r[2], -r[3])
        rows = [mul(rc, m) if side == "right" else mul(m, rc) for m in L.mat]
        piece = QLattice.from_int_rows(L.algebra, rows, L.algebra.nrd_coords(r))
        out = piece if out is None else out.intersect(piece)
    return out


def class_set_lattices(p):
    """The class representatives of the p, l = 2 class set and every I^-1 J."""
    reps = [R.lattice for R in brandt.enumerate_classes(idl.root_maximal_orders(p)[0], 2)
            .representatives]
    return reps + [idl.inverse(idl.QIdeal(I)).lattice * J for I in reps for J in reps]


class TestOrdersByDuality:
    """left_order and right_order are (L L^#)^# and (L^# L)^#; the second
    path is the piecewise intersection of b^-1 L (or L b^-1) over the basis."""

    @staticmethod
    def assert_both_sides(L):
        assert L.right_order() == piecewise_order(L, "right")
        assert L.left_order() == piecewise_order(L, "left")

    @pytest.mark.parametrize("walked", ["walked_orders_13", "walked_orders_37"])
    def test_norm_ell_ideals_of_walked_orders(self, walked, request):
        for O in request.getfixturevalue(walked):
            for ell in (2, 3):
                for I in idl.ideals_of_norm_ell(O, ell):
                    self.assert_both_sides(I.lattice)

    @pytest.mark.parametrize("p", [101, 113])
    def test_class_set_and_quotient_lattices(self, p):
        for L in class_set_lattices(p):
            self.assert_both_sides(L)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_random_sublattices(self, seed, order):
        self.assert_both_sides(random_sublattice(random.Random(seed), order))

    def test_random_sublattices_include_non_invertible(self):
        """L is invertible iff conj(L) L = nrd(L) O_R(L); most draws are not,
        so the product formula could not stand in for the orders there."""
        rng = random.Random(5)
        lats = [random_sublattice(rng, O101) for _ in range(30)]
        non_invertible = [L for L in lats
                          if L.conjugate() * L != piecewise_order(L, "right").scale(L.reduced_norm())]
        assert len(non_invertible) >= 10
        for L in non_invertible:
            self.assert_both_sides(L)


class TestDual:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_dual_is_an_involution(self, seed, order):
        L = random_sublattice(random.Random(seed), order)
        assert L.dual().dual() == L

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_trace_pairing_is_integral(self, seed, order):
        """trd(L^# L) lies in Z, so L^# lies inside the dual, and its index
        shows it is all of it: for L inside the maximal order O, whose dual
        has index p^2 over O, [L^# : L] = [O : L]^2 p^2."""
        L = random_sublattice(random.Random(seed), order)
        D = L.dual()
        for m in D.basis_elements():
            for b in L.basis_elements():
                assert (m * b).trd().denominator == 1
        p = L.algebra.p
        assert L.index_in(D) == L.index_in(order) ** 2 * p * p


class TestMembership:
    """contains, contains_lattice, coords_of and is_ring run on the integer
    HNF rows; the second path is the HNF of the lattice with x adjoined."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_contains_against_adjoined_generator(self, seed, order):
        rng = random.Random(seed)
        L = random_sublattice(rng, order)
        alg = L.algebra
        bas = L.basis_elements()
        obas = order.basis_elements()
        probes = []
        for _ in range(4):
            # lattice members, integral elements of the order (mostly off the
            # sublattice), and denominators that need not divide den
            probes.append(sum((rng.randint(-3, 3) * b for b in bas), alg.element()))
            probes.append(sum((rng.randint(-3, 3) * b for b in obas), alg.element()))
            vden = rng.choice([1, 2, 3, 5, 7, L.den, 2 * L.den, 3 * L.den])
            probes.append(alg.element(*[Fraction(rng.randint(-9, 9), vden) for _ in range(4)]))
        hits = 0
        for x in probes:
            want = QLattice.from_elements([x] + bas) == L
            assert L.contains(x) == want, x
            hits += want
            coords = L.coords_of(x)
            assert sum((c * b for c, b in zip(coords, bas)), alg.element()) == x
            assert all(c.denominator == 1 for c in coords) == want
        assert hits >= 4  # the members drawn from L itself
        assert order.contains_lattice(L)
        assert L.contains_lattice(order) == (L == order)

    def test_ring_rejects_lattice_without_one(self):
        with pytest.raises(PreconditionError):
            idl.QOrder(O0.scale(2))
        assert not O0.scale(2).is_ring()

    def test_ring_rejects_lattice_not_closed(self):
        one, i, j, k = A7.basis()
        L = QLattice.from_elements([one, i, j / 2, k])
        assert L.contains(one) and not L.contains((j / 2) * (j / 2))
        assert not L.is_ring()
        with pytest.raises(PreconditionError):
            idl.QOrder(L)

    @pytest.mark.parametrize("order", [O0, O101, O113])
    def test_orders_are_rings(self, order):
        assert order.is_ring()
        assert idl.QOrder(order).lattice == order


class TestReducedNorm:
    def test_order_has_norm_one(self):
        assert O0.reduced_norm() == 1

    def test_homogeneity(self):
        alpha = A7.element(1, 2, 1, 0)
        L = QLattice.from_elements([b * alpha for b in O0.basis_elements()])
        assert L.scale(2).reduced_norm() == 4 * L.reduced_norm()

    def test_norm_squared_is_index(self):
        for alpha in (A7.element(1, 1, 0, 0), A7.element(0, 1, 1, 1)):
            I = QLattice.from_elements([b * alpha for b in O0.basis_elements()])
            n = I.reduced_norm()
            assert n * n == I.index_in(I.left_order())


class TestShortVectors:
    def test_example_standard_order(self):
        got = STD.min_norm_elements(1)
        assert sorted(e.coords for e in got) == [
            (0, 1, 0, 0), (1, 0, 0, 0)]

    def test_below_minimum_empty(self):
        assert STD.min_norm_elements(Fraction(1, 2)) == []

    def test_membership_contract(self):
        for e in O0.min_norm_elements(6):
            assert O0.contains(e)
            assert 0 < e.nrd() <= 6

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6),
           bound=st.fractions(Fraction(1, 3), 8, max_denominator=7),
           order=st.sampled_from([O0, O101, O113]))
    def test_against_box_oracle(self, seed, bound, order):
        L = random_sublattice(random.Random(seed), order)
        got = L.min_norm_elements(bound)
        want = brute_short_vectors(L, bound)
        assert [e.coords for e in got] == [e.coords for e in want]

    @pytest.mark.parametrize("bound", [Fraction(1, 4), Fraction(1, 2), Fraction(5, 4),
                                       Fraction(7, 2)])
    def test_fractional_norm_quotient_against_box_oracle(self, bound):
        assert Q101.reduced_norm() == Fraction(1, 4)
        O = idl.root_maximal_orders(101)[0]
        I = idl.ideals_of_norm_ell(O, 2)[0]
        J = idl.ideals_of_norm_ell(O, 3)[1]
        N = idl.inverse(I).lattice * J.lattice
        assert N.reduced_norm() == Fraction(3, 2)
        for L in (Q101, N):
            got = L.min_norm_elements(bound)
            assert [e.coords for e in got] == [e.coords for e in brute_short_vectors(L, bound)]

    def test_node_cap_is_pinned(self):
        """The search visits 1722 nodes here, as the exact rational-arithmetic
        search did, so cap = 1721 raises and cap = 1722 does not: cap keeps
        its meaning only while the visited node set stays the same."""
        bound = Fraction(15, 2)
        with pytest.raises(CapExceeded):
            Q101.min_norm_elements(bound, cap=1721)
        got = Q101.min_norm_elements(bound, cap=1722)
        assert len(got) == 91
        assert got == Q101.min_norm_elements(bound)
