import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisog import bass, brandt, numth
from qisog import ideals as idl
from qisog import lattice
from qisog.errors import CapExceeded, PreconditionError
from qisog.lattice import QLattice, echelon_mod, hnf_rows, lll_reduce
from qisog.quat import QuatAlgebra
from test_quat import (QuatElement, basis, basis_elements, contains, element, from_elements,
                       min_norm_elements, split_den)


def standard_order_lattice(alg: QuatAlgebra) -> QLattice:
    """Z<i, j> = Z + Zi + Zj + Zk."""
    return QLattice.from_int_rows(alg, [[int(r == c) for c in range(4)] for r in range(4)], 1)


def coords_of(L: QLattice, x: QuatElement) -> tuple:
    """Rational coordinates of x in the basis of L, for any x: scaled by
    vden det(mat), x lands in the lattice."""
    v, vden = split_den(x.coords)
    det = L.pivot_product()
    return tuple(Fraction(c, det * vden) for c in L.int_coords([a * det for a in v]))


A7 = QuatAlgebra.for_prime(7)
STD = standard_order_lattice(A7)
O0 = idl.root_maximal_order(7).lattice  # Z<i, (1+j)/2>
A101 = QuatAlgebra.for_prime(101)
O101 = idl.root_maximal_orders(101)[0].lattice  # den 4
O113 = idl.root_maximal_orders(113)[0].lattice  # den 6
# I_4^{-1} I_0 for the representatives I_0 = O, I_4 (nrd 4) of the p = 101,
# l = 2 class set: reduced norm 1/4, den 16
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
        if contains(lat, e):
            for x in vec:
                if x > 0:
                    break
                if x < 0:
                    vec = tuple(-v for v in vec)
                    break
            out[vec] = QuatElement(lat.algebra, tuple(Fraction(x, den) for x in vec))
    return sorted(out.values(), key=lambda e: e.key())


def int_det(m) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for c in range(n):
        if m[0][c]:
            minor = [[row[t] for t in range(n) if t != c] for row in m[1:]]
            total += (-1) ** c * m[0][c] * int_det(minor)
    return total


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


def hnf_rows_oracle(rows, ncols=4):
    """The former row HNF, kept as the reference: per column, reduce every
    nonzero entry by the smallest one until a single row is left."""
    work = [list(map(int, r)) for r in rows if any(r)]
    out = []
    for col in range(ncols):
        while True:
            nz = [r for r in work if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            base = nz[0]
            for r in nz[1:]:
                q = r[col] // base[col]
                for t in range(ncols):
                    r[t] -= q * base[t]
        nz = [r for r in work if r[col]]
        if nz:
            piv = nz[0]
            work = [r for r in work if r is not piv and any(r)]
            if piv[col] < 0:
                piv = [-a for a in piv]
            for r in out:
                q = r[col] // piv[col]
                if q:
                    for t in range(ncols):
                        r[t] -= q * piv[t]
            out.append(list(piv))
        else:
            work = [r for r in work if any(r)]
    return [tuple(r) for r in out]


def random_int_rows(rng):
    """1-9 rows of 4 entries up to 10^8, rank deficient about a third of the time."""
    mag = rng.choice([1, 3, 10, 1000, 10**8])
    rows = [[rng.randint(-mag, mag) for _ in range(4)] for _ in range(rng.randint(1, 9))]
    if rng.random() < 0.35:
        a, b = rows[0], rows[-1]
        rows = [[rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a, b)]
                for _ in rows]
    if rng.random() < 0.2:
        for r in rows:
            r[rng.randrange(4)] = 0
    return rows


class TestHnfAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_random_matrices(self, seed):
        rows = random_int_rows(random.Random(seed))
        assert hnf_rows([list(r) for r in rows]) == hnf_rows_oracle(rows)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**9), ell=st.sampled_from([2, 3, 5, 7]), e=st.integers(0, 12))
    def test_modulus_prime_powers(self, seed, ell, e):
        """echelon_mod(rows, 4, m), m = ell^e, is upper triangular with
        positive pivots and entries right of them in [0, m), and spans
        [m I; rows], whose rows may be anything: wider than m, negative,
        zero or dependent."""
        m, rng = ell**e, random.Random(seed)
        rows = random_int_rows(rng)[:rng.randint(0, 6)]
        E = echelon_mod([list(r) for r in rows], 4, m)
        assert all(E[s][s] > 0 and not any(E[s][:s]) for s in range(4))
        assert all(0 <= x < m for s in range(4) for x in E[s][s + 1:])
        want = hnf_rows_oracle([[m * (s == t) for t in range(4)] for s in range(4)] + rows)
        assert hnf_rows_oracle(E) == want

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**9), ell=st.sampled_from([2, 3, 5, 7]), e=st.integers(0, 12),
           zero_col=st.sampled_from([None, 0, 1, 2, 3]))
    def test_modulus_against_hnf_rows(self, seed, ell, e, zero_col):
        """echelon_mod's rows and hnf_rows(rows + m I) have one HNF, also
        with an all-zero column, whose pivot is m."""
        m, rng = ell**e, random.Random(seed)
        rows = random_int_rows(rng)[:rng.randint(0, 6)]
        if zero_col is not None:
            for r in rows:
                r[zero_col] = 0
        E = echelon_mod([list(r) for r in rows], 4, m)
        assert hnf_rows(E) == hnf_rows(rows + [[m * (s == t) for t in range(4)] for s in range(4)])
        if zero_col is not None:
            assert E[zero_col][zero_col] == m

    def test_modulus_must_be_a_prime_power(self):
        """No entry of 2 and 3 divides the other mod 6, and 8 = 4 * 2 mod 12
        has no unit cofactor: the echelon raises rather than mis-reduce."""
        with pytest.raises(PreconditionError, match="not a prime power"):
            echelon_mod([[2, 0, 0, 0], [3, 0, 0, 0]], 4, 6)
        with pytest.raises(ValueError):
            echelon_mod([[8, 0, 0, 0]], 4, 12)
        # 4 and 6 mod 12 in a later column, after a unit pivot in the first
        with pytest.raises(PreconditionError, match="not a prime power"):
            echelon_mod([[1, 5, 0, 0], [0, 4, 1, 0], [0, 6, 0, 1]], 4, 12)

    def test_inputs_of_a_class_set_and_a_walk(self, monkeypatch):
        """Every HNF, and every modular echelon (of a tree point in
        EllAdicFrame._span, and of a superorder enumeration's trace Gram),
        of six class sets, a walk, the kernel oracle's subfield kernels
        over it and two superorder enumerations.  An HNF equals the oracle's
        on its rows; an echelon modulo m is upper triangular with positive
        pivots, unreduced above them, with the oracle's HNF of [m I; rows]."""
        from qisog import orient
        from test_orient import kernel_conductors

        seen = []  # (rows, ncols, modulus or None, the echelon or None)

        def recorder(rows, ncols=4):
            seen.append(([list(r) for r in rows], ncols, None, None))
            return hnf_rows(rows, ncols)

        def echelon_recorder(rows, ncols, m):
            seen.append(([list(r) for r in rows], ncols, m, echelon_mod(rows, ncols, m)))
            return seen[-1][3]

        monkeypatch.setattr(lattice, "hnf_rows", recorder)
        monkeypatch.setattr(idl, "hnf_rows", recorder)
        monkeypatch.setattr(idl, "echelon_mod", echelon_recorder)
        monkeypatch.setattr(bass, "echelon_mod", echelon_recorder)
        for p in (109, 17):  # discrd 8p (p = 5 mod 8) and 3p (q = 3)
            bass.enumerate_maximal_superorders(bass.bass_order(QuatAlgebra.for_prime(p)))
        brandt.enumerate_classes(idl.root_maximal_orders(101)[0], 3)
        brandt.enumerate_classes(idl.root_maximal_orders(113)[0], 2)
        brandt.enumerate_classes(idl.root_maximal_orders(61)[0], 5)
        brandt.enumerate_classes(idl.root_maximal_orders(211)[0], 3)
        brandt.enumerate_classes(idl.root_maximal_orders(101)[0], 7)
        brandt.enumerate_classes(idl.root_maximal_orders(499)[0], 2)  # founding levels up to 8
        g = orient.walk_component(idl.root_maximal_order(37), 2, 3)
        alg = QuatAlgebra.for_prime(37)
        for den, mat in g.vertices():  # 6: the kernel oracle's subfield kernels
            kernel_conductors(idl.QOrder(QLattice(alg, mat, den)))
        moduli = [m for _, _, m, _ in seen if m is not None]
        assert len(seen) > 300 and len(moduli) > 200 and len(seen) - len(moduli) > 40
        assert {ncols for _, ncols, _, _ in seen} == {4, 6}
        assert set(moduli) >= {2, 4, 8, 3, 9, 27, 81, 5, 7, 16, 64}
        assert sum(E is not None for *_, E in seen) > 200
        for rows, ncols, m, E in seen:
            if E is None:
                assert hnf_rows(rows, ncols) == hnf_rows_oracle(rows, ncols)
            else:
                ident = [[m * (s == t) for t in range(ncols)] for s in range(ncols)]
                assert all(E[s][s] > 0 and not any(E[s][:s]) for s in range(ncols))
                assert hnf_rows_oracle(E, ncols) == hnf_rows_oracle(ident + rows, ncols)


def integer_kernel_oracle(rows, ncols):
    """The former integer_kernel, kept as the reference: per column, reduce
    every nonzero entry of [M | I] by the smallest one until a single row
    is left, and keep the rows that end up zero on M."""
    n = len(rows)
    ext = [list(rows[i]) + [int(i == t) for t in range(n)] for i in range(n)]
    width = ncols + n
    work = ext
    for col in range(ncols):
        while True:
            nz = [r for r in work if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            base = nz[0]
            for r in nz[1:]:
                q = r[col] // base[col]
                for t in range(width):
                    r[t] -= q * base[t]
        nz = [r for r in work if r[col]]
        if nz:
            work = [r for r in work if r is not nz[0]]
    return [tuple(r[ncols:]) for r in work]


class TestIntegerKernel:
    """The kernel read off the HNF of [M | I] spans the same lattice as the
    former reducer's, and each vector v has v M = 0."""

    @staticmethod
    def assert_agrees(rows, ncols):
        got = lattice.integer_kernel(rows, ncols)
        for v in got:
            assert all(sum(v[i] * rows[i][c] for i in range(len(rows))) == 0 for c in range(ncols))
        want = integer_kernel_oracle([list(r) for r in rows], ncols)
        n = len(rows)
        assert hnf_rows(got, n) == hnf_rows(want, n)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**9), ncols=st.integers(1, 4))
    def test_random_matrices(self, seed, ncols):
        rows = [r[:ncols] for r in random_int_rows(random.Random(seed))]
        self.assert_agrees(rows, ncols)

    def test_inputs_of_intersections_and_walks(self, monkeypatch):
        """Width 2: the kernel oracle's subfield kernels over a walk's
        orders; width 4: lattice intersections."""
        from qisog import orient
        from test_orient import kernel_conductors

        seen = []
        kernel = lattice.integer_kernel

        def recorder(rows, ncols):
            seen.append(([list(r) for r in rows], ncols))
            return kernel(rows, ncols)

        monkeypatch.setattr(lattice, "integer_kernel", recorder)
        g = orient.walk_component(idl.root_maximal_order(37), 3, 2)
        alg = QuatAlgebra.for_prime(37)
        for den, mat in g.vertices():
            kernel_conductors(idl.QOrder(QLattice(alg, mat, den)))
        for p in (101, 113):
            a, b = (O.lattice for O in idl.root_maximal_orders(p))
            a.intersect(b)
            a.intersect(b.scale(Fraction(1, 2)))
        monkeypatch.undo()
        assert {ncols for _, ncols in seen} == {2, 4}
        for rows, ncols in seen:
            self.assert_agrees(rows, ncols)


class TestCanonicalForm:
    def test_from_generators_examples(self):
        one, i, j, k = basis(A7)
        assert STD.mat == tuple(tuple(int(r == c) for c in range(4)) for r in range(4))
        assert STD.den == 1
        L = from_elements([one, i, (one + j) / 2, (i + k) / 2])
        assert L.den == 2
        M = from_elements([2 * one, 2 * i, 2 * j, 2 * k, one + i])
        assert M.den == 1
        assert M.mat == ((1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))

    def test_rank_deficient_rejected(self):
        one, i, _, _ = basis(A7)
        with pytest.raises(PreconditionError):
            from_elements([one, i, one + i])

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
        one, i, j, k = basis(A7)
        L = O0
        M = from_elements([2 * one, 2 * i, 2 * j, 2 * k, one + i])
        assert L.conjugate().conjugate() == L
        assert (L * M).conjugate() == M.conjugate() * L.conjugate()

    def test_idempotence(self):
        assert O0 + O0 == O0
        assert O0.intersect(O0) == O0

    def test_times_an_element_is_a_precondition_error(self):
        """A lattice times a rational scales it; I * alpha for an element
        alpha is not defined on lattices, on either side."""
        one, i, _, _ = basis(A7)
        assert O0 * 2 == 2 * O0 == O0 * Fraction(4, 2)
        assert (O0 * Fraction(1, 3)).den == 3 * O0.den
        for alpha in (one + i, one):
            with pytest.raises(PreconditionError, match="rational"):
                O0 * alpha
            with pytest.raises(PreconditionError, match="rational"):
                alpha * O0

    def test_sum_and_intersection_against_membership(self):
        L = STD.scale(2)
        S = L + O0
        assert S.contains_lattice(L) and S.contains_lattice(O0)
        I = L.intersect(O0)
        assert L.contains_lattice(I) and O0.contains_lattice(I)
        # sampled double inclusion: everything in both lattices is in I
        for c in product(range(-2, 3), repeat=4):
            e = element(A7, *[Fraction(x) for x in c])
            if contains(L, e) and contains(O0, e):
                assert contains(I, e)

    def test_index(self):
        assert STD.scale(2).index_in(STD) == 16
        assert STD.index_in(STD) == 1
        with pytest.raises(PreconditionError):
            STD.index_in(STD.scale(2))

    def test_index_multiplicative_along_chains(self):
        L, M, N = STD, STD.scale(2), STD.scale(6)
        assert N.index_in(L) == N.index_in(M) * M.index_in(L)


def trace_gram_discriminant(order) -> int:
    """Oracle for discrd: |det(trd(b_a b_b))| = discrd^2, with the Gram
    entries 2 mul(r_a, r_b)[0] = den^2 trd(b_a b_b) on the integer rows."""
    lat = order.lattice
    mul = order.algebra.mul_coords
    t = [[2 * mul(a, b)[0] for b in lat.mat] for a in lat.mat]
    val, rem = divmod(abs(int_det(t)), lat.den**8)
    assert rem == 0
    root = math.isqrt(val)
    assert root * root == val, "trace Gram determinant must be a square"
    return root


def orders_over_bass(p):
    """The root orders, the Bass order and every superorder of the Bass
    order of index l^k, l^k dividing discrd / p (maximal or not)."""
    orders = idl.root_maximal_orders(p)
    O = bass.bass_order(orders[0].algebra)
    orders.append(O)
    for ell, v in numth.factorize(O.reduced_discriminant // p).items():
        for k in range(1, v + 1):
            orders += bass._superorders_at(O, ell**k)
    return orders


class TestPivotInvariants:
    """covolume and reduced_discriminant are read off the HNF pivots; the
    oracle is the cofactor determinant of the basis and of the trace Gram."""

    @pytest.mark.parametrize("p", [p for p in range(7, 114) if numth.is_prime(p)])
    def test_root_bass_and_superorders(self, p):
        orders = orders_over_bass(p)
        assert any(not o.is_maximal for o in orders) == (p % 4 != 3)
        for O in orders:
            assert O.reduced_discriminant == trace_gram_discriminant(O)

    @pytest.mark.parametrize("walked", ["walked_orders_13", "walked_orders_37"])
    def test_walked_orders(self, walked, request):
        for O in request.getfixturevalue(walked):
            assert O.reduced_discriminant == trace_gram_discriminant(O) == O.algebra.p

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_covolume(self, seed, order):
        L = random_sublattice(random.Random(seed), order)
        assert L.covolume() == abs(Fraction(int_det([list(r) for r in L.mat]), L.den**4))


class TestOrders:
    def test_left_order_of_order(self):
        assert O0.left_order() == O0
        assert O0.right_order() == O0

    def test_right_order_of_principal_lattice(self):
        alpha = element(A7, 1, 1, 0, 0)  # nrd 2
        L = from_elements([b * alpha for b in basis_elements(O0)])
        conj = from_elements(
            [alpha.inverse() * b * alpha for b in basis_elements(O0)])
        assert L.right_order() == conj
        assert L.left_order() == O0

    def test_orders_of_conjugate_lattice(self):
        alpha = element(A7, 1, 0, 1, 0)
        I = from_elements([b * alpha for b in basis_elements(O0)])
        assert I.conjugate().left_order() == I.right_order()
        assert I.conjugate().right_order() == I.left_order()

    def test_order_outputs_are_rings(self):
        alpha = element(A7, 2, 1, 1, 0)
        I = from_elements([b * alpha for b in basis_elements(O0)])
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
    reps = brandt.enumerate_classes(idl.root_maximal_orders(p)[0], 2).representatives
    return reps + [idl.inverse(I) * J for I in reps for J in reps]


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
                    self.assert_both_sides(I)

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
                          if L.conjugate() * L != piecewise_order(L, "right").scale(L.reduced_norm)]
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
        for m in basis_elements(D):
            for b in basis_elements(L):
                assert (m * b).trd().denominator == 1
        p = L.algebra.p
        assert L.index_in(D) == L.index_in(order) ** 2 * p * p


BASS13 = bass.bass_order(QuatAlgebra.for_prime(13)).lattice  # not maximal


def perturbed_order_lattice(rng, order):
    """An order lattice with one random change, from small combinations
    x, y of its rows: Z + n O plus up to two of them (1 in it, integral
    norm form, a ring or not), O + Z x/m (1 in it, integral norm form or
    not), n O + Z x (1 in it only for n = 1), or a random sublattice."""
    d = order.den

    def elt():
        return [sum(rng.randint(-2, 2) * order.mat[t][c] for t in range(4)) for c in range(4)]

    n = rng.choice([1, 2, 3])
    kind = rng.randrange(4)
    if kind == 0:
        rows = [[d, 0, 0, 0]] + [[n * x for x in r] for r in order.mat]
        rows += [elt() for _ in range(rng.randint(0, 2))]
        return QLattice.from_int_rows(order.algebra, rows, d)
    if kind == 1:
        m = rng.choice([2, 3, 4])
        rows = [[m * x for x in r] for r in order.mat] + [elt()]
        return QLattice.from_int_rows(order.algebra, rows, d * m)
    if kind == 2:
        rows = [[n * x for x in r] for r in order.mat] + [elt()]
        return QLattice.from_int_rows(order.algebra, rows, d)
    return random_sublattice(rng, order)


def left_module_by_definition(L, O) -> bool:
    """O L in L: all 16 products of basis rows are members."""
    mul, dd = L.algebra.mul_coords, O.den * L.den
    return all(L.int_coords(mul(a, b), dd) is not None for a in O.mat for b in L.mat)


def is_ring_by_definition(L) -> bool:
    """1 in L and L L in L: all 16 products of basis rows are members."""
    return L.int_coords((1, 0, 0, 0)) is not None and left_module_by_definition(L, L)


def unit_coordinate(L):
    """The first t with coordinate e_t = +-1 of 1 in L's rows, else None."""
    e = L.int_coords((1, 0, 0, 0))
    return None if e is None else next((t for t, c in enumerate(e) if c * c == 1), None)


def unreduced_basis(rng, L):
    """L on another upper-triangular basis with its pivots: each row plus
    small multiples of the rows below it, so that the entries above the
    pivots leave [0, pivot) and 1 may have no coordinate +-1."""
    rows = [list(r) for r in L.mat]
    for s in range(3):
        for t in range(s + 1, 4):
            f = rng.randint(-3, 3)
            rows[s] = [x + f * y for x, y in zip(rows[s], rows[t])]
    return QLattice(L.algebra, tuple(tuple(r) for r in rows), L.den)


class TestRingTestOnABasisWithOne:
    """is_ring tests 1 and the integrality of the norm form, then three
    products on a basis that holds 1 where a coordinate e_t of 1 is +-1,
    else six; the second path is the definition with all 16 products.

    On a canonical (HNF) basis, once the norm form is integral some e_t is
    +-1: trd(b_0) = 2/e_0 is an integer, so e_0 is 1 or 2, and at e_0 = 2
    each e_t, t >= 1, up to the first nonzero one, is -2 a_0t / p_t in
    (-2, 0], as HNF reduces the entries above the pivots into [0, p_t); they
    are not all 0, or 1/2 = b_0 would lie in L.  The six products run on
    the same lattices given by unreduced triangular bases."""

    ORDERS = [O0, O101, O113, BASS13]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from(ORDERS))
    def test_agrees_with_definition(self, seed, order):
        rng = random.Random(seed)
        for _ in range(10):
            L = perturbed_order_lattice(rng, order)
            want = is_ring_by_definition(L)
            assert L.is_ring() == want, L
            assert unreduced_basis(rng, L).is_ring() == want, L

    def test_perturbations_cover_every_case(self):
        # rings; lattices with 1 and integral norm form that are not rings
        # (the products decide these), each with and without a coordinate
        # +-1 of 1; with 1 and a non-integral norm form; without 1
        rng = random.Random(0)
        seen = set()
        for _ in range(400):
            L = perturbed_order_lattice(rng, rng.choice(self.ORDERS))
            for M in (L, unreduced_basis(rng, L)):
                has_one = M.int_coords((1, 0, 0, 0)) is not None
                integral = has_one and M.reduced_norm.denominator == 1
                unit = unit_coordinate(M) is not None
                if integral and M is L:
                    assert unit, L  # the canonical basis always has one
                seen.add((has_one, integral, integral and unit, is_ring_by_definition(M)))
        assert seen == {(True, True, True, True), (True, True, False, True),
                        (True, True, True, False), (True, True, False, False),
                        (True, False, False, False), (False, False, False, False)}

    # (p, den, mat, t, (a, b)): lattices holding 1 with integral norm form
    # whose first coordinate +-1 of 1 is e_t, and whose only product b_a b_b
    # outside L among the three is_ring tests is the given one
    ONE_FAILING_PRODUCT = [
        (7, 2, ((1, 0, 1, 2), (0, 1, 0, 3), (0, 0, 2, 4), (0, 0, 0, 6)), 2, (0, 1)),
        (113, 6, ((3, 1, 0, 4), (0, 2, 0, 8), (0, 0, 3, 9), (0, 0, 0, 36)), 1, (0, 2)),
        (113, 6, ((3, 1, 6, 16), (0, 2, 0, 2), (0, 0, 12, 12), (0, 0, 0, 18)), 1, (0, 3)),
        (13, 1, ((1, 0, 0, 0), (0, 1, 0, 2), (0, 0, 1, 2), (0, 0, 0, 3)), 0, (1, 2)),
        (13, 1, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)), 0, (1, 3)),
        (13, 1, ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 0, (2, 3)),
    ]

    @pytest.mark.parametrize("p,den,mat,t,pair", ONE_FAILING_PRODUCT)
    def test_each_product_decides_a_case(self, p, den, mat, t, pair):
        """Skipping any one product of is_ring would pass one of these."""
        L = QLattice.from_int_rows(QuatAlgebra.for_prime(p), mat, den)
        assert L.mat == mat and unit_coordinate(L) == t and L.reduced_norm.denominator == 1
        mul = L.algebra.mul_coords
        for a, b in product(range(4), repeat=2):
            if a < b and t not in (a, b):
                inside = L.int_coords(mul(mat[a], mat[b]), den * den) is not None
                assert inside == ((a, b) != pair), (a, b)
        assert not L.is_ring() and not is_ring_by_definition(L)


class TestLeftModuleOver:
    """is_left_module_over tests 12 products where a coordinate of 1 in the
    other lattice's basis is +-1, else 16; the second path is the 16-product
    definition."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from(TestRingTestOnABasisWithOne.ORDERS))
    def test_agrees_with_definition(self, seed, order):
        rng = random.Random(seed)
        for _ in range(10):
            L = perturbed_order_lattice(rng, order)
            O = rng.choice([order, perturbed_order_lattice(rng, order)])
            assert L.is_left_module_over(O) == left_module_by_definition(L, O), (L, O)

    def test_both_branches_and_both_answers(self):
        rng = random.Random(1)
        seen = set()
        for _ in range(300):
            order = rng.choice(TestRingTestOnABasisWithOne.ORDERS)
            L = perturbed_order_lattice(rng, order)
            O = rng.choice([order, perturbed_order_lattice(rng, order)])
            seen.add((unit_coordinate(O) is not None, left_module_by_definition(L, O)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestMembership:
    """contains, contains_lattice, coords_of and is_ring run on the integer
    HNF rows; the second path is the HNF of the lattice with x adjoined."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_contains_against_adjoined_generator(self, seed, order):
        rng = random.Random(seed)
        L = random_sublattice(rng, order)
        alg = L.algebra
        bas = basis_elements(L)
        obas = basis_elements(order)
        probes = []
        for _ in range(4):
            # lattice members, integral elements of the order (mostly off the
            # sublattice), and denominators that need not divide den
            probes.append(sum((rng.randint(-3, 3) * b for b in bas), element(alg)))
            probes.append(sum((rng.randint(-3, 3) * b for b in obas), element(alg)))
            vden = rng.choice([1, 2, 3, 5, 7, L.den, 2 * L.den, 3 * L.den])
            probes.append(element(alg, *[Fraction(rng.randint(-9, 9), vden) for _ in range(4)]))
        hits = 0
        for x in probes:
            want = from_elements([x] + bas) == L
            assert contains(L, x) == want, x
            hits += want
            coords = coords_of(L, x)
            assert sum((c * b for c, b in zip(coords, bas)), element(alg)) == x
            assert all(c.denominator == 1 for c in coords) == want
        assert hits >= 4  # the members drawn from L itself
        assert order.contains_lattice(L)
        assert L.contains_lattice(order) == (L == order)

    def test_ring_rejects_lattice_without_one(self):
        with pytest.raises(PreconditionError):
            idl.QOrder(O0.scale(2))
        assert not O0.scale(2).is_ring()

    def test_ring_rejects_lattice_not_closed(self):
        one, i, j, k = basis(A7)
        L = from_elements([one, i, j / 2, k])
        assert contains(L, one) and not contains(L, (j / 2) * (j / 2))
        assert not L.is_ring()
        with pytest.raises(PreconditionError):
            idl.QOrder(L)

    @pytest.mark.parametrize("order", [O0, O101, O113])
    def test_orders_are_rings(self, order):
        assert order.is_ring()
        assert idl.QOrder(order).lattice == order

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([STD, O0, O101, O113, Q101]))
    def test_contains_lattice_against_int_coords(self, seed, order):
        """contains_lattice's one pass against int_coords on each row, for
        pairs of sublattices, orders, their scalings and unreduced bases."""
        rng = random.Random(seed)
        cands = [order, order.scale(Fraction(1, 2)), order.scale(3)]
        cands += [random_sublattice(rng, order) for _ in range(3)]
        cands += [unreduced_basis(rng, L) for L in cands[3:]]
        hits = 0
        for L, M in product(cands, repeat=2):
            want = all(L.int_coords(r, M.den) is not None for r in M.mat)
            assert L.contains_lattice(M) == want, (L, M)
            hits += want
        assert 0 < hits < len(cands) ** 2


class TestReducedNorm:
    def test_order_has_norm_one(self):
        assert O0.reduced_norm == 1

    def test_homogeneity(self):
        alpha = element(A7, 1, 2, 1, 0)
        L = from_elements([b * alpha for b in basis_elements(O0)])
        assert L.scale(2).reduced_norm == 4 * L.reduced_norm

    def test_norm_squared_is_index(self):
        for alpha in (element(A7, 1, 1, 0, 0), element(A7, 0, 1, 1, 1)):
            I = from_elements([b * alpha for b in basis_elements(O0)])
            n = I.reduced_norm
            assert n * n == I.index_in(I.left_order())


def int_coords_oracle(L: QLattice, x, vden: int = 1):
    """The former loop form of QLattice.int_coords, kept as the reference:
    clear the denominators, then forward-substitute column by column."""
    y = []
    for v in x:
        n, r = divmod(v * L.den, vden)
        if r:
            return None
        y.append(n)
    out = []
    for t, row in enumerate(L.mat):
        c, r = divmod(y[t], row[t])
        if r:
            return None
        out.append(c)
        for s in range(t + 1, 4):
            y[s] -= c * row[s]
    return out


def gram_int_oracle(L: QLattice):
    """The former loop form of QLattice.gram_int: den^2 (1/2) trd(b_a
    conj(b_b)) summed over every column of the diagonal norm form."""
    g0 = L.algebra.norm_diag()
    return tuple(tuple(sum(a[t] * b[t] * g0[t] for t in range(4)) for b in L.mat) for a in L.mat)


def is_ring_oracle(L: QLattice) -> bool:
    """The former form of QLattice.is_ring: 1, the integral norm form off
    gram_int, then the six products b_a b_b, a < b, through mul_coords."""
    if L.int_coords((1, 0, 0, 0)) is None:
        return False
    g, dd = L.gram_int, L.den * L.den
    if math.gcd(*(g[a][a] for a in range(4)),
                *(2 * g[a][b] for a in range(4) for b in range(a + 1, 4))) % dd:
        return False
    mul = L.algebra.mul_coords
    return all(L.int_coords(mul(L.mat[a], L.mat[b]), dd) is not None
               for a in range(4) for b in range(a + 1, 4))


def triangular_adjugate_oracle(m):
    """The former lattice.triangular_adjugate, kept as the reference:
    det(m) m^-1 by back-substitution, for nonzero pivots; every division is
    exact."""
    det = math.prod(m[t][t] for t in range(4))
    X = [[0] * 4 for _ in range(4)]
    for c in range(4):
        X[c][c] = det // m[c][c]
        for r in range(c - 1, -1, -1):
            s = sum(m[r][t] * X[t][c] for t in range(r + 1, c + 1))
            X[r][c], rem = divmod(-s, m[r][r])
            assert rem == 0
    return X


def random_triangular_rows(rng):
    """Four upper-triangular integer rows with positive pivots, entries above
    them of either sign and up to three times the pivot of their column, and
    a common factor now and then."""
    piv = [rng.choice([1, 1, 2, 3, 4, 6, 9, 16, 27]) for _ in range(4)]
    rows = [[0] * 4 for _ in range(4)]
    for t in range(4):
        rows[t][t] = piv[t]
        for c in range(t + 1, 4):
            rows[t][c] = rng.randint(-3 * piv[c], 3 * piv[c])
    f = rng.choice([1, 1, 2, 3, 6])
    return [[f * x for x in r] for r in rows]


class TestStraightLineKernels:
    """int_coords, gram_int, from_triangular_rows and is_ring are written
    out for rank 4; the loop forms and from_int_rows are the second path,
    on lattices with den = 1 and den > 1."""

    LATTICES = [STD, O0, O101, O113, Q101]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from(LATTICES))
    def test_int_coords_against_loop(self, seed, order):
        rng = random.Random(seed)
        L = random_sublattice(rng, order) if rng.random() < 0.7 else order
        inside = 0
        for _ in range(6):
            # a member x/vden with vden a multiple of den, negative
            # coefficients allowed; the same vector nudged off the lattice;
            # and a random vector over a random denominator
            f = rng.choice([1, 2, 3, 7])
            c = [rng.randint(-5, 5) for _ in range(4)]
            x = [f * sum(c[t] * L.mat[t][s] for t in range(4)) for s in range(4)]
            nudged = list(x)
            nudged[rng.randrange(4)] += rng.choice([-1, 1])
            vden = rng.choice([1, 2, 5, L.den, 3 * L.den])
            for vec, d in ((x, f * L.den), (nudged, f * L.den),
                           ([rng.randint(-50, 50) for _ in range(4)], vden)):
                got = L.int_coords(vec, d)
                assert got == int_coords_oracle(L, vec, d), (vec, d)
                inside += got is not None
            assert L.int_coords(x, f * L.den) == c
        assert inside >= 6

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from(LATTICES))
    def test_gram_int_against_loop(self, seed, order):
        L = random_sublattice(random.Random(seed), order)
        assert L.gram_int == gram_int_oracle(L)
        assert order.gram_int == gram_int_oracle(order)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), den=st.sampled_from([1, 2, 3, 4, 6, 12, 36, 64]))
    def test_triangular_rows_against_hnf(self, seed, den):
        rng = random.Random(seed)
        for _ in range(5):
            rows = random_triangular_rows(rng)
            got = QLattice.from_triangular_rows(A7, rows, den)
            assert got == QLattice.from_int_rows(A7, rows, den), (rows, den)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from(TestRingTestOnABasisWithOne.ORDERS))
    def test_is_ring_against_mul_coords(self, seed, order):
        rng = random.Random(seed)
        for _ in range(10):
            L = perturbed_order_lattice(rng, order)
            assert L.is_ring() == is_ring_oracle(L), L

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_triangular_adjugate(self, seed):
        """m adj(m) = det(m) I, and the former back-substitution, on upper-
        triangular matrices with entries of either sign, zero pivots too."""
        rng = random.Random(seed)
        m = [[rng.randint(-40, 40) if c > r else 0 for c in range(4)] for r in range(4)]
        for t in range(4):
            m[t][t] = rng.choice([-3, -1, 0, 1, 2, 5, 16, 81, 1000])
        adj = lattice.triangular_adjugate(m)
        det = math.prod(m[t][t] for t in range(4))
        assert all(sum(m[r][t] * adj[t][c] for t in range(4)) == det * (r == c)
                   for r in range(4) for c in range(4))
        if det:
            assert adj == triangular_adjugate_oracle(m)


def fraction_fp_setup(gram):
    """The first Fincke-Pohst set-up, kept as the reference: the Fraction
    LDL^T of g, d_k the lcm of the denominators of column k of L, and
    D_k / d_k^2 = w_k / P over the lcm P of their denominators."""
    n = len(gram)
    L = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    D = [Fraction(0)] * n
    for c in range(n):
        D[c] = Fraction(gram[c][c]) - sum(D[t] * L[c][t] ** 2 for t in range(c))
        for r in range(c + 1, n):
            L[r][c] = (gram[r][c] - sum(D[t] * L[r][t] * L[c][t] for t in range(c))) / D[c]
    d = [math.lcm(*(L[t][k].denominator for t in range(k + 1, n))) for k in range(n)]
    lnum = [[int(L[t][k] * d[k]) for t in range(n)] for k in range(n)]
    w = [D[k] / d[k] ** 2 for k in range(n)]
    P = math.lcm(*(x.denominator for x in w))
    return d, lnum, [int(x * P) for x in w], P


def fraction_gs_data(gram):
    """LLL's integer Gram-Schmidt data of g, recomputed from the Fraction
    LDL^T: d[m] = D_0 ... D_(m-1) and lam[k][j] = d[j+1] L_kj for j < k."""
    fd, flnum, fw, fP = fraction_fp_setup(gram)
    n = len(gram)
    d = [Fraction(1)]
    for k in range(n):
        d.append(d[-1] * Fraction(fw[k], fP) * fd[k] ** 2)
    lam = [[d[j + 1] * Fraction(flnum[j][k], fd[j]) if j < k else Fraction(0) for j in range(n)]
           for k in range(n)]
    assert all(x.denominator == 1 for x in d + [y for row in lam for y in row])
    return [int(x) for x in d], [[int(y) for y in row] for row in lam]


def recursive_short_vectors(L, bound):
    """The former recursive Fincke-Pohst descent, kept as the reference:
    level by level on LLL's d and lam, building each candidate's row as it
    goes and its norm by nrd_coords, a node per candidate coordinate.
    Returns short_vectors' sorted (norm, row) pairs and the node count."""
    n = 4
    U, _, dd, lam = L.lll
    basis = [[sum(u[s] * L.mat[s][col] for s in range(n)) for col in range(4)] for u in U]
    dens = [dd[k] * dd[k + 1] for k in range(n)]
    P = math.lcm(*dens)
    w = [P // x for x in dens]
    found: set[tuple] = set()
    nodes = 0
    c = [0] * n

    def descend(level: int, rem: int, above: list[int]):
        nonlocal nodes
        S = sum(lam[t][level] * c[t] for t in range(level + 1, n))
        m = math.isqrt(rem // w[level])
        dk = dd[level + 1]
        for v in range(-((m + S) // dk), (m - S) // dk + 1):
            nodes += 1
            c[level] = v
            vec = [a + v * b for a, b in zip(above, basis[level])]
            if level == 0:
                if any(c):
                    for x in vec:
                        if x > 0:
                            break
                        if x < 0:
                            vec = [-y for y in vec]
                            break
                    found.add(tuple(vec))
            else:
                descend(level - 1, rem - w[level] * (v * dk + S) ** 2, vec)
        c[level] = 0

    descend(n - 1, math.floor(Fraction(bound) * L.den**2 * P), [0, 0, 0, 0])
    nrd = L.algebra.nrd_coords
    return sorted((nrd(v), v) for v in found), nodes


def visited_nodes(L, bound):
    """Nodes the search visits, as the least SHORT_VECTOR_CAP that does not
    raise."""
    lo, hi = 1, lattice.SHORT_VECTOR_CAP
    with pytest.MonkeyPatch.context() as m:
        while lo < hi:
            mid = (lo + hi) // 2
            m.setattr(lattice, "SHORT_VECTOR_CAP", mid)
            try:
                L.min_norm_elements(bound)
                hi = mid
            except CapExceeded:
                lo = mid + 1
    return lo


def skewed_gram(rng, L):
    """L's Gram matrix in a badly reduced basis V mat, V unimodular."""
    V = random_unimodular(rng)
    g = L.gram_int
    return [[sum(V[a][s] * g[s][t] * V[b][t] for s in range(4) for t in range(4))
             for b in range(4)] for a in range(4)]


def gram_schmidt(G):
    """mu and the squared lengths B of the Gram-Schmidt basis, over Q."""
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for k in range(n):
        for j in range(k):
            mu[k][j] = (Fraction(G[k][j]) - sum(mu[j][i] * mu[k][i] * B[i] for i in range(j))) / B[j]
        B[k] = Fraction(G[k][k]) - sum(mu[k][i] ** 2 * B[i] for i in range(k))
    return mu, B


class TestLLL:
    @staticmethod
    def assert_reduced(g):
        U, G, d, lam = lll_reduce(g)
        assert abs(int_det(U)) == 1
        assert G == [[sum(U[a][s] * g[s][t] * U[b][t] for s in range(4) for t in range(4))
                      for b in range(4)] for a in range(4)]
        mu, B = gram_schmidt(G)
        for k in range(4):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k)), "size condition"
            if k:
                assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1], "Lovasz condition"
            assert Fraction(d[k + 1], d[k]) == B[k]
            assert all(lam[k][j] == d[j + 1] * mu[k][j] for j in range(k))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_random_sublattices_in_skewed_bases(self, seed, order):
        rng = random.Random(seed)
        L = random_sublattice(rng, order)
        self.assert_reduced([list(r) for r in L.gram_int])
        self.assert_reduced(skewed_gram(rng, L))

    def test_class_set_and_quotient_lattices(self):
        for L in class_set_lattices(101):
            self.assert_reduced([list(r) for r in L.gram_int])


class TestBareissSetUp:
    """The search's set-up is LLL's fraction-free Gram-Schmidt data of the
    reduced basis: the same form as the Fraction LDL^T of the reduced Gram
    matrix, so the search visits the same nodes on either."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.sampled_from([O0, O101, O113]))
    def test_same_form_as_fraction_ldl(self, seed, order):
        rng = random.Random(seed)
        L = random_sublattice(rng, order)
        for g in (L.gram_int, skewed_gram(rng, L)):
            _, G, d, lam = lll_reduce(g)
            fd, flnum, fw, fP = fraction_fp_setup(G)
            for k in range(4):
                assert Fraction(d[k + 1], d[k]) == Fraction(fw[k], fP) * fd[k] ** 2
                for t in range(k + 1, 4):
                    assert Fraction(lam[t][k], d[k + 1]) == Fraction(flnum[k][t], fd[k])

    def test_same_visited_nodes(self, monkeypatch):
        rng = random.Random(11)
        cases = [(Q101, Fraction(15, 2)), (Q101, Fraction(1, 4)), (O101, Fraction(5)),
                 (O113, Fraction(7, 3))]
        cases += [(random_sublattice(rng, O113), Fraction(rng.randint(1, 40), 5)) for _ in range(6)]
        counts = [visited_nodes(L, b) for L, b in cases]

        def fraction_lll(gram):
            U, G, _, _ = lll_reduce(gram)
            return (U, G, *fraction_gs_data(G))
        monkeypatch.setattr(lattice, "lll_reduce", fraction_lll)
        fresh = [(QLattice(L.algebra, L.mat, L.den), b) for L, b in cases]
        assert [visited_nodes(L, b) for L, b in fresh] == counts


class TestFlatSearch:
    """The four nested loops return the recursive descent's (norm, row)
    list, visit as many nodes, and read off each norm nrd_coords(row)."""

    @staticmethod
    def assert_matches_recursion(L, bound):
        want, nodes = recursive_short_vectors(L, bound)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lattice, "SHORT_VECTOR_CAP", nodes)
            got = QLattice(L.algebra, L.mat, L.den).short_vectors(bound)
            m.setattr(lattice, "SHORT_VECTOR_CAP", nodes - 1)
            with pytest.raises(CapExceeded):
                QLattice(L.algebra, L.mat, L.den).short_vectors(bound)
        assert got == want
        assert all(norm == L.algebra.nrd_coords(row) for norm, row in got)

    def test_class_set_lattices(self):
        for L in class_set_lattices(101):
            n = L.reduced_norm
            for k in (1, 3, 10):
                self.assert_matches_recursion(L, k * n)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6),
           bound=st.fractions(Fraction(1, 3), 12, max_denominator=7),
           order=st.sampled_from([O0, O101, O113]))
    def test_random_sublattices(self, seed, bound, order):
        self.assert_matches_recursion(random_sublattice(random.Random(seed), order), bound)


class TestShortVectors:
    def test_example_standard_order(self):
        got = min_norm_elements(STD, 1)
        assert sorted(e.coords for e in got) == [
            (0, 1, 0, 0), (1, 0, 0, 0)]

    def test_below_minimum_empty(self):
        assert STD.min_norm_elements(Fraction(1, 2)) == []

    @pytest.mark.parametrize("L,bound", [(O0, 6), (Q101, Fraction(15, 2))])
    def test_min_norm_elements_are_the_short_vector_rows(self, L, bound):
        """min_norm_elements returns the integer rows of short_vectors, in
        its order, each a lattice vector over den."""
        rows = [v for _, v in L.short_vectors(bound)]
        assert len(rows) > 1 and L.min_norm_elements(bound) == rows
        assert all(L.int_coords(v, L.den) is not None for v in rows)

    def test_membership_contract(self):
        for e in min_norm_elements(O0, 6):
            assert contains(O0, e)
            assert 0 < e.nrd() <= 6

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6),
           bound=st.fractions(Fraction(1, 3), 8, max_denominator=7),
           order=st.sampled_from([O0, O101, O113]))
    def test_against_box_oracle(self, seed, bound, order):
        L = random_sublattice(random.Random(seed), order)
        got = min_norm_elements(L, bound)
        want = brute_short_vectors(L, bound)
        assert [e.coords for e in got] == [e.coords for e in want]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6),
           bound=st.fractions(Fraction(1, 3), 8, max_denominator=7),
           order=st.sampled_from([O0, O101, O113]))
    def test_minimal_vectors_head_every_non_empty_search(self, seed, bound, order):
        """minimal_vectors, found by the lattice's own search bounded by its
        first LLL vector, is the least-norm prefix of any non-empty search,
        and the box oracle's elements of least norm; no search writes it."""
        L = random_sublattice(random.Random(seed), order)
        wide = L.short_vectors(bound)
        assert "minimal_vectors" not in L.__dict__
        own = L.minimal_vectors
        least = own[0][0]
        if wide:
            assert [x for x in wide if x[0] == wide[0][0]] == own
        assert all(norm == least for norm, _ in own)
        assert [v for _, v in own] == [tuple(c * L.den for c in e.coords)
                                       for e in brute_short_vectors(L, Fraction(least, L.den**2))]

    @pytest.mark.parametrize("bound", [Fraction(1, 4), Fraction(1, 2), Fraction(5, 4),
                                       Fraction(7, 2)])
    def test_fractional_norm_quotient_against_box_oracle(self, bound):
        assert Q101.reduced_norm == Fraction(1, 4)
        O = idl.root_maximal_orders(101)[0]
        I = idl.ideals_of_norm_ell(O, 2)[0]
        J = idl.ideals_of_norm_ell(O, 3)[1]
        N = idl.inverse(I) * J
        assert N.reduced_norm == Fraction(3, 2)
        for L in (Q101, N):
            got = min_norm_elements(L, bound)
            assert [e.coords for e in got] == [e.coords for e in brute_short_vectors(L, bound)]

    def test_node_cap_is_pinned(self, monkeypatch):
        """The search on the LLL-reduced Gram matrix visits 264 nodes here
        (1722 on the unreduced one), so SHORT_VECTOR_CAP = 263 raises and
        264 does not: the cap keeps its meaning only while the visited node
        set stays the same."""
        bound = Fraction(15, 2)
        want = Q101.min_norm_elements(bound)
        monkeypatch.setattr(lattice, "SHORT_VECTOR_CAP", 263)
        with pytest.raises(CapExceeded):
            Q101.min_norm_elements(bound)
        monkeypatch.setattr(lattice, "SHORT_VECTOR_CAP", 264)
        got = Q101.min_norm_elements(bound)
        assert len(got) == 91
        assert got == want
