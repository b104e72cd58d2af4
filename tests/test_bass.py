import math
from itertools import combinations_with_replacement, product

import pytest

from qisog import bass
from qisog import ideals as idl
from qisog import numth
from qisog.errors import PreconditionError
from qisog.ideals import QOrder
from qisog.lattice import QLattice, triangular_adjugate
from qisog.quat import QuatAlgebra
from test_ideals import rref_oracle
from test_lattice import standard_order_lattice
from test_quat import basis_elements, element, from_elements


def bass_for(p):
    return bass.bass_order(QuatAlgebra.for_prime(p))


def local_embedding_number(O: QOrder, ell: int) -> int:
    """Number of local maximal orders above O at ell; 1 where ell does not
    divide discrd, and at ell = p."""
    return bass.embedding_numbers(O)[1].get(ell, 1)


class TestBassOrder:
    def test_p7_is_maximal(self):
        O = bass_for(7)
        assert O.reduced_discriminant == 7 and O.is_maximal

    def test_p13_discrd_8p(self):
        O = bass_for(13)
        assert O.reduced_discriminant == 104 and not O.is_maximal

    def test_p17_discrd_pq(self):
        O = bass_for(17)
        assert O.reduced_discriminant == 51

    def test_discriminant_formula(self):
        for p in (7, 13, 17, 23, 29, 41):
            alg = QuatAlgebra.for_prime(p)
            dKi = numth.fundamental_discriminant(alg.d_i)
            dKj = numth.fundamental_discriminant(alg.d_j)
            assert bass.bass_order(alg).reduced_discriminant == dKi * dKj // 4

    def test_rejects_two_odd_discriminants(self):
        with pytest.raises(PreconditionError):
            bass.bass_order(QuatAlgebra(p=5, d_i=-3, d_j=-7))


class TestEichlerSymbol:
    def test_p13_ell2_ramified(self):
        O = bass_for(13)
        assert bass.eichler_symbol(O, 2, bass._contained_dK(O)).value == 0

    def test_p17_ell3_split_case(self):
        O = bass_for(17)
        assert bass.eichler_symbol(O, 3, bass._contained_dK(O)).value == 1

    def test_ell_equals_p(self):
        for p in (13, 17):
            O = bass_for(p)
            assert bass.eichler_symbol(O, p, bass._contained_dK(O)).value == -1

    def test_formula_vs_radical_all_cases(self):
        for p in (7, 13, 17, 29, 41):
            O = bass_for(p)
            dK = bass._contained_dK(O)
            for ell in numth.factorize(O.reduced_discriminant):
                formula = bass.eichler_symbol_formula(O, ell, dK)
                oracle = bass.eichler_symbol_radical(O, ell)
                assert formula == oracle, (p, ell)

    def test_basis_row_discriminant_against_elements(self):
        """The radical oracle's integer trd^2 - 4 nrd of each basis row is
        the Fraction element's, on the Bass order of every prime
        7 <= p < 500 at every odd ell dividing its discrd."""
        cases = 0
        for p in filter(numth.is_prime, range(7, 500)):
            O = bass_for(p)
            for ell in numth.factorize(O.reduced_discriminant):
                if ell == 2:
                    continue
                for r, b in zip(O.lattice.mat, basis_elements(O.lattice)):
                    assert bass.basis_row_discriminant(O, r) == b.trd() ** 2 - 4 * b.nrd(), (p, ell)
                cases += 1
        assert cases == 112

    def test_undefined_away_from_discriminant(self):
        O = bass_for(13)
        with pytest.raises(PreconditionError):
            bass.eichler_symbol_formula(O, 3, bass._contained_dK(O))

    def test_radical_oracle_standalone(self):
        # the radical path needs no contained quadratic maximal order
        O = bass_for(29)
        assert bass.eichler_symbol_radical(O, 2).value == 0

    def test_contained_dK_needs_a_standard_quadratic_order(self):
        """Z + 2 O0 holds neither w_i = i nor w_j = (1 + j)/2 at p = 13:
        (i - a)/2 and (1 - 2a + j)/4 have norms (a^2 + 2)/4 and
        ((1 - 2a)^2 + 13)/16, never integers."""
        O0 = idl.root_maximal_order(13)
        R = QOrder(from_elements([element(O0.algebra, 1)] + [2 * b for b in basis_elements(O0.lattice)]))
        with pytest.raises(PreconditionError):
            bass._contained_dK(R)

    @pytest.mark.parametrize("p", [7, 13, 101])
    def test_ell2_split_quotient(self, p):
        """The level-2 Eichler order O0 ∩ O1, O1 2-adjacent to O0: O/2O
        mod its radical is F_2 x F_2, which the idempotent search finds,
        and O0, O1 are its two maximal superorders."""
        O0 = idl.root_maximal_order(p)
        O1 = idl.matrix_split(O0, 2, 2).ball_order(idl.tree_point_matrix((0, 0), 2), 1)
        E = QOrder(O0.lattice.intersect(O1.lattice))
        assert E.reduced_discriminant == 2 * p
        assert bass.eichler_symbol_radical(E, 2).value == 1
        assert bass.enumerate_maximal_superorders(E) == sorted([O0, O1], key=QOrder.key)

    @pytest.mark.parametrize("p", [7, 13, 101])
    def test_ell2_inert_quotient(self, p):
        """Z + Z u + 2 O0, for u in O0 of odd trace and odd norm: O/2O mod
        its radical is F_4, where the idempotent search finds nothing, and
        O0 is its one maximal superorder."""
        O0 = idl.root_maximal_order(p)
        b0, b1, b2, b3 = basis = basis_elements(O0.lattice)
        combos = (c0 * b0 + c1 * b1 + c2 * b2 + c3 * b3
                  for c0, c1, c2, c3 in product(range(2), repeat=4))
        u = next(v for v in combos if v.trd() % 2 and v.nrd() % 2)
        R = QOrder(from_elements([element(O0.algebra, 1), u] + [2 * b for b in basis]))
        assert R.reduced_discriminant == 4 * p
        assert bass.eichler_symbol_radical(R, 2).value == -1
        assert bass.enumerate_maximal_superorders(R) == [O0]


class TestEmbeddingNumbers:
    @pytest.mark.parametrize("p,e2,e", [(7, 1, 1), (13, 2, 2)])
    def test_examples(self, p, e2, e):
        O = bass_for(p)
        assert local_embedding_number(O, 2) == e2
        assert bass.embedding_numbers(O)[2] == e

    def test_p17(self):
        O = bass_for(17)
        assert local_embedding_number(O, 3) == 2
        assert local_embedding_number(O, 17) == 1
        assert bass.embedding_numbers(O)[2] == 2

    def test_always_one_or_two(self):
        for p in (7, 13, 17, 23, 29, 41):
            O = bass_for(p)
            for ell in (2, 3, 5, 7, p):
                assert local_embedding_number(O, ell) in (1, 2)


class TestSuperorderOracle:
    @pytest.mark.parametrize("p", [7, 13, 17, 23, 29, 41, 73, 193])
    def test_count_matches_formula(self, p):
        O = bass_for(p)
        supers = bass.enumerate_maximal_superorders(O)
        assert len(supers) == bass.embedding_numbers(O)[2]
        for S in supers:
            assert S.reduced_discriminant == O.algebra.p
            assert S.contains_order(O)

    def test_matches_explicit_root_orders(self):
        for p in (13, 17):
            got = {S.key() for S in bass.enumerate_maximal_superorders(bass_for(p))}
            want = {o.key() for o in idl.root_maximal_orders(p)}
            assert got == want

    def test_p7_superorder_is_itself(self):
        O = bass_for(7)
        supers = bass.enumerate_maximal_superorders(O)
        assert len(supers) == 1 and supers[0].key() == O.key()


def full_sublattice_hnfs(index):
    """Oracle: every upper-triangular HNF basis of a sublattice of Z^4 of
    the given index, with no pruning."""
    profiles = []

    def diags(rem, pos, cur):
        if pos == 4:
            if rem == 1:
                profiles.append(tuple(cur))
            return
        d = 1
        while d <= rem:
            if rem % d == 0:
                diags(rem // d, pos + 1, cur + [d])
            d += 1

    diags(index, 0, [])
    for diag in profiles:
        slots = [(r, c) for c in range(4) for r in range(c)]
        for vals in product(*[range(diag[c]) for (_, c) in slots]):
            H = [[0] * 4 for _ in range(4)]
            for t in range(4):
                H[t][t] = diag[t]
            for (rc, v) in zip(slots, vals):
                H[rc[0]][rc[1]] = v
            yield H


def holds_rows(H, rows) -> bool:
    """Whether every row lies in the row lattice of the upper-triangular H,
    by forward substitution."""
    for r in rows:
        v = list(r)
        for t in range(4):
            c, rem = divmod(v[t], H[t][t])
            if rem:
                return False
            v = [x - c * y for x, y in zip(v, H[t])]
    return True


def candidate_order(O, H, index):
    """The lattice dual to H in O's coordinates, as an order containing O,
    or None when it is not one."""
    X, mat = triangular_adjugate(H), O.lattice.mat
    rows = [[sum(X[t][c] * mat[t][s] for t in range(c + 1)) for s in range(4)] for c in range(4)]
    L = QLattice.from_int_rows(O.algebra, rows, O.lattice.den * index)
    if not L.contains_lattice(O.lattice):
        return None
    try:
        return QOrder(L)
    except PreconditionError:
        return None


def full_superorders_at(O, index):
    """Oracle: bass._superorders_at over every sublattice of the index, not
    only those inside O^#, and with no trace test."""
    return [order for H in full_sublattice_hnfs(index)
            if (order := candidate_order(O, H, index)) is not None]


def complete_homogeneous(v, xs):
    """h_v(xs): the sum of the monomials of degree v in xs."""
    return sum(math.prod(c) for c in combinations_with_replacement(xs, v))


def assert_bottom_up_enumeration_agrees(O):
    """At every index l^k dividing discrd / p, _sublattice_hnfs yields each
    HNF of full_sublattice_hnfs whose row lattice holds the trace Gram rows,
    once, and no other; and the trace test keeps every H whose dual is an
    order containing O."""
    G = O.trace_gram
    for ell, v in numth.factorize(O.reduced_discriminant // O.algebra.p).items():
        for k in range(1, v + 1):
            got = [tuple(map(tuple, H)) for H in bass._sublattice_hnfs(ell**k, G)]
            want = [tuple(map(tuple, H)) for H in full_sublattice_hnfs(ell**k) if holds_rows(H, G)]
            assert len(got) == len(set(got)) and set(got) == set(want), (ell, k)
            for H in want:
                if candidate_order(O, H, ell**k) is not None:
                    assert bass._trace_integral(triangular_adjugate(H), G, ell ** (2 * k))


def assert_oracle_agrees(O, monkeypatch):
    """Superorders of O at every index l^k dividing discrd / p, and the
    maximal superorders, equal those of the unpruned oracle."""
    p = O.algebra.p
    for ell, v in numth.factorize(O.reduced_discriminant // p).items():
        for k in range(1, v + 1):
            got = sorted(S.key() for S in bass._superorders_at(O, ell**k))
            assert got == sorted(S.key() for S in full_superorders_at(O, ell**k))
    got = bass.enumerate_maximal_superorders(O)
    with monkeypatch.context() as m:
        m.setattr(bass, "_superorders_at", full_superorders_at)
        want = bass.enumerate_maximal_superorders(O)
    assert [S.key() for S in got] == [S.key() for S in want]


class TestBottomUpEnumeration:
    """_sublattice_hnfs fixes H's rows from the bottom and tests a row of M
    as soon as it can; the unpruned enumeration, filtered by membership, is
    the second path.  The whole range is swept in test_sweep.py."""

    @pytest.mark.parametrize("p", [5, 7, 13, 17, 73, 193])
    def test_same_hnfs_as_filtered_full_enumeration(self, p):
        O = bass_for(p)
        assert_bottom_up_enumeration_agrees(O)
        assert_bottom_up_enumeration_agrees(QOrder(standard_order_lattice(O.algebra)))

    def test_trace_test_drops_candidates(self):
        """At p = 13, N = 8 the trace test keeps 3 of the 99 candidates, and
        the ring test still drops one of those."""
        O = bass_for(13)
        kept = [H for H in bass._sublattice_hnfs(8, O.trace_gram)
                if bass._trace_integral(triangular_adjugate(H), O.trace_gram, 64)]
        assert len(kept) == 3
        assert sum(candidate_order(O, H, 8) is not None for H in kept) == 2


def radical_y4_oracle(table, ell):
    """The elements x of O/ell O with every x b_a nilpotent: x b_a through
    _quot_mul with a fresh basis vector, then y^4 by three products."""
    def is_nilpotent(x) -> bool:
        y = x
        for _ in range(3):
            y = idl._quot_mul(table, ell, y, x)
        return not any(y)

    return [x for x in product(range(ell), repeat=4)
            if all(is_nilpotent(idl._quot_mul(table, ell, x, tuple(int(t == a) for t in range(4))))
                   for a in range(4))]


# every odd ell <= 7 dividing the Bass order's discrd dKi dKj / 4, p < 500
ODD_RADICAL_CASES = [(p, ell) for p in filter(numth.is_prime, range(5, 500)) for ell in (3, 5, 7)
                     if math.prod(QuatAlgebra.for_prime(p).fundamental_discriminants) % (4 * ell) == 0]


class TestRadicalBruteForce:
    """The radical of O/ell O against the y^4 oracle: the element search at
    ell = 2, on Bass orders with q = 2, and the certified trace kernel at
    every odd ell <= 7 that divides a Bass order's discrd for p < 500,
    ell = p among them."""

    @pytest.mark.parametrize("p,ell", [(13, 2), (29, 2)] + ODD_RADICAL_CASES)
    def test_same_basis(self, p, ell):
        O = bass_for(p)
        table = idl._mult_table_mod(O, ell)
        want = radical_y4_oracle(table, ell)
        if ell == 2:
            assert bass._radical_bruteforce(table) == set(want)
        else:
            assert rref_oracle(bass._radical_trace_kernel(O, table, ell), ell) == rref_oracle(want, ell)
        assert 1 < len(want) < ell ** 4

    def test_trace_kernel_fails_at_two(self):
        """At ell = 2, trd 1 = 2 = 0 makes the trace form degenerate: on the
        Bass order of p = 13 its kernel is not nilpotent, and the kernel's
        certificate says so.  So ell = 2 keeps the element search."""
        O = bass_for(13)
        with pytest.raises(AssertionError, match="not nilpotent"):
            bass._radical_trace_kernel(O, idl._mult_table_mod(O, 2), 2)


class TestPrunedSuperorderOracle:
    """_superorders_at generates only the candidates inside O^#; the full
    enumeration is the oracle."""

    @pytest.mark.parametrize("p,q", [(7, 1), (19, 1), (13, 2), (37, 2), (17, 3), (41, 3),
                                     (73, 7), (97, 7), (193, 11)])
    def test_same_superorders_as_full_enumeration(self, p, q, monkeypatch):
        alg = QuatAlgebra.for_prime(p)
        assert alg.q == q
        assert_oracle_agrees(bass.bass_order(alg), monkeypatch)
        # Z<i, j>: discrd 4 |d_i d_j|, non-maximal at 2 also when q = 1
        assert_oracle_agrees(QOrder(standard_order_lattice(alg)), monkeypatch)

    @pytest.mark.parametrize("p,index,pruned,full", [(13, 8, 99, 1395), (73, 7, 8, 400),
                                                     (193, 11, 12, 1464), (17, 3, 4, 40)])
    def test_candidate_counts_are_pinned(self, p, index, pruned, full):
        """Candidates _superorders_at tries at the Bass order, and all HNFs
        of the index."""
        O = bass_for(p)
        assert O.reduced_discriminant == p * index
        assert sum(1 for _ in bass._sublattice_hnfs(index, O.trace_gram)) == pruned
        assert bass._superorders_at(O, index)
        assert sum(1 for _ in full_sublattice_hnfs(index)) == full

    @pytest.mark.parametrize("ell,v", [(3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (11, 1)])
    def test_hnf_count_is_complete_homogeneous(self, ell, v):
        """The sublattices of Z^4 of index l^v number h_v(1, l, l^2, l^3)
        (the coefficient of zeta(s) zeta(s-1) zeta(s-2) zeta(s-3); Lubotzky-
        Segal, Subgroup Growth, 2003): the finite bound on _superorders_at's
        enumeration."""
        want = complete_homogeneous(v, (1, ell, ell**2, ell**3))
        assert sum(1 for _ in full_sublattice_hnfs(ell**v)) == want
        assert want == {3: 40, 4: 155, 7: 400, 8: 1395, 9: 1210, 11: 1464}[ell**v]
