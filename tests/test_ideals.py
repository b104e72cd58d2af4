import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qisog import bass, brandt, orient
from qisog import ideals as idl
from qisog import numth
from qisog.errors import CapExceeded, PreconditionError
from qisog.ideals import QOrder
from qisog.lattice import QLattice, hnf_rows, kernel_mod, span_mod
from qisog.quat import QuatAlgebra
from test_lattice import standard_order_lattice
from test_orient import divisible_start
from test_quat import (QuatElement, basis, basis_elements, contains, element, from_elements,
                       min_norm_elements, split_den)

A7 = QuatAlgebra.for_prime(7)
A13 = QuatAlgebra.for_prime(13)
A499 = QuatAlgebra.for_prime(499)
ROOT7 = idl.root_maximal_order(7)


# ---------------------------------------------------------------------------
# helpers that only the tests use


def two_generator_discriminant(a1: QuatElement, a2: QuatElement) -> Fraction:
    """Shortcut discrd for a ring generated by two non-commuting elements."""
    d1 = a1.trd() ** 2 - 4 * a1.nrd()
    d2 = a2.trd() ** 2 - 4 * a2.nrd()
    t = (a1 * a2).trd()
    return (d1 * d2 - (a1.trd() * a2.trd() - 2 * t) ** 2) / 4


def ideals_of_norm_ell_bruteforce(O: QOrder, ell: int) -> list[QLattice]:
    """The subspace oracle for ideals_of_norm_ell: enumerate 2-dimensional
    subspaces of O/ell O closed under left multiplication and lift them."""
    if ell == O.algebra.p:
        raise PreconditionError("ell must differ from p")
    table = idl._mult_table_mod(O, ell)
    units = [tuple(int(s == a) for s in range(4)) for a in range(4)]
    out = []
    for basis in _two_dim_subspaces(ell):
        if all(in_span_oracle(basis, idl._quot_mul(table, ell, ea, v), ell)
               for ea in units for v in basis):
            bas = basis_elements(O.lattice)
            gens = [ell * b for b in bas]
            for v in basis:
                elt = element(O.algebra)
                for c, b in zip(v, bas):
                    elt = elt + c * b
                gens.append(elt)
            I = from_elements(gens)
            if I.reduced_norm == ell:
                out.append(I)
    return sorted(out, key=lambda I: I.key())


def _two_dim_subspaces(ell: int):
    """Canonical RREF bases of the 2-dimensional subspaces of F_ell^4."""
    for pivots in itertools.combinations(range(4), 2):
        free_rows = {0: [c for c in range(4) if c not in pivots and c > pivots[0]],
                     1: [c for c in range(4) if c not in pivots and c > pivots[1]]}
        slots = [(r, c) for r in (0, 1) for c in free_rows[r]]
        for vals in itertools.product(range(ell), repeat=len(slots)):
            rows = [[0] * 4 for _ in range(2)]
            rows[0][pivots[0]] = 1
            rows[1][pivots[1]] = 1
            for (r, c), v in zip(slots, vals):
                rows[r][c] = v
            yield [tuple(r) for r in rows]


def is_primitive(I: QLattice) -> bool:
    O = QOrder(I.left_order())
    if not O.lattice.contains_lattice(I):
        raise PreconditionError("primitivity is defined for integral ideals")
    return idl.content(I, O) == 1


def is_two_sided(I: QLattice) -> bool:
    return I.left_order() == I.right_order()


def times(I: QLattice, alpha: QuatElement) -> QLattice:
    """I alpha, from the Fraction products of I's basis elements."""
    return from_elements([b * alpha for b in basis_elements(I)])


def matrix_of(frame: idl.EllAdicFrame, u) -> tuple:
    """The image ((x11, x12), (x21, x22)) mod ell^n of the element with
    coordinates u: x_ab = trd(E_ba u)."""
    lat, q = frame.order.lattice, frame.modulus
    trd = [2 * r[0] // lat.den for r in lat.mat]

    def entry(a, b):
        return sum(c * t for c, t in zip(frame.mul(frame.units[b][a], u), trd)) % q
    return tuple(tuple(entry(a, b) for b in range(2)) for a in range(2))


def image_of(split: idl.EllAdicFrame, elt: QuatElement) -> tuple:
    """The 2x2 matrix (a, b, c, d) of an element of the split order."""
    coords = split.order.lattice.int_coords(*split_den(elt.coords))
    assert coords is not None
    (a, b), (c, d) = matrix_of(split, coords)
    return (a, b, c, d)


def unit_rows(frame: idl.EllAdicFrame) -> list:
    """The integer rows r with r/den = E_ab, by (a, b)."""
    return [[idl._combine(u, frame.order.lattice.mat) for u in row] for row in frame.units]


def lift_row(split: idl.EllAdicFrame, m) -> tuple:
    """The integer row sum m_ab E_ab of the frame's unit rows: over the
    order's denominator, an element with the 2x2 matrix m = (a, b, c, d)."""
    rows = [r for pair in unit_rows(split) for r in pair]
    return tuple(sum(x * r[t] for x, r in zip(m, rows)) for t in range(4))


def is_primitive_at(I: QLattice, ell: int) -> bool:
    """Local primitivity read off the l-content of the coordinate matrix."""
    c = idl.content(I, QOrder(I.left_order()))
    if c.denominator % ell == 0:
        raise PreconditionError("ideal not integral at ell")
    return c.numerator % ell != 0


def colon(I: QLattice, J: QLattice, side: str) -> QLattice:
    """(I:J) via the product formulas; J must be invertible."""
    if side == "left":
        return I * idl.inverse(J)
    if side == "right":
        return idl.inverse(J) * I
    raise PreconditionError("side must be 'left' or 'right'")


def connecting_ideal_membership_oracle(O1: QOrder, O2: QOrder, probe: QuatElement) -> bool:
    """Membership predicate from the intersection-index characterization:
    probe belongs to the minimal connecting ideal iff
    probe * O2 * conj(probe) lands in [O1 : O1 meet O2] * O1."""
    n = O1.lattice.intersect(O2.lattice).index_in(O1.lattice)
    target = O1.lattice.scale(n)
    return all(
        contains(target, probe * b * probe.conjugate())
        for b in basis_elements(O2.lattice)
    )


def fraction_order_closure(gens, rounds: int = 16) -> QLattice:
    """Oracle for order_closure on Fraction coordinates: each round adds the
    products of the current span and takes the HNF over the lcm of all the
    denominators, until the span repeats."""
    alg = gens[0].algebra
    current = [element(alg, 1).coords] + [g.coords for g in gens]
    seen = None
    for _ in range(rounds):
        elems = [QuatElement(alg, c) for c in current]
        allrows = current + [(a * b).coords for a in elems for b in elems]
        den = math.lcm(*(x.denominator for r in allrows for x in r))
        nxt = [tuple(Fraction(x, den) for x in row)
               for row in hnf_rows([[int(x * den) for x in r] for r in allrows])]
        if nxt == seen:
            if len(nxt) != 4:
                raise PreconditionError("generators do not span the algebra")
            return from_elements([QuatElement(alg, r) for r in nxt])
        seen = current = nxt
    raise CapExceeded("ring closure did not stabilize; not an order")


def close(gens) -> QOrder:
    """order_closure of QuatElements: their coordinates as integer rows over
    the lcm of the denominators."""
    den = math.lcm(*(c.denominator for g in gens for c in g.coords))
    return idl.order_closure(gens[0].algebra, [[int(c * den) for c in g.coords] for g in gens], den)


class TestOrderClosure:
    def test_p7_root(self):
        one, i, j, k = basis(A7)
        O = close([i, (one + j) / 2])
        assert O.reduced_discriminant == 7

    def test_p13_standard(self):
        _, i, j, _ = basis(A13)
        O = close([i, j])
        assert O.reduced_discriminant == 104  # 8p

    def test_scalars_fail_rank(self):
        with pytest.raises(PreconditionError):
            close([element(A7, 1)])
        with pytest.raises(PreconditionError):
            fraction_order_closure([element(A7, 1)])

    def test_unbounded_denominators_fail(self):
        """trd(i/2 i/2) = -1/2: order_closure refuses in its first round,
        where the oracle, which has no trace test, runs out of rounds."""
        one, i, j, k = basis(A7)
        with pytest.raises(PreconditionError, match="integral"):
            close([i / 2])
        with pytest.raises(CapExceeded):
            fraction_order_closure([i / 2])

    def test_trace_test_in_a_later_round(self, monkeypatch):
        """x = (1 + i)/2 has trd 1 and x^2 = i/2 trd 0, so the first span
        {1, x} passes the trace test; x x^2 = (i - 1)/4 has trd -1/2, and
        the second round raises."""
        one, i, j, k = basis(A7)
        rounds = []
        hnf = idl.hnf_rows
        monkeypatch.setattr(idl, "hnf_rows", lambda rows: rounds.append(rows) or hnf(rows))
        with pytest.raises(PreconditionError, match="integral"):
            close([(one + i) / 2])
        assert len(rounds) == 1

    def test_root_and_bass_generators_against_fraction_oracle(self, monkeypatch):
        """Every generator set that root_maximal_orders and bass_order close
        for 5 <= p < 500 gives the same order on both paths."""
        calls = []
        closure = idl.order_closure

        def record(alg, gens, den):
            calls.append(([QuatElement(alg, tuple(Fraction(x, den) for x in g)) for g in gens],
                          closure(alg, gens, den)))
            return calls[-1][1]

        monkeypatch.setattr(idl, "order_closure", record)
        for p in range(5, 500):
            if numth.is_prime(p):
                idl.root_maximal_orders(p)
                bass.bass_order(QuatAlgebra.for_prime(p))
        assert len(calls) == 279
        for gens, O in calls:
            assert fraction_order_closure(gens) == O.lattice


class TestReducedDiscriminant:
    def test_two_generator_formula_agrees(self):
        one, i, j, _ = basis(A7)
        a1, a2 = i, (one + j) / 2
        O = close([a1, a2])
        assert two_generator_discriminant(a1, a2) == O.reduced_discriminant

    def test_p17_pq(self):
        a17 = QuatAlgebra.for_prime(17)
        one, i, j, _ = basis(a17)
        O = close([(one + i) / 2, j])
        assert a17.q == 3
        assert O.reduced_discriminant == 51

    def test_maximal_iff_discrd_p(self):
        std = QOrder(standard_order_lattice(A13))
        assert not std.is_maximal
        assert ROOT7.is_maximal


class TestRootOrders:
    def test_maximal_quadratic_generators(self):
        """The integer rows cached on the algebra give (1 + u)/2 for
        d_u = 1 mod 4 and u otherwise."""
        for p in (5, 7, 13, 17, 41, 73, 101, 113, 409, 499):
            alg = QuatAlgebra.for_prime(p)
            one, i, j, _ = basis(alg)
            want = tuple((one + u) / 2 if d % 4 == 1 else u
                         for d, u in ((alg.d_i, i), (alg.d_j, j)))
            assert tuple(QuatElement(alg, tuple(Fraction(x, den) for x in row))
                         for row, den in alg.maximal_quadratic_rows) == want

    @pytest.mark.parametrize("p", [7, 11, 19, 23])
    def test_three_mod_four(self, p):
        orders = idl.root_maximal_orders(p)
        assert all(o.reduced_discriminant == p for o in orders)
        (wi, iden), (wj, jden) = orders[0].algebra.maximal_quadratic_rows
        first, second = orders[0].lattice, orders[1].lattice
        assert first.int_coords(wi, iden) is not None and first.int_coords(wj, jden) is not None
        assert second.int_coords(wj, jden) is None   # only the first holds both
        assert idl.global_root_orders(orders) == [orders[0]]

    @pytest.mark.parametrize("p", [13, 29, 17, 41])
    def test_one_mod_four(self, p):
        orders = idl.root_maximal_orders(p)
        assert all(o.is_maximal for o in orders)
        assert orders[0].key() != orders[1].key()
        assert len(idl.global_root_orders(orders)) == 2

    @pytest.mark.parametrize("p", [73, 193, 241, 313, 337, 409, 457, 577, 673])
    def test_one_mod_eight_with_large_q(self, p):
        """(c i + k)/q has reduced norm (c^2 + p)/q, so c must satisfy
        q | c^2 + p; q | c^2 p + 1 agrees with it only for q = 3."""
        assert QuatAlgebra.for_prime(p).q in (7, 11)
        orders = idl.root_maximal_orders(p)
        assert len(orders) == 2 and all(o.is_maximal for o in orders)
        assert idl.global_root_orders(orders)

    def test_small_p_rejected(self):
        with pytest.raises(PreconditionError):
            idl.root_maximal_orders(3)
        with pytest.raises(PreconditionError):
            idl.root_maximal_order(3)

    def test_first_root_order_alone(self):
        """root_maximal_order builds the first root order only, and it is
        the first global root order for every p < 1000."""
        for p in range(5, 1000):
            if numth.is_prime(p):
                O = idl.root_maximal_order(p)
                orders = idl.root_maximal_orders(p)
                assert O == orders[0] == idl.global_root_orders(orders)[0], p


class TestPrimitivity:
    def test_squarefree_norm_is_primitive(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        assert I.reduced_norm == 2
        assert is_primitive(I)

    def test_scaled_ideal(self):
        I = idl.ideals_of_norm_ell(ROOT7, 3)[1]
        J = I.scale(3)
        assert not is_primitive(J)
        assert idl.primitive_part(J, ROOT7) == I

    def test_local_global_agreement(self, walked_orders_13):
        rng = random.Random(5)
        count = 0
        for O in walked_orders_13[:10]:
            for ell in (2, 3):
                for I in idl.ideals_of_norm_ell(O, ell):
                    n = rng.choice((1, 1, 2, 3, 6))
                    J = I.scale(n)
                    locally = all(
                        is_primitive_at(J, q)
                        for q in numth.factorize(int(J.reduced_norm))
                    )
                    assert is_primitive(J) == locally == (n == 1)
                    count += 1
        assert count >= 20


class TestInverseAndColon:
    def test_inverse_of_order(self):
        assert idl.inverse(ROOT7.lattice) == ROOT7.lattice

    def test_inverse_products(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        assert idl.inverse(I) * I == I.right_order()
        assert I * idl.inverse(I) == I.left_order()

    def test_colon_norms(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        J = idl.ideals_of_norm_ell(ROOT7, 3)[0]
        N = colon(J, I, side="right")  # I^{-1} J
        assert N.reduced_norm == J.reduced_norm / I.reduced_norm

    def test_colon_integrality_iff_containment(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        deeper = idl.ideals_of_norm_ell(QOrder(I.right_order()), 3)[0]
        J = I * deeper  # contained in I
        N = colon(J, I, side="right")
        assert I.contains_lattice(J)
        assert N.left_order().contains_lattice(N)
        K = idl.ideals_of_norm_ell(ROOT7, 2)[1]
        M = colon(K, I, side="right")
        assert not I.contains_lattice(K)
        assert not M.left_order().contains_lattice(M)


class TestConnectingIdeals:
    def test_self_connecting(self):
        C = idl.connecting_ideal(ROOT7, ROOT7)
        assert C == ROOT7.lattice and C.reduced_norm == 1

    def test_neighbor_norm_and_conjugate(self):
        for ell in (2, 3):
            I = idl.ideals_of_norm_ell(ROOT7, ell)[0]
            O1 = QOrder(I.right_order())
            C = idl.connecting_ideal(ROOT7, O1)
            assert C.reduced_norm == ell
            meet = ROOT7.lattice.intersect(O1.lattice)
            assert C.reduced_norm == meet.index_in(ROOT7.lattice) == meet.index_in(O1.lattice)
            assert C.conjugate() == idl.connecting_ideal(O1, ROOT7)

    def test_membership_set_oracle(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        O1 = QOrder(I.right_order())
        C = idl.connecting_ideal(ROOT7, O1)
        for b in basis_elements(C):
            assert connecting_ideal_membership_oracle(ROOT7, O1, b)
        # elements outside C must violate the membership predicate
        outside = [e for e in min_norm_elements(ROOT7.lattice, 3) if not contains(C, e)]
        assert outside and all(
            not connecting_ideal_membership_oracle(ROOT7, O1, e) for e in outside)

    def test_two_step_colon_consistency(self):
        I1 = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        mid = QOrder(I1.right_order())
        I2 = idl.ideals_of_norm_ell(mid, 3)[0]
        far = QOrder(I2.right_order())
        prod = I1 * I2
        assert prod.left_order() == ROOT7.lattice and prod.right_order() == far.lattice
        assert idl.primitive_part(prod, ROOT7) == idl.connecting_ideal(ROOT7, far)

    def test_requires_maximal(self):
        std = QOrder(standard_order_lattice(A13))
        with pytest.raises(PreconditionError):
            idl.connecting_ideal(std, std)


class TestNormEllIdeals:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_count_and_oracle(self, ell):
        fast = idl.ideals_of_norm_ell(ROOT7, ell)
        slow = ideals_of_norm_ell_bruteforce(ROOT7, ell)
        assert len(fast) == ell + 1
        assert [I.key() for I in fast] == [I.key() for I in slow]

    def test_not_two_sided(self):
        for ell in (2, 3):
            for I in idl.ideals_of_norm_ell(ROOT7, ell):
                assert not is_two_sided(I)

    def test_index_is_norm_squared(self):
        for I in idl.ideals_of_norm_ell(ROOT7, 3):
            assert I.index_in(ROOT7.lattice) == 9

    def test_left_order_preserved(self):
        for I in idl.ideals_of_norm_ell(ROOT7, 2):
            assert QOrder(I.left_order()) == ROOT7

    def test_ell_equal_p_rejected(self):
        with pytest.raises(PreconditionError):
            idl.ideals_of_norm_ell(ROOT7, 7)


class TestOrdersAgainstProductFormula:
    """left_order and right_order are the trace duals (L L^#)^# and
    (L^# L)^#; the second path is the product formula O_R(I) = I^-1 I of an
    invertible ideal."""

    @pytest.mark.parametrize("walked", ["walked_orders_13", "walked_orders_37"])
    def test_norm_ell_ideals_of_walked_orders(self, walked, request):
        for O in request.getfixturevalue(walked):
            for ell in (2, 3):
                for I in idl.ideals_of_norm_ell(O, ell):
                    assert I.right_order() == idl.inverse(I) * I
                    assert I.left_order() == O.lattice

    @pytest.mark.parametrize("p", [13, 17, 41])
    def test_non_maximal_bass_orders_are_their_own_orders(self, p):
        O = bass.bass_order(QuatAlgebra.for_prime(p))
        assert not O.is_maximal
        assert O.lattice.left_order() == O.lattice.right_order() == O.lattice


def norm_ell_right_order(I: QLattice, ell: int) -> QLattice:
    """Oracle: O_R(I) for a left ideal I of reduced norm ell over a maximal
    order.  Such an I is invertible, so O_R(I) = I^-1 I = conj(I) I / ell:
    the 16 products mul(conj r_a, r_b) of the integer rows, over den^2 ell."""
    mul = I.algebra.mul_coords
    conj = [(r[0], -r[1], -r[2], -r[3]) for r in I.mat]
    rows = [mul(a, b) for a in conj for b in I.mat]
    return QLattice.from_int_rows(I.algebra, rows, I.den * I.den * ell)


class TestNormEllRightOrder:
    """The oracle norm_ell_right_order is conj(I) I / l; the general path is
    the trace duality formula QLattice.right_order."""

    @staticmethod
    def assert_agrees(O, ell):
        for I in idl.ideals_of_norm_ell(O, ell):
            assert norm_ell_right_order(I, ell) == I.right_order()

    @pytest.mark.parametrize("walked", ["walked_orders_13", "walked_orders_37"])
    def test_walked_orders(self, walked, request):
        for O in request.getfixturevalue(walked):
            for ell in (2, 3):
                self.assert_agrees(O, ell)

    def test_p499_ell7_walk(self):
        g = orient.walk_component(idl.root_maximal_order(499), 7, depth=2)
        orders = [QOrder(QLattice(A499, key[1], key[0])) for key in g.vertices()]
        assert len(orders) == 65
        for O in orders:
            self.assert_agrees(O, 7)


def frame_orders(frame: idl.EllAdicFrame, point, k: int) -> dict:
    """{order key: point} over the points of P^1(Z/ell^k) above point."""
    return {frame.ball_order(idl.tree_point_matrix(w, frame.ell), k).key(): w
            for w in idl.tree_children(point, k, frame.ell)}


def ideal_right_orders(O: QOrder, ell: int) -> set:
    """Keys of the right orders of O's norm-ell ideals, by conj(I) I / ell,
    checked against trace duality."""
    ideals = idl.ideals_of_norm_ell(O, ell)
    want = {norm_ell_right_order(I, ell).key() for I in ideals}
    assert want == {I.right_order().key() for I in ideals}
    return want


def assert_frame_orders_agree(O: QOrder, ell: int) -> None:
    """The depth-1 orders of O's ell-adic frame against the right orders of
    O's norm-ell ideals; then, at each depth-1 vertex W, its ell depth-2
    orders together with O against the right orders of W's ideals."""
    frame = idl.matrix_split(O, ell, 4)
    level1 = frame_orders(frame, None, 1)
    assert len(level1) == ell + 1 and set(level1) == ideal_right_orders(O, ell)
    for key, w in level1.items():
        W = QOrder(QLattice(O.algebra, key[1], key[0]))
        level2 = frame_orders(frame, w, 2)
        assert len(level2) == ell and O.key() not in level2
        assert set(level2) | {O.key()} == ideal_right_orders(W, ell)


def assert_root_and_walked_order_agree(p: int, ell: int) -> None:
    """assert_frame_orders_agree at the first global root order and at one
    of its ell-neighbours, reached by the oracle."""
    root = idl.root_maximal_order(p)
    assert_frame_orders_agree(root, ell)
    walked = QOrder(norm_ell_right_order(idl.ideals_of_norm_ell(root, ell)[-1], ell))
    assert_frame_orders_agree(walked, ell)


FRAME_CASES = [(p, ell) for p in (7, 101, 499) for ell in (2, 3, 5, 7) if ell != p]


class TestNeighbourOrders:
    """The frame builds the neighbours End(P L_1) and their neighbours
    End(P L_2) as ell^k O + Z e11 + Z e22 + Z e12/ell^k + Z ell^k e21; the
    second path is the right order of each norm-ell ideal."""

    @pytest.mark.parametrize("p,ell", FRAME_CASES)
    def test_root_and_walked_order(self, p, ell):
        assert_root_and_walked_order_agree(p, ell)

    def test_ell_equal_p_rejected(self):
        with pytest.raises(PreconditionError):
            idl.matrix_split(ROOT7, 7)


class TestEllAdicFrame:
    """The matrix units mod ell^n, checked in the algebra itself rather than
    through the structure constants the frame multiplies with."""

    N = 12

    @staticmethod
    def element(O: QOrder, u) -> QuatElement:
        return sum((c * b for c, b in zip(u, basis_elements(O.lattice))), element(O.algebra))

    @pytest.mark.parametrize("p,ell", FRAME_CASES)
    def test_matrix_unit_relations(self, p, ell):
        O = idl.root_maximal_order(p)
        frame = idl.matrix_split(O, ell, self.N)
        E = [[self.element(O, u) for u in row] for row in frame.units]
        q = ell**self.N
        assert contains(O.lattice, (E[0][0] + E[1][1] - element(O.algebra, 1)) / q)
        for a, b, c, d in itertools.product(range(2), repeat=4):
            err = E[a][b] * E[c][d] - (E[a][d] if b == c else element(O.algebra))
            assert contains(O.lattice, err / q), (a, b, c, d)
        # mod ell the units are the split's, and those are its matrix units
        split = idl.matrix_split(O, ell)
        for a, b in itertools.product(range(2), repeat=2):
            assert tuple(x % ell for x in frame.units[a][b]) == split.units[a][b]
            unit = tuple(tuple(int((r, c) == (a, b)) for c in range(2)) for r in range(2))
            assert matrix_of(split, frame.units[a][b]) == unit

    @pytest.mark.parametrize("p,ell", FRAME_CASES)
    def test_lift_does_not_depend_on_the_frame_lifted_from(self, p, ell):
        """The frames at ell^n for n in 1, 2, 4, 8 are the frame at ell^16
        reduced mod ell^n: each is lifted from the idempotent the same scan
        finds mod ell, and a lift that is idempotent mod ell^n stays so, and
        the same mod ell^n, under the later lifting rounds."""
        O = idl.root_maximal_order(p)
        fine = idl.matrix_split(O, ell, 16)
        assert fine.n == 16
        for n in (1, 2, 4, 8):
            q = ell**n
            reduced = tuple(tuple(tuple(x % q for x in u) for u in row) for row in fine.units)
            assert idl.matrix_split(O, ell, n).units == reduced

    @staticmethod
    def assert_corrupted_unit_trips_the_check(frame):
        (e11, e12), (e21, e22) = frame.units
        q, ell = frame.modulus, frame.ell
        bad = tuple((x + ell ** (frame.n - 1) * y) % q for x, y in zip(e12, e21))
        broken = dataclasses.replace(frame, units=((e11, bad), (e21, e22)))
        with pytest.raises(AssertionError, match="matrix-unit relation"):
            broken.check()

    @pytest.mark.parametrize("p,ell", [(7, 2), (101, 5), (499, 3)])
    def test_corrupted_unit_trips_the_check(self, p, ell):
        frame = idl.matrix_split(idl.root_maximal_order(p), ell, self.N)
        self.assert_corrupted_unit_trips_the_check(frame)

    @pytest.mark.parametrize("p,ell", [(7, 2), (101, 5), (499, 3)])
    def test_corrupted_split_trips_the_check(self, p, ell):
        """The same at n = 1: matrix_split's units, E12 replaced by E12 + E21."""
        split = idl.matrix_split(idl.root_maximal_order(p), ell)
        assert split.n == 1
        self.assert_corrupted_unit_trips_the_check(split)

    def test_every_frame_is_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(idl.EllAdicFrame, "check", lambda frame: checked.append(frame.n))
        idl.matrix_split(ROOT7, 3)
        idl.matrix_split(ROOT7, 3, 5)
        assert checked == [1, 5]

    @pytest.mark.parametrize("p,ell", [(7, 3), (101, 2), (499, 7)])
    def test_matrix_of_is_multiplicative(self, p, ell):
        O = idl.root_maximal_order(p)
        frame = idl.matrix_split(O, ell, 6)
        q = frame.modulus
        basis = [tuple(int(s == t) for s in range(4)) for t in range(4)]
        assert matrix_of(frame, idl._one_coords(O, q)) == ((1, 0), (0, 1))
        for u in basis:
            for v in basis:
                x, y = matrix_of(frame, u), matrix_of(frame, v)
                xy = tuple(tuple(sum(x[a][c] * y[c][b] for c in range(2)) % q
                                 for b in range(2)) for a in range(2))
                assert matrix_of(frame, frame.mul(u, v)) == xy

    def test_points_of_the_projective_line(self):
        ell = 3
        for k in (1, 2, 3):
            level = [None]
            for j in range(1, k + 1):
                level = [w for x in level for w in idl.tree_children(x, j, ell)]
            assert len(level) == len(set(level)) == (ell + 1) * ell ** (k - 1)
            # each point spans a line of (Z/ell^k)^2 that no other point spans
            lines = set()
            for w in level:
                (a, _), (c, _) = idl.tree_point_matrix(w, ell)
                lines.add(frozenset(((s * a) % ell**k, (s * c) % ell**k)
                                    for s in range(ell**k) if s % ell))
            assert len(lines) == len(level)


def sl2_inverse(P) -> tuple:
    (a, b), (c, d) = P
    return ((d, -b), (-c, a))


def mul2(A, B) -> tuple:
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def point_unit_row(frame: idl.EllAdicFrame, P, a: int, b: int) -> list:
    """The integer row r with r/den = P E_ab P^-1 = sum_cd P_ca Pinv_bd E_cd
    mod ell^n, for P of determinant 1."""
    Pinv, R, out = sl2_inverse(P), unit_rows(frame), [0, 0, 0, 0]
    for c, d in itertools.product(range(2), repeat=2):
        if x := P[c][a] * Pinv[b][d]:
            out = [y + x * z for y, z in zip(out, R[c][d])]
    return out


def ball_order_oracle(frame: idl.EllAdicFrame, P, k: int) -> QOrder:
    """The former ball_order, kept as the reference: ell^k O + Z e11 + Z e22
    + Z e12/ell^k + Z ell^k e21 in standard coordinates, one 8-row HNF."""
    lat, s = frame.order.lattice, frame.ell**k
    e = [[point_unit_row(frame, P, a, b) for b in range(2)] for a in range(2)]
    rows = [[s * s * x for x in r] for r in lat.mat]
    rows += [[s * x for x in e[0][0]], [s * x for x in e[1][1]],
             e[0][1], [s * s * x for x in e[1][0]]]
    return QOrder(QLattice.from_int_rows(frame.order.algebra, rows, lat.den * s))


def ball_ideal_oracle(frame: idl.EllAdicFrame, P, k: int) -> QLattice:
    """The former ball_ideal, kept as the reference: ell^k O + O e22 from
    the four products of O's rows with e22, one 8-row HNF."""
    lat, s, mul = frame.order.lattice, frame.ell**k, frame.order.algebra.mul_coords
    e22 = point_unit_row(frame, P, 1, 1)
    rows = [[s * lat.den * x for x in r] for r in lat.mat] + [mul(r, e22) for r in lat.mat]
    return QLattice.from_int_rows(frame.order.algebra, rows, lat.den * lat.den)


ORACLE_DEPTH = {2: 5, 3: 3, 5: 2, 7: 2}
ORACLE_STARTS = ([(p, ell, False) for p in (7, 101, 499) for ell in (2, 3, 5, 7) if ell != p]
                 + [(p, ell, True) for p, ell in ((7, 2), (13, 3), (101, 2), (499, 7))])


class TestBallAgainstEightRowHnf:
    """ball_order and ball_ideal work in O's coordinates mod ell^(2k),
    resp. ell^k; the former 8-row HNFs in standard coordinates are the
    second path.  Every tree point down to depth 5, 3, 2, 2 for ell = 2, 3,
    5, 7 is checked, from global roots and from starts with ell | f_i f_j,
    on frames at exactly the precision the distance needs and beyond."""

    @pytest.mark.parametrize("p,ell,divisible", ORACLE_STARTS)
    def test_same_keys(self, p, ell, divisible):
        O = divisible_start(p, ell) if divisible else idl.root_maximal_order(p)
        kinds, level = set(), [None]
        for k in range(1, ORACLE_DEPTH[ell] + 1):
            level = [w for x in level for w in idl.tree_children(x, k, ell)]
            for n in (k, 2 * k, 4 * k):
                frame = idl.matrix_split(O, ell, n)
                for w in level:
                    P = idl.tree_point_matrix(w, ell)
                    if 2 * k <= n:
                        assert frame.ball_order(P, k).key() == ball_order_oracle(frame, P, k).key()
                    assert frame.ball_ideal(P, k).key() == ball_ideal_oracle(frame, P, k).key()
                    kinds.add(w[0])
        assert kinds == {0, 1}


def random_sl2(rng, bound: int) -> tuple:
    """A random integer matrix of determinant 1: a random first column
    (a, c) with gcd 1, completed by the extended gcd, then a random multiple
    of it added to the second column."""
    while True:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if math.gcd(a, c) == 1:
            break
    x0, y0, x1, y1, r0, r1 = 1, 0, 0, 1, a, c  # r_i = a x_i + c y_i
    while r1:
        t = r0 // r1
        x0, y0, x1, y1, r0, r1 = x1, y1, x0 - t * x1, y0 - t * y1, r1, r0 - t * r1
    x0, y0 = r0 * x0, r0 * y0  # r0 = +-1
    t = rng.randint(-bound, bound)
    return ((a, -y0 + t * a), (c, x0 + t * c))


FRAMES = [idl.matrix_split(idl.root_maximal_order(p), ell, n)
          for p, ell, n in ((7, 2, 8), (101, 3, 4), (113, 2, 6), (499, 7, 4))]


def ball_order_gens_oracle(frame, P, s: int) -> list:
    """The former generators of ball_order: s e11, s e22 and e12 through
    coords_of, with e_ab = P E_ab P^-1 by 2x2 products."""
    def e(a, b, f):
        unit = tuple(tuple(f * int((r, c) == (a, b)) for c in range(2)) for r in range(2))
        return frame.coords_of(mul2(mul2(P, unit), sl2_inverse(P)), s * s)
    return [e(0, 0, s), e(1, 1, s), e(0, 1, 1)]


class TestStraightLineFrame:
    """The generators of ball_order are written out over P and the units;
    the 2x2 products and coords_of are the second path, on random matrices
    of determinant 1, tree points among them."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), frame=st.sampled_from(FRAMES))
    def test_ball_order_gens_against_coords_of(self, seed, frame):
        rng = random.Random(seed)
        ell = frame.ell
        for k in range(1, frame.n // 2 + 1):
            s = ell**k
            point = (rng.randrange(2), rng.randrange(ell**k))
            for P in (idl.tree_point_matrix(point, ell), random_sl2(rng, ell**k)):
                assert frame._ball_order_gens(P, s) == ball_order_gens_oracle(frame, P, s)

    def test_random_sl2_spans_every_sign(self):
        rng = random.Random(1)
        signs = {tuple(x > 0 for r in random_sl2(rng, 9) for x in r if x) for _ in range(200)}
        assert len(signs) > 4


def quot_mul_oracle(table, q, u, v):
    """The former loop form of ideals._quot_mul, reducing after each term."""
    out = [0, 0, 0, 0]
    for a in range(4):
        for b in range(4):
            for t in range(4):
                out[t] = (out[t] + u[a] * v[b] * table[a][b][t]) % q
    return tuple(out)


class TestQuotMul:
    """_quot_mul sums the products and reduces mod q once; the loop that
    reduces after each term is the second path, with the structure
    constants reduced mod q and not."""

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from([7, 101, 113, 499]), reduced=st.booleans(),
           q=st.sampled_from([2, 3, 4, 9, 25, 49, 2**10, 3**7]),
           u=st.lists(st.integers(-60, 60) | st.just(0), min_size=4, max_size=4),
           v=st.lists(st.integers(-60, 60) | st.just(0), min_size=4, max_size=4))
    def test_against_loop(self, p, q, reduced, u, v):
        O = idl.root_maximal_orders(p)[0]
        table = idl._mult_table_mod(O, q) if reduced else O.structure_constants
        assert idl._quot_mul(table, q, u, v) == quot_mul_oracle(table, q, u, v)


class TestBallIdeal:
    """ball_ideal(P, k), the ideal of a tree point, against trace duality,
    the frame's own order at that point, and the ell-neighbours of the
    ideal by the mod-ell split of its right order."""

    CASES = [(7, 2, 3), (101, 2, 4), (101, 3, 2), (499, 5, 2), (499, 7, 1), (113, 3, 3)]

    @staticmethod
    def points(ell: int, k: int) -> list:
        level = [None]
        for j in range(1, k + 1):
            level = [w for x in level for w in idl.tree_children(x, j, ell)]
        return level

    @pytest.mark.parametrize("p,ell,k", CASES)
    def test_orders_and_norm(self, p, ell, k):
        O = idl.root_maximal_orders(p)[0]
        frame = idl.matrix_split(O, ell, 2 * k)
        coarse = idl.matrix_split(O, ell, k)
        for w in self.points(ell, k):
            P = idl.tree_point_matrix(w, ell)
            I = frame.ball_ideal(P, k)
            assert I.reduced_norm == ell**k
            assert I.left_order() == O.lattice
            assert I.right_order() == frame.ball_order(P, k).lattice
            assert coarse.ball_ideal(P, k) == I  # any precision n >= k

    @pytest.mark.parametrize("p,ell,k", CASES)
    def test_neighbours_are_the_children_and_the_parent(self, p, ell, k):
        """The ell + 1 ell-neighbours of I_w are the ideals of w's children
        and ell I_w' for w' its parent (at the root, the ell + 1 children's),
        along the first-child and the last-child path down to level k."""
        O = idl.root_maximal_orders(p)[0]
        frame = idl.matrix_split(O, ell, k + 1)

        def ideal(w, j):
            if w is None:
                return O.lattice
            return frame.ball_ideal(idl.tree_point_matrix(w, ell), j)

        for pick in (0, -1):
            parent, w = None, None
            for j in range(k + 1):
                children = idl.tree_children(w, j + 1, ell)
                want = {ideal(c, j + 1).key() for c in children}
                if j:
                    want.add(ideal(parent, j - 1).scale(ell).key())
                assert len(want) == ell + 1
                assert {J.key() for J in brandt.ell_neighbors(ideal(w, j), ell)} == want
                parent, w = w, children[pick]


# ---------------------------------------------------------------------------
# the former mod-l reducers, kept as oracles for the one echelon form


def fp_kernel_oracle(rows, p):
    """Basis of {v : v.M = 0 mod p} for square M; row-reduce [M | I] and
    read zero rows."""
    n = len(rows)
    ext = [[rows[r][c] % p for c in range(n)] + [int(r == t) for t in range(n)] for r in range(n)]
    pivots = []
    for col in range(n):
        piv = next((r for r in range(len(ext)) if r not in pivots and ext[r][col] % p), None)
        if piv is None:
            continue
        inv = pow(ext[piv][col], -1, p)
        ext[piv] = [x * inv % p for x in ext[piv]]
        for r in range(len(ext)):
            if r != piv and ext[r][col] % p:
                f = ext[r][col]
                ext[r] = [(x - f * y) % p for x, y in zip(ext[r], ext[piv])]
        pivots.append(piv)
    return [row[n:] for r, row in enumerate(ext) if r not in pivots and not any(row[:n])]


def rref_oracle(rows, ell):
    """Reduced echelon form; the former width-4 reducer with its width
    taken from the rows."""
    work = [list(r) for r in rows]
    out = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in work if r[col] % ell), None)
        if piv is None:
            continue
        work.remove(piv)
        inv = pow(piv[col] % ell, -1, ell)
        piv = [x * inv % ell for x in piv]
        for r in work:
            f = r[col] % ell
            if f:
                for t in range(ncols):
                    r[t] = (r[t] - f * piv[t]) % ell
        for r in out:
            f = r[col] % ell
            if f:
                for t in range(ncols):
                    r[t] = (r[t] - f * piv[t]) % ell
        out.append(piv)
        work = [r for r in work if any(x % ell for x in r)]
    return [tuple(r) for r in out]


def in_span_oracle(basis, vec, ell):
    """Membership of vec in the span of an echelon basis of width 4."""
    work = list(vec)
    for b in basis:
        lead = next((t for t in range(4) if b[t] % ell), None)
        if lead is None:
            continue
        f = work[lead] * pow(b[lead], -1, ell) % ell
        if f:
            for t in range(4):
                work[t] = (work[t] - f * b[t]) % ell
    return not any(x % ell for x in work)


def pair_coords_oracle(m1, m2, vec, ell):
    """Coordinates (a, b) with a m1 + b m2 = vec mod ell, for m1, m2
    independent mod ell: Cramer's rule on a 2x2 minor invertible mod ell."""
    s, t = next((s, t) for s in range(4) for t in range(s + 1, 4)
                if (m1[s] * m2[t] - m1[t] * m2[s]) % ell)
    inv = pow(m1[s] * m2[t] - m1[t] * m2[s], -1, ell)
    a = (vec[s] * m2[t] - vec[t] * m2[s]) * inv % ell
    b = (m1[s] * vec[t] - m1[t] * vec[s]) * inv % ell
    if any((a * x + b * y - v) % ell for x, y, v in zip(m1, m2, vec)):
        raise AssertionError("vector not in module span")
    return (a, b)


@st.composite
def matrices_mod(draw, width=None, square=False):
    """(ell, rows): 1-20 rows mod ell in {2, 3, 5, 7, 11, 13}, rank
    deficient about a third of the time (rows spanned by two of them)."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 20))
    width = n if square else (width or draw(st.integers(1, 8)))
    rng = random.Random(draw(st.integers(0, 10**9)))
    rows = [[rng.randrange(ell) for _ in range(width)] for _ in range(n)]
    if rng.random() < 0.35:
        a, b = rows[0], rows[-1]
        rows = [[(rng.randrange(ell) * x + rng.randrange(ell) * y) % ell for x, y in zip(a, b)]
                for _ in rows]
    return ell, rows


class TestModEllEchelon:
    """lattice.span_mod and kernel_mod, echelon_mod read at a prime modulus,
    against the reducers they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(m=matrices_mod())
    def test_rref(self, m):
        ell, rows = m
        ncols = len(rows[0])
        S = span_mod(rows, ncols, ell)
        R = rref_oracle(rows, ell)
        assert rref_oracle(S, ell) == R
        assert len(S) == len(R)
        leads = [next(t for t in range(ncols) if r[t]) for r in S]
        assert leads == sorted(set(leads))
        assert all(r[t] == 1 and all(0 <= x < ell for x in r) for r, t in zip(S, leads))

    @settings(max_examples=200, deadline=None)
    @given(m=matrices_mod(square=True))
    def test_kernel(self, m):
        ell, rows = m
        n = len(rows)
        got = kernel_mod(rows, n, ell)
        for v in got:
            assert all(sum(v[i] * rows[i][c] for i in range(n)) % ell == 0 for c in range(n))
        assert rref_oracle(got, ell) == rref_oracle(fp_kernel_oracle(rows, ell), ell)
        assert len(got) == n - len(rref_oracle(rows, ell))

    @settings(max_examples=300, deadline=None)
    @given(m=matrices_mod(width=4), vec=st.lists(st.integers(0, 12), min_size=4, max_size=4),
           inside=st.booleans())
    def test_span_membership_and_coordinates(self, m, vec, inside):
        """Membership in span_mod's basis against the rank of the rows with
        vec added; on a 2-dimensional basis, vec has coordinates (Cramer's
        rule) exactly when it is inside."""
        ell, rows = m
        basis = span_mod(rows, 4, ell)
        if inside:
            vec = [sum(c * r[t] for c, r in zip(vec, rows)) % ell for t in range(4)]
        vec = [x % ell for x in vec]
        member = len(rref_oracle(rows + [vec], ell)) == len(rref_oracle(rows, ell))
        assert in_span_oracle(basis, vec, ell) == member
        if inside:
            assert member
        if len(basis) == 2:
            try:
                pair_coords_oracle(*basis, vec, ell)
            except AssertionError:
                assert not member
            else:
                assert member


class TestMatrixSplit:
    def test_identity_maps_to_identity(self):
        split = idl.matrix_split(ROOT7, 3)
        assert image_of(split, element(A7, 1)) == (1, 0, 0, 1)

    def test_char_poly(self):
        for ell in (2, 3, 5):
            split = idl.matrix_split(ROOT7, ell)
            for b in basis_elements(ROOT7.lattice):
                m = image_of(split, b)
                tr = (m[0] + m[3]) % ell
                det = (m[0] * m[3] - m[1] * m[2]) % ell
                assert tr == int(b.trd()) % ell
                assert det == int(b.nrd()) % ell

    def test_multiplicative_on_random_pairs(self):
        split = idl.matrix_split(ROOT7, 5)
        rng = random.Random(1)
        bas = basis_elements(ROOT7.lattice)
        for _ in range(100):
            x = sum((rng.randrange(5) * b for b in bas), element(A7))
            y = sum((rng.randrange(5) * b for b in bas), element(A7))
            mx, my = image_of(split, x), image_of(split, y)
            prod = (
                (mx[0] * my[0] + mx[1] * my[2]) % 5,
                (mx[0] * my[1] + mx[1] * my[3]) % 5,
                (mx[2] * my[0] + mx[3] * my[2]) % 5,
                (mx[2] * my[1] + mx[3] * my[3]) % 5,
            )
            assert image_of(split, x * y) == prod

    def test_lift_section(self):
        split = idl.matrix_split(ROOT7, 3)
        for m in ((0, 0, 0, 1), (1, 2, 0, 0), (2, 1, 1, 1)):
            lift = tuple(Fraction(x, ROOT7.lattice.den) for x in lift_row(split, m))
            assert image_of(split, QuatElement(A7, lift)) == m


def equivalence_oracle(I: QLattice, J: QLattice):
    """The former is_equivalent, kept as the independent path: a witness
    alpha with J = I alpha exists iff N = I^-1 J contains an element of norm
    exactly nrd(N), found by a short-vector search on N."""
    O = QOrder(I.left_order())
    same = J.is_left_module_over(O.lattice) if O.is_maximal else O.lattice == J.left_order()
    if not same:
        raise PreconditionError("equivalence needs matching left orders")
    N = idl.inverse(I) * J
    target = N.reduced_norm
    for elt in min_norm_elements(N, target):
        if elt.nrd() == target and times(I, elt) == J:
            return elt
    return None


def witness_element(I: QLattice, w) -> QuatElement:
    """alpha = a s / t for is_equivalent's integer witness (a, s, t)."""
    a, s, t = w
    return QuatElement(I.algebra, tuple(Fraction(x * s, t) for x in a))


class TestEquivalence:
    @pytest.mark.parametrize("p", [11, 37, 101, 113, 211])
    def test_agrees_with_the_oracle(self, p):
        """On every (representative, neighbour) pair, the neighbour reduced
        and not, both tests give a valid witness or both give None; the
        class of a neighbour is the one representative the oracle matches.
        The sigma-pair misses (J in the class sigma(i) != i, which theta
        prefixes do not tell from i) are among the Nones."""
        O0 = idl.root_maximal_orders(p)[0]
        cs = brandt.enumerate_classes(O0, 2)
        sigma = brandt.type_involution(cs)
        reps = cs.representatives
        misses = 0
        for J in [J for R in reps for J in brandt.ell_neighbors(R, 2)]:
            for K in (J, idl.reduce_ideal(J, O0)):
                hits = []
                for i, R in enumerate(reps):
                    got, want = idl.is_equivalent(R, K, O0), equivalence_oracle(R, K)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert times(R, witness_element(R, got)) == K == times(R, want)
                        hits.append(i)
                assert len(hits) == 1
                misses += sum(sigma[i] == hits[0] != i for i in range(len(reps)))
        assert bool(misses) == any(s != j for j, s in enumerate(sigma))

    def test_witness_for_translates(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        beta = element(A7, 1, 1, 1, 0)
        J = times(I, beta)
        w = idl.is_equivalent(I, J, ROOT7)
        assert w is not None
        assert times(I, witness_element(I, w)) == J

    def test_distinct_classes_at_p37(self):
        O0 = idl.root_maximal_orders(37)[0]
        from qisog import brandt

        cs = brandt.enumerate_classes(O0, 2)
        assert cs.class_number == 3
        I, J = cs.representatives[0], cs.representatives[1]
        assert idl.is_equivalent(I, J, O0) is None

    def test_precondition_checked_once_per_pair(self, monkeypatch):
        """Consecutive tests on one (J, O) pair check O J in J once; another
        J is checked afresh, so a mismatched J after a matching one is still
        refused, and the matching J after it is checked again."""
        checks, check = [], QLattice.is_left_module_over

        def counted(J, other):
            checks.append(J)
            return check(J, other)

        monkeypatch.setattr(QLattice, "is_left_module_over", counted)
        idl._is_left_ideal.cache_clear()
        I, J = idl.ideals_of_norm_ell(ROOT7, 2)[:2]
        other = idl.root_maximal_orders(7)[1].lattice
        for R in (I, J, ROOT7.lattice):
            idl.is_equivalent(R, J, ROOT7)
        assert checks == [J]
        with pytest.raises(PreconditionError, match="matching left orders"):
            idl.is_equivalent(I, other, ROOT7)
        idl.is_equivalent(I, J, ROOT7)
        assert checks == [J, other, J]

    def test_mismatched_left_orders_rejected(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        other = idl.root_maximal_orders(7)[1].lattice
        with pytest.raises(PreconditionError):
            idl.is_equivalent(I, other, ROOT7)


class TestLeftOrderPrecondition:
    """For maximal O, O J contained in J (16 memberships) is O_L(J) == O."""

    @staticmethod
    def assert_agrees(ideals, orders):
        outcomes = set()
        for J in ideals:
            for O in orders:
                same = J.left_order() == O.lattice
                assert J.is_left_module_over(O.lattice) == same
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_class_set_ideals(self):
        O0, O1 = idl.root_maximal_orders(101)
        cs = brandt.enumerate_classes(O0, 2)
        ideals = list(cs.representatives)
        for R in cs.representatives:
            ideals += [idl.reduce_ideal(J, O0) for J in brandt.ell_neighbors(R, 2)]
        orders = [O0, O1] + [QOrder(R.right_order()) for R in cs.representatives]
        self.assert_agrees(ideals, orders)
        assert all(J.left_order() == O0.lattice for J in ideals)

    @pytest.mark.parametrize("walked", ["walked_orders_13", "walked_orders_37"])
    def test_walk_ideals(self, walked, request):
        orders = request.getfixturevalue(walked)
        ideals = [I for O in orders for I in idl.ideals_of_norm_ell(O, 2)]
        self.assert_agrees(ideals, orders)

    def test_non_maximal_left_order_is_refused(self):
        """Equivalence is decided over a maximal left order only, even for
        a translate, which is equivalent."""
        B = bass.bass_order(A13)
        assert not B.is_maximal
        I = B.lattice
        beta = element(A13, 1, 1, 1, 0)
        with pytest.raises(PreconditionError, match="maximal left order"):
            idl.is_equivalent(I, times(I, beta), B)
        O0 = idl.root_maximal_orders(13)[0]
        with pytest.raises(PreconditionError, match="matching left orders"):
            idl.is_equivalent(O0.lattice, I, O0)


def doubling_reduce_ideal(I, O):
    """The former reduce_ideal, kept as the reference: the bound doubles
    from 2 nrd(I) until the search finds an element, and I conj(beta) /
    nrd(I) is the product of the Fraction basis elements."""
    n = I.reduced_norm
    bound = n
    elts = []
    while not elts:
        bound = bound * 2
        elts = min_norm_elements(I, bound)
    return idl.primitive_part(times(I, elts[0].conjugate() / n), O)


class TestReduceIdeal:
    def test_known_left_order_gives_the_same_ideal(self):
        O0 = idl.root_maximal_orders(113)[0]
        for R in brandt.enumerate_classes(O0, 3).representatives:
            for J in brandt.ell_neighbors(R, 3):
                assert idl.reduce_ideal(J, O0) == idl.reduce_ideal(J, QOrder(J.left_order()))

    @pytest.mark.parametrize("p,ell", [(37, 2), (101, 3), (113, 2)])
    def test_one_search_and_the_doubling_result(self, p, ell, monkeypatch):
        """One short-vector search for the first call on an ideal, none for a
        second call once that search filled its minimal vectors, and the
        same ideal as the doubling loop, on every neighbor of every class
        representative."""
        O0 = idl.root_maximal_orders(p)[0]
        neighbors = [J for R in brandt.enumerate_classes(O0, ell).representatives
                     for J in brandt.ell_neighbors(R, ell)]
        searches = []
        search = QLattice.short_vectors

        def counted(self, bound):
            searches.append(bound)
            return search(self, bound)

        for J in neighbors:
            monkeypatch.setattr(QLattice, "short_vectors", counted)
            got = idl.reduce_ideal(J, O0)
            again = idl.reduce_ideal(J, O0)
            monkeypatch.setattr(QLattice, "short_vectors", search)
            assert got == again == doubling_reduce_ideal(J, O0)
        assert len(searches) == len(neighbors)


@functools.cache
def ball_frame(p: int, ell: int) -> idl.EllAdicFrame:
    return idl.matrix_split(idl.root_maximal_order(p), ell, 3)


class TestContentScaling:
    """content(c I, O) = c content(I, O) for a positive rational c, so c I
    and I have one primitive part; reduce_ideal relies on it to take the
    primitive part of I conj(beta) rather than of I conj(beta) / nrd(I).
    Checked on ball ideals, content 1, and on their products I conj(beta)
    with a minimal element beta of I, content nrd(I) or more."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from([(7, 2), (101, 3), (499, 5)]), k=st.integers(1, 3),
           seed=st.integers(0, 10**6),
           c=st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60))
    def test_content_scales_and_primitive_part_does_not(self, case, k, seed, c):
        assume(c > 0)
        frame, rng = ball_frame(*case), random.Random(seed)
        w = None
        for j in range(1, k + 1):
            w = rng.choice(idl.tree_children(w, j, frame.ell))
        I = frame.ball_ideal(idl.tree_point_matrix(w, frame.ell), k)
        _, v = rng.choice(I.minimal_vectors)
        beta = QuatElement(I.algebra, tuple(Fraction(x, I.den) for x in v))
        O = frame.order
        for J in (I, times(I, beta.conjugate())):
            assert idl.content(J.scale(c), O) == c * idl.content(J, O)
            assert idl.primitive_part(J.scale(c), O) == idl.primitive_part(J, O)


def two_sided_p_ideal(O: QOrder) -> QLattice:
    """The unique two-sided ideal of reduced norm p of a maximal order, kept
    as the oracle for O0 j: an arbitrary maximal order need not hold j.

    Locally at the ramified prime it is the radical, which equals the
    radical of the mod-p trace form since the semisimple quotient F_{p^2}
    has nondegenerate trace pairing."""
    if not O.is_maximal:
        raise PreconditionError("needs a maximal order")
    p = O.algebra.p
    rows = [[p * x for x in row] for row in O.lattice.mat]
    rows += [idl._combine(v, O.lattice.mat) for v in kernel_mod(O.trace_gram, 4, p)]
    P = QLattice.from_int_rows(O.algebra, rows, O.lattice.den)
    assert P.reduced_norm == p and P.left_order() == O.lattice == P.right_order()
    return P


class TestTwoSidedIdeal:
    def test_norm_p(self):
        P = two_sided_p_ideal(ROOT7)
        assert P.reduced_norm == 7
        assert is_two_sided(P)
        assert P * P == ROOT7.lattice.scale(7)

    def test_is_o0_j_and_j_o0(self):
        """P = O0 j = j O0 at every prime 5 <= p < 1000: j lies in O0 and has
        norm p, which is what type_involution reads."""
        j = (0, 0, 1, 0)
        for p in range(5, 1000):
            if not numth.is_prime(p):
                continue
            O0 = idl.root_maximal_order(p)
            lat, mul = O0.lattice, O0.algebra.mul_coords
            left = QLattice.from_int_rows(O0.algebra, [mul(r, j) for r in lat.mat], lat.den)
            right = QLattice.from_int_rows(O0.algebra, [mul(j, r) for r in lat.mat], lat.den)
            assert two_sided_p_ideal(O0) == left == right, p
