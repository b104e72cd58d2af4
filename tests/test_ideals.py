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
from qisog.ideals import QIdeal, QOrder
from qisog.lattice import QLattice, hnf_rows
from qisog.quat import QuatAlgebra, QuatElement

A7 = QuatAlgebra.for_prime(7)
A13 = QuatAlgebra.for_prime(13)
A499 = QuatAlgebra.for_prime(499)
ROOT7 = idl.global_root_orders(7)[0]


def fraction_order_closure(gens, rounds: int = 16) -> QLattice:
    """Oracle for order_closure on Fraction coordinates: each round adds the
    products of the current span and takes the HNF over the lcm of all the
    denominators, until the span repeats."""
    alg = gens[0].algebra
    current = [alg.one.coords] + [g.coords for g in gens]
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
            return QLattice.from_frac_rows(alg, nxt)
        seen = current = nxt
    raise CapExceeded("ring closure did not stabilize; not an order")


class TestOrderClosure:
    def test_p7_root(self):
        one, i, j, k = A7.basis()
        O = idl.order_closure([i, (one + j) / 2])
        assert O.reduced_discriminant == 7

    def test_p13_standard(self):
        _, i, j, _ = A13.basis()
        O = idl.order_closure([i, j])
        assert O.reduced_discriminant == 104  # 8p

    def test_scalars_fail_rank(self):
        with pytest.raises(PreconditionError):
            idl.order_closure([A7.one])
        with pytest.raises(PreconditionError):
            fraction_order_closure([A7.one])

    def test_unbounded_denominators_fail(self):
        one, i, j, k = A7.basis()
        with pytest.raises(CapExceeded):
            idl.order_closure([i / 2])
        with pytest.raises(CapExceeded):
            fraction_order_closure([i / 2])

    def test_root_and_bass_generators_against_fraction_oracle(self, monkeypatch):
        """Every generator set that root_maximal_orders and bass_order close
        for 5 <= p < 500 gives the same order on both paths."""
        calls = []
        closure = idl.order_closure

        def record(gens, rounds=16):
            calls.append((gens, closure(gens, rounds)))
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
        one, i, j, _ = A7.basis()
        a1, a2 = i, (one + j) / 2
        O = idl.order_closure([a1, a2])
        assert idl.two_generator_discriminant(a1, a2) == O.reduced_discriminant

    def test_p17_pq(self):
        a17 = QuatAlgebra.for_prime(17)
        one, i, j, _ = a17.basis()
        O = idl.order_closure([(one + i) / 2, j])
        assert a17.q == 3
        assert O.reduced_discriminant == 51

    def test_maximal_iff_discrd_p(self):
        std = QOrder(QLattice.standard_order_lattice(A13))
        assert not std.is_maximal
        assert ROOT7.is_maximal


class TestRootOrders:
    def test_maximal_quadratic_generators(self):
        """The integer rows cached on the algebra give (1 + u)/2 for
        d_u = 1 mod 4 and u otherwise."""
        for p in (5, 7, 13, 17, 41, 73, 101, 113, 409, 499):
            alg = QuatAlgebra.for_prime(p)
            want = tuple((alg.one + u) / 2 if d % 4 == 1 else u
                         for d, u in ((alg.d_i, alg.i), (alg.d_j, alg.j)))
            assert idl.maximal_quadratic_generators(alg) == want

    @pytest.mark.parametrize("p", [7, 11, 19, 23])
    def test_three_mod_four(self, p):
        orders = idl.root_maximal_orders(p)
        assert all(o.reduced_discriminant == p for o in orders)
        alg = orders[0].algebra
        wi, wj = idl.maximal_quadratic_generators(alg)
        assert orders[0].contains(wi) and orders[0].contains(wj)
        assert not orders[1].contains(wj)   # only the first holds both
        assert idl.global_root_orders(p) == [orders[0]]

    @pytest.mark.parametrize("p", [13, 29, 17, 41])
    def test_one_mod_four(self, p):
        orders = idl.root_maximal_orders(p)
        assert all(o.is_maximal for o in orders)
        assert orders[0].key() != orders[1].key()
        assert len(idl.global_root_orders(p)) == 2

    @pytest.mark.parametrize("p", [73, 193, 241, 313, 337, 409, 457, 577, 673])
    def test_one_mod_eight_with_large_q(self, p):
        """(c i + k)/q has reduced norm (c^2 + p)/q, so c must satisfy
        q | c^2 + p; q | c^2 p + 1 agrees with it only for q = 3."""
        assert QuatAlgebra.for_prime(p).q in (7, 11)
        orders = idl.root_maximal_orders(p)
        assert len(orders) == 2 and all(o.is_maximal for o in orders)
        assert idl.global_root_orders(p)

    def test_small_p_rejected(self):
        with pytest.raises(PreconditionError):
            idl.root_maximal_orders(3)


class TestPrimitivity:
    def test_squarefree_norm_is_primitive(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        assert I.nrd() == 2
        assert idl.is_primitive(I)

    def test_scaled_ideal(self):
        I = idl.ideals_of_norm_ell(ROOT7, 3)[1]
        J = QIdeal(I.lattice.scale(3))
        assert not idl.is_primitive(J)
        assert idl.primitive_part(J).lattice == I.lattice

    def test_local_global_agreement(self, walked_orders_13):
        rng = random.Random(5)
        count = 0
        for O in walked_orders_13[:10]:
            for ell in (2, 3):
                for I in idl.ideals_of_norm_ell(O, ell):
                    n = rng.choice((1, 1, 2, 3, 6))
                    J = QIdeal(I.lattice.scale(n))
                    locally = all(
                        idl.is_primitive_at(J, q)
                        for q in numth.factorize(int(J.nrd()))
                    )
                    assert idl.is_primitive(J) == locally == (n == 1)
                    count += 1
        assert count >= 20


class TestInverseAndColon:
    def test_inverse_of_order(self):
        O = QIdeal(ROOT7.lattice)
        assert idl.inverse(O).lattice == ROOT7.lattice

    def test_inverse_products(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        assert (QIdeal(idl.inverse(I).lattice * I.lattice)).lattice == I.right_order.lattice
        assert (QIdeal(I.lattice * idl.inverse(I).lattice)).lattice == I.left_order.lattice

    def test_colon_norms(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        J = idl.ideals_of_norm_ell(ROOT7, 3)[0]
        N = idl.colon(J, I, side="right")  # I^{-1} J
        assert N.nrd() == J.nrd() / I.nrd()

    def test_colon_integrality_iff_containment(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        deeper = idl.ideals_of_norm_ell(I.right_order, 3)[0]
        J = QIdeal(I.lattice * deeper.lattice)  # contained in I
        N = idl.colon(J, I, side="right")
        assert I.lattice.contains_lattice(J.lattice)
        assert N.is_integral()
        K = idl.ideals_of_norm_ell(ROOT7, 2)[1]
        M = idl.colon(K, I, side="right")
        assert not I.lattice.contains_lattice(K.lattice)
        assert not M.is_integral()


class TestConnectingIdeals:
    def test_self_connecting(self):
        C = idl.connecting_ideal(ROOT7, ROOT7)
        assert C.lattice == ROOT7.lattice and C.nrd() == 1

    def test_neighbor_norm_and_conjugate(self):
        for ell in (2, 3):
            I = idl.ideals_of_norm_ell(ROOT7, ell)[0]
            O1 = I.right_order
            C = idl.connecting_ideal(ROOT7, O1)
            assert C.nrd() == ell
            meet = ROOT7.lattice.intersect(O1.lattice)
            assert C.nrd() == meet.index_in(ROOT7.lattice) == meet.index_in(O1.lattice)
            assert C.conjugate().lattice == idl.connecting_ideal(O1, ROOT7).lattice

    def test_membership_set_oracle(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        O1 = I.right_order
        C = idl.connecting_ideal(ROOT7, O1)
        for b in C.lattice.basis_elements():
            assert idl.connecting_ideal_membership_oracle(ROOT7, O1, b)
        # elements outside C must violate the membership predicate
        outside = [e for e in ROOT7.lattice.min_norm_elements(3) if not C.lattice.contains(e)]
        assert outside and all(
            not idl.connecting_ideal_membership_oracle(ROOT7, O1, e) for e in outside)

    def test_two_step_colon_consistency(self):
        I1 = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        mid = I1.right_order
        I2 = idl.ideals_of_norm_ell(mid, 3)[0]
        far = I2.right_order
        prod = QIdeal(I1.lattice * I2.lattice)
        assert prod.left_order == ROOT7 and prod.right_order == far
        assert idl.primitive_part(prod).lattice == idl.connecting_ideal(ROOT7, far).lattice

    def test_requires_maximal(self):
        std = QOrder(QLattice.standard_order_lattice(A13))
        with pytest.raises(PreconditionError):
            idl.connecting_ideal(std, std)


class TestNormEllIdeals:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_count_and_oracle(self, ell):
        fast = idl.ideals_of_norm_ell(ROOT7, ell)
        slow = idl.ideals_of_norm_ell_bruteforce(ROOT7, ell)
        assert len(fast) == ell + 1
        assert [I.key() for I in fast] == [I.key() for I in slow]

    def test_not_two_sided(self):
        for ell in (2, 3):
            for I in idl.ideals_of_norm_ell(ROOT7, ell):
                assert not I.is_two_sided()

    def test_index_is_norm_squared(self):
        for I in idl.ideals_of_norm_ell(ROOT7, 3):
            assert I.lattice.index_in(ROOT7.lattice) == 9

    def test_left_order_preserved(self):
        for I in idl.ideals_of_norm_ell(ROOT7, 2):
            assert I.left_order == ROOT7

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
                    assert I.lattice.right_order() == idl.inverse(I).lattice * I.lattice
                    assert I.lattice.left_order() == O.lattice

    @pytest.mark.parametrize("p", [13, 17, 41])
    def test_non_maximal_bass_orders_are_their_own_orders(self, p):
        O = bass.bass_order(QuatAlgebra.for_prime(p))
        assert not O.is_maximal
        assert O.lattice.left_order() == O.lattice.right_order() == O.lattice


class TestNormEllRightOrder:
    """norm_ell_right_order is conj(I) I / l; the general path is the trace
    duality formula QLattice.right_order."""

    @staticmethod
    def assert_agrees(O, ell):
        for I in idl.ideals_of_norm_ell(O, ell):
            assert idl.norm_ell_right_order(I, ell) == I.lattice.right_order()

    @pytest.mark.parametrize("walked", ["walked_orders_13", "walked_orders_37"])
    def test_walked_orders(self, walked, request):
        for O in request.getfixturevalue(walked):
            for ell in (2, 3):
                self.assert_agrees(O, ell)

    def test_p499_ell7_walk(self):
        g = orient.walk_component(idl.global_root_orders(499)[0], 7, depth=2)
        orders = [QOrder(QLattice(A499, key[1], key[0])) for key in g.vertices()]
        assert len(orders) == 65
        for O in orders:
            self.assert_agrees(O, 7)


def brute_pair_coords(m1, m2, vec, ell):
    """Oracle: the (a, b) with a m1 + b m2 = vec mod ell, over all ell^2 pairs."""
    for a in range(ell):
        for b in range(ell):
            if all((a * x + b * y - v) % ell == 0 for x, y, v in zip(m1, m2, vec)):
                return (a, b)
    raise AssertionError("vector not in module span")


class TestPairCoords:
    @settings(max_examples=200, deadline=None)
    @given(ell=st.sampled_from([2, 3, 5, 7, 11]),
           m1=st.lists(st.integers(0, 10), min_size=4, max_size=4),
           m2=st.lists(st.integers(0, 10), min_size=4, max_size=4),
           a=st.integers(0, 10), b=st.integers(0, 10), off=st.sampled_from([0, 0, 1]),
           pos=st.integers(0, 3))
    def test_against_all_pairs(self, ell, m1, m2, a, b, off, pos):
        m1, m2 = [x % ell for x in m1], [x % ell for x in m2]
        assume(any((m1[s] * m2[t] - m1[t] * m2[s]) % ell
                   for s in range(4) for t in range(s + 1, 4)))
        vec = [(a * x + b * y) % ell for x, y in zip(m1, m2)]
        vec[pos] = (vec[pos] + off) % ell
        try:
            want = brute_pair_coords(m1, m2, vec, ell)
        except AssertionError:
            with pytest.raises(AssertionError, match="not in module span"):
                idl._pair_coords_mod(m1, m2, vec, ell)
        else:
            assert idl._pair_coords_mod(m1, m2, vec, ell) == want


class TestMatrixSplit:
    def test_identity_maps_to_identity(self):
        split = idl.matrix_split(ROOT7, 3)
        assert split.image_of(A7.one) == (1, 0, 0, 1)

    def test_char_poly(self):
        for ell in (2, 3, 5):
            split = idl.matrix_split(ROOT7, ell)
            for b in ROOT7.basis_elements():
                m = split.image_of(b)
                tr = (m[0] + m[3]) % ell
                det = (m[0] * m[3] - m[1] * m[2]) % ell
                assert tr == int(b.trd()) % ell
                assert det == int(b.nrd()) % ell

    def test_multiplicative_on_random_pairs(self):
        split = idl.matrix_split(ROOT7, 5)
        rng = random.Random(1)
        bas = ROOT7.basis_elements()
        for _ in range(100):
            x = sum((rng.randrange(5) * b for b in bas), A7.element())
            y = sum((rng.randrange(5) * b for b in bas), A7.element())
            mx, my = split.image_of(x), split.image_of(y)
            prod = (
                (mx[0] * my[0] + mx[1] * my[2]) % 5,
                (mx[0] * my[1] + mx[1] * my[3]) % 5,
                (mx[2] * my[0] + mx[3] * my[2]) % 5,
                (mx[2] * my[1] + mx[3] * my[3]) % 5,
            )
            assert split.image_of(x * y) == prod

    def test_lift_section(self):
        split = idl.matrix_split(ROOT7, 3)
        for m in ((0, 0, 0, 1), (1, 2, 0, 0), (2, 1, 1, 1)):
            assert split.image_of(split.lift(m)) == m


class TestEquivalence:
    def test_witness_for_translates(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        beta = A7.element(1, 1, 1, 0)
        J = I * beta
        w = idl.is_equivalent(I, J)
        assert w is not None
        assert (I * w).lattice == J.lattice

    def test_distinct_classes_at_p37(self):
        O0 = idl.root_maximal_orders(37)[0]
        from qisog import brandt

        cs = brandt.enumerate_classes(O0, 2)
        assert cs.class_number == 3
        I, J = cs.representatives[0], cs.representatives[1]
        assert idl.is_equivalent(I, J) is None

    def test_mismatched_left_orders_rejected(self):
        I = idl.ideals_of_norm_ell(ROOT7, 2)[0]
        other = QIdeal(idl.root_maximal_orders(7)[1].lattice)
        with pytest.raises(PreconditionError):
            idl.is_equivalent(I, other)


class TestLeftOrderPrecondition:
    """For maximal O, O J contained in J (16 memberships) is O_L(J) == O."""

    @staticmethod
    def assert_agrees(ideals, orders):
        outcomes = set()
        for J in ideals:
            for O in orders:
                same = J.left_order == O
                assert J.lattice.is_left_module_over(O.lattice) == same
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_class_set_ideals(self):
        O0, O1 = idl.root_maximal_orders(101)
        cs = brandt.enumerate_classes(O0, 2)
        ideals = list(cs.representatives)
        for R in cs.representatives:
            ideals += [idl.reduce_ideal(J) for J in brandt.ell_neighbors(R, 2)]
        orders = [O0, O1] + [R.right_order for R in cs.representatives]
        self.assert_agrees(ideals, orders)
        assert all(J.left_order == O0 for J in ideals)

    @pytest.mark.parametrize("walked", ["walked_orders_13", "walked_orders_37"])
    def test_walk_ideals(self, walked, request):
        orders = request.getfixturevalue(walked)
        ideals = [I for O in orders for I in idl.ideals_of_norm_ell(O, 2)]
        self.assert_agrees(ideals, orders)

    def test_non_maximal_left_order_is_compared(self):
        B = bass.bass_order(A13)
        assert not B.is_maximal
        I = QIdeal(B.lattice)
        beta = A13.element(1, 1, 1, 0)
        assert idl.is_equivalent(I, I * beta) is not None
        with pytest.raises(PreconditionError):
            idl.is_equivalent(I, QIdeal(idl.root_maximal_orders(13)[0].lattice))
        with pytest.raises(PreconditionError):
            idl.is_equivalent(QIdeal(idl.root_maximal_orders(13)[0].lattice), I)


class TestIdealTimesElement:
    """I alpha and alpha I on the integer rows agree with the products of
    the Fraction basis elements."""

    @settings(max_examples=40, deadline=None)
    @given(coords=st.tuples(*[st.integers(-5, 5)] * 4), den=st.integers(1, 6),
           which=st.integers(0, 2))
    def test_against_fraction_products(self, coords, den, which):
        assume(any(coords))
        I = idl.ideals_of_norm_ell(ROOT7, 3)[which]
        alpha = QuatElement(A7, tuple(Fraction(c, den) for c in coords))
        basis = I.lattice.basis_elements()
        assert (I * alpha).lattice == QLattice.from_elements([b * alpha for b in basis])
        assert (alpha * I).lattice == QLattice.from_elements([alpha * b for b in basis])


class TestReduceIdeal:
    def test_known_left_order_gives_the_same_ideal(self):
        O0 = idl.root_maximal_orders(113)[0]
        for R in brandt.enumerate_classes(O0, 3).representatives:
            for J in brandt.ell_neighbors(R, 3):
                assert idl.reduce_ideal(J, O0) == idl.reduce_ideal(QIdeal(J.lattice))


class TestTwoSidedIdeal:
    def test_norm_p(self):
        P = idl.two_sided_p_ideal(ROOT7)
        assert P.nrd() == 7
        assert P.is_two_sided()
        assert (QIdeal(P.lattice * P.lattice)).lattice == ROOT7.lattice.scale(7)
