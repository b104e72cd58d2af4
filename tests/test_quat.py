from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisog.errors import PreconditionError
from qisog.quat import QuatAlgebra

A7 = QuatAlgebra.for_prime(7)
A13 = QuatAlgebra.for_prime(13)

coords = st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=4)] * 4)


def elem(alg, c):
    return alg.element(*c)


class TestArithmetic:
    def test_examples(self):
        one, i, j, k = A7.basis()
        assert i.nrd() == 1  # d_i = -1 here
        assert (i * j).trd() == 0
        assert ((one + j) / 2).nrd() == 2

    def test_multiplication_table(self):
        one, i, j, k = A13.basis()
        assert i * j == k
        assert j * i == -k
        assert (i * i).coords[0] == A13.d_i
        assert (k * k).coords[0] == -A13.d_i * A13.d_j

    def test_conjugation_involution_and_norm(self):
        x = A7.element(Fraction(1, 2), 3, Fraction(-2, 3), 1)
        assert x.conjugate().conjugate() == x
        n = x * x.conjugate()
        assert n.coords == (x.nrd(), 0, 0, 0)
        assert x.nrd() > 0

    def test_definiteness(self):
        assert A7.element().nrd() == 0
        assert A7.element(0, 0, 0, Fraction(1, 7)).nrd() > 0

    def test_inverse_and_division(self):
        x = A13.element(2, 1, 0, 3)
        assert x * x.inverse() == A13.one
        y = A13.element(1, 1, 1, 1)
        assert (y / x) * x == y

    def test_gram_diagonal(self):
        one, i, j, k = A7.basis()
        basis = (one, i, j, k)
        expected = A7.norm_diag()
        for a, ea in enumerate(basis):
            for b, eb in enumerate(basis):
                val = (ea * eb.conjugate()).trd() / 2
                assert val == (expected[a] if a == b else 0)
        assert all(v > 0 for v in expected)

    def test_mixed_algebra_rejected(self):
        with pytest.raises(PreconditionError):
            A7.i * A13.i

    @settings(max_examples=60, deadline=None)
    @given(a=coords, b=coords)
    def test_nrd_multiplicative(self, a, b):
        x, y = elem(A13, a), elem(A13, b)
        assert (x * y).nrd() == x.nrd() * y.nrd()

    @settings(max_examples=60, deadline=None)
    @given(a=coords, b=coords)
    def test_trd_linear_and_cyclic(self, a, b):
        x, y = elem(A7, a), elem(A7, b)
        assert (x + y).trd() == x.trd() + y.trd()
        assert (x * y).trd() == (y * x).trd()


class TestAlgebraConstruction:
    def test_ramification_validated(self):
        for p in (7, 13, 17, 41):
            QuatAlgebra.for_prime(p).validate_ramification()
        with pytest.raises(PreconditionError):
            QuatAlgebra(p=7, d_i=-1, d_j=-1).validate_ramification()

    def test_perpendicular(self):
        assert A13.i * A13.j + A13.j * A13.i == A13.element()

