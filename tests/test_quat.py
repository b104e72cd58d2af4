"""The algebra's parameters, and the tests' Fraction element type.

src/ computes on integer rows over a denominator only.  QuatElement and the
free helpers below are the tests' second path: exact quaternions with
Fraction coordinates, built from the multiplication table alone, and the
lattice views (basis, membership, span, short elements) written on them.
Other test modules import them from here.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisog.errors import PreconditionError
from qisog.lattice import QLattice
from qisog.quat import QuatAlgebra


def split_den(coords) -> tuple[list[int], int]:
    """Rational coordinates as (integer numerators, common denominator)."""
    vden = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (vden // c.denominator) for c in coords], vden


@dataclass(frozen=True)
class QuatElement:
    """An element of the algebra with Fraction coordinates on 1, i, j, k,
    so element equality is coordinate equality."""

    algebra: QuatAlgebra
    coords: tuple

    def _check(self, other: "QuatElement") -> None:
        if self.algebra != other.algebra:
            raise PreconditionError("elements live in different algebras")

    def __add__(self, other):
        self._check(other)
        return QuatElement(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return QuatElement(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return QuatElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, QuatElement):
            self._check(other)
            return QuatElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        try:
            r = Fraction(other)
        except TypeError:  # not a scalar: let other.__rmul__ (a lattice) answer
            return NotImplemented
        return QuatElement(self.algebra, tuple(a * r for a in self.coords))

    def __rmul__(self, other):
        # scalars commute; quaternion * quaternion goes through __mul__
        return self * other

    def __truediv__(self, other):
        if isinstance(other, QuatElement):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def conjugate(self) -> "QuatElement":
        x, y, z, w = self.coords
        return QuatElement(self.algebra, (x, -y, -z, -w))

    def trd(self) -> Fraction:
        return 2 * self.coords[0]

    def nrd(self) -> Fraction:
        x, vden = split_den(self.coords)
        return Fraction(self.algebra.nrd_coords(x), vden * vden)

    def inverse(self) -> "QuatElement":
        n = self.nrd()
        if n == 0:
            raise PreconditionError("division by zero quaternion")
        return QuatElement(self.algebra, tuple(c / n for c in self.conjugate().coords))

    def key(self):
        """Deterministic sort key: norm first, then coordinates."""
        return (self.nrd(), self.coords)


def element(alg: QuatAlgebra, x=0, y=0, z=0, w=0) -> QuatElement:
    return QuatElement(alg, (Fraction(x), Fraction(y), Fraction(z), Fraction(w)))


def basis(alg: QuatAlgebra) -> tuple[QuatElement, ...]:
    """1, i, j, k."""
    return tuple(element(alg, *[int(r == c) for c in range(4)]) for r in range(4))


def basis_elements(L: QLattice) -> list[QuatElement]:
    """The rows of L.mat over L.den, as elements."""
    return [QuatElement(L.algebra, tuple(Fraction(x, L.den) for x in row)) for row in L.mat]


def contains(L: QLattice, x: QuatElement) -> bool:
    return L.int_coords(*split_den(x.coords)) is not None


def from_elements(gens) -> QLattice:
    """The lattice the elements span, over the lcm of their denominators."""
    rows = [split_den(g.coords) for g in gens]
    den = math.lcm(*(vden for _, vden in rows))
    return QLattice.from_int_rows(gens[0].algebra, [[x * (den // vden) for x in v]
                                                    for v, vden in rows], den)


def min_norm_elements(L: QLattice, bound) -> list[QuatElement]:
    """L.min_norm_elements(bound) as elements, in its order."""
    return [QuatElement(L.algebra, tuple(Fraction(x, L.den) for x in v))
            for v in L.min_norm_elements(bound)]


A7 = QuatAlgebra.for_prime(7)
A13 = QuatAlgebra.for_prime(13)

coords = st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=4)] * 4)


def elem(alg, c):
    return element(alg, *c)


class TestArithmetic:
    def test_examples(self):
        one, i, j, k = basis(A7)
        assert i.nrd() == 1  # d_i = -1 here
        assert (i * j).trd() == 0
        assert ((one + j) / 2).nrd() == 2

    def test_multiplication_table(self):
        one, i, j, k = basis(A13)
        assert i * j == k
        assert j * i == -k
        assert (i * i).coords[0] == A13.d_i
        assert (k * k).coords[0] == -A13.d_i * A13.d_j

    def test_conjugation_involution_and_norm(self):
        x = element(A7, Fraction(1, 2), 3, Fraction(-2, 3), 1)
        assert x.conjugate().conjugate() == x
        n = x * x.conjugate()
        assert n.coords == (x.nrd(), 0, 0, 0)
        assert x.nrd() > 0

    def test_definiteness(self):
        assert element(A7).nrd() == 0
        assert element(A7, 0, 0, 0, Fraction(1, 7)).nrd() > 0

    def test_inverse_and_division(self):
        x = element(A13, 2, 1, 0, 3)
        assert x * x.inverse() == element(A13, 1)
        y = element(A13, 1, 1, 1, 1)
        assert (y / x) * x == y

    def test_gram_diagonal(self):
        elts = basis(A7)
        expected = A7.norm_diag()
        for a, ea in enumerate(elts):
            for b, eb in enumerate(elts):
                val = (ea * eb.conjugate()).trd() / 2
                assert val == (expected[a] if a == b else 0)
        assert all(v > 0 for v in expected)

    def test_mixed_algebra_rejected(self):
        with pytest.raises(PreconditionError):
            basis(A7)[1] * basis(A13)[1]

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
        _, i, j, _ = basis(A13)
        assert i * j + j * i == element(A13)

