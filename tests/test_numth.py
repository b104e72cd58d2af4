import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisog import ecgraph, numth
from qisog.errors import PreconditionError

PLACES = (2, 3, 5, 7, numth.INF)


def legendre_euler(a: int, p: int) -> int:
    """Independent Legendre oracle via Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def hilbert_solvable(a: int, b: int, place) -> bool:
    """Solvability oracle: search a primitive solution of z^2 = ax^2 + by^2
    in the completion.  For finite ell a primitive solution mod ell^K with
    K = 5 (ell = 2) or 3 (odd) lifts by Hensel once square parts of ell are
    removed from a and b."""
    if place == numth.INF:
        return a > 0 or b > 0
    ell = int(place)
    while a % ell**2 == 0:
        a //= ell**2
    while b % ell**2 == 0:
        b //= ell**2
    K = 5 if ell == 2 else 3
    M = ell**K
    ax2 = {}  # value of a x^2 mod M -> achievable with a unit x
    for x in range(M):
        v = a * x * x % M
        ax2[v] = ax2.get(v, False) or x % ell != 0
    for z in range(M):
        for y in range(M):
            t = (z * z - b * y * y) % M
            if t in ax2 and (z % ell != 0 or y % ell != 0 or ax2[t]):
                return True
    return False


class TestKronecker:
    def test_examples(self):
        assert numth.kronecker(-4, 3) == -1
        assert numth.kronecker(9, 5) == 1
        assert numth.kronecker(-7, 2) == 1

    def test_legendre_agrees_with_euler(self):
        for p in (3, 5, 7, 11, 13, 37):
            for a in range(-20, 21):
                if a % p:
                    assert numth.kronecker(a, p) == legendre_euler(a, p)

    @given(a=st.integers(-60, 60), b=st.integers(-60, 60), n=st.integers(1, 60))
    def test_multiplicative_in_top(self, a, b, n):
        assert numth.kronecker(a * b, n) == numth.kronecker(a, n) * numth.kronecker(b, n)

    @given(a=st.integers(-60, 60), m=st.integers(1, 40), n=st.integers(1, 40))
    def test_multiplicative_in_bottom(self, a, m, n):
        if math.gcd(a, m * n) == 1:
            assert numth.kronecker(a, m * n) == numth.kronecker(a, m) * numth.kronecker(a, n)

    def test_rejects_zero_denominator(self):
        with pytest.raises(PreconditionError):
            numth.kronecker(3, 0)


class TestSqrtMod:
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 73, 97, 113, 257, 401])
    def test_against_brute_force(self, p):
        """The root squares back for every residue, None for every
        non-residue; 17, 41, 73, 97, 113, 257 and 401 are 1 mod 8."""
        squares = {x * x % p for x in range(p)}
        for a in range(-p, 2 * p):
            r = numth.sqrt_mod(a, p)
            assert (r is not None) == (a % p in squares)
            if r is not None:
                assert 0 <= r < p and r * r % p == a % p


class TestHilbert:
    def test_examples(self):
        assert numth.hilbert_symbol(-1, -28, 7) == -1
        for place in PLACES:
            assert numth.hilbert_symbol(1, -35, place) == 1
        assert numth.hilbert_symbol(-1, -1, numth.INF) == -1

    def test_symmetry(self):
        vals = (-10, -7, -3, -1, 2, 5, 6, 15)
        for a in vals:
            for b in vals:
                for v in PLACES:
                    assert numth.hilbert_symbol(a, b, v) == numth.hilbert_symbol(b, a, v)

    def test_rational_arguments(self):
        assert numth.hilbert_symbol(Fraction(-1, 4), -28, 7) == -1

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-30, 30).filter(bool), b=st.integers(-30, 30).filter(bool))
    def test_product_formula(self, a, b):
        places = {numth.INF} | set(numth.factorize(2 * a * b))
        prod = 1
        for v in places:
            prod *= numth.hilbert_symbol(a, b, v)
        assert prod == 1

    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(-20, 20).filter(bool), b=st.integers(-20, 20).filter(bool),
           v=st.sampled_from((2, 3, 5, numth.INF)))
    def test_against_solvability_search(self, a, b, v):
        want = 1 if hilbert_solvable(a, b, v) else -1
        assert numth.hilbert_symbol(a, b, v) == want


@dataclass(frozen=True)
class QuadOrderDesc:
    """An imaginary quadratic order recorded by discriminant data."""

    d: int
    d_K: int
    f: int


def quad_order_info(d: int) -> QuadOrderDesc:
    """Split a discriminant as d = f^2 d_K.  With the trace-form
    discriminant of a subfield's integer kernel (test_orient's
    optimal_suborder) it is the conductor oracle for orient.conductors."""
    if d >= 0 or d % 4 not in (0, 1):
        raise PreconditionError(f"{d} is not a negative quadratic discriminant")
    d_K = numth.fundamental_discriminant(d)
    f2, rem = divmod(d, d_K)
    assert rem == 0
    f = math.isqrt(f2)
    assert f * f == f2
    return QuadOrderDesc(d=d, d_K=d_K, f=f)


class TestQuadOrders:
    def test_examples(self):
        info = quad_order_info(-28)
        assert (info.d_K, info.f) == (-7, 2)
        assert quad_order_info(-4).f == 1
        assert quad_order_info(-36) == QuadOrderDesc(-36, -4, 3)

    def test_rejects_non_discriminants(self):
        for bad in (-2, -5, 5, 0):
            with pytest.raises(PreconditionError):
                quad_order_info(bad)

    @given(dk=st.sampled_from([-3, -4, -7, -8, -11, -15, -20]), f=st.integers(1, 9))
    def test_roundtrip(self, dk, f):
        info = quad_order_info(dk * f * f)
        assert info.d_K == dk and info.f == f


class TestPizer:
    def test_examples(self):
        assert numth.pizer_params(7) == 1
        assert numth.pizer_params(13) == 2
        assert numth.pizer_params(17) == 3

    def test_ramification_invariant(self):
        for p in filter(numth.is_prime, range(3, 1000)):
            q = numth.pizer_params(p)
            assert numth.hilbert_ramified_places(-q, -p) == {p, numth.INF}, p


def test_class_number_formula_counts_supersingular_j():
    """Eichler's class-number formula against the curve side, p < 500."""
    for p in range(5, 500):
        if numth.is_prime(p):
            assert numth.class_number(p) == len(ecgraph.supersingular_j_list(p)), p
