"""Exact arithmetic in a definite rational quaternion algebra with basis
1, i, j, k where i^2 = d_i, j^2 = d_j and k = ij = -ji.

Coordinates are Fractions, so element equality is coordinate equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import numth
from .errors import PreconditionError

Frac = Fraction
Coords = tuple[Fraction, Fraction, Fraction, Fraction]


def split_den(coords) -> tuple[list[int], int]:
    """Rational coordinates as (integer numerators, common denominator)."""
    vden = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (vden // c.denominator) for c in coords], vden


@dataclass(frozen=True)
class QuatAlgebra:
    """(d_i, d_j | Q), ramified exactly at {p, oo}; the default basis is
    perpendicular for the trace pairing (tr(ij) = 0 by construction)."""

    p: int
    d_i: int
    d_j: int
    q: int | None = None

    @classmethod
    def for_prime(cls, p: int) -> "QuatAlgebra":
        q = numth.pizer_params(p)
        alg = cls(p=p, d_i=-q, d_j=-p, q=q)
        alg.validate_ramification()
        return alg

    def validate_ramification(self) -> None:
        ram = numth.hilbert_ramified_places(self.d_i, self.d_j)
        if ram != {self.p, numth.INF}:
            raise PreconditionError(
                f"({self.d_i},{self.d_j}) is ramified at {ram}, "
                f"expected {{{self.p}, oo}}"
            )

    def element(self, x=0, y=0, z=0, w=0) -> "QuatElement":
        return QuatElement(self, (Frac(x), Frac(y), Frac(z), Frac(w)))

    @cached_property
    def one(self) -> "QuatElement":
        return self.element(1)

    @cached_property
    def i(self) -> "QuatElement":
        return self.element(0, 1)

    @cached_property
    def j(self) -> "QuatElement":
        return self.element(0, 0, 1)

    @cached_property
    def k(self) -> "QuatElement":
        return self.element(0, 0, 0, 1)

    def basis(self) -> tuple["QuatElement", ...]:
        return (self.one, self.i, self.j, self.k)

    @cached_property
    def maximal_quadratic_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Generators w_i, w_j of the maximal orders of Q(i), Q(j) as integer
        rows over a denominator: (1 + u)/2 when d_u = 1 mod 4, u otherwise."""
        out = []
        for d, u in ((self.d_i, (0, 1, 0, 0)), (self.d_j, (0, 0, 1, 0))):
            out.append(((1,) + u[1:], 2) if d % 4 == 1 else (u, 1))
        return tuple(out)

    @cached_property
    def fundamental_discriminants(self) -> tuple[int, int]:
        """The fundamental discriminants of K_i = Q(i) and K_j = Q(j)."""
        return numth.fundamental_discriminant(self.d_i), numth.fundamental_discriminant(self.d_j)

    @cached_property
    def p_splits(self) -> tuple[bool, bool]:
        """Whether p splits in K_i, resp. K_j."""
        return tuple(numth.kronecker(dK, self.p) == 1 for dK in self.fundamental_discriminants)

    def norm_diag(self) -> tuple[int, int, int, int]:
        """Diagonal Gram of the norm form on the basis 1, i, j, k."""
        return (1, -self.d_i, -self.d_j, self.d_i * self.d_j)

    def mul_coords(self, a: Coords, b: Coords) -> Coords:
        di, dj = self.d_i, self.d_j
        x1, y1, z1, w1 = a
        x2, y2, z2, w2 = b
        return (
            x1 * x2 + di * y1 * y2 + dj * z1 * z2 - di * dj * w1 * w2,
            x1 * y2 + y1 * x2 - dj * z1 * w2 + dj * w1 * z2,
            x1 * z2 + z1 * x2 + di * y1 * w2 - di * w1 * y2,
            x1 * w2 + w1 * x2 + y1 * z2 - z1 * y2,
        )

    def nrd_coords(self, a: Coords) -> Fraction:
        x, y, z, w = a
        return x * x - self.d_i * y * y - self.d_j * z * z + self.d_i * self.d_j * w * w


@dataclass(frozen=True)
class QuatElement:
    algebra: QuatAlgebra
    coords: Coords

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
            r = Frac(other)
        except TypeError:  # not a scalar: let other.__rmul__ (e.g. an ideal) answer
            return NotImplemented
        return QuatElement(self.algebra, tuple(a * r for a in self.coords))

    def __rmul__(self, other):
        # scalars commute; quaternion * quaternion goes through __mul__
        return self * other

    def __truediv__(self, other):
        if isinstance(other, QuatElement):
            return self * other.inverse()
        return self * (Frac(1) / Frac(other))

    def conjugate(self) -> "QuatElement":
        x, y, z, w = self.coords
        return QuatElement(self.algebra, (x, -y, -z, -w))

    def trd(self) -> Fraction:
        return 2 * self.coords[0]

    def nrd(self) -> Fraction:
        x, vden = split_den(self.coords)
        return Frac(self.algebra.nrd_coords(x), vden * vden)

    def inverse(self) -> "QuatElement":
        n = self.nrd()
        if n == 0:
            raise PreconditionError("division by zero quaternion")
        return QuatElement(self.algebra, tuple(c / n for c in self.conjugate().coords))

    def key(self):
        """Deterministic sort key: norm first, then coordinates."""
        return (self.nrd(), self.coords)

    def __repr__(self):
        names = ("", "i", "j", "k")
        parts = []
        for c, n in zip(self.coords, names):
            if c == 0:
                continue
            if n and c == 1:
                parts.append(n)
            elif n and c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{c}{n}")
        return " + ".join(parts) if parts else "0"

