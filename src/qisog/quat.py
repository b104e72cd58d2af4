"""A definite rational quaternion algebra with basis 1, i, j, k where
i^2 = d_i, j^2 = d_j and k = ij = -ji: its parameters, and the product and
reduced norm of integer coordinate rows.

An element is an integer row x over a denominator, x / den, as in lattice;
the product and the norm are bilinear and quadratic, so a caller scales
them by den^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import numth
from .errors import PreconditionError

Coords = tuple[int, int, int, int]


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

    def nrd_coords(self, a: Coords) -> int:
        x, y, z, w = a
        return x * x - self.d_i * y * y - self.d_j * z * z + self.d_i * self.d_j * w * w
