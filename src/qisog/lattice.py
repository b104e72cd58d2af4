"""Full-rank rank-4 lattices inside the quaternion algebra.

A lattice is stored as an integer matrix in row Hermite normal form together
with a positive common denominator, with the gcd of all entries and the
denominator divided out.  That canonical form makes lattice equality (and
hashing, for graph vertex identity) plain tuple equality.

No floating point is used anywhere: the short-vector enumeration runs on
integers over one common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CapExceeded, PreconditionError
from .quat import QuatAlgebra, QuatElement

Frac = Fraction


# ---------------------------------------------------------------------------
# integer / rational matrix helpers


def hnf_rows(rows: list[list[int]], ncols: int = 4) -> list[tuple[int, ...]]:
    """Row Hermite normal form; returns the nonzero rows.

    Pivots are positive and entries above a pivot are reduced into
    [0, pivot).  Rows appear in order of pivot column.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    out: list[list[int]] = []
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


def integer_kernel(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {u : u.M = 0} for the integer matrix M given by rows."""
    n = len(rows)
    ext = [list(rows[i]) + [int(i == t) for t in range(n)] for i in range(n)]
    width = ncols + n
    done: list[list[int]] = []
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
            done.append(nz[0])
            work = [r for r in work if r is not nz[0]]
    return [tuple(r[ncols:]) for r in work]


def frac_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a rational matrix by Gauss-Jordan elimination.

    The lattice and order code no longer calls it; it stays defined because
    perfbench's tracer resolves it by name."""
    n = len(mat)
    a = [[Frac(x) for x in row] + [Frac(int(r == c)) for c in range(n)] for r, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise PreconditionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def int_det(m) -> int:
    """Determinant by fraction-free expansion; inputs are small here."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for c in range(n):
        if m[0][c]:
            minor = [[row[t] for t in range(n) if t != c] for row in m[1:]]
            total += (-1) ** c * m[0][c] * int_det(minor)
    return total


def triangular_adjugate(m) -> list[list[int]]:
    """adj(m) = det(m) m^-1 for an upper-triangular integer matrix, by
    back-substitution; every division is exact."""
    det = math.prod(m[t][t] for t in range(4))
    X = [[0] * 4 for _ in range(4)]
    for c in range(4):
        X[c][c] = det // m[c][c]
        for r in range(c - 1, -1, -1):
            s = sum(m[r][t] * X[t][c] for t in range(r + 1, c + 1))
            X[r][c], rem = divmod(-s, m[r][r])
            assert rem == 0
    return X


def split_den(coords) -> tuple[list[int], int]:
    """Rational coordinates as (integer numerators, common denominator)."""
    vden = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (vden // c.denominator) for c in coords], vden


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QLattice:
    """Full-rank lattice, canonical (HNF basis, reduced denominator)."""

    algebra: QuatAlgebra
    mat: tuple[tuple[int, int, int, int], ...]
    den: int

    @classmethod
    def from_int_rows(cls, algebra: QuatAlgebra, rows, den: int) -> "QLattice":
        if den <= 0:
            raise PreconditionError("denominator must be positive")
        h = hnf_rows([list(r) for r in rows])
        if len(h) != 4:
            raise PreconditionError("generators do not span a full-rank lattice")
        g = den
        for row in h:
            for x in row:
                g = math.gcd(g, abs(x))
        if g > 1:
            h = [tuple(x // g for x in row) for row in h]
            den //= g
        return cls(algebra=algebra, mat=tuple(tuple(r) for r in h), den=den)

    @classmethod
    def from_frac_rows(cls, algebra: QuatAlgebra, rows) -> "QLattice":
        rows = [[Frac(x) for x in r] for r in rows]
        den = 1
        for r in rows:
            for x in r:
                den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [[int(x * den) for x in r] for r in rows]
        return cls.from_int_rows(algebra, ints, den)

    @classmethod
    def from_elements(cls, gens) -> "QLattice":
        if not gens:
            raise PreconditionError("no generators")
        alg = gens[0].algebra
        return cls.from_frac_rows(alg, [g.coords for g in gens])

    @classmethod
    def standard_order_lattice(cls, algebra: QuatAlgebra) -> "QLattice":
        eye = [[int(r == c) for c in range(4)] for r in range(4)]
        return cls.from_int_rows(algebra, eye, 1)

    # -- basic views --------------------------------------------------------

    def key(self):
        return (self.den, self.mat)

    def basis_elements(self) -> list[QuatElement]:
        return [
            QuatElement(self.algebra, tuple(Frac(x, self.den) for x in row))
            for row in self.mat
        ]

    def int_coords(self, x, vden: int = 1) -> list[int] | None:
        """Integer coordinates of the ambient vector x/vden in the basis
        mat/den, or None when x/vden is not in the lattice.

        mat is upper triangular with positive pivots, so this is forward
        substitution: x den / vden must be integral, and each pivot must
        divide what is left of its column."""
        den = self.den
        y = []
        for v in x:
            n, r = divmod(v * den, vden)
            if r:
                return None
            y.append(n)
        out = []
        for t, row in enumerate(self.mat):
            c, r = divmod(y[t], row[t])
            if r:
                return None
            out.append(c)
            if c:
                for s in range(t + 1, 4):
                    y[s] -= c * row[s]
        return out

    def coords_of(self, elt: QuatElement) -> tuple[Fraction, ...]:
        """Rational coordinates of elt in the basis, for any element: scaled
        by vden det(mat), elt lands in the lattice."""
        x, vden = split_den(elt.coords)
        det = math.prod(self.mat[t][t] for t in range(4))
        coords = self.int_coords([v * det for v in x])
        return tuple(Frac(c, det * vden) for c in coords)

    def contains(self, elt: QuatElement) -> bool:
        return self.int_coords(*split_den(elt.coords)) is not None

    def contains_lattice(self, other: "QLattice") -> bool:
        return all(self.int_coords(r, other.den) is not None for r in other.mat)

    def covolume(self) -> Fraction:
        return abs(Frac(int_det([list(r) for r in self.mat]), self.den**4))

    # -- arithmetic ---------------------------------------------------------

    def _merge_rows(self, other: "QLattice"):
        d = self.den * other.den // math.gcd(self.den, other.den)
        rows = [[x * (d // self.den) for x in r] for r in self.mat]
        rows += [[x * (d // other.den) for x in r] for r in other.mat]
        return rows, d

    def __add__(self, other: "QLattice") -> "QLattice":
        rows, d = self._merge_rows(other)
        return QLattice.from_int_rows(self.algebra, rows, d)

    def __mul__(self, other):
        if isinstance(other, QLattice):
            mul = self.algebra.mul_coords
            prods = [mul(a, b) for a in self.mat for b in other.mat]
            return QLattice.from_int_rows(self.algebra, prods, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, r) -> "QLattice":
        r = Frac(r)
        if r == 0:
            raise PreconditionError("cannot scale a lattice by 0")
        rows = [[x * abs(r.numerator) for x in row] for row in self.mat]
        return QLattice.from_int_rows(self.algebra, rows, self.den * r.denominator)

    def conjugate(self) -> "QLattice":
        rows = [[r[0], -r[1], -r[2], -r[3]] for r in self.mat]
        return QLattice.from_int_rows(self.algebra, rows, self.den)

    def intersect(self, other: "QLattice") -> "QLattice":
        d = self.den * other.den // math.gcd(self.den, other.den)
        a = [[x * (d // self.den) for x in r] for r in self.mat]
        b = [[x * (d // other.den) for x in r] for r in other.mat]
        stacked = a + [[-x for x in r] for r in b]
        kern = integer_kernel(stacked, 4)
        rows = []
        for u in kern:
            rows.append([sum(u[t] * a[t][c] for t in range(4)) for c in range(4)])
        return QLattice.from_int_rows(self.algebra, rows, d)

    def index_in(self, sup: "QLattice") -> int:
        """[sup : self] for self a finite-index sublattice of sup."""
        if not sup.contains_lattice(self):
            raise PreconditionError("not a sublattice")
        ratio = self.covolume() / sup.covolume()
        assert ratio.denominator == 1
        return int(ratio)

    # -- invariants ---------------------------------------------------------

    @cached_property
    def gram_int(self) -> tuple[tuple[int, ...], ...]:
        """Integer Gram matrix of the norm form on the scaled basis rows:
        entry (a,b) is den^2 * (1/2) trd(b_a conj(b_b))."""
        g0 = self.algebra.norm_diag()
        out = []
        for ra in self.mat:
            out.append(tuple(sum(ra[t] * rb[t] * g0[t] for t in range(4)) for rb in self.mat))
        return tuple(out)

    def reduced_norm(self) -> Fraction:
        """Positive generator of the Z-ideal spanned by norms of elements,
        read off the basis through the polarization identity."""
        g = self.gram_int
        vals = [g[a][a] for a in range(4)]
        vals += [2 * g[a][b] for a in range(4) for b in range(a + 1, 4)]
        n = 0
        for v in vals:
            n = math.gcd(n, abs(v))
        assert n > 0
        return Frac(n, self.den**2)

    def dual(self) -> "QLattice":
        """L^# = {x : trd(x L) in Z}.  With the trace Gram
        T = diag(2, 2 d_i, 2 d_j, -2 d_i d_j) of 1, i, j, k, the pairing of
        coordinates c with the rows M/den is c T M^T / den, so L^# is spanned
        by den M^-T T^-1: the rows of den adj(M)^T diag(d_i d_j, d_j, d_i, -1)
        over det(M) 2 d_i d_j."""
        di, dj = self.algebra.d_i, self.algebra.d_j
        adj = triangular_adjugate(self.mat)
        scale = (di * dj, dj, di, -1)
        rows = [[self.den * adj[c][a] * scale[c] for c in range(4)] for a in range(4)]
        det = math.prod(self.mat[t][t] for t in range(4))
        return QLattice.from_int_rows(self.algebra, rows, det * 2 * di * dj)

    def left_order(self) -> "QLattice":
        """{a : a L contained in L} = (L L^#)^#, since a L lies in L iff
        trd(a L L^#) lies in Z."""
        return (self * self.dual()).dual()

    def right_order(self) -> "QLattice":
        """{a : L a contained in L} = (L^# L)^#, since L a lies in L iff
        trd(L a L^#) = trd(a L^# L) lies in Z."""
        return (self.dual() * self).dual()

    def is_ring(self) -> bool:
        """Whether 1 and the 16 products of basis rows, mul(a, b) / den^2,
        lie in the lattice."""
        if self.int_coords((1, 0, 0, 0)) is None:
            return False
        mul = self.algebra.mul_coords
        d2 = self.den * self.den
        return all(self.int_coords(mul(a, b), d2) is not None
                   for a in self.mat for b in self.mat)

    # -- short vectors ------------------------------------------------------

    def min_norm_elements(self, bound, cap: int = 10**6) -> list[QuatElement]:
        """All lattice elements with 0 < nrd <= bound, one of each +-pair,
        sorted by (norm, coordinates).  Exact Fincke-Pohst on the integer
        coordinate Gram matrix.

        With G = L D L^T (L unit lower triangular) the norm form is
        sum_k D_k (c_k + s_k)^2, s_k = sum_{t>k} L_tk c_t.  Writing
        L_tk = l_tk / d_k over a per-level denominator d_k and
        D_k / d_k^2 = w_k / P over one common denominator P, level k admits
        exactly the c_k with w_k (c_k d_k + S_k)^2 <= rem, where
        S_k = sum l_tk c_t and rem = floor(bound * den^2 * P) minus the
        levels above: the search runs on integers alone.  ``cap`` bounds
        the number of visited nodes (candidate coordinates at any level)."""
        bound = Frac(bound)
        if bound <= 0:
            raise PreconditionError("bound must be positive")
        g = self.gram_int
        n = 4
        L = [[Frac(int(r == c)) for c in range(n)] for r in range(n)]
        D = [Frac(0)] * n
        for c in range(n):
            D[c] = Frac(g[c][c]) - sum(D[t] * L[c][t] ** 2 for t in range(c))
            assert D[c] > 0, "norm form must be positive definite"
            for r in range(c + 1, n):
                L[r][c] = (g[r][c] - sum(D[t] * L[r][t] * L[c][t] for t in range(c))) / D[c]
        d = [math.lcm(*(L[t][k].denominator for t in range(k + 1, n))) for k in range(n)]
        lnum = [[int(L[t][k] * d[k]) for t in range(n)] for k in range(n)]
        w = [D[k] / d[k] ** 2 for k in range(n)]
        P = math.lcm(*(x.denominator for x in w))
        w = [int(x * P) for x in w]
        found: dict[tuple, QuatElement] = {}
        nodes = 0
        c = [0] * n

        def descend(level: int, rem: int):
            nonlocal nodes
            S = sum(lnum[level][t] * c[t] for t in range(level + 1, n))
            m = math.isqrt(rem // w[level])
            dk = d[level]
            lo = -((m + S) // dk)  # smallest v with v dk + S >= -m
            hi = (m - S) // dk  # largest v with v dk + S <= m
            for v in range(lo, hi + 1):
                nodes += 1
                if nodes > cap:
                    raise CapExceeded("short-vector enumeration cap exceeded")
                c[level] = v
                if level == 0:
                    if any(c):
                        vec = [sum(c[t] * self.mat[t][col] for t in range(n)) for col in range(4)]
                        for x in vec:
                            if x > 0:
                                break
                            if x < 0:
                                vec = [-y for y in vec]
                                break
                        elt = QuatElement(
                            self.algebra, tuple(Frac(x, self.den) for x in vec)
                        )
                        found[tuple(vec)] = elt
                else:
                    descend(level - 1, rem - w[level] * (v * dk + S) ** 2)
            c[level] = 0

        descend(n - 1, math.floor(bound * self.den**2 * P))
        return sorted(found.values(), key=lambda e: e.key())
