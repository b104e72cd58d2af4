"""Full-rank rank-4 lattices inside the quaternion algebra.

A lattice is stored as an integer matrix in row Hermite normal form together
with a positive common denominator, with the gcd of all entries and the
denominator divided out.  That canonical form makes lattice equality (and
hashing, for graph vertex identity) plain tuple equality.

No floating point is used anywhere: the short-vector enumeration runs on an
LLL-reduced integer Gram matrix, over one common denominator, and reads its
integer Gram-Schmidt data off the LLL run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CapExceeded, PreconditionError
from .quat import QuatAlgebra

Frac = Fraction


# ---------------------------------------------------------------------------
# integer / rational matrix helpers


def hnf_rows(rows: list[list[int]], ncols: int = 4) -> list[tuple[int, ...]]:
    """Row Hermite normal form; returns the nonzero rows.

    Pivots are positive and entries above a pivot are reduced into
    [0, pivot).  Rows appear in order of pivot column.

    Each row is folded into a per-column echelon basis: at its leading
    column it takes one subtraction when that column's pivot divides it,
    and Euclid steps against the pivot row otherwise; what is left moves
    on to the next column.  The entries above the pivots are reduced last.
    """
    piv: list[list[int] | None] = [None] * ncols
    for r in rows:
        r = list(map(int, r))
        for col in range(ncols):
            if not r[col]:
                continue
            b = piv[col]
            if b is None:
                piv[col] = r if r[col] > 0 else [-x for x in r]
                break
            q, rem = divmod(r[col], b[col])
            if not rem:
                for t in range(col, ncols):
                    r[t] -= q * b[t]
                continue
            a = b
            while r[col]:
                q = a[col] // r[col]
                for t in range(col, ncols):
                    a[t] -= q * r[t]
                a, r = r, a
            piv[col] = a if a[col] > 0 else [-x for x in a]
    cols = [c for c in range(ncols) if piv[c] is not None]
    out = [piv[c] for c in cols]
    for s, col in enumerate(cols):
        b = out[s]
        for r in out[:s]:
            q = r[col] // b[col]
            if q:
                for t in range(col, ncols):
                    r[t] -= q * b[t]
    return [tuple(r) for r in out]


def echelon_mod(rows, ncols: int, m: int) -> list[list[int]]:
    """Upper-triangular rows, one per column, with positive pivots, of the
    lattice spanned by the rows and m Z^ncols, for m = ell^e; the entries
    right of a pivot stay in [0, m).  This is the HNF modulo D of Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.4.8, where a
    prime power needs no Euclid steps.

    Entries are reduced mod m where they are read.  Of the working rows'
    entries in the current column, the first of least ell-valuation (the
    scan stops at a unit), x = g u with g = gcd(x, m) and u a unit mod m,
    divides the others; its row, times u^-1 mod m and zero left of the
    column, is the pivot row, built in place, with entry g, and one
    subtraction clears each other row.  The lattice holds m e_col = (m/g)
    pivot - (m/g) (pivot right of col), so the latter joins the working
    rows.  A column with no nonzero entry has the pivot row m e_col.  A
    composite m can leave a column with no entry that divides the others,
    or whose cofactor u is a unit; then it raises (PreconditionError, resp.
    ValueError from pow)."""
    work = [list(r) for r in rows]
    out = []
    for col in range(ncols):
        best, g = None, m
        for r in work:
            x = r[col] % m
            if x:
                h = math.gcd(x, m)
                if h < g:
                    best, g, bx = r, h, x
                    if h == 1:
                        break
        if best is None:
            out.append([0] * col + [m] + [0] * (ncols - col - 1))
            continue
        u = 1 if bx == g else pow(bx // g, -1, m)
        best[:col + 1] = [0] * col + [g]
        for t in range(col + 1, ncols):
            best[t] = u * best[t] % m
        f = m // g  # at g = 1, (m/g) pivot vanishes mod m
        rest = [] if g == 1 else [[f * x % m for x in best]]
        for r in work:
            if r is not best:
                x = r[col] % m
                if x % g:  # for m = ell^e, g divides every entry of the column
                    raise PreconditionError(f"modulus {m} is not a prime power")
                q = x // g
                if q:
                    for t in range(col + 1, ncols):
                        r[t] = (r[t] - q * best[t]) % m
                rest.append(r)
        work = rest
        out.append(best)
    return out


def integer_kernel(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {u : u.M = 0} for the integer matrix M given by rows: the
    rows of the HNF of [M | I] that vanish on M's columns, cut to their I
    part.  The HNF rows span {(u M, u)}, and being in echelon form, those
    with a pivot past M's columns span the part with u M = 0."""
    n = len(rows)
    ext = [list(r) + [int(i == t) for t in range(n)] for i, r in enumerate(rows)]
    return [r[ncols:] for r in hnf_rows(ext, ncols + n) if not any(r[:ncols])]


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


def triangular_adjugate(m) -> list[list[int]]:
    """adj(m) = det(m) m^-1 for a 4x4 upper-triangular integer matrix, in
    closed form: entry (r, c) is the cofactor of m at (c, r), which is 0
    below the diagonal."""
    (a, b, c, d), (_, e, f, g), (_, _, h, i), (_, _, _, j) = m
    hj, ae = h * j, a * e
    return [[e * hj, -b * hj, (b * f - c * e) * j, b * (g * h - f * i) + (c * i - d * h) * e],
            [0, a * hj, -a * f * j, a * (f * i - g * h)],
            [0, 0, ae * j, -ae * i],
            [0, 0, 0, ae * h]]


def lll_reduce(gram) -> tuple[list[list[int]], list[list[int]], list[int], list[list[int]]]:
    """Exact integral LLL with delta = 3/4 (Cohen, Alg. 2.6.7) on a positive
    definite integer Gram matrix g.  Returns (U, G, d, lam): U unimodular,
    G = U g U^T the Gram matrix of the reduced basis U b, and its integer
    Gram-Schmidt data, d[m] the Gram determinant of the first m vectors
    (d[0] = 1) and lam[k][j] = d[j+1] mu_kj for j < k.  Only integers occur,
    and every update is in place.  One loop over l = k-1 down to 0 runs
    Cohen's steps in his order: RED(k, l) where 2 |lam[k][l]| > d[l+1], and
    after RED(k, k-1) the Lovasz test, whose failure runs SWAP(k) and steps
    k back; k moves on once every l is done."""
    n = len(gram)
    G = [list(r) for r in gram]
    U = [[int(r == c) for c in range(n)] for r in range(n)]
    d = [1, G[0][0]] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]
    k, kmax = 1, 0
    while k < n:
        lk = lam[k]
        if k > kmax:  # incremental Gram-Schmidt
            kmax = k
            Gk = G[k]
            for j in range(k + 1):
                u, lj = Gk[j], lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                else:
                    d[k + 1] = u
        for l in range(k - 1, -1, -1):
            dl = d[l + 1]
            if 2 * abs(lk[l]) > dl:  # RED(k, l)
                q = (2 * lk[l] + dl) // (2 * dl)
                Uk, Ul, Gk, Gl = U[k], U[l], G[k], G[l]
                for t in range(n):
                    Uk[t] -= q * Ul[t]
                    Gk[t] -= q * Gl[t]
                for row in G:
                    row[k] -= q * row[l]
                lk[l] -= q * dl
                for i in range(l):
                    lk[i] -= q * lam[l][i]
            if l == k - 1 and 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lk[l] ** 2:  # SWAP
                U[k], U[l] = U[l], U[k]
                G[k], G[l] = G[l], G[k]
                for row in G:
                    row[k], row[l] = row[l], row[k]
                for j in range(l):
                    lk[j], lam[l][j] = lam[l][j], lk[j]
                m = lk[l]
                B = (d[l] * d[k + 1] + m * m) // d[k]
                for li in lam[k + 1:kmax + 1]:
                    t = li[k]
                    li[k] = (d[k + 1] * li[l] - m * t) // d[k]
                    li[l] = (B * t + m * li[k]) // d[k + 1]
                d[k] = B
                k = max(1, l)
                break
        else:
            k += 1
    return U, G, d, lam


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
        h = hnf_rows(rows)
        if len(h) != 4:
            raise PreconditionError("generators do not span a full-rank lattice")
        return cls._content_free(algebra, h, den)

    @classmethod
    def _content_free(cls, algebra: QuatAlgebra, h, den: int) -> "QLattice":
        """The lattice of the HNF rows h over den, with the gcd of all entries
        and den divided out."""
        g = math.gcd(den, *h[0], *h[1], *h[2], *h[3])
        if g > 1:
            h = [tuple([x // g for x in row]) for row in h]
            den //= g
        return cls(algebra=algebra, mat=tuple(h), den=den)

    @classmethod
    def from_triangular_rows(cls, algebra: QuatAlgebra, rows, den: int) -> "QLattice":
        """from_int_rows for four upper-triangular rows with positive
        pivots: their HNF only reduces the six entries above the pivots, in
        hnf_rows' order (column 1, then 2, then 3), before the content is
        divided out."""
        (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = rows
        q = a1 // b1
        a1, a2, a3 = a1 - q * b1, a2 - q * b2, a3 - q * b3
        q = a2 // c2
        a2, a3 = a2 - q * c2, a3 - q * c3
        q = b2 // c2
        b2, b3 = b2 - q * c2, b3 - q * c3
        return cls._content_free(algebra, ((a0, a1, a2, a3 % d3), (0, b1, b2, b3 % d3),
                                           (0, 0, c2, c3 % d3), (0, 0, 0, d3)), den)

    # -- basic views --------------------------------------------------------

    def key(self):
        return (self.den, self.mat)

    def int_coords(self, x, vden: int = 1) -> list[int] | None:
        """Integer coordinates of the ambient vector x/vden in the basis
        mat/den, or None when x/vden is not in the lattice.

        mat is upper triangular with positive pivots, so this is forward
        substitution: x den / vden must be integral, and each pivot must
        divide what is left of its column."""
        (p0, a01, a02, a03), (_, p1, a12, a13), (_, _, p2, a23), (_, _, _, p3) = self.mat
        den = self.den
        x0, x1, x2, x3 = x
        x0, x1, x2, x3 = x0 * den, x1 * den, x2 * den, x3 * den
        if x0 % vden or x1 % vden or x2 % vden or x3 % vden:
            return None
        y = x0 // vden
        if y % p0:
            return None
        c0 = y // p0
        y = x1 // vden - c0 * a01
        if y % p1:
            return None
        c1 = y // p1
        y = x2 // vden - c0 * a02 - c1 * a12
        if y % p2:
            return None
        c2 = y // p2
        y = x3 // vden - c0 * a03 - c1 * a13 - c2 * a23
        if y % p3:
            return None
        return [c0, c1, c2, y // p3]

    def contains_lattice(self, other: "QLattice") -> bool:
        return self._holds_rows(other.mat, other.den)

    def _holds_rows(self, rows, vden: int) -> bool:
        """Whether x/vden lies in the lattice for every integer row x of
        rows.  With g = gcd(den, vden), that is x den/g in the row span of
        (vden/g) mat: int_coords' forward substitution, against that scaled
        basis, unpacked once for all the rows."""
        g = math.gcd(self.den, vden)
        s, q = self.den // g, vden // g
        (p0, a01, a02, a03), (_, p1, a12, a13), (_, _, p2, a23), (_, _, _, p3) = self.mat
        if q != 1:
            p0, a01, a02, a03, p1, a12, a13, p2, a23, p3 = (
                q * p0, q * a01, q * a02, q * a03, q * p1, q * a12, q * a13, q * p2, q * a23, q * p3)
        for x0, x1, x2, x3 in rows:
            if s != 1:
                x0, x1, x2, x3 = s * x0, s * x1, s * x2, s * x3
            if x0 % p0:
                return False
            c0 = x0 // p0
            y = x1 - c0 * a01
            if y % p1:
                return False
            c1 = y // p1
            y = x2 - c0 * a02 - c1 * a12
            if y % p2:
                return False
            if (x3 - c0 * a03 - c1 * a13 - y // p2 * a23) % p3:
                return False
        return True

    def pivot_product(self) -> int:
        """det(mat), the product of the (positive) HNF pivots."""
        (a, *_), (_, b, *_), (_, _, c, _), (*_, d) = self.mat
        return a * b * c * d

    def covolume(self) -> Fraction:
        """|det| of the basis mat/den: the pivot product over den^4."""
        return Frac(self.pivot_product(), self.den**4)

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
        if not isinstance(r, (int, Fraction)):
            raise PreconditionError(f"a lattice scales only by a rational, not {type(r).__name__}")
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
        entry (a,b) is den^2 * (1/2) trd(b_a conj(b_b)).  The rows are upper
        triangular, so rows a <= b meet only in the columns t >= b."""
        n0, n1, n2, n3 = self.algebra.norm_diag()
        (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = self.mat
        d3n = d3 * n3
        c2n, c3n = c2 * n2, c3 * n3
        g03, g13, g23, g33 = a3 * d3n, b3 * d3n, c3 * d3n, d3 * d3n
        g02, g12, g22 = a2 * c2n + a3 * c3n, b2 * c2n + b3 * c3n, c2 * c2n + c3 * c3n
        g01 = a1 * b1 * n1 + a2 * b2 * n2 + a3 * b3 * n3
        g11 = b1 * b1 * n1 + b2 * b2 * n2 + b3 * b3 * n3
        g00 = a0 * a0 * n0 + a1 * a1 * n1 + a2 * a2 * n2 + a3 * a3 * n3
        return ((g00, g01, g02, g03), (g01, g11, g12, g13),
                (g02, g12, g22, g23), (g03, g13, g23, g33))

    @cached_property
    def lll(self) -> tuple[list[list[int]], list[list[int]], list[int], list[list[int]]]:
        """lll_reduce of gram_int: the transform U, the reduced Gram matrix,
        whose (0, 0) entry is den^2 nrd of the first reduced vector, and its
        integer Gram-Schmidt data d and lam."""
        return lll_reduce(self.gram_int)

    @cached_property
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
        return QLattice.from_int_rows(self.algebra, rows, self.pivot_product() * 2 * di * dj)

    def left_order(self) -> "QLattice":
        """{a : a L contained in L} = (L L^#)^#, since a L lies in L iff
        trd(a L L^#) lies in Z."""
        return (self * self.dual()).dual()

    def right_order(self) -> "QLattice":
        """{a : L a contained in L} = (L^# L)^#, since L a lies in L iff
        trd(L a L^#) = trd(a L^# L) lies in Z."""
        return (self.dual() * self).dual()

    def is_left_module_over(self, other: "QLattice") -> bool:
        """Whether other * self lies in self: the products of a basis of
        other with the rows of self, mul(a, b) / (other.den den), are
        members.  Where 1 is sum e_t b_t over other's rows with some e_t =
        +-1, 1 and the other three rows are a basis of other (as in
        is_ring), and 1 self lies in self, so their 12 products decide it;
        otherwise the 16 of the rows do."""
        rows, e = other.mat, other.int_coords((1, 0, 0, 0))
        t = None if e is None else next((t for t, c in enumerate(e) if c * c == 1), None)
        if t is not None:
            rows = rows[:t] + rows[t + 1:]
        mul = self.algebra.mul_coords
        return self._holds_rows([mul(a, b) for a in rows for b in self.mat], other.den * self.den)

    def is_ring(self) -> bool:
        """Whether 1 lies in the lattice and it is closed under products.

        A ring has integral nrd.  Given 1 and integral nrd, trd(b) and
        trd(b conj(c)) are integers, and b^2 = trd(b) b - nrd(b) and b c +
        c b = trd(b) c + trd(c) b - trd(b conj(c)), so on a basis holding 1
        the products b c of the other vectors, one per pair, decide closure.
        1 is sum e_t b_t over the rows; where some e_t = +-1, 1 and the
        other three rows are a basis (the change of basis has determinant
        e_t), and three products decide it; otherwise the six of the rows.
        On an HNF basis with integral norms some e_t is +-1: e_0 = 2/trd(b_0)
        is 1 or 2, and at 2 the first nonzero e_t is -2 a_0t / p_t = -1."""
        e = self.int_coords((1, 0, 0, 0))
        if e is None:
            return False
        t = next((t for t, c in enumerate(e) if c * c == 1), None)
        di, dj, den = self.algebra.d_i, self.algebra.d_j, self.den
        dij = di * dj
        (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = self.mat
        # on the norm form diag(1, -di, -dj, dij): den^2 nrd(b_a), and the
        # cross terms gram_int[a][b] = den^2 trd(b_a conj(b_b)) / 2, a < b
        cross = math.gcd(-di * a1 * b1 - dj * a2 * b2 + dij * a3 * b3, -dj * a2 * c2 + dij * a3 * c3,
                         dij * a3 * d3, -dj * b2 * c2 + dij * b3 * c3, dij * b3 * d3, dij * c3 * d3)
        if math.gcd(a0 * a0 - di * a1 * a1 - dj * a2 * a2 + dij * a3 * a3,
                    -di * b1 * b1 - dj * b2 * b2 + dij * b3 * b3, -dj * c2 * c2 + dij * c3 * c3,
                    dij * d3 * d3, 2 * cross) % (den * den):
            return False
        # the products b_a b_b, a < b, of the triangular rows but b_t, written out
        prods = []
        if t not in (0, 1):
            prods.append((di * a1 * b1 + dj * a2 * b2 - dij * a3 * b3, a0 * b1 - dj * (a2 * b3 - a3 * b2),
                          a0 * b2 + di * (a1 * b3 - a3 * b1), a0 * b3 + a1 * b2 - a2 * b1))
        if t not in (0, 2):
            prods.append((dj * (a2 * c2 - di * a3 * c3), dj * (a3 * c2 - a2 * c3),
                          a0 * c2 + di * a1 * c3, a0 * c3 + a1 * c2))
        if t not in (0, 3):
            prods.append((-dij * a3 * d3, -dj * a2 * d3, di * a1 * d3, a0 * d3))
        if t not in (1, 2):
            prods.append((dj * (b2 * c2 - di * b3 * c3), dj * (b3 * c2 - b2 * c3), di * b1 * c3, b1 * c2))
        if t not in (1, 3):
            prods.append((-dij * b3 * d3, -dj * b2 * d3, di * b1 * d3, 0))
        if t not in (2, 3):
            prods.append((-dij * c3 * d3, -dj * c2 * d3, 0, 0))
        return self._holds_rows(prods, den * den)

    # -- short vectors ------------------------------------------------------

    def min_norm_elements(self, bound, cap: int = 10**6) -> list[tuple[int, ...]]:
        """The rows of ``short_vectors(bound, cap)``, without their norms:
        the integer rows v with v/den in the lattice and 0 < nrd <= bound,
        one of each +-pair.  Callers could read short_vectors directly; the
        name stays while perfbench/tracer.py spans it."""
        return [v for _, v in self.short_vectors(bound, cap)]

    def short_vectors(self, bound, cap: int = 10**6) -> list[tuple[int, tuple[int, ...]]]:
        """Pairs (den^2 nrd(v/den), v) over the integer rows v with v/den in
        the lattice and 0 < nrd(v/den) <= bound, one of each +-pair, sorted.
        Exact Fincke-Pohst on an LLL-reduced integer coordinate Gram matrix.

        With U the LLL transform, the search enumerates coordinates c in the
        reduced basis U mat, whose norm form c g c^T, g = U gram_int U^T, is
        sum_k D_k (c_k + sum_{t>k} mu_tk c_t)^2 with D_k = d[k+1] / d[k]; in
        LLL's integer Gram-Schmidt data that is sum_k (w_k / P) (c_k d[k+1] +
        S_k)^2 with S_k = sum_{t>k} lam[t][k] c_t, w_k = P / (d[k] d[k+1])
        and P the lcm of those products.  Four nested loops, level k = 3 down
        to 0, admit exactly the c_k with w_k (c_k d[k+1] + S_k)^2 <= rem, for
        rem = R = floor(bound * den^2 * P) minus the levels above; so the
        search runs on integers alone, and P nrd(v) is R minus the rem left
        after level 0.  ``cap`` bounds the number of visited nodes (candidate
        coordinates at any level).  A row is built once per +-pair: for the c
        whose highest nonzero coordinate is positive.  The loops run over
        those c alone: where every coordinate above level k is 0, S_k = 0,
        so the range at level k is symmetric and the subtree below -c_k
        mirrors the one below c_k.  It visits as many nodes, and counts as
        that twin does, so the node count and ``cap`` are those of the
        whole tree."""
        bound = Frac(bound)
        if bound <= 0:
            raise PreconditionError("bound must be positive")
        U, _, (_, d1, d2, d3, d4), (_, (l10, *_), (l20, l21, *_), (l30, l31, l32, _)) = self.lll
        (m00, m01, m02, m03), (_, m11, m12, m13), (_, _, m22, m23), (_, _, _, m33) = self.mat
        (y0, y1, y2, y3), b1, b2, b3 = (  # the rows u mat of the reduced basis
            (u0 * m00, u0 * m01 + u1 * m11, u0 * m02 + u1 * m12 + u2 * m22,
             u0 * m03 + u1 * m13 + u2 * m23 + u3 * m33) for u0, u1, u2, u3 in U)
        P = math.lcm(d1, d1 * d2, d2 * d3, d3 * d4)
        w0, w1, w2, w3 = P // d1, P // (d1 * d2), P // (d2 * d3), P // (d3 * d4)
        R = bound.numerator * self.den**2 * P // bound.denominator
        isqrt, out, nodes = math.isqrt, [], 0

        def visit(S: int, rem: int, w: int, dk: int) -> range:
            # the v with w (v dk + S)^2 <= rem, each a visited node
            nonlocal nodes
            m = isqrt(rem // w)
            lo, hi = -((m + S) // dk), (m - S) // dk
            nodes += hi - lo + 1
            if nodes > cap:
                raise CapExceeded("short-vector enumeration cap exceeded")
            return range(lo, hi + 1)

        def twin(before: int) -> None:
            # the mirror of the subtree counted since before visits as many nodes
            nonlocal nodes
            nodes += nodes - before
            if nodes > cap:
                raise CapExceeded("short-vector enumeration cap exceeded")

        for c3 in range(visit(0, R, w3, d4).stop):
            n3, r3 = nodes, R - w3 * (c3 * d4) ** 2
            c2s = visit(l32 * c3, r3, w2, d3)
            for c2 in c2s if c3 else range(c2s.stop):
                n2, r2 = nodes, r3 - w2 * (c2 * d3 + l32 * c3) ** 2
                S1 = l21 * c2 + l31 * c3
                c1s = visit(S1, r2, w1, d2)
                for c1 in c1s if c3 or c2 else range(c1s.stop):
                    n1, r1 = nodes, r2 - w1 * (c1 * d2 + S1) ** 2
                    S0 = l10 * c1 + l20 * c2 + l30 * c3
                    zs = visit(S0, r1, w0, d1)
                    if zs:
                        x0, x1, x2, x3 = (c3 * a + c2 * b + c1 * c for a, b, c in zip(b3, b2, b1))
                        for c0 in (zs if c3 or c2 or c1 else range(1, zs.stop)):
                            e = c0 * d1 + S0
                            v = (x0 + c0 * y0, x1 + c0 * y1, x2 + c0 * y2, x3 + c0 * y3)
                            out.append(((R - r1 + w0 * e * e) // P,
                                        v if v > (0, 0, 0, 0) else (-v[0], -v[1], -v[2], -v[3])))
                    if c1 and not (c3 or c2):
                        twin(n1)
                if c2 and not c3:
                    twin(n2)
            if c3:
                twin(n3)
        out.sort()  # (nrd, coords) of v / den orders as (nrd of v, v) does
        return out

    @cached_property
    def minimal_vectors(self) -> list[tuple[int, tuple[int, ...]]]:
        """The pairs of ``short_vectors`` of least norm, by one search
        bounded by the norm of the first LLL-reduced basis vector, unless
        brandt.seed_minimal_vectors filled the slot with the same pairs."""
        vecs = self.short_vectors(Frac(self.lll[1][0][0], self.den**2))
        return [x for x in vecs if x[0] == vecs[0][0]]
