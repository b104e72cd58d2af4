"""Orders and ideals of the quaternion algebra: ring closure, the explicit
root maximal orders, primitivity, connecting ideals, norm-l neighbor ideals
and the l-neighbour maximal orders, both read off the mod-l matrix-ring
splitting, and ideal equivalence testing.

Maximality is always certified through the reduced discriminant: in an
algebra ramified exactly at {p, oo} an order is maximal iff discrd = p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import numth
from .errors import CapExceeded, PreconditionError
from .lattice import QLattice, hnf_rows
from .quat import QuatAlgebra, QuatElement, split_den

Frac = Fraction


@dataclass(frozen=True)
class QOrder:
    lattice: QLattice

    def __post_init__(self):
        if not self.lattice.is_ring():
            raise PreconditionError("lattice is not a ring containing 1")

    @property
    def algebra(self) -> QuatAlgebra:
        return self.lattice.algebra

    def key(self):
        return self.lattice.key()

    def basis_elements(self):
        return self.lattice.basis_elements()

    def contains(self, elt: QuatElement) -> bool:
        return self.lattice.contains(elt)

    def contains_order(self, other: "QOrder") -> bool:
        return self.lattice.contains_lattice(other.lattice)

    @cached_property
    def reduced_discriminant(self) -> int:
        return reduced_discriminant(self)

    @property
    def is_maximal(self) -> bool:
        return self.reduced_discriminant == self.algebra.p

    def __repr__(self):
        return f"QOrder(discrd={self.reduced_discriminant}, den={self.lattice.den})"


@dataclass(frozen=True)
class QIdeal:
    lattice: QLattice

    @property
    def algebra(self) -> QuatAlgebra:
        return self.lattice.algebra

    def key(self):
        return self.lattice.key()

    @cached_property
    def left_order(self) -> QOrder:
        return QOrder(self.lattice.left_order())

    @cached_property
    def right_order(self) -> QOrder:
        return QOrder(self.lattice.right_order())

    def nrd(self) -> Fraction:
        return self.lattice.reduced_norm()

    def conjugate(self) -> "QIdeal":
        return QIdeal(self.lattice.conjugate())

    def is_integral(self) -> bool:
        return self.left_order.lattice.contains_lattice(self.lattice)

    def _times_element(self, elt: QuatElement, left: bool) -> "QIdeal":
        """elt I (left) or I elt on the integer rows, over one denominator."""
        lat = self.lattice
        x, xden = split_den(elt.coords)
        mul = self.algebra.mul_coords
        rows = [mul(x, r) if left else mul(r, x) for r in lat.mat]
        return QIdeal(QLattice.from_int_rows(self.algebra, rows, lat.den * xden))

    def __mul__(self, other):
        if isinstance(other, QIdeal):
            return QIdeal(self.lattice * other.lattice)
        if isinstance(other, QuatElement):
            return self._times_element(other, left=False)
        return QIdeal(self.lattice.scale(other))

    def __rmul__(self, other):
        if isinstance(other, QuatElement):
            return self._times_element(other, left=True)
        return QIdeal(self.lattice.scale(other))

    def __repr__(self):
        return f"QIdeal(nrd={self.nrd()}, den={self.lattice.den})"


# ---------------------------------------------------------------------------
# orders


# Rounds before order_closure gives up.  The root and Bass orders of every
# prime p < 1000 stabilise in the second round; a ring with unbounded
# denominators never does.
CLOSURE_ROUNDS = 16


def order_closure(gens) -> QOrder:
    """Smallest order containing the generators: saturate span under products.

    The span is kept as integer HNF rows over one denominator; a round adds
    the products of the rows over den^2 and divides the gcd back out.
    Non-stabilization within the round cap signals unbounded denominators,
    i.e. the generated ring is not an order.
    """
    if not gens:
        raise PreconditionError("no generators")
    alg = gens[0].algebra
    mul = alg.mul_coords
    den = math.lcm(*(c.denominator for g in gens for c in g.coords))
    rows = [(den, 0, 0, 0)] + [[int(c * den) for c in g.coords] for g in gens]
    seen = None
    for _ in range(CLOSURE_ROUNDS):
        prods = [mul(a, b) for a in rows for b in rows]
        h = hnf_rows([[x * den for x in r] for r in rows] + prods)
        g = math.gcd(den * den, *(x for r in h for x in r))
        rows, den = [[x // g for x in r] for r in h], den * den // g
        if (rows, den) == seen:
            if len(rows) != 4:
                raise PreconditionError("generators do not span the algebra")
            return QOrder(QLattice.from_int_rows(alg, rows, den))
        seen = (rows, den)
    raise CapExceeded("ring closure did not stabilize; not an order")


def reduced_discriminant(order: QOrder) -> int:
    """discrd, with |det(trd(b_a b_b))| = discrd^2, read off the HNF pivots.

    The trace Gram of the basis mat/den is mat T mat^T / den^2 with
    T = diag(2, 2 d_i, 2 d_j, -2 d_i d_j), so its determinant is
    det(mat)^2 16 (d_i d_j)^2 / den^8, and discrd = det(mat) 4 |d_i d_j| / den^4."""
    lat = order.lattice
    alg = order.algebra
    val, rem = divmod(lat.pivot_product() * 4 * abs(alg.d_i * alg.d_j), lat.den**4)
    assert rem == 0, "discrd of an order must be an integer"
    return val


def maximal_quadratic_generators(alg: QuatAlgebra) -> tuple[QuatElement, QuatElement]:
    """Generators w_i, w_j of the maximal orders of Q(i), Q(j) inside alg."""
    return tuple(QuatElement(alg, tuple(Frac(x, den) for x in row))
                 for row, den in alg.maximal_quadratic_rows)


def root_maximal_orders(p: int) -> list[QOrder]:
    """The explicit maximal orders containing the standard quadratic pair.

    Two orders for every residue class of p; for p = 3 mod 4 only the first
    contains the full maximal order of Q(j).
    """
    if p <= 3:
        raise PreconditionError("p > 3 required")
    alg = QuatAlgebra.for_prime(p)
    one, i, j, k = alg.basis()
    if p % 4 == 3:
        gens0 = [i, (one + j) / 2]
        gens1 = [i, (one + k) / 2]
    elif p % 8 == 5:
        # j is adjoined explicitly: both orders contain Z<i,j> but the ring
        # closure of the three fractional generators alone only reaches 3j
        gens0 = [i, j, (one + j + k) / 2, (i + 2 * j + k) / 4]
        gens1 = [i, j, (one + j + k) / 2, (i + 2 * j - k) / 4]
    else:
        qq = alg.q
        # nrd((c i + k)/q) = (c^2 + p)/q, so the generator is integral iff q | c^2 + p
        c = next((c for c in range(1, qq) if (c * c + p) % qq == 0), None)
        if c is None:
            raise PreconditionError(f"no c with q | c^2 + p for p={p}, q={qq}")
        gens0 = [(one + i) / 2, j, (c * i + k) / qq]
        gens1 = [(one + i) / 2, j, (c * i - k) / qq]
    orders = [order_closure(gens0), order_closure(gens1)]
    for o in orders:
        if not o.is_maximal:
            raise PreconditionError(f"constructed root order has discrd {o.reduced_discriminant}")
    return orders


def global_root_orders(p: int) -> list[QOrder]:
    """Maximal orders containing both maximal quadratic orders, deduplicated."""
    orders = root_maximal_orders(p)
    alg = orders[0].algebra
    wi, wj = maximal_quadratic_generators(alg)
    out = []
    for o in orders:
        if o.contains(wi) and o.contains(wj) and o not in out:
            out.append(o)
    return out


# ---------------------------------------------------------------------------
# primitivity and connecting ideals


def _coordinate_matrix(I: QIdeal, O: QOrder):
    """Coordinates of I's basis in O's basis: integer rows over one
    denominator.  Scaled by det(O.mat) every row of I lies in O."""
    lat = O.lattice
    det = lat.pivot_product()
    rows = [lat.int_coords([x * det for x in r]) for r in I.lattice.mat]
    return rows, det * I.lattice.den


def content(I: QIdeal, O: QOrder | None = None) -> Fraction:
    """Positive rational g with (1/g)I primitive integral over its left order."""
    O = O or I.left_order
    rows, den = _coordinate_matrix(I, O)
    num = math.gcd(*(x for row in rows for x in row))
    assert num > 0
    return Frac(num, den)


def primitive_part(I: QIdeal, O: QOrder | None = None) -> QIdeal:
    """(1/g) I for g = content(I, O); O is I's left order when known."""
    return QIdeal(I.lattice.scale(1 / content(I, O)))


def inverse(I: QIdeal) -> QIdeal:
    n = I.nrd()
    return QIdeal(I.lattice.conjugate().scale(1 / n))


def connecting_ideal(O1: QOrder, O2: QOrder) -> QIdeal:
    """The primitive integral connecting ideal between two maximal orders.

    Any connecting ideal is a rational multiple of the primitive one, so the
    product lattice O1*O2 scaled to content 1 is the answer; the norm must
    then agree with the intersection index.
    """
    for o in (O1, O2):
        if not o.is_maximal:
            raise PreconditionError("connecting ideals need maximal orders")
    prod = QIdeal(O1.lattice * O2.lattice)
    out = QIdeal(prod.lattice.scale(1 / content(prod, O1)))
    expected = O1.lattice.intersect(O2.lattice).index_in(O1.lattice)
    assert out.nrd() == expected, "connecting ideal norm mismatch"
    return out


def two_sided_p_ideal(O: QOrder) -> QIdeal:
    """The unique two-sided ideal of reduced norm p of a maximal order.

    Locally at the ramified prime it is the radical, which equals the
    radical of the mod-p trace form since the semisimple quotient F_{p^2}
    has nondegenerate trace pairing."""
    if not O.is_maximal:
        raise PreconditionError("needs a maximal order")
    p = O.algebra.p
    bas = O.basis_elements()
    gram = [[int((a * b).trd()) % p for b in bas] for a in bas]
    rows = [[p * x for x in row] for row in O.lattice.mat]
    rows += [_combine(v, O.lattice.mat) for v in _kernel_mod(gram, p)]
    P = QIdeal(QLattice.from_int_rows(O.algebra, rows, O.lattice.den))
    assert P.nrd() == p and P.left_order == O and P.right_order == O
    return P


# ---------------------------------------------------------------------------
# the mod-l splitting and norm-l ideals


def _mult_table_mod(O: QOrder, ell: int):
    """Structure constants of O/ell O on the reduced basis."""
    lat = O.lattice
    mul = O.algebra.mul_coords
    d2 = lat.den * lat.den
    table = []
    for a in lat.mat:
        row = []
        for b in lat.mat:
            coords = lat.int_coords(mul(a, b), d2)
            assert coords is not None
            row.append(tuple(x % ell for x in coords))
        table.append(row)
    return table


def _quot_mul(table, ell, u, v):
    out = [0, 0, 0, 0]
    for a in range(4):
        if u[a]:
            for b in range(4):
                if v[b]:
                    coef = u[a] * v[b]
                    row = table[a][b]
                    for t in range(4):
                        out[t] = (out[t] + coef * row[t]) % ell
    return tuple(out)


def _one_coords(O: QOrder, ell: int):
    return tuple(x % ell for x in O.lattice.int_coords((1, 0, 0, 0)))


@dataclass(frozen=True)
class MatrixSplit:
    """Ring isomorphism O/ell O -> M2(F_ell), recorded by basis images."""

    order: QOrder
    ell: int
    images: tuple  # four 2x2 matrices mod ell, one per basis element
    lift_matrix: tuple  # 4x4 mod ell: matrix entries -> quotient coordinates

    def image_of_coords(self, u) -> tuple:
        m = [0, 0, 0, 0]
        for t in range(4):
            if u[t] % self.ell:
                for s in range(4):
                    m[s] = (m[s] + u[t] * self.images[t][s]) % self.ell
        return tuple(m)

    def lift_row(self, matrix) -> tuple[int, ...]:
        """Integer row r with r / den in the order mapping to the given
        2x2 matrix (den the order lattice's denominator)."""
        vec = [matrix[t] % self.ell for t in range(4)]
        u = [sum(vec[t] * self.lift_matrix[t][c] for t in range(4)) % self.ell for c in range(4)]
        return _combine(u, self.order.lattice.mat)


def _combine(u, mat) -> tuple[int, ...]:
    """The integer row sum_t u_t mat_t."""
    return tuple(sum(u[t] * mat[t][c] for t in range(4)) for c in range(4))


def _rref_mod(rows, ell) -> list[tuple[int, ...]]:
    """Reduced row echelon form of the rows mod ell, zero rows dropped: rows
    in order of pivot column, each pivot 1 and alone in its column."""
    width = len(rows[0]) if rows else 0
    work = [[x % ell for x in r] for r in rows]
    out: list[list[int]] = []
    for col in range(width):
        piv = next((r for r in work if r[col]), None)
        if piv is None:
            continue
        work.remove(piv)
        inv = pow(piv[col], -1, ell)
        piv = [x * inv % ell for x in piv]
        # piv vanishes left of col, so only columns col.. change
        for r in work + out:
            f = r[col]
            if f:
                for t in range(col, width):
                    r[t] = (r[t] - f * piv[t]) % ell
        out.append(piv)
    return [tuple(r) for r in out]


def _augmented_rref(rows, ell) -> list[tuple[int, ...]]:
    """_rref_mod of [M | I]; its rows span {(v M, v)}."""
    n = len(rows)
    return _rref_mod([list(r) + [int(i == t) for t in range(n)] for i, r in enumerate(rows)], ell)


def _kernel_mod(rows, ell) -> list[tuple[int, ...]]:
    """Basis of {v : v M = 0 mod ell}: the rows of rref[M | I] that vanish
    on M's columns, cut to their I part."""
    width = len(rows[0])
    return [r[width:] for r in _augmented_rref(rows, ell) if not any(r[:width])]


def _inverse_mod(rows, ell) -> list[tuple[int, ...]] | None:
    """M^-1 mod ell for square M, or None when M is singular: rref[M | I] is
    [I | M^-1] exactly when its last pivot lies in M's columns."""
    n = len(rows)
    ext = _augmented_rref(rows, ell)
    return [r[n:] for r in ext] if ext[-1][n - 1] else None


def _span_coords_mod(rref, vec, ell) -> tuple[int, ...] | None:
    """Coordinates of vec in an echelon basis from _rref_mod, which are its
    entries at the pivot columns, or None when vec is not in the span."""
    # the first nonzero entry of a row is its pivot, 1
    coords = tuple(vec[r.index(1)] % ell for r in rref)
    rest = list(vec)
    for c, r in zip(coords, rref):
        rest = [x - c * y for x, y in zip(rest, r)]
    return None if any(x % ell for x in rest) else coords


def matrix_split(O: QOrder, ell: int) -> MatrixSplit:
    """Split O/ell O as M2(F_ell) by locating a rank-1 idempotent.

    Scans u over F_ell^4 minus 0 in lexicographic order for one whose
    eigenvalues are distinct and in F_ell; the quotient is always split for
    ell != p (the lift of a diagonal matrix qualifies), so an exhausted scan
    indicates a bug.
    """
    p = O.algebra.p
    if ell == p or not numth.is_prime(ell):
        raise PreconditionError("ell must be a prime different from p")
    if not O.is_maximal:
        raise PreconditionError("matrix splitting needs a maximal order")
    table = _mult_table_mod(O, ell)
    one = _one_coords(O, ell)
    units = [tuple(int(s == a) for s in range(4)) for a in range(4)]
    for u in itertools.islice(itertools.product(range(ell), repeat=4), 1, None):
        # trd and nrd of the lift r/den, both integers
        r = _combine(u, O.lattice.mat)
        den = O.lattice.den
        t, t_rem = divmod(2 * r[0], den)
        n, n_rem = divmod(O.algebra.nrd_coords(r), den * den)
        assert t_rem == 0 and n_rem == 0
        tt, nn = t % ell, n % ell
        roots = [r for r in range(ell) if (r * r - tt * r + nn) % ell == 0]
        if len(roots) != 2:
            continue
        l1, l2 = roots
        inv = pow((l2 - l1) % ell, -1, ell)
        e = tuple((inv * (x - l1 * o)) % ell for x, o in zip(u, one))
        if _quot_mul(table, ell, e, e) != e:
            continue
        if not any(e) or e == one:
            continue
        # left module (O/ell)e; must be 2-dimensional for a rank-1 idempotent
        basis = _rref_mod([_quot_mul(table, ell, b, e) for b in units], ell)
        if len(basis) != 2:
            continue
        images = []
        for b in units:
            cols = []
            for m in basis:
                sol = _span_coords_mod(basis, _quot_mul(table, ell, b, m), ell)
                if sol is None:
                    raise AssertionError("vector not in module span")
                cols.append(sol)
            # action matrix: b*m_s = A[0][s] m1 + A[1][s] m2
            images.append((cols[0][0], cols[1][0], cols[0][1], cols[1][1]))
        lift_m = _inverse_mod(images, ell)
        if lift_m is None:
            continue
        split = MatrixSplit(order=O, ell=ell, images=tuple(images), lift_matrix=tuple(lift_m))
        _validate_split(split, table, one)
        return split
    raise AssertionError(f"O/{ell}O has no rank-1 idempotent, yet it is split for {ell} != p")


def _validate_split(split: MatrixSplit, table, one) -> None:
    ell = split.ell
    idm = split.image_of_coords(one)
    assert idm == (1 % ell, 0, 0, 1 % ell), "identity must map to the identity matrix"

    def mat_mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % ell,
            (a[0] * b[1] + a[1] * b[3]) % ell,
            (a[2] * b[0] + a[3] * b[2]) % ell,
            (a[2] * b[1] + a[3] * b[3]) % ell,
        )
    for a in range(4):
        for b in range(4):
            ea = tuple(int(s == a) for s in range(4))
            eb = tuple(int(s == b) for s in range(4))
            lhs = split.image_of_coords(_quot_mul(table, ell, ea, eb))
            rhs = mat_mul(split.image_of_coords(ea), split.image_of_coords(eb))
            assert lhs == rhs, "splitting is not multiplicative"


def _line_targets(ell: int) -> list[tuple]:
    """One rank-1 idempotent m = [[a, b], [c, d]] per line of F_ell^2 (its
    kernel), as (a, b, c, d)."""
    return [(0, 0, 0, 1)] + [(1, x, 0, 0) for x in range(ell)]


def ideals_of_norm_ell(O: QOrder, ell: int) -> list[QIdeal]:
    """All ell+1 integral left O-ideals of reduced norm ell, via the matrix
    splitting; sorted by canonical lattice key, so which splitting the
    search finds does not show."""
    split = matrix_split(O, ell)
    out = []
    lat = O.lattice
    mul = O.algebra.mul_coords
    for m in _line_targets(ell):
        # ell O + O alpha on integer rows over den^2
        alpha = split.lift_row(m)
        gens = [[ell * lat.den * x for x in b] for b in lat.mat]
        gens += [mul(b, alpha) for b in lat.mat]
        I = QIdeal(QLattice.from_int_rows(O.algebra, gens, lat.den * lat.den))
        assert I.nrd() == ell, f"expected norm {ell}, got {I.nrd()}"
        out.append(I)
    keys = {I.key() for I in out}
    assert len(keys) == ell + 1, "norm-ell ideals must be distinct"
    return sorted(out, key=lambda I: I.key())


def neighbour_orders(O: QOrder, ell: int, parent: QOrder | None = None) -> list[QOrder | None]:
    """The ell + 1 maximal orders ell-adjacent to O, one per target m of
    ideals_of_norm_ell, with None in place of ``parent`` (not rebuilt).

    Locally O = End(L) and the neighbours are End(Z_ell v + ell L).  The
    right order O_v of I_v = ell O + O alpha (alpha a lift of m) meets O in
    the Eichler order Z + I_v = ell O + Z + Z alpha + Z beta_0, beta_0 a
    lift of the nilpotent N with ker N = im N = ker m, and O_v = ell O + Z +
    Z alpha + Z beta/ell for any beta = beta_0 mod ell O with ell^2 | nrd.
    beta = beta_0 + ell s gamma is one, for a basis row gamma with
    trd(beta_0 conj(gamma)) a unit mod ell (the trace form of O/ell O is
    nondegenerate): nrd(beta) = nrd(beta_0) + ell s trd(beta_0 conj(gamma))
    mod ell^2.  No other neighbour holds beta/ell (two meet inside O), so
    the parent's line is the one whose beta/ell it contains."""
    split = matrix_split(O, ell)
    lat = O.lattice
    alg = O.algebra
    den2, g0 = lat.den**2, alg.norm_diag()
    vden = lat.den * ell
    base = [[ell * ell * x for x in r] for r in lat.mat] + [[vden, 0, 0, 0]]
    nilpotents = [(0, 1, 0, 0)] + [(-x, -x * x, 1, x) for x in range(ell)]
    out = []
    for m, nil in zip(_line_targets(ell), nilpotents):
        beta = split.lift_row(nil)
        n0, rem = divmod(alg.nrd_coords(beta), den2)
        assert rem == 0 and n0 % ell == 0, "beta_0 must lift a nilpotent"
        for gamma in lat.mat:
            # trd(beta_0 conj(gamma)) on the rows over den^2
            t, rem = divmod(2 * sum(g0[c] * beta[c] * gamma[c] for c in range(4)), den2)
            assert rem == 0
            if t % ell:
                break
        else:
            raise AssertionError("trace form of O/ell O is degenerate")
        s = -(n0 // ell) * pow(t, -1, ell) % ell
        beta = [b + ell * s * g for b, g in zip(beta, gamma)]
        assert alg.nrd_coords(beta) % (den2 * ell * ell) == 0, "ell^2 must divide nrd(beta)"
        # the rows are over vden, so beta/ell is beta/vden
        if parent is not None and parent.lattice.int_coords(beta, vden) is not None:
            out.append(None)
            continue
        rows = base + [[ell * x for x in split.lift_row(m)], beta]
        Ov = QOrder(QLattice.from_int_rows(alg, rows, vden))
        assert Ov.is_maximal, f"neighbour order has discrd {Ov.reduced_discriminant}"
        out.append(Ov)
    return out


def ideals_of_norm_ell_bruteforce(O: QOrder, ell: int) -> list[QIdeal]:
    """Oracle path: enumerate 2-dimensional subspaces of O/ell O closed under
    left multiplication and lift them."""
    if ell == O.algebra.p:
        raise PreconditionError("ell must differ from p")
    table = _mult_table_mod(O, ell)
    units = [tuple(int(s == a) for s in range(4)) for a in range(4)]
    out = []
    for basis in _two_dim_subspaces(ell):
        if all(_span_coords_mod(basis, _quot_mul(table, ell, ea, v), ell) is not None
               for ea in units for v in basis):
            bas = O.basis_elements()
            gens = [ell * b for b in bas]
            for v in basis:
                elt = O.algebra.element()
                for c, b in zip(v, bas):
                    elt = elt + c * b
                gens.append(elt)
            I = QIdeal(QLattice.from_elements(gens))
            if I.nrd() == ell:
                out.append(I)
    return sorted(out, key=lambda I: I.key())


def _two_dim_subspaces(ell: int):
    """Canonical RREF bases of the 2-dimensional subspaces of F_ell^4."""
    from itertools import combinations, product

    for pivots in combinations(range(4), 2):
        free_rows = {0: [c for c in range(4) if c not in pivots and c > pivots[0]],
                     1: [c for c in range(4) if c not in pivots and c > pivots[1]]}
        slots = [(r, c) for r in (0, 1) for c in free_rows[r]]
        for vals in product(range(ell), repeat=len(slots)):
            rows = [[0] * 4 for _ in range(2)]
            rows[0][pivots[0]] = 1
            rows[1][pivots[1]] = 1
            for (r, c), v in zip(slots, vals):
                rows[r][c] = v
            yield [tuple(r) for r in rows]


# ---------------------------------------------------------------------------
# equivalence


def is_equivalent(I: QIdeal, J: QIdeal):
    """Witness alpha with J = I*alpha, or None.

    Needs O_L(J) = O_L(I) = O.  For maximal O that is O J contained in J
    (then O lies in O_L(J), hence equals it), which costs 16 memberships
    instead of J's left order.  Works through N = I^{-1} J: a witness
    exists iff N contains an element of norm exactly nrd(N)."""
    O = I.left_order
    same = J.lattice.is_left_module_over(O.lattice) if O.is_maximal else O == J.left_order
    if not same:
        raise PreconditionError("equivalence needs matching left orders")
    N = QIdeal(inverse(I).lattice * J.lattice)
    target = N.nrd()
    for elt in N.lattice.min_norm_elements(target):
        if elt.nrd() == target:
            if (I * elt).lattice == J.lattice:
                return elt
    return None


def reduce_ideal(I: QIdeal, O: QOrder | None = None) -> QIdeal:
    """Equivalent integral primitive ideal of small norm (same left class).
    O is I's left order when the caller knows it; otherwise it is computed.

    beta is the element of least (nrd, coordinates) in I; one search bounded
    by the norm of the first LLL-reduced basis vector holds it."""
    lat = I.lattice
    beta = lat.min_norm_elements(Frac(lat.lll[1][0][0], lat.den**2))[0]
    J = I * (beta.conjugate() / I.nrd())
    return primitive_part(J, O)
