"""Orders and ideals of the quaternion algebra: ring closure, the explicit
root maximal orders, primitivity, connecting ideals, norm-l neighbor ideals
through the mod-l matrix-ring splitting, and ideal equivalence testing.

Maximality is always certified through the reduced discriminant: in an
algebra ramified exactly at {p, oo} an order is maximal iff discrd = p.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import numth
from .errors import CapExceeded, PreconditionError
from .lattice import QLattice, hnf_rows, int_det, split_den
from .quat import QuatAlgebra, QuatElement

Frac = Fraction

DEFAULT_SEED = 0


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

    def is_two_sided(self) -> bool:
        return self.left_order == self.right_order

    def __mul__(self, other):
        if isinstance(other, QIdeal):
            return QIdeal(self.lattice * other.lattice)
        if isinstance(other, QuatElement):
            rows = [b * other for b in self.lattice.basis_elements()]
            return QIdeal(QLattice.from_elements(rows))
        return QIdeal(self.lattice.scale(other))

    def __rmul__(self, other):
        if isinstance(other, QuatElement):
            rows = [other * b for b in self.lattice.basis_elements()]
            return QIdeal(QLattice.from_elements(rows))
        return QIdeal(self.lattice.scale(other))

    def __repr__(self):
        return f"QIdeal(nrd={self.nrd()}, den={self.lattice.den})"


# ---------------------------------------------------------------------------
# orders


def order_closure(gens, rounds: int = 16) -> QOrder:
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
    for _ in range(rounds):
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
    """discrd via the trace Gram determinant: |det(trd(b_a b_b))| = discrd^2.

    On the integer rows r_a = den b_a the Gram entries are
    2 mul(r_a, r_b)[0] = den^2 trd(b_a b_b), so the determinant is den^8
    times the one wanted."""
    lat = order.lattice
    mul = order.algebra.mul_coords
    t = [[2 * mul(a, b)[0] for b in lat.mat] for a in lat.mat]
    val, rem = divmod(abs(int_det(t)), lat.den**8)
    assert rem == 0
    root = math.isqrt(val)
    assert root * root == val, "trace Gram determinant must be a square"
    return root


def two_generator_discriminant(a1: QuatElement, a2: QuatElement) -> Fraction:
    """Shortcut discrd for a ring generated by two non-commuting elements."""
    d1 = a1.trd() ** 2 - 4 * a1.nrd()
    d2 = a2.trd() ** 2 - 4 * a2.nrd()
    t = (a1 * a2).trd()
    return (d1 * d2 - (a1.trd() * a2.trd() - 2 * t) ** 2) / 4


def maximal_quadratic_generators(alg: QuatAlgebra) -> tuple[QuatElement, QuatElement]:
    """Generators w_i, w_j of the maximal orders of Q(i), Q(j) inside alg."""
    out = []
    for d, u in ((alg.d_i, alg.i), (alg.d_j, alg.j)):
        if d % 4 == 1:
            out.append((alg.one + u) / 2)
        else:
            out.append(u)
    return tuple(out)


def root_maximal_orders(p: int, q: int | None = None) -> list[QOrder]:
    """The explicit maximal orders containing the standard quadratic pair.

    Two orders for every residue class of p; for p = 3 mod 4 only the first
    contains the full maximal order of Q(j).
    """
    if p <= 3:
        raise PreconditionError("p > 3 required")
    alg = QuatAlgebra.for_prime(p, q)
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


def global_root_orders(p: int, q: int | None = None) -> list[QOrder]:
    """Maximal orders containing both maximal quadratic orders, deduplicated."""
    orders = root_maximal_orders(p, q)
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
    det = math.prod(lat.mat[t][t] for t in range(4))
    rows = [lat.int_coords([x * det for x in r]) for r in I.lattice.mat]
    return rows, det * I.lattice.den


def content(I: QIdeal, O: QOrder | None = None) -> Fraction:
    """Positive rational g with (1/g)I primitive integral over its left order."""
    O = O or I.left_order
    rows, den = _coordinate_matrix(I, O)
    num = math.gcd(*(x for row in rows for x in row))
    assert num > 0
    return Frac(num, den)


def is_primitive(I: QIdeal) -> bool:
    if not I.is_integral():
        raise PreconditionError("primitivity is defined for integral ideals")
    return content(I) == 1


def is_primitive_at(I: QIdeal, ell: int) -> bool:
    """Local primitivity read off the l-content of the coordinate matrix."""
    c = content(I)
    if c.denominator % ell == 0:
        raise PreconditionError("ideal not integral at ell")
    return c.numerator % ell != 0


def primitive_part(I: QIdeal) -> QIdeal:
    return QIdeal(I.lattice.scale(1 / content(I)))


def inverse(I: QIdeal) -> QIdeal:
    n = I.nrd()
    return QIdeal(I.lattice.conjugate().scale(1 / n))


def colon(I: QIdeal, J: QIdeal, side: str) -> QIdeal:
    """(I:J) via the product formulas; J must be invertible."""
    if side == "left":
        return QIdeal(I.lattice * inverse(J).lattice)
    if side == "right":
        return QIdeal(inverse(J).lattice * I.lattice)
    raise PreconditionError("side must be 'left' or 'right'")


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
    kern = _fp_kernel(gram, p)
    rows = [[p * x for x in row] for row in O.lattice.mat]
    for v in kern:
        amb = [sum(v[t] * O.lattice.mat[t][c] for t in range(4)) for c in range(4)]
        rows.append(amb)
    P = QIdeal(QLattice.from_int_rows(O.algebra, rows, O.lattice.den))
    assert P.nrd() == p and P.left_order == O and P.right_order == O
    return P


def _fp_kernel(rows, p):
    """Basis of {v : v.M = 0 mod p}; row-reduce [M | I] and read zero rows."""
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


def connecting_ideal_membership_oracle(O1: QOrder, O2: QOrder, probe: QuatElement) -> bool:
    """Membership predicate from the intersection-index characterization:
    probe belongs to the minimal connecting ideal iff
    probe * O2 * conj(probe) lands in [O1 : O1 meet O2] * O1."""
    n = O1.lattice.intersect(O2.lattice).index_in(O1.lattice)
    target = O1.lattice.scale(n)
    return all(
        target.contains(probe * b * probe.conjugate())
        for b in O2.basis_elements()
    )


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

    def image_of(self, elt: QuatElement) -> tuple:
        coords = self.order.lattice.int_coords(*split_den(elt.coords))
        assert coords is not None
        return self.image_of_coords(coords)

    def lift_row(self, matrix) -> tuple[int, ...]:
        """Integer row r with r / den in the order mapping to the given
        2x2 matrix (den the order lattice's denominator)."""
        vec = [matrix[t] % self.ell for t in range(4)]
        u = [sum(vec[t] * self.lift_matrix[t][c] for t in range(4)) % self.ell for c in range(4)]
        return _combine(u, self.order.lattice.mat)

    def lift(self, matrix) -> QuatElement:
        """Some element of the order mapping to the given 2x2 matrix."""
        den = self.order.lattice.den
        return QuatElement(self.order.algebra,
                           tuple(Frac(x, den) for x in self.lift_row(matrix)))


def _combine(u, mat) -> tuple[int, ...]:
    """The integer row sum_t u_t mat_t."""
    return tuple(sum(u[t] * mat[t][c] for t in range(4)) for c in range(4))


def _mat_inverse_mod(rows, ell):
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % ell), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, ell)
        a[col] = [x * inv % ell for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % ell for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def matrix_split(O: QOrder, ell: int, seed: int = DEFAULT_SEED) -> MatrixSplit:
    """Split O/ell O as M2(F_ell) by locating a rank-1 idempotent.

    Random search with a deterministic seed; the quotient is always split
    for ell != p, so exhausting the attempt cap indicates a bug.
    """
    p = O.algebra.p
    if ell == p or not numth.is_prime(ell):
        raise PreconditionError("ell must be a prime different from p")
    if not O.is_maximal:
        raise PreconditionError("matrix splitting needs a maximal order")
    table = _mult_table_mod(O, ell)
    one = _one_coords(O, ell)
    rng = random.Random((seed, O.key(), ell).__repr__())
    cap = 4 * ell**4 + 64
    for _ in range(cap):
        u = tuple(rng.randrange(ell) for _ in range(4))
        if not any(u):
            continue
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
        gens = []
        for a in range(4):
            base = tuple(int(s == a) for s in range(4))
            gens.append(_quot_mul(table, ell, base, e))
        basis = _rref_mod(gens, ell)
        if len(basis) != 2:
            continue
        m1, m2 = basis
        images = []
        for a in range(4):
            base = tuple(int(s == a) for s in range(4))
            cols = []
            for ms in (m1, m2):
                prod = _quot_mul(table, ell, base, ms)
                sol = _solve_two_mod([m1, m2], prod, ell)
                cols.append(sol)
            # action matrix: b*m_s = A[0][s] m1 + A[1][s] m2
            images.append((cols[0][0], cols[1][0], cols[0][1], cols[1][1]))
        phi_rows = [list(img) for img in images]
        lift_m = _mat_inverse_mod(phi_rows, ell)
        if lift_m is None:
            continue
        split = MatrixSplit(order=O, ell=ell, images=tuple(images), lift_matrix=tuple(tuple(r) for r in lift_m))
        _validate_split(split, table, one)
        return split
    raise CapExceeded("no splitting idempotent found; this should not happen")


def _rref_mod(rows, ell):
    work = [list(r) for r in rows]
    out = []
    ncols = 4
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


def _in_span_mod(basis, vec, ell):
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


def _solve_two_mod(basis, vec, ell):
    """Coordinates of vec in the span of two independent vectors mod ell."""
    m1, m2 = basis
    for a in range(ell):
        for b in range(ell):
            if all((a * m1[t] + b * m2[t] - vec[t]) % ell == 0 for t in range(4)):
                return (a, b)
    raise AssertionError("vector not in module span")


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


def ideals_of_norm_ell(O: QOrder, ell: int, seed: int = DEFAULT_SEED) -> list[QIdeal]:
    """All ell+1 integral left O-ideals of reduced norm ell, via the matrix
    splitting; sorted by canonical lattice key."""
    split = matrix_split(O, ell, seed=seed)
    targets = [(0, 0, 0, 1)] + [(1, x, 0, 0) for x in range(ell)]
    out = []
    lat = O.lattice
    mul = O.algebra.mul_coords
    for m in targets:
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


def ideals_of_norm_ell_bruteforce(O: QOrder, ell: int) -> list[QIdeal]:
    """Oracle path: enumerate 2-dimensional subspaces of O/ell O closed under
    left multiplication and lift them."""
    if ell == O.algebra.p:
        raise PreconditionError("ell must differ from p")
    table = _mult_table_mod(O, ell)
    out = []
    for basis in _two_dim_subspaces(ell):
        ok = True
        for a in range(4):
            ea = tuple(int(s == a) for s in range(4))
            for v in basis:
                if not _in_span_mod(basis, list(_quot_mul(table, ell, ea, v)), ell):
                    ok = False
                    break
            if not ok:
                break
        if ok:
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


def is_equivalent(I: QIdeal, J: QIdeal, cap: int = 10**6):
    """Witness alpha with J = I*alpha, or None.

    Works through N = I^{-1} J: a witness exists iff N contains an element of
    norm exactly nrd(N)."""
    if I.left_order != J.left_order:
        raise PreconditionError("equivalence needs matching left orders")
    N = QIdeal(inverse(I).lattice * J.lattice)
    target = N.nrd()
    for elt in N.lattice.min_norm_elements(target, cap=cap):
        if elt.nrd() == target:
            if (I * elt).lattice == J.lattice:
                return elt
    return None


def reduce_ideal(I: QIdeal) -> QIdeal:
    """Equivalent integral primitive ideal of small norm (same left class)."""
    n = I.nrd()
    bound = n
    elts = []
    while not elts:
        bound = bound * 2
        elts = I.lattice.min_norm_elements(bound)
    beta = elts[0]
    J = I * (beta.conjugate() / n)
    return primitive_part(QIdeal(J.lattice))
