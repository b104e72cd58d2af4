"""Orders and ideals of the quaternion algebra: ring closure, the explicit
root maximal orders, primitivity, connecting ideals, the l-adic frame
(matrix units of O/l^n O = M2(Z/l^n), built around one rank-1 idempotent
and checked by their 16 relations: matrix_split finds it mod l and builds
the frame at the caller's n, the same frame at every n), and ideal
equivalence testing.  The frame at n reads off the Bruhat-Tits tree around
O: the maximal order at each point w of P^1(Z/l^k), 2k <= n (ball_order),
and for k <= n the ideal of norm l^k connecting O to it (ball_ideal); the norm-l ideals are those of the frame
at n = 1 (the mod-l splitting).  Both are built in O's own coordinates,
from small integers: l^k times the order contains l^(2k) O, and the ideal
contains l^k O, so their generators are only needed mod l^(2k), resp.
l^k, reducing them there does not change the lattice, and it is
echeloned modulo that power of l (lattice.echelon_mod).
The frame gives orders and ideals only; the walk reads each order's
conductors off memberships in it (orient.edge_step).

An ideal is its lattice: a QLattice, with the left and right orders
QLattice.left_order and right_order, which a caller wraps in QOrder where
it needs an order's invariants.

Maximality is always certified through the reduced discriminant: in an
algebra ramified exactly at {p, oo} an order is maximal iff discrd = p.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import numth
from .errors import CapExceeded, PreconditionError
from .lattice import QLattice, echelon_mod, hnf_rows
from .quat import QuatAlgebra

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

    def contains_order(self, other: "QOrder") -> bool:
        return self.lattice.contains_lattice(other.lattice)

    @cached_property
    def reduced_discriminant(self) -> int:
        return reduced_discriminant(self)

    @cached_property
    def structure_constants(self) -> tuple:
        """Integer coordinates of the 16 basis products b_a b_b, by (a, b)."""
        lat = self.lattice
        mul = self.algebra.mul_coords
        d2 = lat.den * lat.den
        return tuple(tuple(tuple(lat.int_coords(mul(a, b), d2)) for b in lat.mat)
                     for a in lat.mat)

    @cached_property
    def trace_gram(self) -> tuple:
        """The integer trace Gram (trd(b_a b_b)), by (a, b): trd(b_a b_b) is
        2 mul_coords(b_a, b_b)[0] over den^2."""
        lat = self.lattice
        mul, d2 = self.algebra.mul_coords, lat.den * lat.den
        gram = [[2 * mul(a, b)[0] for b in lat.mat] for a in lat.mat]
        assert not any(x % d2 for row in gram for x in row), "trd of an order must be integral"
        return tuple(tuple(x // d2 for x in row) for row in gram)

    @property
    def is_maximal(self) -> bool:
        return self.reduced_discriminant == self.algebra.p

    def __repr__(self):
        return f"QOrder(discrd={self.reduced_discriminant}, den={self.lattice.den})"


# ---------------------------------------------------------------------------
# orders


# Rounds before order_closure gives up.  The root and Bass orders of every
# prime p < 1000 are rings after the first round; a ring with unbounded
# denominators never stabilises.
CLOSURE_ROUNDS = 16


def order_closure(alg: QuatAlgebra, gens, den: int) -> QOrder:
    """Smallest order containing the elements g/den for the integer rows g
    in gens: saturate their span under products.

    The span is kept as integer HNF rows over one denominator; a round adds
    the products of the rows over den^2 and divides the gcd back out.  The
    first span of rank 4 that passes QOrder's ring test is the closure, as
    the next round would leave it as it is; a span of lower rank that
    repeats does not span the algebra.  Non-stabilization within the round
    cap signals unbounded denominators, i.e. the generated ring is not an
    order.
    """
    if not gens:
        raise PreconditionError("no generators")
    mul = alg.mul_coords
    rows = [(den, 0, 0, 0)] + [list(g) for g in gens]
    seen = None
    for _ in range(CLOSURE_ROUNDS):
        prods = [mul(a, b) for a in rows for b in rows]
        h = hnf_rows([[x * den for x in r] for r in rows] + prods)
        g = math.gcd(den * den, *(x for r in h for x in r))
        rows, den = [tuple(x // g for x in r) for r in h], den * den // g
        if len(rows) == 4:
            try:  # the rows are in HNF, with their content divided out
                return QOrder(QLattice(alg, tuple(rows), den))
            except PreconditionError:  # not a ring yet
                pass
        elif (rows, den) == seen:
            raise PreconditionError("generators do not span the algebra")
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


def _root_generators(p: int) -> tuple[QuatAlgebra, int, list, list]:
    """The algebra, and generators of the two explicit root maximal orders
    as integer rows over one denominator."""
    if p <= 3:
        raise PreconditionError("p > 3 required")
    alg = QuatAlgebra.for_prime(p)
    if p % 4 == 3:  # i, (1 + j)/2 and i, (1 + k)/2
        return alg, 2, [(0, 2, 0, 0), (1, 0, 1, 0)], [(0, 2, 0, 0), (1, 0, 0, 1)]
    if p % 8 == 5:
        # i, j, (1 + j + k)/2, (i + 2j +- k)/4; j is adjoined explicitly: both
        # orders contain Z<i,j> but the ring closure of the three fractional
        # generators alone only reaches 3j
        return (alg, 4, [(0, 4, 0, 0), (0, 0, 4, 0), (2, 0, 2, 2), (0, 1, 2, 1)],
                [(0, 4, 0, 0), (0, 0, 4, 0), (2, 0, 2, 2), (0, 1, 2, -1)])
    qq = alg.q
    # nrd((c i + k)/q) = (c^2 + p)/q, so the generator is integral iff q | c^2 + p
    c = next((c for c in range(1, qq) if (c * c + p) % qq == 0), None)
    if c is None:
        raise PreconditionError(f"no c with q | c^2 + p for p={p}, q={qq}")
    # (1 + i)/2, j, (c i +- k)/q
    return (alg, 2 * qq, [(qq, qq, 0, 0), (0, 0, 2 * qq, 0), (0, 2 * c, 0, 2)],
            [(qq, qq, 0, 0), (0, 0, 2 * qq, 0), (0, 2 * c, 0, -2)])


def root_maximal_orders(p: int) -> list[QOrder]:
    """The explicit maximal orders containing the standard quadratic pair.

    Two orders for every residue class of p; for p = 3 mod 4 only the first
    contains the full maximal order of Q(j).
    """
    alg, den, *gens = _root_generators(p)
    orders = [order_closure(alg, rows, den) for rows in gens]
    for o in orders:
        if not o.is_maximal:
            raise PreconditionError(f"constructed root order has discrd {o.reduced_discriminant}")
    return orders


def root_maximal_order(p: int) -> QOrder:
    """The first root order alone, where a query needs one maximal order
    holding both maximal quadratic orders: it is maximal and holds both for
    every p < 1000, which is asserted."""
    alg, den, rows, _ = _root_generators(p)
    O = order_closure(alg, rows, den)
    assert O.is_maximal and all(O.lattice.int_coords(x, xden) is not None
                                for x, xden in alg.maximal_quadratic_rows), \
        "the first root order must be maximal and hold both maximal quadratic orders"
    return O


def global_root_orders(orders: list[QOrder]) -> list[QOrder]:
    """The orders among orders, deduplicated, that contain both maximal
    quadratic orders."""
    rows = orders[0].algebra.maximal_quadratic_rows
    out = []
    for o in orders:
        if all(o.lattice.int_coords(x, xden) is not None for x, xden in rows) and o not in out:
            out.append(o)
    return out


# ---------------------------------------------------------------------------
# primitivity and connecting ideals


def _coordinate_matrix(I: QLattice, O: QOrder):
    """Coordinates of I's basis in O's basis: integer rows over one
    denominator.  Scaled by det(O.mat) every row of I lies in O."""
    lat = O.lattice
    det = lat.pivot_product()
    rows = [lat.int_coords([x * det for x in r]) for r in I.mat]
    return rows, det * I.den


def content(I: QLattice, O: QOrder) -> Fraction:
    """Positive rational g with (1/g)I primitive integral over O, I's left
    order."""
    rows, den = _coordinate_matrix(I, O)
    num = math.gcd(*(x for row in rows for x in row))
    assert num > 0
    return Frac(num, den)


def primitive_part(I: QLattice, O: QOrder) -> QLattice:
    """(1/g) I for g = content(I, O); O is I's left order.  As content(c I, O)
    = c content(I, O) for a positive rational c, c I has the same primitive
    part as I."""
    return I.scale(1 / content(I, O))


def inverse(I: QLattice) -> QLattice:
    return I.conjugate().scale(1 / I.reduced_norm)


def connecting_ideal(O1: QOrder, O2: QOrder) -> QLattice:
    """The primitive integral connecting ideal between two maximal orders.

    Any connecting ideal is a rational multiple of the primitive one, so the
    product lattice O1*O2 scaled to content 1 is the answer; the norm must
    then agree with the intersection index.
    """
    for o in (O1, O2):
        if not o.is_maximal:
            raise PreconditionError("connecting ideals need maximal orders")
    out = primitive_part(O1.lattice * O2.lattice, O1)
    expected = O1.lattice.intersect(O2.lattice).index_in(O1.lattice)
    assert out.reduced_norm == expected, "connecting ideal norm mismatch"
    return out


def two_sided_p_ideal(O: QOrder) -> QLattice:
    """The unique two-sided ideal of reduced norm p of a maximal order.

    Locally at the ramified prime it is the radical, which equals the
    radical of the mod-p trace form since the semisimple quotient F_{p^2}
    has nondegenerate trace pairing."""
    if not O.is_maximal:
        raise PreconditionError("needs a maximal order")
    p = O.algebra.p
    gram = [[x % p for x in row] for row in O.trace_gram]
    rows = [[p * x for x in row] for row in O.lattice.mat]
    rows += [_combine(v, O.lattice.mat) for v in numth.kernel_mod(gram, p)]
    P = QLattice.from_int_rows(O.algebra, rows, O.lattice.den)
    assert P.reduced_norm == p and P.left_order() == O.lattice == P.right_order()
    return P


# ---------------------------------------------------------------------------
# the mod-l splitting and norm-l ideals


def _mult_table_mod(O: QOrder, ell: int):
    """Structure constants of O/ell O on the reduced basis."""
    return [[tuple(x % ell for x in c) for c in row] for row in O.structure_constants]


def _quot_mul(table, q, u, v):
    """The product of two elements of O/qO given by coordinates, with table
    the structure constants of O (reduced mod q or not): the four sums of
    u_a v_b table[a][b], reduced mod q once."""
    v0, v1, v2, v3 = v
    s0 = s1 = s2 = s3 = 0
    for ua, (r0, r1, r2, r3) in zip(u, table):
        if ua:
            c0, c1, c2, c3 = ua * v0, ua * v1, ua * v2, ua * v3
            s0 += c0 * r0[0] + c1 * r1[0] + c2 * r2[0] + c3 * r3[0]
            s1 += c0 * r0[1] + c1 * r1[1] + c2 * r2[1] + c3 * r3[1]
            s2 += c0 * r0[2] + c1 * r1[2] + c2 * r2[2] + c3 * r3[2]
            s3 += c0 * r0[3] + c1 * r1[3] + c2 * r2[3] + c3 * r3[3]
    return (s0 % q, s1 % q, s2 % q, s3 % q)


def _one_coords(O: QOrder, q: int):
    return tuple(x % q for x in O.lattice.int_coords((1, 0, 0, 0)))


def _combine(u, mat) -> tuple[int, ...]:
    """The integer row sum_t u_t mat_t."""
    return tuple(sum(u[t] * mat[t][c] for t in range(4)) for c in range(4))


def matrix_split(O: QOrder, ell: int, precision: int = 1) -> EllAdicFrame:
    """The ell-adic frame of O at n = precision: matrix units of O/ell^n O =
    M2(Z/ell^n), around a rank-1 idempotent of O/ell O = M2(F_ell).

    Scans u over F_ell^4 minus 0 in lexicographic order for one whose
    eigenvalues l1 != l2 lie in F_ell.  As (u - l1)(u - l2) = 0 (Cayley-
    Hamilton), e = (u - l1)/(l2 - l1) is an idempotent other than 0 and 1,
    so of rank 1, and the frame is built around it, at the caller's
    precision.  The scan and the lift of e to ell^n do not depend on the
    precision, so the frames at two precisions agree modulo the coarser
    one.  The quotient is always split for ell != p (the lift of a
    diagonal matrix qualifies), so an exhausted scan indicates a bug.
    """
    p = O.algebra.p
    if ell == p or not numth.is_prime(ell):
        raise PreconditionError("ell must be a prime different from p")
    if not O.is_maximal:
        raise PreconditionError("matrix splitting needs a maximal order")
    one = _one_coords(O, ell)
    lat = O.lattice
    for u in itertools.islice(itertools.product(range(ell), repeat=4), 1, None):
        # trd and nrd of the lift r/den, both integers
        r = _combine(u, lat.mat)
        t, t_rem = divmod(2 * r[0], lat.den)
        n, n_rem = divmod(O.algebra.nrd_coords(r), lat.den * lat.den)
        assert t_rem == 0 and n_rem == 0
        roots = [x for x in range(ell) if (x * x - t * x + n) % ell == 0]
        if len(roots) == 2:
            l1, l2 = roots
            inv = pow(l2 - l1, -1, ell)
            e = tuple(inv * (x - l1 * o) % ell for x, o in zip(u, one))
            return _frame_around(O, ell, precision, e)
    raise AssertionError(f"O/{ell}O has no rank-1 idempotent, yet it is split for {ell} != p")


def ideals_of_norm_ell(O: QOrder, ell: int) -> list[QLattice]:
    """All ell+1 integral left O-ideals of reduced norm ell: the split's
    ball ideals at the points of P^1(F_ell), sorted by canonical lattice
    key, so which splitting the search finds does not show."""
    split = matrix_split(O, ell)
    out = sorted((split.ball_ideal(tree_point_matrix(w, ell), 1)
                  for w in tree_children(None, 1, ell)), key=QLattice.key)
    assert len({I.key() for I in out}) == ell + 1, "norm-ell ideals must be distinct"
    return out


# ---------------------------------------------------------------------------
# the ell-adic frame: the Bruhat-Tits tree around a maximal order


@dataclass(frozen=True)
class EllAdicFrame:
    """Matrix units of O/ell^n O = M2(Z/ell^n): units[a][b] holds the
    coordinates of E_ab in O's basis, reduced mod ell^n.

    Locally at ell, O = End(Z_ell^2), and the maximal orders at distance k
    from O in the Bruhat-Tits tree are the End(P L_k) = P End(L_k) P^-1, for
    L_k = Z_ell + ell^k Z_ell, End(L_k) = [[Z_ell, ell^-k Z_ell],
    [ell^k Z_ell, Z_ell]] and P = tree_point_matrix(w) over the points w of
    P^1(Z/ell^k): P L_k = Z_ell w + ell^k Z_ell^2."""

    order: QOrder
    ell: int
    n: int
    units: tuple  # ((E11, E12), (E21, E22))

    @property
    def modulus(self) -> int:
        return self.ell**self.n

    def mul(self, u, v) -> tuple[int, ...]:
        return _quot_mul(self.order.structure_constants, self.modulus, u, v)

    def check(self) -> None:
        """Assert E11 + E22 = 1 and the 16 relations E_ab E_cd = [b = c] E_ad
        mod ell^n: the one certificate of a split, at every precision.  E11 is
        nonzero mod ell, else E12 = E11 E12, E21 = E21 E11, E22 = E21 E12 and
        1 would vanish too; so the units are independent mod ell (E_1a (sum
        c_ab E_ab) E_b1 = c_ab E11), a basis of O/ell^n O (Nakayama), and
        E_ab -> e_ab is a ring isomorphism onto M2(Z/ell^n)."""
        E, q = self.units, self.modulus
        one = tuple((x + y) % q for x, y in zip(E[0][0], E[1][1]))
        assert one == _one_coords(self.order, q), "E11 + E22 must be 1 mod ell^n"
        for a, b, c, d in itertools.product(range(2), repeat=4):
            want = E[a][d] if b == c else (0, 0, 0, 0)
            assert self.mul(E[a][b], E[c][d]) == want, "matrix-unit relation fails mod ell^n"

    def coords_of(self, X, q: int) -> list[int]:
        """The O-coordinates mod q (a divisor of ell^n) of the element with
        matrix X = ((x11, x12), (x21, x22)), the sum of the x_ab E_ab."""
        (x11, x12), (x21, x22) = X
        (e11, e12), (e21, e22) = self.units
        return [(x11 * a + x12 * b + x21 * c + x22 * d) % q
                for a, b, c, d in zip(e11, e12, e21, e22)]

    def _span(self, gens, m: int, scale: int) -> QLattice:
        """The lattice m O + sum Z g over scale, for the O-coordinates g in
        gens and m a power of ell.  The echelon H of [m I; gens] modulo m
        (not reduced above its pivots) is upper triangular, and so is O's
        mat, so the integer rows H mat are upper triangular too, with
        positive pivots; they lie over den scale, and from_triangular_rows
        reduces them to the canonical HNF, the one reduction they get."""
        lat = self.order.lattice
        (h00, h01, h02, h03), (_, h11, h12, h13), (_, _, h22, h23), (_, _, _, h33) = echelon_mod(
            gens, 4, m)
        (o00, o01, o02, o03), (_, o11, o12, o13), (_, _, o22, o23), (_, _, _, o33) = lat.mat
        rows = [(h00 * o00, h00 * o01 + h01 * o11, h00 * o02 + h01 * o12 + h02 * o22,
                 h00 * o03 + h01 * o13 + h02 * o23 + h03 * o33),
                (0, h11 * o11, h11 * o12 + h12 * o22, h11 * o13 + h12 * o23 + h13 * o33),
                (0, 0, h22 * o22, h22 * o23 + h23 * o33),
                (0, 0, 0, h33 * o33)]
        return QLattice.from_triangular_rows(self.order.algebra, rows, lat.den * scale)

    def ball_order(self, P, k: int) -> QOrder:
        """End(P L_k) for an integer 2x2 matrix P of determinant 1:
        ell^k O + Z e11 + Z e22 + Z e12/ell^k + Z ell^k e21, with
        e_ab = P E_ab P^-1, whose matrix is column a of P times row b of P^-1.

        It is built in O's coordinates mod m = ell^(2k): ell^k End(P L_k) is
        m O plus the span of ell^k e11, ell^k e22 and e12 (ell^(2k) e21 lies
        in m O).  Reducing a generator's coordinates mod m changes it by an
        element of m O, which the span holds, so the lattice and its key do
        not change; the frame knows the units mod ell^n, n >= 2k, which is
        fine enough for that.  Away from ell every generator lies in O and
        ell^k is a unit, so the order is O there."""
        assert 2 * k <= self.n, "the frame is too coarse for this distance"
        s = self.ell**k
        Ov = QOrder(self._span(self._ball_order_gens(P, s), s * s, s))
        assert Ov.is_maximal, f"ball order has discrd {Ov.reduced_discriminant}"
        return Ov

    def _ball_order_gens(self, P, s: int) -> list[list[int]]:
        """The O-coordinates mod s^2 of s e11, s e22 and e12, in one pass over
        the units: e_ab has the matrix with rows (P_1a Pinv_b1, P_1a Pinv_b2)
        and (P_2a Pinv_b1, P_2a Pinv_b2)."""
        m = s * s
        (a, b), (c, d) = P  # P^-1 = ((d, -b), (-c, a))
        ad, bc, ab, cd, ac, aa, cc = a * d, b * c, a * b, c * d, a * c, a * a, c * c
        g1, g2, g3 = [], [], []
        for e11, e12, e21, e22 in zip(*self.units[0], *self.units[1]):
            w = ab * e12 - cd * e21
            g1.append(s * (ad * e11 - bc * e22 - w) % m)
            g2.append(s * (ad * e22 - bc * e11 + w) % m)
            g3.append((aa * e12 - cc * e21 + ac * (e22 - e11)) % m)
        return [g1, g2, g3]

    def ball_ideal(self, P, k: int) -> QLattice:
        """The ideal O diag(ell^k, 1) P^-1 = {x in O : x w = 0 mod ell^k} of
        the point w = P e_1, of norm ell^k, with right order ball_order(P, k).
        It is an ell-neighbour of the ideal of w mod ell^(k-1).

        Locally x w = 0 mod ell^k says that x P has its first column in
        ell^k Z_ell^2, so the ideal is ell^k O + Z E12 P^-1 + Z E22 P^-1: it
        is built in O's coordinates mod ell^k, and reducing a generator's
        coordinates mod ell^k changes it by an element of ell^k O, which the
        ideal holds.  Row 2 of P^-1 is (-c, a) for P = ((a, b), (c, d))."""
        assert k <= self.n, "the frame is too coarse for this distance"
        s = self.ell**k
        (a, _), (c, _) = P
        gens = [self.coords_of(((-c, a), (0, 0)), s), self.coords_of(((0, 0), (-c, a)), s)]
        I = self._span(gens, s, 1)
        assert I.reduced_norm == s, f"ball ideal has norm {I.reduced_norm}, not {s}"
        return I


def _frame_around(O: QOrder, ell: int, n: int, e) -> EllAdicFrame:
    """The checked matrix units mod ell^n around a rank-1 idempotent e of
    O/ell O.  e is lifted by e <- 3e^2 - 2e^3 until e^2 = e mod ell^n: the
    new e^2 - e is (e^2 - e)^2 (4(e^2 - e) - 3), so its ell-adic order
    doubles each round.  Then E11 = e, E22 = 1 - e, E12 = e x E22 and
    E21 = E22 y e / c, with x, y the first basis elements making each
    product nonzero mod ell.  E12 E22 y e lies in e O e, which is spanned
    by e over Z/ell^n, so it is c e, and c is a unit: e O E22 and E22 O e
    are lines mod ell."""
    q = ell**n
    mul = functools.partial(_quot_mul, O.structure_constants, q)
    while (e2 := mul(e, e)) != e:
        e = tuple((3 * a - 2 * b) % q for a, b in zip(e2, mul(e2, e)))
    f = tuple((a - b) % q for a, b in zip(_one_coords(O, q), e))

    def first_nonzero(left, right):
        prods = (mul(mul(left, [int(s == t) for s in range(4)]), right) for t in range(4))
        return next(z for z in prods if any(c % ell for c in z))
    e12, e21 = first_nonzero(e, f), first_nonzero(f, e)
    t = next(t for t in range(4) if e[t] % ell)
    c_inv = pow(mul(e12, e21)[t] * pow(e[t], -1, q), -1, q)
    e21 = tuple(c_inv * x % q for x in e21)
    frame = EllAdicFrame(order=O, ell=ell, n=n, units=((e, e12), (e21, f)))
    frame.check()
    return frame


def tree_point_matrix(point, ell: int) -> tuple:
    """A determinant-1 matrix P whose first column spans the line of the
    point: (0, t) is the line through (1, t), (1, s) the one through
    (ell s, 1)."""
    kind, x = point
    return ((1, 0), (x, 1)) if kind == 0 else ((ell * x, -1), (1, 0))


def tree_children(point, k: int, ell: int) -> list[tuple[int, int]]:
    """The ell points of P^1(Z/ell^k) that reduce to the given point of
    P^1(Z/ell^(k-1)), or the ell + 1 points of P^1(F_ell) for point None.
    A point (0, t) has t mod ell^k, a point (1, s) has s mod ell^(k-1)."""
    if point is None:
        return [(0, t) for t in range(ell)] + [(1, 0)]
    kind, x = point
    step = ell ** (k - 1 - kind)
    return [(kind, x + a * step) for a in range(ell)]


# ---------------------------------------------------------------------------
# equivalence


def _witnesses(I: QLattice, J: QLattice):
    """The alpha = conj(x) y / nrd(x) with I alpha in J, for y J's least
    minimal vector and x over I's minimal vectors, one of each +-pair, as
    integer rows a with alpha = a den_I / (den_J m), m = den_I^2 min(I)."""
    mul = I.algebra.mul_coords
    (m, _), (_, y) = I.minimal_vectors[0], J.minimal_vectors[0]
    for _, x in I.minimal_vectors:
        a = mul((x[0], -x[1], -x[2], -x[3]), y)
        if all(J.int_coords(mul(r, a), J.den * m) is not None for r in I.mat):
            yield a


@functools.lru_cache(maxsize=1)
def _is_left_ideal(J: QLattice, O: QOrder) -> bool:
    """O J in J, remembered for the last (J, O) pair: a class lookup tests
    one J against several representatives in a row, and pays for one check."""
    return J.is_left_module_over(O.lattice)


def is_equivalent(I: QLattice, J: QLattice, O: QOrder):
    """An integer witness (a, s, t) with J = I alpha for alpha = a s / t,
    or None.  a is an integer row, s = den_I and t = den_J m for m = den_I^2
    min(I), as _witnesses forms them; no Fraction is built.

    Needs O_L(J) = O_L(I) = O, I's left order, which must be maximal: then
    O_L(J) = O is O J in J (16 memberships, checked once for consecutive
    calls on one J and O).  x -> x alpha maps I onto I alpha, scaling norms
    by nrd(alpha) and covolumes by nrd(alpha)^2, so minimal vectors onto
    minimal vectors: J = I alpha iff nrd(alpha) = min(J)/min(I) squares to
    covol(J)/covol(I) and one of _witnesses maps I into J.  On integer norms
    m and m_J, and pivot products, the first test reads m_J^2 det(I.mat) =
    m^2 det(J.mat)."""
    if not O.is_maximal:
        raise PreconditionError("equivalence is decided over a maximal left order")
    if not _is_left_ideal(J, O):
        raise PreconditionError("equivalence needs matching left orders")
    m, mj = I.minimal_vectors[0][0], J.minimal_vectors[0][0]
    if mj * mj * I.pivot_product() != m * m * J.pivot_product():
        return None
    a = next(_witnesses(I, J), None)
    return None if a is None else (a, I.den, J.den * m)


def unit_count(J: QLattice) -> int:
    """|O_R(J)^x| / 2, as the number of _witnesses of J = J alpha.  For a
    unit u of O_R(J), y u is minimal in J; conversely, alpha = x^-1 y has
    norm 1 and lies in O_R(J), so is a unit, exactly when J alpha is in J.
    So the +-pairs x that pass are those of y u^-1, one for each +-pair u."""
    return sum(1 for _ in _witnesses(J, J))


def reduce_ideal(I: QLattice, O: QOrder) -> QLattice:
    """I conj(beta) made primitive over O, I's left order: an equivalent
    ideal of small norm.  beta = v / den, the least element of I by (nrd,
    coordinates), heads I's minimal_vectors, so it costs no search once one
    has run on I; I conj(beta) is spanned by the rows r conj(v) over den^2.
    No CLI path calls it; it stays as the tests' oracle and for perfbench's
    tracer, which resolves it by name."""
    mul, (v0, v1, v2, v3) = I.algebra.mul_coords, I.minimal_vectors[0][1]
    rows = [mul(r, (v0, -v1, -v2, -v3)) for r in I.mat]
    return primitive_part(QLattice.from_int_rows(I.algebra, rows, I.den**2), O)
