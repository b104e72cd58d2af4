"""Bass orders generated by the two perpendicular maximal quadratic orders,
Eichler symbols, local and global embedding numbers, and a brute-force
enumeration of the maximal orders containing a given order.

The symbol has two independent computation paths: the splitting-behaviour
formula (valid when a maximal quadratic order is known inside), and a
radical computation in the 4-dimensional algebra O/lO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import ideals as idl
from . import numth
from .errors import PreconditionError
from .ideals import QOrder
# frac_inverse has no caller here; perfbench's tracer self-test resolves bass.frac_inverse
from .lattice import (QLattice, echelon_mod, frac_inverse, kernel_mod,  # noqa: F401
                      span_mod, triangular_adjugate)
from .quat import QuatAlgebra


def bass_order(alg: QuatAlgebra) -> QOrder:
    """The order generated by the maximal orders of Q(i) and Q(j).

    Requires at least one of d_i, d_j not congruent to 1 mod 4; otherwise
    the two maximal quadratic orders do not generate an order at all."""
    if alg.d_i % 4 == 1 and alg.d_j % 4 == 1:
        raise PreconditionError(
            "both d_i and d_j are 1 mod 4: the maximal quadratic orders "
            "do not generate an order (s = 0 fails the congruence)"
        )
    (xi, di), (xj, dj) = alg.maximal_quadratic_rows
    O = idl.order_closure(alg, [[c * dj for c in xi], [c * di for c in xj]], di * dj)
    dKi, dKj = alg.fundamental_discriminants
    assert O.reduced_discriminant == dKi * dKj // 4, "discriminant formula violated"
    return O


# ---------------------------------------------------------------------------
# Eichler symbol


@dataclass(frozen=True)
class EichlerSymbol:
    value: int  # -1, 0 or 1

    def __post_init__(self):
        if self.value not in (-1, 0, 1):
            raise PreconditionError("symbol must be -1, 0 or 1")


def eichler_symbol_formula(O: QOrder, ell: int, contained_dK: int) -> EichlerSymbol:
    """Symbol from the splitting of ell in a quadratic field whose maximal
    order lies inside O; only valid for such Bass orders."""
    D = O.reduced_discriminant
    p = O.algebra.p
    if D % ell != 0:
        raise PreconditionError("symbol is only defined at primes dividing discrd")
    if D % (ell * ell) != 0:
        return EichlerSymbol(1 if ell != p else -1)
    return EichlerSymbol(numth.kronecker(contained_dK, ell))


def _radical_bruteforce(table) -> set[tuple[int, ...]]:
    """The radical of O/2O as a set: the x with x b_a nilpotent for every
    basis element b_a.  In dimension 4, z is nilpotent iff z^4 = (z^2)^2 is
    0."""
    def nilpotent(z):
        z2 = idl._quot_mul(table, 2, z, z)
        return not any(idl._quot_mul(table, 2, z2, z2))

    units = [tuple(int(t == a) for t in range(4)) for a in range(4)]
    return {x for x in product(range(2), repeat=4)
            if all(nilpotent(idl._quot_mul(table, 2, x, u)) for u in units)}


def _radical_trace_kernel(O: QOrder, table, ell):
    """Radical as the kernel of the reduced-trace pairing, certified.

    Nilpotents have reduced trace zero, so rad is inside the kernel; the
    kernel is a two-sided ideal by trace cyclicity, and once its fourth
    power is checked to vanish it is a nilpotent ideal, hence inside rad."""
    basis = kernel_mod(O.trace_gram, 4, ell)
    span = list(basis)
    for _ in range(3):  # span <- span * basis, three times: rad^4 must vanish
        span = [idl._quot_mul(table, ell, x, y) for x in span for y in basis]
        span = span_mod(span, 4, ell)
    assert not span, "trace kernel is not nilpotent; not the radical"
    return basis


def eichler_symbol_radical(O: QOrder, ell: int) -> EichlerSymbol:
    """Symbol by classifying A/rad(A) for A = O/ell O.

    At odd ell the radical is the certified trace kernel: the trace form of
    the semisimple quotient is nondegenerate there.  At ell = 2, where
    trd 1 = 2 = 0 makes it degenerate, the radical is found by an
    elementwise nilpotency search over the 16 elements of A."""
    if O.reduced_discriminant % ell != 0:
        raise PreconditionError("symbol is only defined at primes dividing discrd")
    table = idl._mult_table_mod(O, ell)
    if ell == 2:
        rad = _radical_bruteforce(table)
        raddim = len(rad).bit_length() - 1
        assert len(rad) == 1 << raddim, "the nilpotency search found no subspace"
    else:
        raddim = len(_radical_trace_kernel(O, table, ell))
    qdim = 4 - raddim
    if qdim == 4:
        raise PreconditionError("quotient is the full matrix algebra; O is maximal at ell")
    if qdim == 1:
        return EichlerSymbol(0)
    if qdim != 2:
        raise AssertionError(f"semisimple quotient of dimension {qdim} is outside the trichotomy")
    if ell == 2:
        # split iff an idempotent beside 0, 1 exists; 16 candidates
        one = idl._one_coords(O, 2)
        for x in product(range(2), repeat=4):
            if idl._quot_mul(table, 2, x, x) == x and any(x) and x != one and x not in rad:
                return EichlerSymbol(1)
        return EichlerSymbol(-1)
    # an order element with non-scalar image generates the 2-dimensional
    # etale quotient; split iff its characteristic discriminant is a square
    for r in O.lattice.mat:
        disc = basis_row_discriminant(O, r) % ell
        if disc:
            return EichlerSymbol(numth.kronecker(disc, ell))
    raise AssertionError("no generator of the semisimple quotient among the basis")


def basis_row_discriminant(O: QOrder, r) -> int:
    """trd(b)^2 - 4 nrd(b) for b = r / den in O: 4 (r0^2 - nrd(r)) / den^2,
    exact since trd and nrd are integral on an order."""
    disc, rem = divmod(4 * (r[0] * r[0] - O.algebra.nrd_coords(r)), O.lattice.den ** 2)
    assert rem == 0, "trd^2 - 4 nrd of an order element is not integral"
    return disc


def eichler_symbol(O: QOrder, ell: int, contained_dK: int) -> EichlerSymbol:
    """The formula path, for O holding the maximal order of a quadratic
    field of discriminant contained_dK, checked against the radical
    oracle."""
    sym = eichler_symbol_formula(O, ell, contained_dK)
    assert eichler_symbol_radical(O, ell) == sym, "symbol paths disagree"
    return sym


def _contained_dK(O: QOrder) -> int:
    """Fundamental discriminant of a quadratic subfield whose maximal order
    sits inside O: one of the two standard ones must."""
    alg = O.algebra
    for (x, xden), dK in zip(alg.maximal_quadratic_rows, alg.fundamental_discriminants):
        if O.lattice.int_coords(x, xden) is not None:
            return dK
    raise PreconditionError("O holds neither standard maximal quadratic order")


def _local_number(sym: int, v: int) -> int:
    """Local maximal orders above an order at a prime ell != p dividing its
    discrd exactly v times, from the Eichler symbol at ell."""
    return v + 1 if sym == 1 else (2 if sym == 0 else 1)


def embedding_numbers(O: QOrder) -> tuple[dict[int, int], dict[int, int], int]:
    """Eichler symbol and local embedding number at every prime dividing
    discrd, and the global embedding number; each symbol is computed, with
    its cross-check, once."""
    fac = numth.factorize(O.reduced_discriminant)
    dK = _contained_dK(O)
    syms = {ell: eichler_symbol(O, ell, dK).value for ell in sorted(fac)}
    locs = {ell: 1 if ell == O.algebra.p else _local_number(s, fac[ell])
            for ell, s in syms.items()}
    return syms, locs, math.prod(locs.values())


# ---------------------------------------------------------------------------
# superorder oracle


def _sublattice_hnfs(index: int, gram):
    """Upper-triangular HNF bases H of the sublattices of Z^4 of the given
    index, a prime power, whose row lattice contains every row of the
    integer matrix gram.

    Such a lattice contains index Z^4, so it holds gram's rows exactly when
    it holds those of M, the echelon of gram's rows and index I modulo the
    index; only M's pivots and the membership of its rows are read, and
    neither depends on how far M is reduced above its pivots.  A vector
    that vanishes before column t meets H only through rows t..3, so H
    holds M exactly when, for each t, row t of M lies in the span of rows
    t..3 of H.
    H is therefore built from the bottom, t = 3 down to 0: pivot d_t divides
    both M[t][t] and the index left, and row t of M is tested as soon as
    row t of H is fixed."""
    M = echelon_mod(gram, 4, index)
    H = [[0] * 4 for _ in range(4)]

    def holds(t):
        # row t of M, less its multiples of rows t..3 of H, column by column
        v = list(M[t])
        for s in range(t, 4):
            c, r = divmod(v[s], H[s][s])
            if r:
                return False
            if c:
                for u in range(s + 1, 4):
                    v[u] -= c * H[s][u]
        return True

    def rows_from(t, rem):
        if t < 0:
            yield [list(row) for row in H]
            return
        for d in range(1, rem + 1) if t else (rem,):
            if rem % d or M[t][t] % d:
                continue
            H[t][t] = d
            for vals in product(*[range(H[c][c]) for c in range(t + 1, 4)]):
                H[t][t + 1:] = vals
                if holds(t):
                    yield from rows_from(t - 1, rem // d)

    yield from rows_from(3, index)


def _trace_integral(X, G, nn: int) -> bool:
    """Whether X^T G X = 0 mod nn: with G the trace Gram of O and the
    columns of X over sqrt(nn) the O-coordinates of a basis, whether trd is
    integral on the products of that basis."""
    cols = list(zip(*X))
    GX = [[g0 * x0 + g1 * x1 + g2 * x2 + g3 * x3 for g0, g1, g2, g3 in G]
          for x0, x1, x2, x3 in cols]
    return not any((x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3) % nn
                   for a, (x0, x1, x2, x3) in enumerate(cols) for y0, y1, y2, y3 in GX[a:])


def _superorders_at(O: QOrder, index: int) -> list[QOrder]:
    """Orders containing O with the given index, by dualizing the HNF
    enumeration of sublattices of that index.

    An order O' containing O lies in O'^#, inside O^#.  In O's coordinates
    O^# is Z^4 G^-1, with G = (trd(b_a b_b)) the integer trace Gram, and the
    candidate dual to H is spanned by the rows of H^-T; so it lies in O^#
    exactly when G H^-1 is integral, i.e. when the rows of G lie in the row
    lattice of H.  Only those H are generated, each once; distinct H have
    distinct duals.  The enumeration is finite: at index l^v there are
    h_v(1, l, l^2, l^3) HNFs in all (the complete homogeneous polynomial of
    degree v; Lubotzky-Segal, Subgroup Growth, 2003), 40 at 3, 1395 at 8,
    1464 at 11.

    The candidate's basis is the columns of X = adj(H) over index, and an
    order has integral trd on products, so a candidate with X^T G X not 0
    mod index^2 is no order and is dropped before the lattice is built; the
    rest take the containment and ring tests."""
    out = []
    mat, G, nn = O.lattice.mat, O.trace_gram, index * index
    for H in _sublattice_hnfs(index, G):
        X = triangular_adjugate(H)  # index H^-1, as det(H) = index
        if not _trace_integral(X, G, nn):
            continue
        rows = [[sum(X[t][c] * mat[t][s] for t in range(c + 1)) for s in range(4)]
                for c in range(4)]
        L = QLattice.from_int_rows(O.algebra, rows, O.lattice.den * index)
        if not L.contains_lattice(O.lattice):
            continue
        try:
            order = QOrder(L)  # runs the ring test
        except PreconditionError:
            continue
        out.append(order)
    return out


def enumerate_maximal_superorders(O: QOrder) -> list[QOrder]:
    """All maximal orders containing O, prime by prime: at each ell | f the
    candidates are index-ell^v superorders, and maximality is certified by
    the discriminant."""
    p = O.algebra.p
    f, rem = divmod(O.reduced_discriminant, p)
    if rem:
        raise PreconditionError("discrd must be divisible by p")
    current = [O]
    for ell, v in sorted(numth.factorize(f).items()):
        current = list({S.key(): S for cand in current
                        for S in _superorders_at(cand, ell**v)}.values())
    out = [cand for cand in current if cand.reduced_discriminant == p]
    assert all(cand.contains_order(O) for cand in out)
    return sorted(out, key=lambda c: c.key())
