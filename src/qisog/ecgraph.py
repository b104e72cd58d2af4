"""Curve side: F_p^2 arithmetic, supersingular j-invariant enumeration by
point counting, classical modular polynomials and the l-isogeny graphs
G(p,l) and their Galois-reduced quotients.

Supersingularity of a candidate j is always decided by an exhaustive point
count over F_p^2: a curve with that j-invariant is supersingular iff it has
(p-1)^2 or (p+1)^2 points.  Candidates come from the Legendre family, whose
supersingular parameters are the roots of the degree-(p-1)/2 Hasse
polynomial; every isomorphism class has a Legendre model, so no j is missed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import numth
from .errors import PreconditionError
from .multigraph import MultiGraph

MAX_P = 1000  # point counting is O(p^2) per candidate


# ---------------------------------------------------------------------------
# the quadratic extension


class Fp2:
    """F_p(t) with t^2 = c for the smallest positive non-residue c.

    Elements are pairs (a, b) of ints mod p meaning a + b t; the Frobenius
    is (a, b) -> (a, -b).
    """

    def __init__(self, p: int):
        if p <= 3 or not numth.is_prime(p):
            raise PreconditionError("p must be a prime > 3")
        self.p = p
        self.c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def mul(self, x, y):
        p, c = self.p, self.c
        return ((x[0] * y[0] + c * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def neg(self, x):
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def inv(self, x):
        p, c = self.p, self.c
        n = (x[0] * x[0] - c * x[1] * x[1]) % p
        if n == 0:
            raise ZeroDivisionError
        ni = pow(n, -1, p)
        return (x[0] * ni % p, (-x[1]) * ni % p)

    def scalar(self, n: int):
        return (n % self.p, 0)

    def frobenius(self, x):
        return (x[0], (-x[1]) % self.p)

    def in_prime_field(self, x) -> bool:
        return x[1] == 0

    def key(self, x):
        return (x[0], x[1])

    # -- batch tables over the whole field -----------------------------------

    @property
    def _all(self):
        if not hasattr(self, "_all_cache"):
            p = self.p
            A, B = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
            self._all_cache = (A.ravel().astype(np.int64), B.ravel().astype(np.int64))
        return self._all_cache

    @property
    def chi_table(self):
        """chi[a*p+b] in {-1,0,1}: quadratic character of a + b t."""
        if not hasattr(self, "_chi_cache"):
            p, c = self.p, self.c
            A, B = self._all
            SA = (A * A + c * B * B) % p
            SB = (2 * A * B) % p
            chi = np.full(p * p, -1, dtype=np.int64)
            chi[SA * p + SB] = 1
            chi[0] = 0
            self._chi_cache = chi
        return self._chi_cache

    def count_points(self, a, b) -> int:
        """#E(F_p^2) for y^2 = x^3 + a x + b by a full character sum."""
        p, c = self.p, self.c
        A, B = self._all
        # f(x) = x^3 + a x + b over all x = A + B t
        XA, XB = A, B
        X2A = (XA * XA + c * XB * XB) % p
        X2B = (2 * XA * XB) % p
        X3A = (X2A * XA + c * X2B * XB) % p
        X3B = (X2A * XB + X2B * XA) % p
        FA = (X3A + a[0] * XA + c * a[1] * XB + b[0]) % p
        FB = (X3B + a[0] * XB + a[1] * XA + b[1]) % p
        return int(p * p + 1 + self.chi_table[FA * p + FB].sum())


@lru_cache(maxsize=None)
def _field(p: int) -> Fp2:
    return Fp2(p)


def curve_from_j(field: Fp2, j):
    """Short Weierstrass coefficients (a, b) with the given j-invariant."""
    if j == field.scalar(0):
        return field.scalar(0), field.scalar(1)
    if j == field.scalar(1728):
        return field.scalar(1), field.scalar(0)
    m = field.mul(j, field.sub(field.scalar(1728), j))  # j(1728 - j)
    a = field.mul(field.scalar(3), m)
    b = field.mul(field.scalar(2), field.mul(m, field.sub(field.scalar(1728), j)))
    return a, b


def is_supersingular_j(field: Fp2, j) -> bool:
    a, b = curve_from_j(field, j)
    n = field.count_points(a, b)
    p = field.p
    return n in ((p - 1) ** 2, (p + 1) ** 2)


def _hasse_lambda_roots(field: Fp2):
    """Roots in F_p^2 of H_p(x) = sum binom(m,i)^2 x^i, m = (p-1)/2,
    found by a vectorized Horner scan over the whole field."""
    p, c = field.p, field.c
    m = (p - 1) // 2
    coeffs = [1]
    for i in range(1, m + 1):
        coeffs.append(coeffs[-1] * (m - i + 1) // i)
    coeffs = [co * co % p for co in coeffs]  # degree m, ascending
    A, B = field._all
    RA = np.zeros(p * p, dtype=np.int64)
    RB = np.zeros(p * p, dtype=np.int64)
    for co in reversed(coeffs):
        RA, RB = (RA * A + c * RB * B + co) % p, (RA * B + RB * A) % p
    hits = np.nonzero((RA == 0) & (RB == 0))[0]
    return [(int(h) // p, int(h) % p) for h in hits]


def _j_from_lambda(field: Fp2, lam):
    one = field.scalar(1)
    l2 = field.mul(lam, lam)
    num = field.add(field.sub(l2, lam), one)  # λ^2 - λ + 1
    num3 = field.mul(field.mul(num, num), num)
    den = field.mul(l2, field.mul(field.sub(lam, one), field.sub(lam, one)))
    return field.mul(field.scalar(256), field.mul(num3, field.inv(den)))


def supersingular_j_list(p: int) -> list:
    """All supersingular j-invariants in F_p^2, canonically sorted.

    Candidates from the Legendre parameterization, each decided by the
    point-count criterion.
    """
    if p > MAX_P:
        raise PreconditionError(f"p > {MAX_P}; raise MAX_P to force")
    field = _field(p)
    js = {}
    for lam in _hasse_lambda_roots(field):
        if lam in ((0, 0), (1, 0)):  # degenerate Legendre parameters
            continue
        j = _j_from_lambda(field, lam)
        js[field.key(j)] = j
    out = []
    for key in sorted(js):
        j = js[key]
        if not is_supersingular_j(field, j):
            raise AssertionError(f"Hasse root mapped to ordinary j={j} at p={p}")
        out.append(j)
    return out


# ---------------------------------------------------------------------------
# modular polynomials


@dataclass(frozen=True)
class ModPoly:
    ell: int
    coeffs: dict  # (a, b) with a >= b -> integer coefficient

    def coefficient(self, a: int, b: int) -> int:
        if a < b:
            a, b = b, a
        return self.coeffs.get((a, b), 0)

    def degree(self) -> int:
        return max(a for a, _ in self.coeffs)

    def eval_poly_in_y(self, field: Fp2, j):
        """Coefficients of Phi(j, Y) over F_p^2, ascending in Y."""
        d = self.ell + 1
        jpow = [field.scalar(1)]
        for _ in range(d):
            jpow.append(field.mul(jpow[-1], j))
        out = [field.scalar(0)] * (d + 1)
        for (a, b), c in self.coeffs.items():
            pairs = {(a, b), (b, a)}
            for (xa, yb) in pairs:
                term = field.mul(field.scalar(c % field.p), jpow[xa])
                out[yb] = field.add(out[yb], term)
        return out


def _validate_modpoly(mp: ModPoly) -> None:
    ell = mp.ell
    d = ell + 1
    if mp.degree() != d:
        raise PreconditionError(f"Phi_{ell} has wrong degree {mp.degree()}")
    if mp.coefficient(d, 0) != 1 or mp.coefficient(d, d) != 0:
        raise PreconditionError(f"Phi_{ell} is not monic of the expected shape")
    # Kronecker congruence: Phi = (X^l - Y)(X - Y^l) = X^(l+1) - X^l Y^l - XY + Y^(l+1) mod l
    expect = {(d, 0): 1, (ell, ell): -1, (1, 1): -1}
    for a in range(d + 1):
        for b in range(a + 1):
            if mp.coefficient(a, b) % ell != expect.get((a, b), 0) % ell:
                raise PreconditionError(f"Phi_{ell} fails the mod-{ell} congruence at X^{a}Y^{b}")


def _modpoly_dir() -> Path:
    env = os.environ.get("QISOG_MODPOLY_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


@lru_cache(maxsize=None)
def load_modpoly(ell: int) -> ModPoly:
    path = _modpoly_dir() / f"phi{ell}.txt"
    if not path.exists():
        raise PreconditionError(f"no modular polynomial data for ell={ell} at {path}")
    coeffs = {}
    with open(path) as fh:
        header = fh.readline().split()
        if header[:1] != ["ell"] or int(header[1]) != ell:
            raise PreconditionError(f"bad header in {path}")
        for line in fh:
            if not line.strip():
                continue
            a, b, c = line.split()
            a, b, c = int(a), int(b), int(c)
            if a < b:
                raise PreconditionError("file stores a >= b only")
            coeffs[(a, b)] = c
    mp = ModPoly(ell=ell, coeffs=coeffs)
    _validate_modpoly(mp)
    return mp


# ---------------------------------------------------------------------------
# graphs


def _root_multiplicities(field: Fp2, coeffs, candidates):
    """Multiplicity of each candidate as a root; asserts the polynomial
    splits completely over the candidate list."""
    out = {}
    work = list(coeffs)
    deg = len(work) - 1
    for j in candidates:
        mult = 0
        while len(work) > 1:
            # synthetic division by (Y - j): quotient q, remainder acc
            q = [None] * (len(work) - 1)
            acc = work[-1]
            for t in range(len(work) - 2, -1, -1):
                q[t] = acc
                acc = field.add(work[t], field.mul(acc, j))
            if acc != field.scalar(0):
                break
            work = q
            mult += 1
        if mult:
            out[field.key(j)] = mult
    total = sum(out.values())
    if total != deg:
        raise AssertionError("modular polynomial does not split over the supersingular set")
    return out


def build_isogeny_graph(p: int, ell: int) -> MultiGraph:
    """G(p, l): vertices are supersingular j-invariants, edge j -> j' with
    the multiplicity of j' as a root of Phi_l(j, Y)."""
    if ell == p:
        raise PreconditionError("ell must differ from p")
    mp = load_modpoly(ell)
    field = _field(p)
    js = supersingular_j_list(p)
    g = MultiGraph(meta={"p": p, "ell": ell, "kind": "isogeny"})
    for j in js:
        g.add_vertex(field.key(j), j=_fmt(field, j))
    for j in js:
        coeffs = mp.eval_poly_in_y(field, j)
        mults = _root_multiplicities(field, coeffs, js)
        for key, m in mults.items():
            g.add_edge(field.key(j), key, count=m)
        if g.out_degree(field.key(j)) != ell + 1:
            raise AssertionError("out-degree must be ell + 1")
    return g


def _fmt(field: Fp2, x) -> str:
    if x[1] == 0:
        return str(x[0])
    return f"{x[0]}+{x[1]}t"


def reduce_graph(g: MultiGraph) -> MultiGraph:
    """Quotient of G(p, l) identifying j with j^p; edges are those of one
    representative per class, targets projected."""
    p = g.meta["p"]
    field = _field(p)
    cls = {}
    for key in g.vertices():
        conj = field.key(field.frobenius(key))
        rep = min(key, conj)
        cls[key] = rep
    out = MultiGraph(meta=dict(g.meta) | {"kind": "isogeny-reduced"})
    for key, rep in cls.items():
        if key == rep:
            out.add_vertex(rep, j=_fmt(field, rep))
    for rep in out.vertices():
        for d, rec in g.out_edges(rep).items():
            out.add_edge(rep, cls[d], count=rec["count"])
    return out
