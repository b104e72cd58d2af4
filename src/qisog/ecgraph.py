"""Curve side: F_p^2 arithmetic, supersingular j-invariant enumeration by
an isogeny walk, classical modular polynomials and the l-isogeny graphs
G(p,l) and their Galois-reduced quotients.

The supersingular j-invariants are found by a breadth-first walk over
G(p,2) from one j known to be supersingular: a curve with complex
multiplication by an order in which p is inert (Deuring).  A curve
2-isogenous to a supersingular curve is supersingular, and G(p,2) is
connected, so the walk finds the whole locus and nothing else.  Its size is
checked against Eichler's class number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import numth
from .errors import PreconditionError
from .multigraph import MultiGraph

# The j-list is checked against an independent point-count oracle at every
# prime up to MAX_P (the slow sweep in tests/test_ecgraph.py); the CM seed
# table itself covers every prime below 15073.
MAX_P = 1000

# (D, j) for the class-number-one discriminants D < -4
CM_SEEDS = ((-7, -3375), (-8, 8000), (-11, -32768), (-19, -884736), (-43, -884736000),
            (-67, -147197952000), (-163, -262537412640768000))


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

    def scalar(self, n: int):
        return (n % self.p, 0)

    def frobenius(self, x):
        return (x[0], (-x[1]) % self.p)

    def sqrt(self, x):
        """A root u + v t of x = a + b t, or None when x is not a square.
        u^2 + c v^2 = a, and the norm s = u^2 - c v^2 squares to N(x), so
        u^2 = (a + s)/2 and v^2 = (a - s)/2c for one sign of s = +-sqrt(N(x));
        2uv = b fixes v's sign.  The root is checked by squaring."""
        p, c, half = self.p, self.c, (self.p + 1) // 2
        a, b = x
        n = numth.sqrt_mod(a * a - c * b * b, p)
        for s in () if n is None else (n, -n):
            u = numth.sqrt_mod((a + s) * half, p)
            v = numth.sqrt_mod((a - s) * half * pow(c, -1, p), p)
            if u is not None and v is not None:
                root = (u, v if 2 * u * v % p == b else -v % p)
                assert self.mul(root, root) == x, "square root check fails"
                return root
        return None


@lru_cache(maxsize=None)
def _field(p: int) -> Fp2:
    return Fp2(p)


def _divide_linear(field: Fp2, f, r):
    """(q, f(r)) with f = (Y - r) q + f(r), by Horner's rule; coefficient
    lists ascend in Y."""
    q, acc = [], (0, 0)
    for c in reversed(f):
        q.append(acc)
        acc = field.add(field.mul(acc, r), c)
    return q[:0:-1], acc


def _seed(p: int) -> int:
    """An integer j that is supersingular mod p: j = 1728 (CM by Z[i]) when
    p = 3 mod 4, j = 0 (CM by Z[zeta_3]) when p = 2 mod 3, else the j of the
    first class-number-one discriminant D with (D/p) = -1, so p is inert in
    O_D.  Such a D exists for every prime p < 15073."""
    if p % 4 == 3:
        return 1728
    if p % 3 == 2:
        return 0
    return next(j for D, j in CM_SEEDS if numth.kronecker(D, p) == -1)


def _other_roots(field: Fp2, f, r0) -> list:
    """The two further roots of a monic cubic f with a root r0 that splits
    over F_p^2: those of the quadratic f / (Y - r0), by one square root."""
    (c0, b, _), rem = _divide_linear(field, f, r0)
    assert rem == (0, 0), "r0 is not a root"
    s = field.sqrt(field.sub(field.mul(b, b), field.mul(field.scalar(4), c0)))
    assert s is not None, "the quadratic does not split over F_p^2"
    half = field.scalar((field.p + 1) // 2)
    return [field.mul(half, field.sub(x, b)) for x in (s, field.sub((0, 0), s))]


def supersingular_j_list(p: int) -> list:
    """All supersingular j-invariants in F_p^2, sorted, found by a
    breadth-first walk over G(p, 2) from a CM seed.  Every j is reached with
    one root r0 of Phi_2(j, Y) known, and its other two are those of
    Phi_2(j, Y) / (Y - r0): r0 is the neighbour it was reached from, or for
    the seed the first root in F_p.  One exists, as Phi_2(seed, Y) is a
    cubic over F_p whose roots all lie in F_p^2."""
    if p > MAX_P:
        raise PreconditionError(f"p > {MAX_P}; raise MAX_P to force")
    field = _field(p)
    phi2 = load_modpoly(2)
    seed = field.scalar(_seed(p))
    f = phi2.eval_poly_in_y(field, seed)
    r0 = next((r for r in map(field.scalar, range(p)) if _divide_linear(field, f, r)[1] == (0, 0)),
              None)
    assert r0 is not None, "Phi_2(seed, Y) has no root in F_p"
    parent, queue = {seed: r0}, [seed]
    for j in queue:
        for r in [parent[j], *_other_roots(field, phi2.eval_poly_in_y(field, j), parent[j])]:
            if r not in parent:
                parent[r] = j
                queue.append(r)
    out = sorted(parent)
    if len(out) != numth.class_number(p):
        raise AssertionError(f"walk found {len(out)} supersingular j at p={p}, not Eichler's count")
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
        return max((a for a, _ in self.coeffs), default=0)

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


def _validate_modpoly(mp: ModPoly, path: Path) -> None:
    """Degree, shape and the mod-ell Kronecker congruence of Phi_ell read
    from path; a failure is a PreconditionError naming the file."""
    ell = mp.ell
    d = ell + 1
    if mp.degree() != d:
        raise PreconditionError(f"{path}: Phi_{ell} has wrong degree {mp.degree()}")
    if mp.coefficient(d, 0) != 1 or mp.coefficient(d, d) != 0:
        raise PreconditionError(f"{path}: Phi_{ell} is not monic of the expected shape")
    # Kronecker congruence: Phi = (X^l - Y)(X - Y^l) = X^(l+1) - X^l Y^l - XY + Y^(l+1) mod l
    expect = {(d, 0): 1, (ell, ell): -1, (1, 1): -1}
    for a in range(d + 1):
        for b in range(a + 1):
            if mp.coefficient(a, b) % ell != expect.get((a, b), 0) % ell:
                raise PreconditionError(
                    f"{path}: Phi_{ell} fails the mod-{ell} congruence at X^{a}Y^{b}")


def _modpoly_dir() -> Path:
    env = os.environ.get("QISOG_MODPOLY_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def _int_fields(path: Path, lineno: int, words: list, count: int) -> list[int]:
    try:
        values = [int(w) for w in words]
    except ValueError:
        values = []
    if len(values) != count:
        raise PreconditionError(f"{path}, line {lineno}: expected {count} integer(s)")
    return values


@lru_cache(maxsize=None)
def load_modpoly(ell: int) -> ModPoly:
    """Phi_ell from phi<ell>.txt: a header line "ell <ell>", then one line
    "a b c" per coefficient c of X^a Y^b with a >= b.  A malformed file is
    a PreconditionError naming the file and the line."""
    path = _modpoly_dir() / f"phi{ell}.txt"
    if not path.exists():
        raise PreconditionError(f"no modular polynomial data for ell={ell} at {path}")
    lines = path.read_text(errors="replace").splitlines()
    header = lines[0].split() if lines else []
    if header[:1] != ["ell"] or _int_fields(path, 1, header[1:], 1) != [ell]:
        raise PreconditionError(f"{path}, line 1: bad header")
    coeffs = {}
    for lineno, line in enumerate(lines[1:], 2):
        if line.strip():
            a, b, c = _int_fields(path, lineno, line.split(), 3)
            if not 0 <= b <= a:
                raise PreconditionError(f"{path}, line {lineno}: file stores 0 <= b <= a only")
            coeffs[(a, b)] = c
    mp = ModPoly(ell=ell, coeffs=coeffs)
    _validate_modpoly(mp, path)
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
            q, rem = _divide_linear(field, work, j)
            if rem != (0, 0):
                break
            work = q
            mult += 1
        if mult:
            out[j] = mult
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
        g.add_vertex(j, j=_fmt(field, j))
    for j in js:
        coeffs = mp.eval_poly_in_y(field, j)
        mults = _root_multiplicities(field, coeffs, js)
        for key, m in mults.items():
            g.add_edge(j, key, count=m)
        if g.out_degree(j) != ell + 1:
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
    cls = {key: min(key, field.frobenius(key)) for key in g.vertices()}
    out = MultiGraph(meta=dict(g.meta) | {"kind": "isogeny-reduced"})
    for key, rep in cls.items():
        if key == rep:
            out.add_vertex(rep, j=_fmt(field, rep))
    for rep in out.vertices():
        for d, rec in g.out_edges(rep).items():
            out.add_edge(rep, cls[d], count=rec["count"])
    return out
